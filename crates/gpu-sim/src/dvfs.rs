//! Dynamic voltage/frequency scaling model — used to demonstrate the
//! paper's closing claim that *"the use of IHW is orthogonal to DVFS,
//! power gating, and other … power optimization techniques, and can be
//! combined with these techniques to further reduce the power
//! consumption"* (Abstract; Chapter 6).
//!
//! The classic first-order CMOS model: dynamic power scales as `V²·f`,
//! leakage roughly as `V`, and the achievable frequency scales with the
//! voltage (the model exposes the V–f pairs as named operating points).
//! IHW changes *what* each operation costs; DVFS changes the *rate and
//! voltage* everything runs at — the savings compose multiplicatively:
//!
//! ```text
//! P(IHW + DVFS) = P_base · (1 − s_ihw) · (V/V₀)² · (f/f₀)
//! ```
//!
//! ```
//! use gpu_sim::dvfs::DvfsPoint;
//!
//! let low = DvfsPoint::scaled(0.85, 0.7); // −15% V, −30% f
//! // Dynamic power drops to 0.85² × 0.7 ≈ 51%.
//! assert!((low.dynamic_power_factor() - 0.50575).abs() < 1e-9);
//! ```

/// An operating point: voltage and frequency relative to nominal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsPoint {
    /// Supply voltage relative to nominal (1.0 = nominal).
    pub voltage: f64,
    /// Clock frequency relative to nominal (1.0 = nominal).
    pub frequency: f64,
}

impl DvfsPoint {
    /// The nominal operating point.
    pub const NOMINAL: DvfsPoint = DvfsPoint {
        voltage: 1.0,
        frequency: 1.0,
    };

    /// Creates a scaled operating point.
    ///
    /// # Panics
    ///
    /// Panics unless both factors are in `(0, 1.2]` and the frequency
    /// does not exceed what the voltage supports (first-order:
    /// `f ≤ V`, the near-linear region above threshold).
    pub fn scaled(voltage: f64, frequency: f64) -> Self {
        assert!(
            voltage > 0.0 && voltage <= 1.2,
            "voltage factor out of range"
        );
        assert!(
            frequency > 0.0 && frequency <= 1.2,
            "frequency factor out of range"
        );
        assert!(
            frequency <= voltage + 1e-9,
            "frequency {frequency} unsupported at voltage {voltage}"
        );
        DvfsPoint { voltage, frequency }
    }

    /// Dynamic power factor `V²·f`.
    pub fn dynamic_power_factor(&self) -> f64 {
        self.voltage * self.voltage * self.frequency
    }

    /// Leakage power factor (first-order linear in `V`).
    pub fn leakage_factor(&self) -> f64 {
        self.voltage
    }

    /// Runtime factor for a compute-bound kernel (`1/f`).
    pub fn runtime_factor(&self) -> f64 {
        1.0 / self.frequency
    }

    /// Energy factor for a fixed amount of work: `V²` dynamic energy
    /// (power × time) — frequency cancels for the dynamic part.
    pub fn dynamic_energy_factor(&self) -> f64 {
        self.voltage * self.voltage
    }
}

impl Default for DvfsPoint {
    fn default() -> Self {
        Self::NOMINAL
    }
}

/// Combined whole-GPU power factor for IHW + DVFS, applied to a baseline
/// power split into dynamic and leakage shares.
///
/// `ihw_system_savings` is the Figure-12 estimate (a *dynamic* power
/// reduction: imprecise units switch less capacitance per op).
///
/// # Panics
///
/// Panics unless `ihw_system_savings ∈ [0, 1]` and
/// `dynamic_share ∈ [0, 1]`.
pub fn combined_power_factor(ihw_system_savings: f64, point: DvfsPoint, dynamic_share: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&ihw_system_savings),
        "savings out of range"
    );
    assert!(
        (0.0..=1.0).contains(&dynamic_share),
        "dynamic share out of range"
    );
    let dynamic = dynamic_share * (1.0 - ihw_system_savings) * point.dynamic_power_factor();
    let leakage = (1.0 - dynamic_share) * point.leakage_factor();
    dynamic + leakage
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_is_identity() {
        let p = DvfsPoint::NOMINAL;
        assert_eq!(p.dynamic_power_factor(), 1.0);
        assert_eq!(p.leakage_factor(), 1.0);
        assert_eq!(p.runtime_factor(), 1.0);
        assert_eq!(combined_power_factor(0.0, p, 0.8), 1.0);
    }

    #[test]
    fn cubic_power_scaling() {
        // V = f = 0.8: dynamic power falls to 0.8³ = 51.2%.
        let p = DvfsPoint::scaled(0.8, 0.8);
        assert!((p.dynamic_power_factor() - 0.512).abs() < 1e-12);
        assert!((p.runtime_factor() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn ihw_and_dvfs_compose_multiplicatively() {
        // HotSpot's 32% IHW savings on an 80%-dynamic GPU, plus a mild
        // DVFS step, beats either technique alone.
        let dvfs = DvfsPoint::scaled(0.9, 0.85);
        let ihw_only = combined_power_factor(0.32, DvfsPoint::NOMINAL, 0.8);
        let dvfs_only = combined_power_factor(0.0, dvfs, 0.8);
        let both = combined_power_factor(0.32, dvfs, 0.8);
        assert!(both < ihw_only, "{both} < {ihw_only}");
        assert!(both < dvfs_only, "{both} < {dvfs_only}");
        // Orthogonality: the combined dynamic term is exactly the product
        // of the individual dynamic reductions.
        let dyn_both = 0.8 * (1.0 - 0.32) * dvfs.dynamic_power_factor();
        assert!((both - (dyn_both + 0.2 * 0.9)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "unsupported at voltage")]
    fn frequency_needs_voltage() {
        let _ = DvfsPoint::scaled(0.7, 0.9);
    }

    #[test]
    #[should_panic(expected = "savings out of range")]
    fn validates_savings() {
        let _ = combined_power_factor(1.5, DvfsPoint::NOMINAL, 0.8);
    }

    #[test]
    fn energy_for_fixed_work() {
        // Slowing the clock alone does not save energy on fixed work;
        // lowering voltage does (quadratically).
        let slow = DvfsPoint::scaled(1.0, 0.5);
        assert_eq!(slow.dynamic_energy_factor(), 1.0);
        let low_v = DvfsPoint::scaled(0.7, 0.5);
        assert!((low_v.dynamic_energy_factor() - 0.49).abs() < 1e-12);
    }
}
