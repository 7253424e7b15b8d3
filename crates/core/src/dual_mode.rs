//! Dual-mode (precise/imprecise) multiplier — the thesis' stated future
//! work: *"integrating the 'precise' mode into the floating point
//! multiplier and developing an automatic quality tuning model for
//! applications that are partially error tolerant"* (Chapter 6).
//!
//! A [`DualModeMul`] carries both datapaths: the IEEE-754 multiplier and
//! an accuracy-configurable Mitchell multiplier, selected per operation
//! by a [`MulMode`]. Partially error tolerant applications (the thesis'
//! example is RayTracing, whose surface-normal chains need precision
//! while shading does not) route each *site* through the matching mode;
//! the automatic site-tuning loop lives in `gpu_sim::tuner::tune_sites`.
//!
//! ```
//! use ihw_core::dual_mode::{DualModeMul, MulMode};
//! use ihw_core::ac_multiplier::{AcMulConfig, MulPath};
//!
//! let m = DualModeMul::new(AcMulConfig::new(MulPath::Full, 0));
//! assert_eq!(m.mul32(1.5, 1.5, MulMode::Precise), 2.25);
//! assert_eq!(m.mul32(1.5, 1.5, MulMode::Imprecise), 2.25); // full path exact here
//! assert_eq!(m.mul32(1.3, 1.7, MulMode::Precise), 1.3 * 1.7);
//! ```

use crate::ac_multiplier::AcMulConfig;

/// Per-operation mode of a dual-mode multiplier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MulMode {
    /// IEEE-754 datapath.
    Precise,
    /// The configured accuracy-configurable datapath.
    Imprecise,
}

/// A multiplier with both datapaths integrated, selectable per call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DualModeMul {
    /// Configuration of the imprecise datapath.
    pub imprecise: AcMulConfig,
}

impl DualModeMul {
    /// Creates a dual-mode multiplier around the given imprecise
    /// configuration.
    pub const fn new(imprecise: AcMulConfig) -> Self {
        DualModeMul { imprecise }
    }

    /// Single precision multiply in the selected mode.
    #[inline]
    pub fn mul32(&self, a: f32, b: f32, mode: MulMode) -> f32 {
        match mode {
            MulMode::Precise => a * b,
            MulMode::Imprecise => self.imprecise.mul32(a, b),
        }
    }

    /// Double precision multiply in the selected mode.
    #[inline]
    pub fn mul64(&self, a: f64, b: f64, mode: MulMode) -> f64 {
        match mode {
            MulMode::Precise => a * b,
            MulMode::Imprecise => self.imprecise.mul64(a, b),
        }
    }

    /// Relative power of the dual-mode unit versus a pure DWIP
    /// multiplier, given the fraction of operations that run imprecise.
    ///
    /// Both datapaths exist on die, so the precise-mode power carries a
    /// small mux/control overhead ([`DUAL_MODE_OVERHEAD`]) and the idle
    /// datapath's leakage; the imprecise-mode power is the Mitchell
    /// datapath's plus the same overhead.
    ///
    /// # Panics
    ///
    /// Panics unless `imprecise_fraction` is within `[0, 1]`.
    // ihw-lint: allow(float-arith) reason=power-model blend of precise and imprecise op energies, reporting only
    pub fn relative_power(&self, imprecise_fraction: f64, imprecise_relative: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&imprecise_fraction),
            "fraction must lie in [0, 1]"
        );
        let precise_mode = 1.0 + DUAL_MODE_OVERHEAD;
        let imprecise_mode = imprecise_relative + DUAL_MODE_OVERHEAD;
        imprecise_fraction * imprecise_mode + (1.0 - imprecise_fraction) * precise_mode
    }
}

/// Mux/control/idle-leakage overhead of carrying both datapaths,
/// relative to the DWIP multiplier's power.
pub const DUAL_MODE_OVERHEAD: f64 = 0.05;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ac_multiplier::MulPath;

    fn unit() -> DualModeMul {
        DualModeMul::new(AcMulConfig::new(MulPath::Log, 19))
    }

    #[test]
    fn precise_mode_is_exact() {
        let m = unit();
        for &(a, b) in &[(1.3f32, 1.7), (0.1, 0.2), (-3.5, 2.0)] {
            assert_eq!(m.mul32(a, b, MulMode::Precise), a * b);
        }
        assert_eq!(m.mul64(1.3, 1.7, MulMode::Precise), 1.3 * 1.7);
    }

    #[test]
    fn imprecise_mode_matches_ac_multiplier() {
        let m = unit();
        let cfg = AcMulConfig::new(MulPath::Log, 19);
        for &(a, b) in &[(1.3f32, 1.7), (100.0, 0.01), (-3.5, 2.0)] {
            assert_eq!(
                m.mul32(a, b, MulMode::Imprecise).to_bits(),
                cfg.mul32(a, b).to_bits()
            );
        }
    }

    #[test]
    fn blended_power_model() {
        let m = unit();
        // All precise: overhead only.
        assert!((m.relative_power(0.0, 0.04) - 1.05).abs() < 1e-12);
        // All imprecise: Mitchell path + overhead.
        assert!((m.relative_power(1.0, 0.04) - 0.09).abs() < 1e-12);
        // Power decreases monotonically with the imprecise fraction.
        let mut prev = f64::INFINITY;
        for i in 0..=10 {
            let p = m.relative_power(i as f64 / 10.0, 0.04);
            assert!(p < prev);
            prev = p;
        }
    }

    #[test]
    #[should_panic(expected = "fraction must lie in [0, 1]")]
    fn rejects_bad_fraction() {
        let _ = unit().relative_power(1.5, 0.04);
    }
}
