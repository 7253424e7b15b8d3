//! The embedded 45 nm synthesis library.
//!
//! The paper obtains non-functional metrics by synthesizing every IHW unit
//! and its Synopsys DesignWare IP (DWIP) counterpart with Design Compiler
//! and Encounter, measuring post-layout SPICE power in HSIM (Figure 11).
//! That toolchain is proprietary, so this module embeds a *calibrated
//! library*: the published numbers (Tables 2, 3, 4) are stored directly,
//! and the DWIP absolute baselines that the thesis does not publish are
//! filled with documented estimates chosen to be consistent with the
//! published multiplier (Table 4) and integer-unit (Table 3) absolutes.
//! Every normalized metric in Table 2 is reproduced exactly.

use crate::metrics::{NormalizedMetrics, UnitMetrics};
use ihw_core::config::FpOp;

/// Precision of a synthesized unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 32-bit (single precision) units.
    Single,
    /// 64-bit (double precision) units.
    Double,
}

/// Table 2 normalized metrics (power, latency, area) per unit: the
/// published post-layout ratios `IHW / DWIP`, lower is better.
/// Energy and EDP follow from `power × latency` and `energy × latency`.
const TABLE2_NORMALIZED: [(FpOp, f64, f64, f64); 9] = [
    (FpOp::Add, 0.31, 0.74, 0.39),
    (FpOp::Mul, 0.040, 0.218, 0.103),
    (FpOp::Div, 0.84, 0.85, 0.64),
    (FpOp::Rcp, 0.20, 0.34, 0.25),
    (FpOp::Rsqrt, 0.061, 0.109, 0.087),
    (FpOp::Sqrt, 1.16, 0.33, 1.04),
    (FpOp::Log2, 0.30, 0.79, 0.36),
    // iexp2 is this reproduction's extension unit; its ratios are our own
    // synthesis-style estimate mirroring the ilog2 datapath.
    (FpOp::Exp2, 0.30, 0.79, 0.36),
    (FpOp::Fma, 0.08, 0.70, 0.14),
];

/// The complete synthesis-result matrix ("`init_syn_res`" in the Figure 12
/// pseudo-code): absolute DWIP and IHW metrics for every operation class.
#[derive(Debug, Clone)]
pub struct SynthesisLibrary {
    single: Vec<(FpOp, UnitMetrics, UnitMetrics)>, // (op, dwip, ihw)
}

impl SynthesisLibrary {
    /// The calibrated 45 nm FreePDK library.
    ///
    /// DWIP absolutes: the 32-bit FP multiplier is the published
    /// `DW_fp_mult_32` (36.63 mW, 1.7 ns, 19551.5 µm² — Table 4); the rest
    /// are engineering estimates consistent with that scale (documented in
    /// DESIGN.md §3). IHW absolutes are `DWIP × Table 2 ratio`, so all
    /// normalized metrics match the paper bit-for-bit.
    pub fn cmos45() -> Self {
        let dwip = |op: FpOp| -> UnitMetrics {
            match op {
                // Published (Table 4).
                FpOp::Mul => UnitMetrics::new(36.63, 1.7, 19551.5),
                // Estimates: an IEEE-754 SP adder (compare/align/round
                // datapath) runs at roughly a third of the multiplier's
                // power; SFU pipelines (iterative NR datapaths) sit
                // between them; the FMA approximates mul + add.
                FpOp::Add => UnitMetrics::new(12.2, 2.0, 9800.0),
                FpOp::Div => UnitMetrics::new(21.5, 3.6, 26800.0),
                FpOp::Rcp => UnitMetrics::new(12.4, 2.9, 15400.0),
                FpOp::Rsqrt => UnitMetrics::new(15.8, 3.1, 18900.0),
                FpOp::Sqrt => UnitMetrics::new(14.2, 3.3, 17600.0),
                FpOp::Log2 => UnitMetrics::new(10.6, 2.6, 13200.0),
                FpOp::Exp2 => UnitMetrics::new(10.6, 2.6, 13200.0),
                FpOp::Fma => UnitMetrics::new(40.2, 2.3, 24100.0),
            }
        };
        let single = FpOp::ALL
            .iter()
            .map(|&op| {
                let base = dwip(op);
                let (_, pn, ln, an) = TABLE2_NORMALIZED
                    .iter()
                    .find(|(o, ..)| *o == op)
                    .copied()
                    .expect("every op has a Table 2 row");
                let ihw =
                    UnitMetrics::new(base.power_mw * pn, base.latency_ns * ln, base.area_um2 * an);
                (op, base, ihw)
            })
            .collect();
        SynthesisLibrary { single }
    }

    /// DWIP (precise baseline) metrics for an operation class.
    pub fn dwip(&self, op: FpOp) -> UnitMetrics {
        self.single
            .iter()
            .find(|(o, ..)| *o == op)
            .expect("op present")
            .1
    }

    /// Returns a copy with one unit's absolute power scaled (both the
    /// DWIP and IHW rows, keeping the published Table 2 ratios intact).
    ///
    /// The unpublished DWIP absolutes are engineering estimates; this
    /// knob drives the sensitivity analysis showing the system-level
    /// conclusions are robust to those estimates (`repro sensitivity`).
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is positive.
    pub fn with_unit_power_scaled(&self, op: FpOp, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        let mut out = self.clone();
        for entry in &mut out.single {
            if entry.0 == op {
                entry.1.power_mw *= factor;
                entry.2.power_mw *= factor;
            }
        }
        out
    }

    /// IHW (Table 1 imprecise unit) metrics for an operation class.
    pub fn ihw(&self, op: FpOp) -> UnitMetrics {
        self.single
            .iter()
            .find(|(o, ..)| *o == op)
            .expect("op present")
            .2
    }

    /// Normalized IHW metrics (the Table 2 row for `op`).
    pub fn normalized(&self, op: FpOp) -> NormalizedMetrics {
        self.ihw(op).normalized_to(&self.dwip(op))
    }

    /// Table 3: the 25-bit integer adder that replaces the mantissa
    /// multiplier in the imprecise FP multiplier.
    pub fn int_adder25() -> UnitMetrics {
        UnitMetrics::new(0.24, 0.31, 310.0)
    }

    /// Table 3: the 24-bit integer multiplier of the IEEE-754 mantissa
    /// datapath.
    pub fn int_mult24() -> UnitMetrics {
        UnitMetrics::new(8.50, 0.93, 11600.0)
    }

    /// Table 4: DesignWare FP multiplier baselines.
    pub fn dw_fp_mult(precision: Precision) -> UnitMetrics {
        match precision {
            Precision::Single => UnitMetrics::new(36.63, 1.7, 19551.5),
            Precision::Double => UnitMetrics::new(119.9, 2.0, 66817.5),
        }
    }

    /// Table 4: the accuracy-configurable multiplier at full bit-width,
    /// constrained to the same latency as the DWIP (`ifpmul32*` /
    /// `ifpmul64*`).
    pub fn ac_mult_same_latency(precision: Precision) -> UnitMetrics {
        match precision {
            Precision::Single => UnitMetrics::new(17.93, 1.7, 7671.2),
            Precision::Double => UnitMetrics::new(38.17, 2.0, 28447.1),
        }
    }

    /// Table 4: the accuracy-configurable multiplier at full bit-width,
    /// synthesized for minimum latency (`ifpmul32°` / `ifpmul64°`).
    pub fn ac_mult_min_latency(precision: Precision) -> UnitMetrics {
        match precision {
            Precision::Single => UnitMetrics::new(18.59, 1.4, 9209.6),
            Precision::Double => UnitMetrics::new(39.65, 1.8, 32784.4),
        }
    }
}

impl Default for SynthesisLibrary {
    fn default() -> Self {
        Self::cmos45()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_ratios_reproduced() {
        let lib = SynthesisLibrary::cmos45();
        for &(op, p, l, a) in &TABLE2_NORMALIZED {
            let n = lib.normalized(op);
            assert!((n.power - p).abs() < 1e-12, "{op} power");
            assert!((n.latency - l).abs() < 1e-12, "{op} latency");
            assert!((n.area - a).abs() < 1e-12, "{op} area");
            // Table 2's energy/EDP columns are power×latency products.
            assert!((n.energy - p * l).abs() < 1e-12, "{op} energy");
            assert!((n.edp - p * l * l).abs() < 1e-12, "{op} edp");
        }
    }

    #[test]
    fn headline_unit_claims() {
        let lib = SynthesisLibrary::cmos45();
        // §5.2: adder "69% power savings and 26% latency improvement".
        let add = lib.normalized(FpOp::Add);
        assert!((1.0 - add.power - 0.69).abs() < 1e-9);
        assert!((1.0 - add.latency - 0.26).abs() < 1e-9);
        // §5.2: multiplier "about 96% power reduction and 78% performance
        // improvement".
        let mul = lib.normalized(FpOp::Mul);
        assert!((1.0 - mul.power - 0.96).abs() < 1e-9);
        assert!((1.0 - mul.latency - 0.782).abs() < 1e-3);
        // §5.2: isqrt "16% higher power … EDP savings about 87%".
        let sqrt = lib.normalized(FpOp::Sqrt);
        assert!((sqrt.power - 1.16).abs() < 1e-9);
        assert!(1.0 - sqrt.edp > 0.85, "EDP saving {}", 1.0 - sqrt.edp);
    }

    #[test]
    fn table3_ratio_35x_power_3x_latency() {
        let add = SynthesisLibrary::int_adder25();
        let mul = SynthesisLibrary::int_mult24();
        let pr = mul.power_mw / add.power_mw;
        let lr = mul.latency_ns / add.latency_ns;
        assert!((pr - 35.4).abs() < 0.1, "power ratio {pr}");
        assert!((lr - 3.0).abs() < 0.01, "latency ratio {lr}");
    }

    #[test]
    fn table4_values() {
        let dw32 = SynthesisLibrary::dw_fp_mult(Precision::Single);
        assert_eq!(dw32.power_mw, 36.63);
        let ac32 = SynthesisLibrary::ac_mult_same_latency(Precision::Single);
        // Full path ≈ 2× power reduction at the same latency.
        assert!((dw32.power_mw / ac32.power_mw - 2.04).abs() < 0.01);
        assert_eq!(ac32.latency_ns, dw32.latency_ns);
        let dw64 = SynthesisLibrary::dw_fp_mult(Precision::Double);
        let min64 = SynthesisLibrary::ac_mult_min_latency(Precision::Double);
        assert!(min64.latency_ns < dw64.latency_ns);
    }

    #[test]
    fn unit_power_scaling_preserves_ratios() {
        let lib = SynthesisLibrary::cmos45();
        let scaled = lib.with_unit_power_scaled(FpOp::Add, 2.0);
        assert_eq!(
            scaled.dwip(FpOp::Add).power_mw,
            lib.dwip(FpOp::Add).power_mw * 2.0
        );
        assert_eq!(
            scaled.ihw(FpOp::Add).power_mw,
            lib.ihw(FpOp::Add).power_mw * 2.0
        );
        // Table 2 ratio untouched.
        assert!((scaled.normalized(FpOp::Add).power - 0.31).abs() < 1e-12);
        // Other units untouched.
        assert_eq!(
            scaled.dwip(FpOp::Mul).power_mw,
            lib.dwip(FpOp::Mul).power_mw
        );
    }

    #[test]
    #[should_panic(expected = "scale factor must be positive")]
    fn scaling_validates_factor() {
        let _ = SynthesisLibrary::cmos45().with_unit_power_scaled(FpOp::Add, 0.0);
    }

    #[test]
    fn every_op_has_metrics() {
        let lib = SynthesisLibrary::cmos45();
        for op in FpOp::ALL {
            assert!(lib.dwip(op).power_mw > 0.0);
            assert!(lib.ihw(op).power_mw > 0.0);
        }
    }
}
