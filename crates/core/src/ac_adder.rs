//! Accuracy-configurable adder — a second structural parameter on top of
//! the Table 1 threshold adder, in the direction of the thesis' future
//! work ("enabling more structural parameters of IHW components to
//! expand the design space, and adding more control knobs for tuning
//! output quality").
//!
//! The Table 1 adder has one knob, `TH`, which bounds the alignment
//! shifter and the adder width. This unit adds a second: `truncation`
//! least significant fraction bits of **both** operands are zeroed
//! before alignment, shortening the adder datapath from the bottom the
//! same way the accuracy-configurable multiplier truncates its operands.
//! `(TH, truncation)` spans a 2-D design space from near-IEEE behaviour
//! (`TH = 27, truncation = 0`) down to exponent-only addition
//! (`truncation = 23`).
//!
//! ```
//! use ihw_core::ac_adder::AcAdder;
//!
//! let adder = AcAdder::new(8, 0).expect("valid configuration");
//! assert_eq!(adder.add32(1.5, 1.25), 2.75);
//! // Heavy truncation quantises the mantissas before adding:
//! // 1.4999 → 1.375 (3 fraction bits), 1.25 stays exact.
//! let rough = AcAdder::new(8, 20).expect("valid configuration");
//! assert_eq!(rough.add32(1.4999, 1.25), 2.625);
//! ```

use crate::adder::{imprecise_add_bits, imprecise_sub_bits, TH_RANGE};
use crate::format::Format;

/// Error returned for invalid adder configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigureAdderError {
    message: &'static str,
}

impl std::fmt::Display for ConfigureAdderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.message)
    }
}

impl std::error::Error for ConfigureAdderError {}

/// A threshold adder with operand truncation (`TH`, `truncation`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AcAdder {
    th: u32,
    truncation: u32,
}

impl AcAdder {
    /// Creates a configuration.
    ///
    /// # Errors
    ///
    /// Rejects `th` outside `[1, 27]` and `truncation > 52` (beyond the
    /// widest supported fraction).
    pub fn new(th: u32, truncation: u32) -> Result<AcAdder, ConfigureAdderError> {
        if !TH_RANGE.contains(&th) {
            return Err(ConfigureAdderError {
                message: "TH must lie in [1, 27]",
            });
        }
        if truncation > 52 {
            return Err(ConfigureAdderError {
                message: "truncation exceeds the f64 fraction",
            });
        }
        Ok(AcAdder { th, truncation })
    }

    /// The alignment threshold.
    pub fn th(&self) -> u32 {
        self.th
    }

    /// The operand truncation in bits.
    pub fn truncation(&self) -> u32 {
        self.truncation
    }

    fn truncate(&self, fmt: Format, bits: u64) -> u64 {
        let t = self.truncation.min(fmt.frac_bits);
        if t == 0 {
            return bits;
        }
        let parts = fmt.decompose(bits);
        if fmt.classify(&parts) != crate::format::RoundedClass::Normal {
            return bits;
        }
        let mask = fmt.frac_mask() & !((1u64 << t) - 1);
        fmt.assemble(crate::format::Parts {
            frac: parts.frac & mask,
            ..parts
        })
    }

    /// Addition on raw bit patterns.
    pub fn add_bits(&self, fmt: Format, a: u64, b: u64) -> u64 {
        imprecise_add_bits(fmt, self.truncate(fmt, a), self.truncate(fmt, b), self.th)
    }

    /// Subtraction on raw bit patterns.
    pub fn sub_bits(&self, fmt: Format, a: u64, b: u64) -> u64 {
        imprecise_sub_bits(fmt, self.truncate(fmt, a), self.truncate(fmt, b), self.th)
    }

    /// Single precision addition.
    pub fn add32(&self, a: f32, b: f32) -> f32 {
        f32::from_bits(self.add_bits(Format::SINGLE, a.to_bits() as u64, b.to_bits() as u64) as u32)
    }

    /// Single precision subtraction.
    pub fn sub32(&self, a: f32, b: f32) -> f32 {
        f32::from_bits(self.sub_bits(Format::SINGLE, a.to_bits() as u64, b.to_bits() as u64) as u32)
    }

    /// Double precision addition.
    pub fn add64(&self, a: f64, b: f64) -> f64 {
        f64::from_bits(self.add_bits(Format::DOUBLE, a.to_bits(), b.to_bits()))
    }

    /// Relative power of this configuration versus the DWIP adder,
    /// extending the Table 2 figure (0.31 at `TH = 8`, `truncation = 0`):
    /// shifter/adder width scales with `min(TH, F−t)` active bits on top
    /// of a fixed exponent/control overhead.
    // ihw-lint: allow(float-arith) reason=Table 5 power-model evaluation, analytical reporting rather than the adder datapath
    pub fn relative_power(&self, frac_bits: u32) -> f64 {
        const OVERHEAD: f64 = 0.10;
        const TABLE2_ANCHOR: f64 = 0.31; // TH = 8, t = 0
        let width = |th: u32, t: u32| -> f64 {
            let active = th.min(frac_bits.saturating_sub(t)).max(1);
            active as f64 / 27.0
        };
        let anchor_dyn = (TABLE2_ANCHOR - OVERHEAD) / width(8, 0);
        OVERHEAD + anchor_dyn * width(self.th, self.truncation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_truncation_matches_plain_threshold_adder() {
        let ac = AcAdder::new(8, 0).expect("valid");
        for &(a, b) in &[(1.5f32, 1.25), (1024.0, 1.0), (0.1, 0.2), (-3.0, 7.5)] {
            assert_eq!(
                ac.add32(a, b).to_bits(),
                crate::adder::iadd32(a, b, 8).to_bits(),
                "a={a} b={b}"
            );
        }
    }

    #[test]
    fn truncation_quantises_operands() {
        let rough = AcAdder::new(27, 23).expect("valid");
        // All fraction bits dropped: operands become powers of two.
        assert_eq!(rough.add32(1.999, 1.999), 2.0);
        assert_eq!(rough.add32(3.5, 3.9), 4.0);
    }

    #[test]
    fn error_monotone_in_truncation() {
        let mut prev = -1.0f64;
        for t in [0u32, 6, 12, 18, 23] {
            let ac = AcAdder::new(27, t).expect("valid");
            let mut worst = 0.0f64;
            for i in 0..500u32 {
                let a = 1.0 + i as f32 * 1.9e-3;
                let b = 2.0 + i as f32 * 0.7e-3;
                let exact = a as f64 + b as f64;
                worst = worst.max(((ac.add32(a, b) as f64 - exact) / exact).abs());
            }
            assert!(worst >= prev, "t={t}: {worst} < {prev}");
            prev = worst;
        }
    }

    #[test]
    fn power_model_monotone() {
        // Less hardware (smaller TH, more truncation) → less power.
        let base = AcAdder::new(8, 0).expect("valid").relative_power(23);
        assert!((base - 0.31).abs() < 1e-12, "anchored at the Table 2 value");
        let narrower = AcAdder::new(4, 0).expect("valid").relative_power(23);
        let truncated = AcAdder::new(8, 18).expect("valid").relative_power(23);
        assert!(narrower < base);
        assert!(truncated < base);
        let floor = AcAdder::new(1, 23).expect("valid").relative_power(23);
        assert!(floor > 0.10, "overhead persists: {floor}");
    }

    #[test]
    fn validation() {
        assert!(AcAdder::new(0, 0).is_err());
        assert!(AcAdder::new(28, 0).is_err());
        assert!(AcAdder::new(8, 53).is_err());
        assert_eq!(
            AcAdder::new(0, 0).unwrap_err().to_string(),
            "TH must lie in [1, 27]"
        );
    }

    #[test]
    fn specials_flow_through() {
        let ac = AcAdder::new(8, 12).expect("valid");
        assert!(ac.add32(f32::NAN, 1.0).is_nan());
        assert_eq!(ac.add32(f32::INFINITY, 1.0), f32::INFINITY);
        assert_eq!(ac.sub32(5.0, 5.0), 0.0);
        assert_eq!(ac.add64(1.5, 1.25), 2.75);
    }
}
