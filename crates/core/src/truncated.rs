//! The "intuitive bit truncation" multiplier baseline (§3.2.2, Figure 14).
//!
//! This models the conventional low-power technique the paper argues
//! against: keep the exact IEEE-754 mantissa multiplier array but reduce
//! the operand bit-width by `truncation` least significant fraction bits
//! (the bit-width reduction of Tong/Rutenbar, paper reference 8, and the
//! variable-correction truncated multipliers of Wires et al., paper
//! reference 14, which add a half-LSB
//! correction to centre the truncation error).
//!
//! Each operand mantissa is rounded to `F − t` fraction bits, the reduced
//! significands are multiplied exactly, and the product is truncated back
//! into the format. At `t = 21` (single precision) the maximum error is
//! ≈21% while the hardware saving is only ≈2–3× — far from the 26× the
//! accuracy-configurable multiplier reaches at comparable error, which is
//! exactly the paper's point.
//!
//! ```
//! use ihw_core::truncated::TruncatedMul;
//!
//! let tm = TruncatedMul::new(0);
//! assert_eq!(tm.mul32(1.5, 2.0), 3.0); // zero truncation ≈ exact (truncated, not rounded)
//! ```

use crate::format::Format;
use crate::multiplier::{mul_finish32, mul_finish64};

/// A bit-width-reduced "precise" multiplier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TruncatedMul {
    /// Number of least significant fraction bits removed from each operand.
    pub truncation: u32,
}

impl TruncatedMul {
    /// Creates a truncated multiplier dropping `truncation` fraction bits
    /// per operand (clamped to the format's fraction width at use time).
    pub const fn new(truncation: u32) -> Self {
        TruncatedMul { truncation }
    }

    /// Multiplies raw bit patterns of the given format (carried in a `u64`).
    #[inline(always)]
    pub fn mul_bits(&self, fmt: Format, a: u64, b: u64) -> u64 {
        mul_word64(self.truncation, fmt.exp_bits, fmt.frac_bits, a, b)
    }

    /// Multiplies two single precision values, in 32-bit words with a
    /// 64-bit significand product, so SIMT lane loops over it vectorize.
    #[inline(always)]
    pub fn mul32(&self, a: f32, b: f32) -> f32 {
        let f = Format::SINGLE;
        f32::from_bits(mul_word32(
            self.truncation,
            f.exp_bits,
            f.frac_bits,
            a.to_bits(),
            b.to_bits(),
        ))
    }

    /// Multiplies two double precision values.
    #[inline(always)]
    pub fn mul64(&self, a: f64, b: f64) -> f64 {
        f64::from_bits(self.mul_bits(Format::DOUBLE, a.to_bits(), b.to_bits()))
    }
}

/// Instantiates the truncated multiplier for one machine word width `$u`
/// whose significand product is carried in `$w`, finished by the Table 1
/// multiplier's encode and special-operand stage `$finish`. Single
/// precision runs in `u32` with a `u64` product; the `u64` word (double
/// precision and binary16) keeps a `u128` product.
macro_rules! truncated_mul_datapath {
    ($u:ty, $i:ty, $w:ty, $name:ident, $finish:ident) => {
        /// The whole multiplier on one word, straight-line: the normal ×
        /// normal datapath runs unconditionally and the special-operand
        /// stage selects over its result. A zero, subnormal, infinite or
        /// NaN operand only reaches the normal datapath, whose result the
        /// stage overrides.
        #[inline(always)]
        fn $name(truncation: u32, exp_bits: u32, frac_bits: u32, a: $u, b: $u) -> $u {
            let f = frac_bits;
            let frac_mask: $u = (1 << f) - 1;
            let hidden: $u = 1 << f;
            let emax: $u = (1 << exp_bits) - 1;
            let bias: $i = (1 << (exp_bits - 1)) - 1;
            let ea = (a >> f) & emax;
            let eb = (b >> f) & emax;

            // Round each significand to F − t fraction bits with a half-LSB
            // correction (round to nearest, the "variable correction"
            // constant; zero at t = 0). Rounding 1.11…1 up gives exactly
            // 2.0, so each reduced significand lies in [2^F, 2^(F+1)].
            let t = truncation.min(f);
            let half: $u = (1 << t) >> 1;
            let ra = (((hidden | (a & frac_mask)) + half) >> t) << t;
            let rb = (((hidden | (b & frac_mask)) + half) >> t) << t;

            // Exact product of the reduced significands, in
            // [2^2F, 2^(2F+2)]: its leading one sits at bit 2F + cin with
            // cin = 0, 1, or 2 when both significands rounded up to 2.0.
            // Truncate the product fraction back into F bits (no rounding).
            let p = <$w>::from(ra) * <$w>::from(rb);
            let cin = (p >> (2 * f + 1)) as u32;
            let frac = (p >> (f + cin)) as $u & frac_mask;
            let exp = ea as $i + eb as $i - 2 * bias + cin as $i;
            $finish(exp_bits, frac_bits, a, b, exp, frac)
        }
    };
}

truncated_mul_datapath!(u32, i32, u64, mul_word32, mul_finish32);
truncated_mul_datapath!(u64, i64, u128, mul_word64, mul_finish64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_truncation_nearly_exact() {
        let tm = TruncatedMul::new(0);
        // Only the final-result truncation (vs IEEE round) differs.
        for &(a, b) in &[(1.5f32, 2.0), (3.25, 4.0), (1.1, 1.3)] {
            let y = tm.mul32(a, b) as f64;
            let exact = (a as f64) * (b as f64);
            assert!(((y - exact) / exact).abs() < 2.5e-7, "a={a} b={b}");
        }
    }

    #[test]
    fn full_truncation_keeps_exponents() {
        let tm = TruncatedMul::new(23);
        // Significands round to 1.0 or 2.0.
        assert_eq!(tm.mul32(1.2, 1.2), 1.0);
        assert_eq!(tm.mul32(1.9, 1.9), 4.0, "1.9 rounds up to 2.0");
    }

    #[test]
    fn error_grows_with_truncation() {
        let mut prev = 0.0f64;
        for t in [0u32, 8, 16, 21] {
            let tm = TruncatedMul::new(t);
            let mut worst = 0.0f64;
            for i in 0..300u32 {
                for j in (0..300u32).step_by(7) {
                    let a = 1.0 + i as f32 / 300.0 * 0.999;
                    let b = 1.0 + j as f32 / 300.0 * 0.999;
                    let approx = tm.mul32(a, b) as f64;
                    let exact = (a as f64) * (b as f64);
                    worst = worst.max(((approx - exact) / exact).abs());
                }
            }
            assert!(worst + 1e-12 >= prev, "t={t}");
            prev = worst;
        }
    }

    #[test]
    fn t21_error_near_paper_value() {
        // The paper quotes ≈21% maximum error for 21 truncated bits.
        let tm = TruncatedMul::new(21);
        let mut worst = 0.0f64;
        for i in 0..1000u32 {
            for j in (0..1000u32).step_by(3) {
                let a = 1.0 + i as f32 / 1000.0 * 0.9999;
                let b = 1.0 + j as f32 / 1000.0 * 0.9999;
                let approx = tm.mul32(a, b) as f64;
                let exact = (a as f64) * (b as f64);
                worst = worst.max(((approx - exact) / exact).abs());
            }
        }
        assert!(worst > 0.15 && worst < 0.26, "expected ≈21%, got {worst}");
    }

    #[test]
    fn rounding_carry_renormalizes() {
        // 1.99999988 (all fraction ones) rounds up to 2.0 under truncation.
        let tm = TruncatedMul::new(10);
        let a = f32::from_bits(0x3fff_ffff); // ≈1.9999999
        let y = tm.mul32(a, 1.0);
        assert_eq!(y, 2.0);
    }

    #[test]
    fn special_values() {
        let tm = TruncatedMul::new(8);
        assert!(tm.mul32(f32::NAN, 1.0).is_nan());
        assert!(tm.mul32(0.0, f32::INFINITY).is_nan());
        assert_eq!(tm.mul32(f32::INFINITY, -1.0), f32::NEG_INFINITY);
        assert_eq!(tm.mul32(0.0, 3.0), 0.0);
        assert_eq!(tm.mul64(1e200, 1e200), f64::INFINITY);
    }

    #[test]
    fn double_precision() {
        let tm = TruncatedMul::new(44);
        let y = tm.mul64(1.3, 1.7);
        let exact = 1.3 * 1.7;
        // 52 - 44 = 8 fraction bits remain → per-operand error ≤ 2^-9.
        assert!(((y - exact) / exact).abs() < 2.0 * 2.0f64.powi(-9) + 1e-6);
    }
}
