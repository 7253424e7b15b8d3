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

use crate::format::{flush_subnormal, Format, RoundedClass};

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

    /// Multiplies raw bit patterns of the given format.
    #[inline(always)]
    pub fn mul_bits(&self, fmt: Format, a: u64, b: u64) -> u64 {
        let a = flush_subnormal(fmt, a);
        let b = flush_subnormal(fmt, b);
        let pa = fmt.decompose(a);
        let pb = fmt.decompose(b);
        let sign = pa.sign ^ pb.sign;
        match (fmt.classify(&pa), fmt.classify(&pb)) {
            (RoundedClass::Nan, _) | (_, RoundedClass::Nan) => fmt.nan(),
            (RoundedClass::Infinite, RoundedClass::Zero)
            | (RoundedClass::Zero, RoundedClass::Infinite) => fmt.nan(),
            (RoundedClass::Infinite, _) | (_, RoundedClass::Infinite) => fmt.infinity(sign),
            (RoundedClass::Zero, _) | (_, RoundedClass::Zero) => fmt.zero(sign),
            (RoundedClass::Normal, RoundedClass::Normal) => {
                let f = fmt.frac_bits;
                let t = self.truncation.min(f);
                let mut exp = fmt.unbiased_exp(&pa) + fmt.unbiased_exp(&pb);
                let ma = round_significand(fmt.significand(&pa), t);
                let mb = round_significand(fmt.significand(&pb), t);
                // Rounding the significand may carry into a new bit
                // (1.111… → 10.000…): renormalize before multiplying.
                let (ma, ea) = renorm(fmt, ma);
                let (mb, eb) = renorm(fmt, mb);
                exp += ea + eb;
                // Exact product of the reduced significands (≤ 2·(F+1) bits).
                let p = (ma as u128) * (mb as u128); // in [2^2F, 2^(2F+2))
                let two_f = 2 * f;
                // Product carry is exactly bit 2F+1 — fold it branch-free.
                let cin = (p >> (two_f + 1)) as u32 & 1;
                let (p, exp) = (p >> cin, exp + i64::from(cin));
                // Truncate the product fraction back into F bits (no rounding).
                let frac = ((p >> f) as u64) & fmt.frac_mask();
                fmt.encode_normal(sign, exp, frac)
            }
        }
    }

    /// Multiplies two single precision values.
    #[inline(always)]
    pub fn mul32(&self, a: f32, b: f32) -> f32 {
        f32::from_bits(self.mul_bits(Format::SINGLE, a.to_bits() as u64, b.to_bits() as u64) as u32)
    }

    /// Multiplies two double precision values.
    #[inline(always)]
    pub fn mul64(&self, a: f64, b: f64) -> f64 {
        f64::from_bits(self.mul_bits(Format::DOUBLE, a.to_bits(), b.to_bits()))
    }
}

/// Rounds a significand to `t` fewer fraction bits with a half-LSB
/// correction (round-to-nearest, the "variable correction" constant).
#[inline(always)]
fn round_significand(m: u64, t: u32) -> u64 {
    if t == 0 {
        return m;
    }
    let half = 1u64 << (t - 1);
    ((m + half) >> t) << t
}

/// Renormalizes a significand that may have carried past 2.0 on rounding.
#[inline(always)]
fn renorm(fmt: Format, m: u64) -> (u64, i64) {
    // The carry past 2.0 is exactly bit F+1 (m ≤ 2·hidden after rounding).
    let c = (m >> (fmt.frac_bits + 1)) & 1;
    (m >> c, c as i64)
}

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
