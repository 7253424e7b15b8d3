//! The low-power accuracy-configurable floating point multiplier (§3.2.2,
//! Figure 7; published at ICCD 2014).
//!
//! The mantissa product `(1+Ma)(1+Mb) = 1 + Ma + Mb + Ma·Mb` is computed
//! with Mitchell's Algorithm applied at one of two points:
//!
//! * **Log path** — MA replaces the whole mantissa multiplication
//!   `(1+Ma)(1+Mb)`. Because normalized significands always have their
//!   leading one in the same position, this reduces to the log-domain sum
//!   of the fractions (maximum error 11.11%).
//! * **Full path** — only the fraction product `Ma·Mb` is approximated by
//!   MA while `1 + Ma + Mb` is computed exactly by an additional adder
//!   (*Add1*/*Add3* in Figure 7). The maximum error drops to
//!   1/49 ≈ 2.04% (§4.1.2).
//!
//! On top of either path, `truncation` least significant fraction bits of
//! both operands can be zeroed, trading further accuracy for power. This
//! yields a wide range of accuracy configurations: the paper's headline
//! configuration (log path, 19 bits truncated, single precision) reaches a
//! 26× power reduction at 18% maximum error.
//!
//! ```
//! use ihw_core::ac_multiplier::{AcMulConfig, MulPath};
//!
//! let full = AcMulConfig::new(MulPath::Full, 0);
//! let y = full.mul32(1.4, 1.6);
//! assert!((y - 2.24f32).abs() / 2.24 < 0.0204 + 1e-6);
//! ```

use crate::format::{sel, Format};
use crate::multiplier::{mul_specials32, mul_specials64};

/// Which datapath of Figure 7 the multiplier is configured to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MulPath {
    /// MA on the whole mantissa multiplication (11.11% max error, lowest power).
    Log,
    /// Exact `1 + Ma + Mb` plus MA on `Ma·Mb` (2.04% max error, ~2× power
    /// reduction vs. IEEE-754).
    Full,
}

/// A complete accuracy configuration: datapath plus operand truncation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AcMulConfig {
    /// Selected datapath.
    pub path: MulPath,
    /// Number of least significant fraction bits zeroed on both operands
    /// before the mantissa computation. Clamped per format: at most 23
    /// (single) or 52 (double) bits take effect.
    pub truncation: u32,
}

impl AcMulConfig {
    /// Creates a configuration.
    pub const fn new(path: MulPath, truncation: u32) -> Self {
        AcMulConfig { path, truncation }
    }

    /// The paper's headline single precision configuration: log path with
    /// 19 truncated bits (26× power reduction, ≈18% max error).
    pub const fn headline_single() -> Self {
        AcMulConfig::new(MulPath::Log, 19)
    }

    /// The paper's headline double precision configuration: log path with
    /// 48 truncated bits (49× power reduction, ≈18.07% max error).
    pub const fn headline_double() -> Self {
        AcMulConfig::new(MulPath::Log, 48)
    }

    /// Multiplies raw bit patterns of the given format (carried in a `u64`).
    #[inline(always)]
    pub fn mul_bits(&self, fmt: Format, a: u64, b: u64) -> u64 {
        mul_word64(*self, fmt.exp_bits, fmt.frac_bits, a, b)
    }

    /// Multiplies two single precision values under this configuration.
    ///
    /// Runs the whole datapath in 32-bit words (see [`mitchell_term32`]), so
    /// SIMT lane loops over it vectorize at full lane width.
    ///
    /// ```
    /// use ihw_core::ac_multiplier::{AcMulConfig, MulPath};
    /// let log = AcMulConfig::new(MulPath::Log, 0);
    /// assert_eq!(log.mul32(2.0, 8.0), 16.0); // powers of two exact
    /// ```
    #[inline(always)]
    pub fn mul32(&self, a: f32, b: f32) -> f32 {
        let f = Format::SINGLE;
        f32::from_bits(mul_word32(
            *self,
            f.exp_bits,
            f.frac_bits,
            a.to_bits(),
            b.to_bits(),
        ))
    }

    /// Multiplies two double precision values under this configuration.
    #[inline(always)]
    pub fn mul64(&self, a: f64, b: f64) -> f64 {
        f64::from_bits(self.mul_bits(Format::DOUBLE, a.to_bits(), b.to_bits()))
    }
}

/// Instantiates the Figure 7 datapath for one machine word width: the full
/// path's Mitchell term and the whole multiplier over bit patterns held in
/// that word, finished by the Table 1 multiplier's special-operand stage
/// for that word (the two units share their special cases). Single
/// precision runs in `u32` and double precision in `u64`; every
/// intermediate fits in `F + 2` bits, so no wider type is needed.
macro_rules! ac_mul_datapath {
    ($u:ty, $i:ty, $term:ident, $mul:ident, $specials:ident) => {
        /// The full path's Mitchell term `MA(fa, fb) >> F` for `F`-bit
        /// fractions `fa, fb < 2^F`, bit-identical to
        /// `mitchell_mul(fa, fb) >> F` without its 128-bit datapath.
        ///
        /// Write a non-zero fraction as `fa = 2^ka + xa` with `xa < 2^ka`,
        /// `ka < F`. Mitchell's log-domain fraction `xa / 2^ka` is then held
        /// exactly at `F` bits as `xa·2^(F−ka)` (lossless because
        /// `xa < 2^ka`). Summing both operands at that width gives the carry
        /// and `s = (xa·2^(F−ka) + xb·2^(F−kb)) mod 2^F`, so the
        /// characteristic is `k = ka + kb + carry ≤ 2F − 1` and
        /// `MA = 2^k + ⌊s·2^(k−F)⌋`. Hence:
        ///
        /// * `k ≥ F`: `MA = (2^F + s)·2^(k−F)` exactly, and
        ///   `MA >> F = (2^F + s) >> (2F − k)`;
        /// * `k < F`: `MA < 2^(k+1) ≤ 2^F`, so `MA >> F = 0`.
        ///
        /// With `ka = W − 1 − lzcnt(fa)` on a `W`-bit word, a zero fraction
        /// reads as `ka = −1`, which forces `k < F`, so `fa == 0` or
        /// `fb == 0` needs no separate case. Since `2^F + s < 2^(F+1)`,
        /// clamping the shift `2F − k` to `F + 1` yields the zero of the
        /// `k < F` case without a branch.
        ///
        /// Requires `F ≤ W − 2` and both fractions below `2^F`.
        ///
        /// ```
        /// use ihw_core::ac_multiplier::{mitchell_term32, mitchell_term64};
        /// use ihw_core::mitchell::mitchell_mul;
        /// let (fa, fb) = (0x5a_5a5a, 0x7f_0001); // 23-bit fractions
        /// let oracle = (mitchell_mul(fa, fb) >> 23) as u64;
        /// assert_eq!(mitchell_term32(23, fa as u32, fb as u32) as u64, oracle);
        /// assert_eq!(mitchell_term64(23, fa, fb), oracle);
        /// ```
        #[inline(always)]
        pub fn $term(frac_bits: u32, fa: $u, fb: $u) -> $u {
            let w = <$u>::BITS;
            let f = frac_bits;
            debug_assert!(f + 2 <= w && fa >> f == 0 && fb >> f == 0);
            let frac_mask: $u = (1 << f) - 1;
            let lza = fa.leading_zeros();
            let lzb = fb.leading_zeros();
            // xa·2^(F−ka) with ka = W − 1 − lzcnt; the shift is ≥ 1 and
            // reaches only F + 1 (< W) for a zero fraction.
            let xa = (fa << (f + lza + 1 - w)) & frac_mask;
            let xb = (fb << (f + lzb + 1 - w)) & frac_mask;
            let sum = xa + xb;
            let carry = (sum >> f) as u32;
            // 2F − k, written so no intermediate goes negative.
            let shift = lza + lzb + 2 * (f + 1) - 2 * w - carry;
            ((1 << f) + (sum & frac_mask)) >> shift.min(f + 1)
        }

        /// The whole multiplier on one word: an unconditionally evaluated
        /// normal × normal datapath finished by the special-operand stage
        /// `$specials`. The only branch is the loop-invariant path choice,
        /// which loop unswitching hoists out of the SIMT lane loops. A
        /// zero, subnormal, infinite or NaN operand only reaches the normal
        /// datapath, whose result the stage overrides.
        #[inline(always)]
        fn $mul(cfg: AcMulConfig, exp_bits: u32, frac_bits: u32, a: $u, b: $u) -> $u {
            let f = frac_bits;
            let frac_mask: $u = (1 << f) - 1;
            let hidden: $u = 1 << f;
            let emax: $u = (1 << exp_bits) - 1;
            let bias: $i = (1 << (exp_bits - 1)) - 1;
            let ea = (a >> f) & emax;
            let eb = (b >> f) & emax;
            let sign = ((a ^ b) >> (exp_bits + f)) & 1;

            let t = cfg.truncation.min(f);
            let keep_mask = frac_mask & !((1 << t) - 1);
            let fa = a & keep_mask;
            let fb = b & keep_mask;
            let (inc, frac) = match cfg.path {
                // Log path (paper eq. 12 with x = M): `frac = Ma + Mb`. Both
                // fractions sit below the hidden bit, so the carry into the
                // exponent is exactly bit F of the sum.
                MulPath::Log => {
                    let sum = fa + fb;
                    (sum >> f, sum & frac_mask)
                }
                // Full path: `mant = 1 + Ma + Mb + MA(Ma, Mb)` (§4.1.2) in
                // 2^-F units, in [1, 4); normalise right by 0..=2 bits,
                // found from the MSB index.
                MulPath::Full => {
                    let mant = hidden + fa + fb + $term(f, fa, fb);
                    let shift = <$u>::BITS - 1 - mant.leading_zeros() - f;
                    (shift as $u, (mant >> shift) - hidden)
                }
            };
            let exp = ea as $i + eb as $i - 2 * bias + inc as $i;

            // Encode, saturating to infinity on overflow and flushing to
            // zero on underflow (no subnormal outputs).
            let max_exp = emax as $i - 1 - bias;
            let min_exp = 1 - bias;
            let zero = sign << (exp_bits + f);
            let inf = zero | (emax << f);
            let body = zero | (((exp.clamp(min_exp, max_exp) + bias) as $u) << f) | frac;
            let r = sel(exp < min_exp, zero, body);
            $specials(exp_bits, frac_bits, a, b, sel(exp > max_exp, inf, r))
        }
    };
}

ac_mul_datapath!(u32, i32, mitchell_term32, mul_word32, mul_specials32);
ac_mul_datapath!(u64, i64, mitchell_term64, mul_word64, mul_specials64);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{AC_FULL_PATH_MAX_ERROR, AC_LOG_PATH_MAX_ERROR};

    fn rel_err32(cfg: &AcMulConfig, a: f32, b: f32) -> f64 {
        let approx = cfg.mul32(a, b) as f64;
        let exact = (a as f64) * (b as f64);
        ((approx - exact) / exact).abs()
    }

    #[test]
    fn powers_of_two_exact_on_both_paths() {
        for path in [MulPath::Log, MulPath::Full] {
            let cfg = AcMulConfig::new(path, 0);
            assert_eq!(cfg.mul32(2.0, 8.0), 16.0);
            assert_eq!(cfg.mul32(-4.0, 0.5), -2.0);
            assert_eq!(cfg.mul64(1024.0, 2.0), 2048.0);
        }
    }

    #[test]
    #[inline]
    fn full_path_bound_2_04_percent() {
        let cfg = AcMulConfig::new(MulPath::Full, 0);
        let mut worst = 0.0f64;
        for i in 0..400u32 {
            for j in 0..400u32 {
                let a = 1.0 + i as f32 / 400.0;
                let b = 1.0 + j as f32 / 400.0;
                worst = worst.max(rel_err32(&cfg, a, b));
            }
        }
        assert!(worst <= AC_FULL_PATH_MAX_ERROR + 1e-6, "worst {worst}");
        assert!(
            worst > 0.015,
            "bound should nearly be attained, got {worst}"
        );
    }

    #[test]
    #[inline]
    fn log_path_bound_11_11_percent() {
        let cfg = AcMulConfig::new(MulPath::Log, 0);
        let mut worst = 0.0f64;
        for i in 0..400u32 {
            for j in 0..400u32 {
                let a = 1.0 + i as f32 / 400.0;
                let b = 1.0 + j as f32 / 400.0;
                worst = worst.max(rel_err32(&cfg, a, b));
            }
        }
        assert!(worst <= AC_LOG_PATH_MAX_ERROR + 1e-6, "worst {worst}");
        assert!(worst > 0.10, "bound should nearly be attained, got {worst}");
    }

    #[test]
    #[inline]
    fn log_path_beats_original_imprecise_multiplier() {
        // At Ma = Mb → 1 the original unit errs 25%, the log path 11%.
        let cfg = AcMulConfig::new(MulPath::Log, 0);
        let a = 1.9999f32;
        let log_err = rel_err32(&cfg, a, a);
        let orig_err = ((crate::multiplier::imul32(a, a) as f64 - (a as f64).powi(2))
            / (a as f64).powi(2))
        .abs();
        assert!(log_err < orig_err);
    }

    #[test]
    #[inline]
    fn full_path_more_accurate_than_log_path() {
        let log = AcMulConfig::new(MulPath::Log, 0);
        let full = AcMulConfig::new(MulPath::Full, 0);
        let mut log_sum = 0.0;
        let mut full_sum = 0.0;
        for i in 0..100u32 {
            let a = 1.0 + i as f32 / 100.0;
            let b = 1.0 + ((i * 37) % 100) as f32 / 100.0;
            log_sum += rel_err32(&log, a, b);
            full_sum += rel_err32(&full, a, b);
        }
        assert!(full_sum < log_sum);
    }

    #[test]
    fn truncation_degrades_gracefully() {
        let mut prev = 0.0f64;
        for t in [0u32, 8, 15, 19, 22] {
            let cfg = AcMulConfig::new(MulPath::Log, t);
            let mut sum = 0.0;
            let mut n = 0u32;
            for i in 0..200u32 {
                let a = 1.0 + (i as f32) * 0.004999;
                let b = 1.0 + (((i * 71) % 200) as f32) * 0.004999;
                sum += rel_err32(&cfg, a, b);
                n += 1;
            }
            let mean = sum / n as f64;
            assert!(mean + 1e-9 >= prev, "t={t}: mean error should not decrease");
            prev = mean;
        }
    }

    #[test]
    fn max_truncation_leaves_exponent_math() {
        // Truncating all fraction bits reduces both operands to powers of 2.
        let cfg = AcMulConfig::new(MulPath::Log, 23);
        // Both operands collapse to 1.0·2^e, so only the exponents multiply.
        assert_eq!(cfg.mul32(1.999, 1.999), 1.0);
        assert_eq!(cfg.mul32(3.999, 3.999), 4.0);
    }

    #[test]
    fn sign_rules() {
        let cfg = AcMulConfig::new(MulPath::Full, 0);
        assert!(cfg.mul32(-1.5, 1.5) < 0.0);
        assert!(cfg.mul32(-1.5, -1.5) > 0.0);
    }

    #[test]
    fn special_values() {
        for path in [MulPath::Log, MulPath::Full] {
            let cfg = AcMulConfig::new(path, 0);
            assert!(cfg.mul32(f32::NAN, 1.0).is_nan());
            assert!(cfg.mul32(f32::INFINITY, 0.0).is_nan());
            assert_eq!(cfg.mul32(f32::INFINITY, 2.0), f32::INFINITY);
            assert_eq!(cfg.mul32(0.0, -5.0), -0.0);
            assert_eq!(cfg.mul32(1e30, 1e30), f32::INFINITY);
            assert_eq!(cfg.mul32(1e-30, 1e-30), 0.0);
        }
    }

    #[test]
    fn double_precision_bounds() {
        let full = AcMulConfig::new(MulPath::Full, 0);
        let log = AcMulConfig::new(MulPath::Log, 0);
        for i in 0..200u32 {
            let a = 1.0 + i as f64 / 200.0;
            let b = 1.0 + ((i * 53) % 200) as f64 / 200.0;
            let exact = a * b;
            let ef = ((full.mul64(a, b) - exact) / exact).abs();
            let el = ((log.mul64(a, b) - exact) / exact).abs();
            assert!(ef <= AC_FULL_PATH_MAX_ERROR + 1e-9);
            assert!(el <= AC_LOG_PATH_MAX_ERROR + 1e-9);
        }
    }

    #[test]
    fn headline_configs() {
        let s = AcMulConfig::headline_single();
        assert_eq!(s.path, MulPath::Log);
        assert_eq!(s.truncation, 19);
        let d = AcMulConfig::headline_double();
        assert_eq!(d.truncation, 48);
        // ≈18% max error claimed for the single precision headline config.
        let mut worst = 0.0f64;
        for i in 0..300u32 {
            for j in 0..300u32 {
                let a = 1.0 + i as f32 / 300.0 * 0.999;
                let b = 1.0 + j as f32 / 300.0 * 0.999;
                let approx = s.mul32(a, b) as f64;
                let exact = (a as f64) * (b as f64);
                worst = worst.max(((approx - exact) / exact).abs());
            }
        }
        assert!(worst < 0.20, "headline config max error ≈18%, got {worst}");
        assert!(
            worst > 0.13,
            "error should be near the published 18%, got {worst}"
        );
    }
}
