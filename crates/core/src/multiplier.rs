//! The original imprecise floating point multiplier of Table 1 (§3.1).
//!
//! The algorithmic simplification replaces the mantissa product
//! `(1+Ma)(1+Mb)` by `1 + Ma + Mb` (neglecting the `Ma·Mb` term), which in
//! hardware turns the 24×24-bit mantissa multiplier of a single precision
//! unit into a 25×25-bit addition (paper eqs. 1–6):
//!
//! ```text
//! Mz ≈ 1 + Ma + Mb          when Ma + Mb < 1   (cin = 0)
//! Mz ≈ (1 + Ma + Mb) / 2    when Ma + Mb ≥ 1   (cin = 1, exponent +1)
//! ```
//!
//! The maximum error magnitude is 25% (at `Ma, Mb → 1`, where the true
//! product approaches 4 but the approximation yields 3). No rounding is
//! performed, subnormals flush to zero, infinities and NaNs are supported.
//!
//! ```
//! use ihw_core::multiplier::imul32;
//!
//! // 1.5 × 1.5: Ma = Mb = 0.5, sum ≥ 1 → (1 + 1.0)/2 × 2^1 = 2.0 (true 2.25)
//! assert_eq!(imul32(1.5, 1.5), 2.0);
//! // Powers of two are exact (Ma = Mb = 0).
//! assert_eq!(imul32(4.0, 8.0), 32.0);
//! ```

use crate::format::{canon32, flush32, is_special32, sel, Format};

/// Imprecise multiplication on raw bit patterns of the given format,
/// carried in a `u64` (runs [`mul_word64`]).
#[inline(always)]
pub fn imprecise_mul_bits(fmt: Format, a: u64, b: u64) -> u64 {
    mul_word64(fmt.exp_bits, fmt.frac_bits, a, b)
}

/// Instantiates, for one machine word width, the Table 1 multiplier over
/// bit patterns of a format with `exp_bits`/`frac_bits` fields held in
/// that word, and `$finish`: the encode plus special-operand stage
/// (`$specials`) that every multiplier of that word ends with. Single
/// precision runs in `u32` and double precision in `u64`: `Ma + Mb` fits
/// in `F + 2` bits and every exponent in the word's signed twin.
macro_rules! mul_datapath {
    ($u:ty, $i:ty, $name:ident, $finish:ident, $specials:ident) => {
        /// Encodes the normal × normal result of `a × b`, its unbiased
        /// exponent `exp` and `F`-bit fraction `frac`, saturating to
        /// infinity on overflow and flushing to zero on underflow (no
        /// subnormal outputs), then applies the special-operand stage. The
        /// Table 1, accuracy-configurable and bit-truncation multipliers
        /// all end here.
        #[inline(always)]
        pub(crate) fn $finish(
            exp_bits: u32,
            frac_bits: u32,
            a: $u,
            b: $u,
            exp: $i,
            frac: $u,
        ) -> $u {
            let f = frac_bits;
            let emax: $u = (1 << exp_bits) - 1;
            let bias: $i = (1 << (exp_bits - 1)) - 1;
            let max_exp = emax as $i - 1 - bias;
            let min_exp = 1 - bias;
            let zero = (((a ^ b) >> (exp_bits + f)) & 1) << (exp_bits + f);
            let inf = zero | (emax << f);
            let body = zero | (((exp.clamp(min_exp, max_exp) + bias) as $u) << f) | frac;
            let r = sel(exp < min_exp, zero, body);
            $specials(exp_bits, frac_bits, a, b, sel(exp > max_exp, inf, r))
        }

        /// Imprecise multiplication on one word, straight-line: the normal
        /// × normal datapath runs unconditionally and the special-operand
        /// stage selects over its result, so the SIMT lane loops that
        /// inline this auto-vectorize (no data-dependent branches). A zero,
        /// subnormal, infinite or NaN operand only reaches the normal
        /// datapath, whose result the stage overrides.
        #[inline(always)]
        pub fn $name(exp_bits: u32, frac_bits: u32, a: $u, b: $u) -> $u {
            let f = frac_bits;
            let frac_mask: $u = (1 << f) - 1;
            let emax: $u = (1 << exp_bits) - 1;
            let bias: $i = (1 << (exp_bits - 1)) - 1;
            let ea = (a >> f) & emax;
            let eb = (b >> f) & emax;

            // Ma + Mb in units of 2^-F. Ma + Mb >= 1: Mz = (1 + Ma + Mb)/2,
            // cin = 1 (eq. 6). Both fractions are below the hidden bit, so
            // the carry is exactly bit F of the sum.
            let sum = (a & frac_mask) + (b & frac_mask);
            let cin = sum >> f;
            let frac = ((sum + (cin << f)) >> cin) & frac_mask;
            let exp = ea as $i + eb as $i - 2 * bias + cin as $i;
            $finish(exp_bits, frac_bits, a, b, exp, frac)
        }
    };
}

mul_datapath!(u32, i32, mul_word32, mul_finish32, mul_specials32);
mul_datapath!(u64, i64, mul_word64, mul_finish64, mul_specials64);

/// The single-precision special-operand stage of every multiplier: when
/// either operand is zero, subnormal, infinite or NaN, the result is the
/// IEEE product of the flushed operands (exact: a signed zero, a signed
/// infinity or NaN), with any NaN made canonical; otherwise `normal`.
/// `exp_bits` and `frac_bits` must be single precision's.
///
/// # Panics
///
/// Panics if `(exp_bits, frac_bits)` is not `(8, 23)`.
// ihw-lint: allow(float-arith) reason=special-operand stage: the host product of two flushed operands one of which is zero, infinite or NaN is exact, so it is the unit's IEEE special result
#[inline(always)]
fn mul_specials32(exp_bits: u32, frac_bits: u32, a: u32, b: u32, normal: u32) -> u32 {
    assert!(
        (exp_bits, frac_bits) == (8, 23),
        "the u32 multipliers are single precision only, got ({exp_bits}, {frac_bits})"
    );
    let host = f32::from_bits(flush32(a)) * f32::from_bits(flush32(b));
    sel(is_special32(a) | is_special32(b), canon32(host), normal)
}

/// The special-operand stage of every multiplier in a `u64` word, for any
/// format: the IEEE special cases layered over `normal` as a select
/// cascade in reverse priority order. A subnormal operand counts as zero.
#[inline(always)]
fn mul_specials64(exp_bits: u32, frac_bits: u32, a: u64, b: u64, normal: u64) -> u64 {
    let f = frac_bits;
    let frac_mask: u64 = (1 << f) - 1;
    let emax: u64 = (1 << exp_bits) - 1;
    let ea = (a >> f) & emax;
    let eb = (b >> f) & emax;
    let a_nan = ea == emax && (a & frac_mask) != 0;
    let b_nan = eb == emax && (b & frac_mask) != 0;
    let a_inf = ea == emax && (a & frac_mask) == 0;
    let b_inf = eb == emax && (b & frac_mask) == 0;
    let a_zero = ea == 0;
    let b_zero = eb == 0;
    let zero = ((a ^ b) >> (exp_bits + f) & 1) << (exp_bits + f);
    let inf = zero | (emax << f);
    let nan = (emax << f) | (1 << (f - 1));
    let mut r = sel(a_zero || b_zero, zero, normal);
    r = sel(a_inf || b_inf, inf, r);
    r = sel((a_inf && b_zero) || (a_zero && b_inf), nan, r);
    sel(a_nan || b_nan, nan, r)
}

/// Imprecise single precision multiplication (Table 1 `y = a × b`).
///
/// ```
/// use ihw_core::multiplier::imul32;
/// // Error never exceeds 25% of the true product.
/// let (a, b) = (1.9f32, 1.9f32);
/// let err = (imul32(a, b) - a * b).abs() / (a * b);
/// assert!(err <= 0.25);
/// ```
#[inline(always)]
pub fn imul32(a: f32, b: f32) -> f32 {
    let f = Format::SINGLE;
    f32::from_bits(mul_word32(
        f.exp_bits,
        f.frac_bits,
        a.to_bits(),
        b.to_bits(),
    ))
}

/// Imprecise double precision multiplication.
#[inline(always)]
pub fn imul64(a: f64, b: f64) -> f64 {
    f64::from_bits(imprecise_mul_bits(Format::DOUBLE, a.to_bits(), b.to_bits()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::IFPMUL_MAX_ERROR;

    #[test]
    fn powers_of_two_exact() {
        assert_eq!(imul32(2.0, 4.0), 8.0);
        assert_eq!(imul32(-0.5, 8.0), -4.0);
        assert_eq!(imul64(1024.0, 0.25), 256.0);
    }

    #[test]
    fn one_is_identity() {
        // Ma = 0 ⇒ Mz = 1 + Mb exactly.
        for &x in &[1.0f32, 1.5, 3.75, 100.0, 0.1] {
            assert_eq!(imul32(1.0, x), x, "1 × {x}");
            assert_eq!(imul32(x, 1.0), x, "{x} × 1");
        }
    }

    #[test]
    fn carry_in_case() {
        // 1.5 × 1.5: sum of fractions = 1.0 ≥ 1 → (1+1)/2 = 1.0, exp+1 → 2.0
        assert_eq!(imul32(1.5, 1.5), 2.0);
        assert_eq!(imul64(1.5, 1.5), 2.0);
    }

    #[test]
    fn no_carry_case() {
        // 1.25 × 1.25: Mz = 1.5 (true 1.5625)
        assert_eq!(imul32(1.25, 1.25), 1.5);
    }

    #[test]
    fn sign_rules() {
        assert_eq!(imul32(-2.0, 4.0), -8.0);
        assert_eq!(imul32(-2.0, -4.0), 8.0);
        assert!(imul32(-1.5, 1.5) < 0.0);
    }

    #[test]
    fn error_bounded_by_25_percent() {
        let mut worst = 0.0f64;
        for i in 0..512u32 {
            for j in 0..512u32 {
                let a = 1.0 + i as f64 / 512.0;
                let b = 1.0 + j as f64 / 512.0;
                let approx = imul32(a as f32, b as f32) as f64;
                let exact = (a as f32 as f64) * (b as f32 as f64);
                worst = worst.max(((approx - exact) / exact).abs());
            }
        }
        assert!(worst <= IFPMUL_MAX_ERROR + 1e-9, "worst error {worst}");
        // The bound is tight: the sampled maximum approaches 25%.
        assert!(worst > 0.24, "bound should be nearly attained, got {worst}");
    }

    #[test]
    fn result_always_underestimates() {
        // 1 + Ma + Mb ≤ (1+Ma)(1+Mb): the approximation never overshoots.
        for i in 0..64u32 {
            for j in 0..64u32 {
                let a = 1.0f32 + i as f32 / 64.0;
                let b = 1.0f32 + j as f32 / 64.0;
                assert!(imul32(a, b) <= a * b + f32::EPSILON);
            }
        }
    }

    #[test]
    fn special_values() {
        assert!(imul32(f32::NAN, 2.0).is_nan());
        assert!(imul32(f32::INFINITY, 0.0).is_nan());
        assert_eq!(imul32(f32::INFINITY, -2.0), f32::NEG_INFINITY);
        assert_eq!(imul32(0.0, -3.0), -0.0);
        assert_eq!(
            imul32(f32::MIN_POSITIVE / 2.0, 1e30),
            0.0,
            "subnormal flushed"
        );
    }

    #[test]
    fn overflow_and_underflow_saturate() {
        assert_eq!(imul32(1e30, 1e30), f32::INFINITY);
        assert_eq!(imul32(1e-30, 1e-30), 0.0);
        assert_eq!(imul32(-1e30, 1e30), f32::NEG_INFINITY);
    }
}
