//! Imprecise special function units: reciprocal, inverse square root,
//! square root, log₂ and division (Table 1, §3.1).
//!
//! Each function applies *range reduction* — splicing the exponent field so
//! the significand falls in a fixed interval — followed by a single linear
//! approximation with the paper's curve-fit coefficients (no table lookups,
//! no Newton–Raphson iterations):
//!
//! | Function   | Imprecise function                | Reduced range | ε_max |
//! |------------|-----------------------------------|---------------|-------|
//! | `1/x`      | `2.823 − 1.882·x`                 | `[0.5, 1)`    | 5.88% |
//! | `1/√x`     | `2.08 − 1.1911·x`                 | `[0.5, 1)`    | 11.11% |
//! | `√x`       | `x·(2.08 − 1.1911·x)`             | `[0.25, 1)`   | 11.11% |
//! | `log₂ x`   | `exp + 0.9846·x − 0.9196`         | `[1, 2)`      | unbounded (relative) |
//! | `a/b`      | `a·(2.823 − 1.882·b)`             | `b ∈ [0.5,1)` | 5.88% |
//!
//! Results are truncated (never rounded) into the output format; subnormal
//! inputs and outputs are flushed to zero; infinities and NaNs follow the
//! usual IEEE-754 conventions.
//!
//! ```
//! use ihw_core::sfu::ircp32;
//!
//! let y = ircp32(3.0);
//! assert!((y - 1.0 / 3.0).abs() * 3.0 < 0.0588 + 1e-6);
//! ```

use crate::format::{
    canon32, encode_scaled32, flush32, flush_subnormal, is_special32, sel, Format, RoundedClass,
    EXP32, FRAC32, NAN32, SIGN32,
};

/// Linear coefficients for `1/x ≈ C0 − C1·x`, `x ∈ [0.5, 1)` (Table 1).
pub const RCP_C0: f64 = 2.823;
/// See [`RCP_C0`].
pub const RCP_C1: f64 = 1.882;
/// Linear coefficients for `1/√x ≈ C0 − C1·x`, `x ∈ [0.5, 1)` (Table 1).
pub const RSQRT_C0: f64 = 2.08;
/// See [`RSQRT_C0`].
pub const RSQRT_C1: f64 = 1.1911;
/// Linear coefficients for `log₂(x) ≈ C0·x − C1`, `x ∈ [1, 2)` (Table 1).
pub const LOG2_C0: f64 = 0.9846;
/// See [`LOG2_C0`].
pub const LOG2_C1: f64 = 0.9196;

/// Linear coefficients for `2^x ≈ C0 + x`, `x ∈ [0, 1)` — the `iexp2`
/// extension unit (GPUs pair EX2 with LG2 in the SFU; the coefficients
/// are the minimax fit with unit slope, max error ≈ 4.5%).
pub const EXP2_C0: f64 = 0.9570;

const ONE_OVER_SQRT2: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// Encodes `value · 2^extra_exp` (with `value` a positive normal `f64`)
/// into the target format, truncating excess mantissa bits.
#[inline]
fn encode_scaled(fmt: Format, sign: u64, value: f64, extra_exp: i64) -> u64 {
    debug_assert!(value.is_finite() && value > 0.0);
    let bits = value.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64 - 1023 + extra_exp;
    let frac52 = bits & ((1u64 << 52) - 1);
    let frac = if fmt.frac_bits >= 52 {
        frac52 << (fmt.frac_bits - 52)
    } else {
        frac52 >> (52 - fmt.frac_bits)
    };
    fmt.encode_normal(sign, exp, frac)
}

/// Imprecise reciprocal on raw bit patterns.
// ihw-lint: allow(float-arith) reason=Table 1 linear approximation C0 - C1*r evaluated on the reduced-range significand; coefficients are paper constants and the result is truncated into the target format
#[inline]
pub fn imprecise_rcp_bits(fmt: Format, x: u64) -> u64 {
    let x = flush_subnormal(fmt, x);
    let p = fmt.decompose(x);
    match fmt.classify(&p) {
        RoundedClass::Nan => fmt.nan(),
        RoundedClass::Infinite => fmt.zero(p.sign),
        RoundedClass::Zero => fmt.infinity(p.sign),
        RoundedClass::Normal => {
            // x = m·2^E with m ∈ [1,2); reduce r = m/2 ∈ [0.5,1):
            // 1/x = (C0 − C1·r) · 2^(−E−1).
            let m = 1.0 + p.frac as f64 / fmt.hidden_bit() as f64;
            let r = m * 0.5;
            let lin = RCP_C0 - RCP_C1 * r;
            encode_scaled(fmt, p.sign, lin, -fmt.unbiased_exp(&p) - 1)
        }
    }
}

/// Imprecise inverse square root on raw bit patterns.
// ihw-lint: allow(float-arith) reason=Table 1 linear approximation for 1/sqrt(x) on the reduced range; odd exponents absorb a 1/sqrt(2) factor before truncating encode
#[inline]
pub fn imprecise_rsqrt_bits(fmt: Format, x: u64) -> u64 {
    let x = flush_subnormal(fmt, x);
    let p = fmt.decompose(x);
    match fmt.classify(&p) {
        RoundedClass::Nan => fmt.nan(),
        RoundedClass::Zero => fmt.infinity(p.sign),
        _ if p.sign == 1 => fmt.nan(),
        RoundedClass::Infinite => fmt.zero(0),
        RoundedClass::Normal => {
            // x = r·2^E' with r = m/2 ∈ [0.5,1), E' = E+1:
            // 1/√x = (C0 − C1·r)·2^(−E'/2), odd E' absorbs 1/√2.
            let m = 1.0 + p.frac as f64 / fmt.hidden_bit() as f64;
            let r = m * 0.5;
            let mut lin = RSQRT_C0 - RSQRT_C1 * r;
            let e1 = fmt.unbiased_exp(&p) + 1;
            let scale = if e1 % 2 == 0 {
                -e1 / 2
            } else {
                lin *= ONE_OVER_SQRT2;
                -(e1 - 1) / 2
            };
            encode_scaled(fmt, 0, lin, scale)
        }
    }
}

/// Imprecise square root on raw bit patterns.
// ihw-lint: allow(float-arith) reason=Table 1 linear approximation r*(C0 - C1*r) on the even-exponent reduced range, truncated into the target format
#[inline]
pub fn imprecise_sqrt_bits(fmt: Format, x: u64) -> u64 {
    let x = flush_subnormal(fmt, x);
    let p = fmt.decompose(x);
    match fmt.classify(&p) {
        RoundedClass::Nan => fmt.nan(),
        RoundedClass::Zero => fmt.zero(p.sign),
        _ if p.sign == 1 => fmt.nan(),
        RoundedClass::Infinite => fmt.infinity(0),
        RoundedClass::Normal => {
            // Choose an even exponent S so r = x/2^S ∈ [0.25, 1):
            // √x = r·(C0 − C1·r) · 2^(S/2).
            let m = 1.0 + p.frac as f64 / fmt.hidden_bit() as f64;
            let e = fmt.unbiased_exp(&p);
            let (r, s) = if e % 2 == 0 {
                (m * 0.25, e + 2)
            } else {
                (m * 0.5, e + 1)
            };
            let lin = r * (RSQRT_C0 - RSQRT_C1 * r);
            encode_scaled(fmt, 0, lin, s / 2)
        }
    }
}

/// Imprecise base-2 exponential on raw bit patterns: split `x` into the
/// integer part `n` (exponent of the result) and fraction `f ∈ [0,1)`,
/// then approximate `2^f ≈ C0 + f` (range reduction + linear
/// approximation, the same recipe as the Table 1 units).
// ihw-lint: allow(float-arith) reason=iexp2 extension unit: integer/fraction split then the linear segment C0 + f; f64 carries the small input value exactly
#[inline]
pub fn imprecise_exp2_bits(fmt: Format, x: u64) -> u64 {
    let x = flush_subnormal(fmt, x);
    let p = fmt.decompose(x);
    match fmt.classify(&p) {
        RoundedClass::Nan => fmt.nan(),
        RoundedClass::Zero => fmt.assemble(crate::format::Parts {
            sign: 0,
            biased_exp: fmt.bias() as u64,
            frac: 0,
        }), // 2^0 = 1
        RoundedClass::Infinite => {
            if p.sign == 1 {
                fmt.zero(0) // 2^-inf = 0
            } else {
                fmt.infinity(0)
            }
        }
        RoundedClass::Normal => {
            // Reconstruct the (small) input value exactly; exp2 saturates
            // long before f64 loses integer precision.
            let m = 1.0 + p.frac as f64 / fmt.hidden_bit() as f64;
            let v = {
                let mag = m * (fmt.unbiased_exp(&p) as f64).exp2();
                if p.sign == 1 {
                    -mag
                } else {
                    mag
                }
            };
            if v >= fmt.exp_max() as f64 {
                return fmt.infinity(0);
            }
            if v < fmt.min_normal_exp() as f64 - 1.0 {
                return fmt.zero(0);
            }
            let n = v.floor();
            let f = v - n; // ∈ [0, 1)
            let lin = EXP2_C0 + f; // ≈ 2^f ∈ [0.957, 1.957)
            encode_scaled(fmt, 0, lin, n as i64)
        }
    }
}

/// Imprecise log₂ on raw bit patterns.
// ihw-lint: allow(float-arith) reason=Table 1 linear approximation E + C0*m - C1; every term is exact in f64 before the truncating encode
#[inline]
pub fn imprecise_log2_bits(fmt: Format, x: u64) -> u64 {
    let x = flush_subnormal(fmt, x);
    let p = fmt.decompose(x);
    match fmt.classify(&p) {
        RoundedClass::Nan => fmt.nan(),
        RoundedClass::Zero => fmt.infinity(1),
        _ if p.sign == 1 => fmt.nan(),
        RoundedClass::Infinite => fmt.infinity(0),
        RoundedClass::Normal => {
            // log₂(m·2^E) ≈ E + C0·m − C1 with m ∈ [1,2).
            let m = 1.0 + p.frac as f64 / fmt.hidden_bit() as f64;
            let y = fmt.unbiased_exp(&p) as f64 + (LOG2_C0 * m - LOG2_C1);
            if y == 0.0 {
                fmt.zero(0)
            } else if y > 0.0 {
                encode_scaled(fmt, 0, y, 0)
            } else {
                encode_scaled(fmt, 1, -y, 0)
            }
        }
    }
}

/// Imprecise division `a / b` on raw bit patterns: the dividend multiplies
/// the linear reciprocal approximation of the divisor (`a·(C0 − C1·b)`).
// ihw-lint: allow(float-arith) reason=Table 1 division a*(C0 - C1*b): dividend times the linear reciprocal approximation, truncated into the target format
#[inline]
pub fn imprecise_div_bits(fmt: Format, a: u64, b: u64) -> u64 {
    let a = flush_subnormal(fmt, a);
    let b = flush_subnormal(fmt, b);
    let pa = fmt.decompose(a);
    let pb = fmt.decompose(b);
    let sign = pa.sign ^ pb.sign;
    match (fmt.classify(&pa), fmt.classify(&pb)) {
        (RoundedClass::Nan, _) | (_, RoundedClass::Nan) => fmt.nan(),
        (RoundedClass::Infinite, RoundedClass::Infinite) => fmt.nan(),
        (RoundedClass::Zero, RoundedClass::Zero) => fmt.nan(),
        (RoundedClass::Infinite, _) => fmt.infinity(sign),
        (_, RoundedClass::Infinite) => fmt.zero(sign),
        (RoundedClass::Zero, _) => fmt.zero(sign),
        (_, RoundedClass::Zero) => fmt.infinity(sign),
        (RoundedClass::Normal, RoundedClass::Normal) => {
            let ma = 1.0 + pa.frac as f64 / fmt.hidden_bit() as f64;
            let mb = 1.0 + pb.frac as f64 / fmt.hidden_bit() as f64;
            let rb = mb * 0.5;
            let lin = ma * (RCP_C0 - RCP_C1 * rb); // ∈ (0.94, 3.77)
            let e = fmt.unbiased_exp(&pa) - fmt.unbiased_exp(&pb) - 1;
            encode_scaled(fmt, sign, lin, e)
        }
    }
}

/// The significand `m = 1 + frac/2^23 ∈ [1, 2)` of a single-precision
/// word as an `f64`, assembled from its bits (exact).
#[inline(always)]
fn significand32(x: u32) -> f64 {
    f64::from_bits(0x3ff0_0000_0000_0000 | u64::from(x & FRAC32) << 29)
}

/// Unbiased exponent of a normal single-precision word.
#[inline(always)]
fn exp32(x: u32) -> i32 {
    ((x >> 23) & 0xff) as i32 - 127
}

/// `1/x` on a single-precision word: [`imprecise_rcp_bits`]'s `f64`
/// expression and truncating encode, with no branch, then the
/// special-operand stage (the IEEE `1/x` of the flushed operand).
// ihw-lint: allow(float-arith) reason=Table 1 linear approximation C0 - C1*r on the reduced-range significand, truncated into single precision; the special-operand stage is the host 1/x of a zero, infinite or NaN operand, which is exact
#[inline(always)]
fn rcp_word32(x: u32) -> u32 {
    let lin = RCP_C0 - RCP_C1 * (significand32(x) * 0.5);
    let normal = encode_scaled32(x & SIGN32, lin, -exp32(x) - 1);
    let host = 1.0 / f32::from_bits(flush32(x));
    sel(is_special32(x), canon32(host), normal)
}

/// `1/√x` on a single-precision word ([`imprecise_rsqrt_bits`]'s
/// expression, branch-free). Negative inputs join the special-operand
/// stage, whose IEEE `1/√x` of the flushed operand gives their NaN.
// ihw-lint: allow(float-arith) reason=Table 1 linear approximation for 1/sqrt(x) on the reduced range, odd exponents absorbing 1/sqrt(2), truncated into single precision; the special-operand stage is the host 1/sqrt(x) of a zero, negative, infinite or NaN operand, which is exact
#[inline(always)]
fn rsqrt_word32(x: u32) -> u32 {
    // x = r·2^E' with r = m/2 ∈ [0.5,1), E' = E+1:
    // 1/√x = (C0 − C1·r)·2^(−E'/2), odd E' absorbs 1/√2.
    let lin = RSQRT_C0 - RSQRT_C1 * (significand32(x) * 0.5);
    let e1 = exp32(x) + 1;
    let odd = e1 & 1;
    let lin = sel(odd == 1, lin * ONE_OVER_SQRT2, lin);
    let normal = encode_scaled32(0, lin, -(e1 - odd) / 2);
    let host = 1.0 / f32::from_bits(flush32(x)).sqrt();
    sel(is_special32(x) | (x & SIGN32 != 0), canon32(host), normal)
}

/// `√x` on a single-precision word ([`imprecise_sqrt_bits`]'s expression,
/// branch-free). Negative inputs join the special-operand stage, whose
/// IEEE `√x` of the flushed operand gives their NaN.
// ihw-lint: allow(float-arith) reason=Table 1 linear approximation r*(C0 - C1*r) on the even-exponent reduced range, truncated into single precision; the special-operand stage is the host sqrt of a zero, negative, infinite or NaN operand, which is exact
#[inline(always)]
fn sqrt_word32(x: u32) -> u32 {
    // An even exponent S puts r = x/2^S in [0.25, 1):
    // √x = r·(C0 − C1·r) · 2^(S/2).
    let e = exp32(x);
    let odd = e & 1;
    let r = significand32(x) * sel(odd == 1, 0.5, 0.25);
    let lin = r * (RSQRT_C0 - RSQRT_C1 * r);
    let normal = encode_scaled32(0, lin, (e + 2 - odd) / 2);
    let host = f32::from_bits(flush32(x)).sqrt();
    sel(is_special32(x) | (x & SIGN32 != 0), canon32(host), normal)
}

/// `log₂ x` on a single-precision word ([`imprecise_log2_bits`]'s
/// expression, branch-free). The special values come from constant
/// selects: `-inf` for a zero or subnormal, `+inf` for `+inf`, and NaN
/// for a NaN or any other negative input.
// ihw-lint: allow(float-arith) reason=Table 1 linear approximation E + C0*m - C1; every term is exact in f64 before the truncating encode
#[inline(always)]
fn log2_word32(x: u32) -> u32 {
    // log₂(m·2^E) ≈ E + C0·m − C1 with m ∈ [1,2).
    let y = f64::from(exp32(x)) + (LOG2_C0 * significand32(x) - LOG2_C1);
    let neg = y.to_bits() >> 63 == 1;
    let mag = f64::from_bits(y.to_bits() & !(1 << 63));
    let normal = sel(y == 0.0, 0, encode_scaled32(sel(neg, SIGN32, 0), mag, 0));
    let special = sel(
        x & EXP32 == 0,
        SIGN32 | EXP32,
        sel(x == EXP32, EXP32, NAN32),
    );
    sel(is_special32(x) | (x & SIGN32 != 0), special, normal)
}

/// `2^x` on a single-precision word ([`imprecise_exp2_bits`]'s
/// expression, branch-free). The special values come from constant
/// selects: `1` for a zero or subnormal, `+0` for `-inf`, `+inf` for
/// `+inf`, NaN for a NaN.
// ihw-lint: allow(float-arith) reason=iexp2 extension unit: integer/fraction split then the linear segment C0 + f; f64 carries the single-precision input exactly
#[inline(always)]
fn exp2_word32(x: u32) -> u32 {
    let v = f64::from(f32::from_bits(x));
    // Saturate before the split; the clamp keeps the off-path exponent
    // in range (its result is deselected).
    let over = v >= 255.0;
    let under = v < -127.0;
    let n = sel(over | under, 0.0, v).floor();
    let lin = EXP2_C0 + (v - n); // ≈ 2^f ∈ [0.957, 1.957)
    let normal = sel(
        over,
        EXP32,
        sel(under, 0, encode_scaled32(0, lin, n as i32)),
    );
    let special = sel(
        x & EXP32 == 0,
        1.0f32.to_bits(),
        sel(x == EXP32, EXP32, sel(x == SIGN32 | EXP32, 0, NAN32)),
    );
    sel(is_special32(x), special, normal)
}

/// `a / b` on single-precision words ([`imprecise_div_bits`]'s expression,
/// branch-free), then the special-operand stage (the IEEE quotient of
/// the flushed operands).
// ihw-lint: allow(float-arith) reason=Table 1 division a*(C0 - C1*b), truncated into single precision; the special-operand stage is the host quotient of flushed operands one of which is zero, infinite or NaN, which is exact
#[inline(always)]
fn div_word32(a: u32, b: u32) -> u32 {
    let lin = significand32(a) * (RCP_C0 - RCP_C1 * (significand32(b) * 0.5));
    let normal = encode_scaled32((a ^ b) & SIGN32, lin, exp32(a) - exp32(b) - 1);
    let host = f32::from_bits(flush32(a)) / f32::from_bits(flush32(b));
    sel(is_special32(a) | is_special32(b), canon32(host), normal)
}

macro_rules! sfu_wrappers {
    ($($(#[$doc:meta])* $name32:ident => $word32:ident, $name64:ident => $core:ident;)*) => {$(
        $(#[$doc])*
        #[inline]
        pub fn $name32(x: f32) -> f32 {
            f32::from_bits($word32(x.to_bits()))
        }
        $(#[$doc])*
        #[inline]
        pub fn $name64(x: f64) -> f64 {
            f64::from_bits($core(Format::DOUBLE, x.to_bits()))
        }
    )*};
}

sfu_wrappers! {
    /// Imprecise reciprocal `1/x` (Table 1, ε_max = 5.88%).
    ///
    /// ```
    /// use ihw_core::sfu::ircp32;
    /// assert_eq!(ircp32(f32::INFINITY), 0.0);
    /// ```
    ircp32 => rcp_word32, ircp64 => imprecise_rcp_bits;
    /// Imprecise inverse square root `1/√x` (Table 1, ε_max = 11.11%).
    ///
    /// Returns NaN for negative inputs and `+∞` at zero.
    irsqrt32 => rsqrt_word32, irsqrt64 => imprecise_rsqrt_bits;
    /// Imprecise square root `√x` (Table 1, ε_max = 11.11%).
    ///
    /// Returns NaN for negative inputs.
    isqrt32 => sqrt_word32, isqrt64 => imprecise_sqrt_bits;
    /// Imprecise base-2 logarithm (Table 1; unbounded relative error near
    /// `x = 1` but small absolute error everywhere).
    ilog2_32 => log2_word32, ilog2_64 => imprecise_log2_bits;
    /// Imprecise base-2 exponential (`iexp2` extension unit,
    /// ε_max ≈ 4.5%).
    iexp2_32 => exp2_word32, iexp2_64 => imprecise_exp2_bits;
}

/// Imprecise single precision division `a/b` (Table 1, ε_max = 5.88%).
///
/// ```
/// use ihw_core::sfu::idiv32;
/// let q = idiv32(7.0, 2.0);
/// assert!((q - 3.5).abs() / 3.5 < 0.059 + 1e-6);
/// ```
#[inline]
pub fn idiv32(a: f32, b: f32) -> f32 {
    f32::from_bits(div_word32(a.to_bits(), b.to_bits()))
}

/// Imprecise double precision division `a/b`.
#[inline]
pub fn idiv64(a: f64, b: f64) -> f64 {
    f64::from_bits(imprecise_div_bits(Format::DOUBLE, a.to_bits(), b.to_bits()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{DIV_MAX_ERROR, RCP_MAX_ERROR, RSQRT_MAX_ERROR, SQRT_MAX_ERROR};

    fn sweep(lo: f32, hi: f32, n: u32) -> impl Iterator<Item = f32> {
        (0..n).map(move |i| lo + (hi - lo) * (i as f32 + 0.5) / n as f32)
    }

    #[test]
    fn rcp_error_within_bound() {
        let mut worst = 0.0f64;
        for x in sweep(1e-3, 1e3, 40_000) {
            let approx = ircp32(x) as f64;
            let exact = 1.0 / x as f64;
            worst = worst.max(((approx - exact) / exact).abs());
        }
        assert!(worst <= RCP_MAX_ERROR + 1e-4, "worst {worst}");
        assert!(worst > 0.05, "bound nearly attained, got {worst}");
    }

    #[test]
    fn rsqrt_error_within_bound() {
        let mut worst = 0.0f64;
        for x in sweep(1e-3, 1e3, 40_000) {
            let approx = irsqrt32(x) as f64;
            let exact = 1.0 / (x as f64).sqrt();
            worst = worst.max(((approx - exact) / exact).abs());
        }
        assert!(worst <= RSQRT_MAX_ERROR + 1e-4, "worst {worst}");
        assert!(worst > 0.09, "bound nearly attained, got {worst}");
    }

    #[test]
    fn sqrt_error_within_bound() {
        let mut worst = 0.0f64;
        for x in sweep(1e-3, 1e3, 40_000) {
            let approx = isqrt32(x) as f64;
            let exact = (x as f64).sqrt();
            worst = worst.max(((approx - exact) / exact).abs());
        }
        assert!(worst <= SQRT_MAX_ERROR + 1e-4, "worst {worst}");
    }

    #[test]
    fn div_error_within_bound() {
        let mut worst = 0.0f64;
        for a in sweep(0.1, 50.0, 150) {
            for b in sweep(0.1, 50.0, 150) {
                let approx = idiv32(a, b) as f64;
                let exact = a as f64 / b as f64;
                worst = worst.max(((approx - exact) / exact).abs());
            }
        }
        assert!(worst <= DIV_MAX_ERROR + 1e-4, "worst {worst}");
    }

    #[test]
    fn log2_absolute_error_small() {
        // Relative error is unbounded near log2 = 0, so check absolute error.
        let mut worst = 0.0f64;
        for x in sweep(0.01, 1e4, 40_000) {
            let approx = ilog2_32(x) as f64;
            let exact = (x as f64).log2();
            worst = worst.max((approx - exact).abs());
        }
        assert!(worst < 0.09, "max absolute log2 error {worst}");
    }

    #[test]
    fn exponent_scaling_consistent() {
        // The relative error of rcp is invariant under power-of-two scaling
        // (only the exponent field changes).
        let x = 0.75f32;
        let y = 0.75f32 * 2.0f32.powi(40);
        let e1 = (ircp32(x) as f64 * x as f64 - 1.0).abs();
        let e2 = (ircp32(y) as f64 * y as f64 - 1.0).abs();
        assert!((e1 - e2).abs() < 1e-6);
    }

    #[test]
    fn rsqrt_odd_even_exponents() {
        // Both parities of the exponent must be handled.
        for &x in &[2.0f32, 4.0, 8.0, 16.0, 0.5, 0.25, 0.125] {
            let approx = irsqrt32(x) as f64;
            let exact = 1.0 / (x as f64).sqrt();
            assert!(
                ((approx - exact) / exact).abs() <= RSQRT_MAX_ERROR + 1e-4,
                "x={x}: {approx} vs {exact}"
            );
        }
    }

    #[test]
    fn sqrt_special_values() {
        assert!(isqrt32(-1.0).is_nan());
        assert_eq!(isqrt32(0.0), 0.0);
        assert_eq!(isqrt32(-0.0), -0.0);
        assert_eq!(isqrt32(f32::INFINITY), f32::INFINITY);
        assert!(isqrt32(f32::NAN).is_nan());
    }

    #[test]
    fn rcp_special_values() {
        assert_eq!(ircp32(0.0), f32::INFINITY);
        assert_eq!(ircp32(-0.0), f32::NEG_INFINITY);
        assert_eq!(ircp32(f32::INFINITY), 0.0);
        assert_eq!(ircp32(f32::NEG_INFINITY), -0.0);
        assert!(ircp32(f32::NAN).is_nan());
        let y = ircp32(-4.0);
        assert!(y < 0.0, "reciprocal keeps the sign");
    }

    #[test]
    fn div_special_values() {
        assert!(idiv32(0.0, 0.0).is_nan());
        assert!(idiv32(f32::INFINITY, f32::INFINITY).is_nan());
        assert_eq!(idiv32(1.0, 0.0), f32::INFINITY);
        assert_eq!(idiv32(-1.0, 0.0), f32::NEG_INFINITY);
        assert_eq!(idiv32(1.0, f32::INFINITY), 0.0);
        assert_eq!(idiv32(0.0, 5.0), 0.0);
        assert!(idiv32(f32::NAN, 1.0).is_nan());
    }

    #[test]
    fn exp2_error_within_bound() {
        let mut worst = 0.0f64;
        for x in sweep(-20.0, 20.0, 40_000) {
            let approx = iexp2_32(x) as f64;
            let exact = (x as f64).exp2();
            worst = worst.max(((approx - exact) / exact).abs());
        }
        assert!(worst <= 0.046, "worst {worst}");
        assert!(worst > 0.03, "bound nearly attained, got {worst}");
    }

    #[test]
    fn exp2_special_values() {
        assert_eq!(iexp2_32(0.0), 1.0, "the zero-input bypass is exact");
        assert!(iexp2_32(f32::NAN).is_nan());
        assert_eq!(iexp2_32(f32::NEG_INFINITY), 0.0);
        assert_eq!(iexp2_32(f32::INFINITY), f32::INFINITY);
        // Saturation.
        assert_eq!(iexp2_32(1000.0), f32::INFINITY);
        assert_eq!(iexp2_32(-1000.0), 0.0);
        // Integer inputs hit the segment start: 2^3 ≈ 8·C0.
        let y = iexp2_32(3.0) as f64;
        assert!((y - 8.0 * EXP2_C0).abs() < 1e-3, "{y}");
    }

    #[test]
    fn exp2_log2_roundtrip() {
        // iexp2(ilog2(x)) ≈ x within the combined budget.
        for &x in &[2.0f32, 3.7, 100.0, 0.3] {
            let y = iexp2_32(ilog2_32(x)) as f64;
            assert!(((y - x as f64) / x as f64).abs() < 0.12, "x={x}: {y}");
        }
    }

    #[test]
    fn log2_special_values() {
        assert_eq!(ilog2_32(0.0), f32::NEG_INFINITY);
        assert!(ilog2_32(-1.0).is_nan());
        assert_eq!(ilog2_32(f32::INFINITY), f32::INFINITY);
        assert!(ilog2_32(f32::NAN).is_nan());
        // Negative logs for inputs below 1.
        assert!(ilog2_32(0.25) < 0.0);
    }

    #[test]
    fn double_precision_matches_single_error_profile() {
        for &x in &[0.3f64, 0.77, 1.9, 123.456, 6.2e8] {
            let e32 = ((ircp32(x as f32) as f64) * x - 1.0).abs();
            let e64 = (ircp64(x) * x - 1.0).abs();
            assert!((e32 - e64).abs() < 1e-4, "x={x}: {e32} vs {e64}");
        }
    }

    #[test]
    fn subnormal_inputs_flush() {
        let sub = f32::MIN_POSITIVE / 2.0;
        assert_eq!(ircp32(sub), f32::INFINITY, "subnormal treated as zero");
        assert_eq!(isqrt32(sub), 0.0);
    }
}
