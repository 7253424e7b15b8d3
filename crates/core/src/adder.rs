//! Imprecise floating point adder/subtractor with the structural threshold
//! parameter `TH` (Chapter 3, Table 1 of the paper).
//!
//! The design-time parameter `TH ∈ [1, 27]` bounds both the alignment
//! shifter and the significand adder width:
//!
//! * if the exponent difference `d ≥ TH`, the smaller operand's mantissa is
//!   zeroed after alignment and the result equals the larger operand;
//! * if `d < TH`, the shifted smaller significand is truncated to `TH`
//!   fraction bits (the hardware only has a `TH`-bit right shifter feeding a
//!   `(TH+1)`-bit adder), e.g. with `TH = 3`, `d = 1`,
//!   `b = 1.x₁x₂x₃x₄x₅·2^eb` aligns to `b' = 0.1x₁x₂000·2^ea` (paper eq. 7).
//!
//! No IEEE-754 rounding is performed and subnormals are flushed to zero.
//! For `TH = 8` the maximum error of effective additions is below 0.78%
//! (§4.1.1); effective subtractions of nearly equal operands may produce
//! large *relative* error with tiny *absolute* magnitude (case d).
//!
//! ```
//! use ihw_core::adder::iadd32;
//!
//! // Exponent difference ≥ TH: the smaller operand vanishes entirely.
//! assert_eq!(iadd32(1024.0, 1.0, 8), 1024.0);
//! // Close operands still add (im)precisely.
//! let s = iadd32(1.5, 1.25, 8);
//! assert!((s - 2.75).abs() / 2.75 < 0.01);
//! ```

use crate::format::{canon32, flush32, is_special32, sel, Format, EXP32, SIGN32};

/// Inclusive range of valid `TH` values (Table 1: `TH ∈ [1, 27]`).
pub const TH_RANGE: std::ops::RangeInclusive<u32> = 1..=27;

/// Imprecise addition on raw bit patterns of the given format, carried
/// in a `u64` (runs [`add_word64`]).
///
/// # Panics
///
/// Panics if `th` is outside [`TH_RANGE`].
#[inline(always)]
pub fn imprecise_add_bits(fmt: Format, a: u64, b: u64, th: u32) -> u64 {
    add_word64(fmt.exp_bits, fmt.frac_bits, a, b, th)
}

/// Imprecise subtraction: `a - b` via sign inversion of `b`.
#[inline(always)]
pub fn imprecise_sub_bits(fmt: Format, a: u64, b: u64, th: u32) -> u64 {
    let sign_bit = 1u64 << (fmt.exp_bits + fmt.frac_bits);
    imprecise_add_bits(fmt, a, b ^ sign_bit, th)
}

/// Imprecise addition on one `u64` word holding a format with
/// `exp_bits`/`frac_bits` fields (double precision, binary16 and every
/// `Format`-taking caller): the normal × normal datapath evaluated
/// unconditionally (every shift clamped, so off-path operand bits cannot
/// overflow a shifter; both the effective-add and effective-subtract
/// results computed), with the IEEE special cases layered on top as a
/// select cascade in reverse priority order. Every significand
/// intermediate fits in `F + 2` bits and every exponent in an `i64`.
///
/// # Panics
///
/// Panics if `th` is outside [`TH_RANGE`].
#[inline(always)]
pub fn add_word64(exp_bits: u32, frac_bits: u32, a: u64, b: u64, th: u32) -> u64 {
    assert!(TH_RANGE.contains(&th), "TH must lie in [1, 27], got {th}");
    let f = frac_bits;
    let frac_mask: u64 = (1 << f) - 1;
    let hidden: u64 = 1 << f;
    let emax: u64 = (1 << exp_bits) - 1;
    let bias: i64 = (1 << (exp_bits - 1)) - 1;
    let sign_shift = exp_bits + f;
    let sign_bit: u64 = 1 << sign_shift;
    // Flush subnormal inputs to a same-signed zero.
    let a = sel(((a >> f) & emax) == 0, a & sign_bit, a);
    let b = sel(((b >> f) & emax) == 0, b & sign_bit, b);
    let ea = (a >> f) & emax;
    let eb = (b >> f) & emax;
    let same_sign = (a >> sign_shift) == (b >> sign_shift);
    let a_nan = ea == emax && (a & frac_mask) != 0;
    let b_nan = eb == emax && (b & frac_mask) != 0;
    let a_inf = ea == emax && (a & frac_mask) == 0;
    let b_inf = eb == emax && (b & frac_mask) == 0;
    let a_zero = ea == 0;
    let b_zero = eb == 0;

    // Compare-and-swap so that |big| >= |small|. Magnitude order for
    // normals equals integer order of the sign-masked bits (the exponent
    // field sits above the fraction).
    let swap = (a & (sign_bit - 1)) < (b & (sign_bit - 1));
    let big = sel(swap, b, a);
    let small = sel(swap, a, b);
    let e_big = (big >> f) & emax;
    let e_small = (small >> f) & emax;
    let sign = big >> sign_shift;

    // d >= th zeroes the smaller mantissa in the TH-bit shifter and the
    // sum degenerates to the larger operand; the shift clamp keeps the
    // off-path value well defined (deselected below).
    let d = (e_big - e_small) as u32;
    let m_big = hidden | (big & frac_mask);
    // Shift-and-align, then truncate to TH fraction bits (eq. 7).
    let mut m_small = (hidden | (small & frac_mask)) >> d.min(u64::BITS - 1);
    if th < f {
        let dropped = f - th;
        m_small = (m_small >> dropped) << dropped;
    }
    let exp = e_big as i64 - bias;

    // Encode, saturating to infinity on overflow and flushing to zero on
    // underflow (no subnormal outputs).
    let max_exp = emax as i64 - 1 - bias;
    let min_exp = 1 - bias;
    let zero = sign << sign_shift;
    let inf = zero | (emax << f);
    let nan = (emax << f) | (1 << (f - 1));
    let encode = |exp: i64, frac: u64| {
        let body = zero | (((exp.clamp(min_exp, max_exp) + bias) as u64) << f) | frac;
        sel(exp > max_exp, inf, sel(exp < min_exp, zero, body))
    };

    // Effective add: the carry (sum >= 2·hidden) is exactly bit F+1.
    let sum = m_big + m_small;
    let carry = (sum >> (f + 1)) & 1;
    let add_res = encode(exp + carry as i64, (sum >> carry) & frac_mask);

    // Effective subtract: m_big >= m_small by ordering + truncation, so
    // the difference never underflows. Normalize left; shifted-in bits
    // are zeros (no rounding hardware). `diff | 1` keeps the lzcnt well
    // defined at diff == 0, whose garbage result the zero select discards.
    let diff = m_big - m_small;
    let lead = (u64::BITS - 1 - (diff | 1).leading_zeros()) as i64;
    let shift = (f as i64 - lead).max(0);
    let sub_res = sel(
        diff == 0,
        0,
        encode(exp - shift, (diff << shift) & frac_mask),
    );

    let effective_sub = ((big ^ small) >> sign_shift) == 1;
    let mut r = sel(d >= th, big, sel(effective_sub, sub_res, add_res));
    r = sel(b_zero && !a_zero, a, r);
    r = sel(a_zero && !b_zero, b, r);
    // +0 + -0 = +0; equal signs keep the sign.
    r = sel(a_zero && b_zero, sel(same_sign, a, 0), r);
    r = sel(b_inf && !a_inf, b, r);
    r = sel(a_inf && !b_inf, a, r);
    // +inf + -inf = NaN; equal signs keep the infinity.
    r = sel(a_inf && b_inf, sel(same_sign, a, nan), r);
    sel(a_nan || b_nan, nan, r)
}

/// Imprecise single precision addition on one `u32` word, in `f32`
/// lanes. After the magnitude ordering, the TH-bit shifter becomes a mask
/// on the smaller operand: it keeps the bits of weight
/// `>= 2^(e_big - min(th, 23))`, and a smaller operand shifted out
/// entirely (`d >= th`, or `d > 23`) becomes its signed zero. Both terms
/// are then multiples of `2^(e_big - 23)`, so their exact sum has at most
/// 25 significant bits, and the adder's truncating encode keeps the top
/// 24 of them. The `f32` add rounds that sum to nearest; its error
/// `err = small - (s - big)` is exact (Fast2Sum, since
/// `|big| >= |small|`), and where `err` is non-zero with the sign
/// opposite to `s` the add rounded away from zero, so `s` steps one ulp
/// back toward zero. That step also turns a sum rounded up to infinity
/// into the largest finite value. At `e_big = 254` both terms are halved
/// first and the result doubled after, so a sum of `2^128` or more, whose
/// truncation overflows, still reaches infinity. A subnormal result
/// flushes to its signed zero. When either operand is zero, subnormal,
/// infinite or NaN, the result is instead the IEEE sum of the flushed
/// operands (`inf + -inf = NaN`, `+0 + -0 = +0`, `x + 0 = x`), with any
/// NaN made canonical. With no data-dependent branches the SIMT lane loops
/// that inline this auto-vectorize. `exp_bits` and `frac_bits` must be
/// single precision's.
///
/// # Panics
///
/// Panics if `th` is outside [`TH_RANGE`], or if `(exp_bits, frac_bits)`
/// is not `(8, 23)`.
// ihw-lint: allow(float-arith) reason=the f32 add of two terms on a 2^(e_big-23) grid, corrected to the adder's truncation by its exact Fast2Sum error; the special-operand stage is the host sum of flushed operands one of which is zero, infinite or NaN
#[inline(always)]
pub fn add_word32(exp_bits: u32, frac_bits: u32, a: u32, b: u32, th: u32) -> u32 {
    assert!(TH_RANGE.contains(&th), "TH must lie in [1, 27], got {th}");
    assert!(
        (exp_bits, frac_bits) == (8, 23),
        "add_word32 is single precision only, got ({exp_bits}, {frac_bits})"
    );
    // Compare-and-swap so that |big| >= |small|.
    let swap = (a & !SIGN32) < (b & !SIGN32);
    let big = sel(swap, b, a);
    let small = sel(swap, a, b);
    // The exponent fields are ordered as the magnitudes are.
    let e_big = (big & EXP32) >> 23;
    let d = e_big - ((small & EXP32) >> 23);
    let cut = (23 - th.min(23) + d).min(23);
    let small = sel(d >= th.min(24), small & SIGN32, small & (u32::MAX << cut));
    let top = e_big == 254;
    let x = f32::from_bits(big) * sel(top, 0.5, 1.0);
    let y = f32::from_bits(small) * sel(top, 0.5, 1.0);
    let s = x + y;
    let err = y - (s - x);
    // Keep the `&&`: with a non-short-circuit `&` here, LLVM leaves four
    // of the compiled engine's FMA lane loops scalar.
    let away = err != 0.0 && (err.to_bits() ^ s.to_bits()) & SIGN32 != 0;
    let s = f32::from_bits(s.to_bits() - u32::from(away)) * sel(top, 2.0, 1.0);
    let host = f32::from_bits(flush32(a)) + f32::from_bits(flush32(b));
    sel(
        is_special32(a) | is_special32(b),
        canon32(host),
        flush32(s.to_bits()),
    )
}

/// Imprecise single precision addition with threshold `th`.
///
/// # Panics
///
/// Panics if `th` is outside [`TH_RANGE`].
///
/// ```
/// use ihw_core::adder::iadd32;
/// let y = iadd32(3.0, 5.0, 8);
/// assert_eq!(y, 8.0); // exact: no alignment loss at d = 0..1
/// ```
#[inline(always)]
pub fn iadd32(a: f32, b: f32, th: u32) -> f32 {
    let f = Format::SINGLE;
    f32::from_bits(add_word32(
        f.exp_bits,
        f.frac_bits,
        a.to_bits(),
        b.to_bits(),
        th,
    ))
}

/// Imprecise single precision subtraction `a - b` with threshold `th`.
///
/// # Panics
///
/// Panics if `th` is outside [`TH_RANGE`].
#[inline(always)]
pub fn isub32(a: f32, b: f32, th: u32) -> f32 {
    iadd32(a, f32::from_bits(b.to_bits() ^ (1 << 31)), th)
}

/// Imprecise double precision addition with threshold `th`.
///
/// # Panics
///
/// Panics if `th` is outside [`TH_RANGE`].
#[inline(always)]
pub fn iadd64(a: f64, b: f64, th: u32) -> f64 {
    f64::from_bits(imprecise_add_bits(
        Format::DOUBLE,
        a.to_bits(),
        b.to_bits(),
        th,
    ))
}

/// Imprecise double precision subtraction `a - b` with threshold `th`.
///
/// # Panics
///
/// Panics if `th` is outside [`TH_RANGE`].
#[inline(always)]
pub fn isub64(a: f64, b: f64, th: u32) -> f64 {
    f64::from_bits(imprecise_sub_bits(
        Format::DOUBLE,
        a.to_bits(),
        b.to_bits(),
        th,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;

    #[test]
    fn exact_when_aligned() {
        // Operands with identical exponents suffer no truncation loss.
        assert_eq!(iadd32(1.5, 1.25, 8), 2.75);
        assert_eq!(iadd32(-1.5, -1.25, 8), -2.75);
        assert_eq!(iadd64(1.5, 1.25, 8), 2.75);
    }

    #[test]
    fn far_operand_vanishes() {
        // d = 10 >= TH = 8: small operand fully suppressed.
        assert_eq!(iadd32(1024.0, 1.0, 8), 1024.0);
        assert_eq!(iadd32(1.0, 1024.0, 8), 1024.0);
        assert_eq!(
            isub32(1024.0, 1.0, 8),
            1024.0,
            "subtraction also returns big operand"
        );
        assert_eq!(iadd64(1024.0, 1.0, 8), 1024.0);
    }

    #[test]
    fn near_operand_truncated() {
        // TH = 3, d = 1: only 3 fraction bits of the shifted operand survive.
        // a = 1.0 * 2^1, b = 1.9921875 = 1.1111111b * 2^0
        // b >> 1 = 0.11111111b, truncated to 0.111b = 0.875 (in units of 2^1)
        let y = iadd32(2.0, 1.9921875, 3);
        assert_eq!(y, 2.0 + 0.875 * 2.0);
    }

    #[test]
    fn effective_subtraction_can_cancel() {
        let y = isub32(1.5, 1.5, 8);
        assert_eq!(y, 0.0);
        assert!(y.is_sign_positive());
    }

    #[test]
    fn signs_and_commutativity() {
        for th in [1u32, 4, 8, 16, 27] {
            for &(a, b) in &[(3.5f32, -1.25), (-3.5, 1.25), (0.1, 0.2), (-7.0, -9.0)] {
                assert_eq!(iadd32(a, b, th), iadd32(b, a, th), "commutes at th={th}");
            }
        }
    }

    #[test]
    fn special_values() {
        assert!(iadd32(f32::NAN, 1.0, 8).is_nan());
        assert!(iadd32(1.0, f32::NAN, 8).is_nan());
        assert_eq!(iadd32(f32::INFINITY, 1.0, 8), f32::INFINITY);
        assert_eq!(iadd32(1.0, f32::NEG_INFINITY, 8), f32::NEG_INFINITY);
        assert!(iadd32(f32::INFINITY, f32::NEG_INFINITY, 8).is_nan());
        assert_eq!(iadd32(0.0, 5.0, 8), 5.0);
        assert_eq!(iadd32(5.0, -0.0, 8), 5.0);
        assert_eq!(iadd32(0.0, -0.0, 8), 0.0);
    }

    #[test]
    fn subnormal_inputs_flush() {
        let sub = f32::MIN_POSITIVE / 2.0;
        assert_eq!(iadd32(sub, sub, 8), 0.0);
        assert_eq!(iadd32(sub, 1.0, 8), 1.0);
    }

    #[test]
    fn error_bound_holds_for_effective_addition() {
        // §4.1.1 cases (a)+(b): eps_max < 1/(2^(TH-1)+1) for additions.
        for th in [4u32, 8, 12] {
            let bound = bounds::adder_add_bound(th);
            let mut worst = 0.0f64;
            for i in 0..2000u32 {
                let a = 1.0f32 + (i as f32) * 1.7e-4;
                for j in 0..16u32 {
                    let b = a * (1.0 + j as f32 * 0.3);
                    let approx = iadd32(a, b, th) as f64;
                    let exact = a as f64 + b as f64;
                    let err = ((approx - exact) / exact).abs();
                    worst = worst.max(err);
                }
            }
            assert!(worst <= bound, "th={th}: worst {worst} > bound {bound}");
        }
    }

    #[test]
    fn larger_th_is_more_accurate() {
        let a = 123.456f32;
        let b = 0.789f32;
        let exact = (a as f64) + (b as f64);
        let e8 = ((iadd32(a, b, 8) as f64 - exact) / exact).abs();
        let e27 = ((iadd32(a, b, 27) as f64 - exact) / exact).abs();
        assert!(e27 <= e8);
    }

    #[test]
    fn th27_matches_ieee_closely() {
        // With TH = 27 (> frac bits), only the missing round step differs.
        for &(a, b) in &[(1.0f32, 1.5), (3.25, 0.125), (100.0, 0.375)] {
            let y = iadd32(a, b, 27);
            let exact = a + b;
            assert!(((y - exact) / exact).abs() < 1e-6, "a={a} b={b}");
        }
    }

    #[test]
    #[should_panic(expected = "TH must lie in [1, 27]")]
    fn invalid_th_panics() {
        let _ = iadd32(1.0, 2.0, 0);
    }

    #[test]
    fn double_precision_truncation() {
        // TH = 8, d = 4: keep 8 fraction bits of the shifted significand.
        let a = 16.0f64;
        let b = 1.0 + 2.0f64.powi(-3) + 2.0f64.powi(-30);
        let y = iadd64(a, b, 8);
        // b >> 4 keeps bits down to 2^-8 relative to a's exponent (2^4):
        // b' = (1 + 2^-3) truncated into 8 bits after shift.
        let expected = 16.0 + 1.0 + 0.125;
        assert_eq!(y, expected);
    }
}
