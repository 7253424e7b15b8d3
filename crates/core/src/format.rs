//! IEEE-754 bit-field decomposition shared by every imprecise unit.
//!
//! All imprecise units in this crate operate on raw IEEE-754 bit patterns
//! rather than on host floating point arithmetic, mirroring the VHDL/C++
//! functional models of the paper. A [`Format`] describes a binary
//! interchange format (single or double precision); [`Parts`] holds the
//! decomposed sign / exponent / fraction fields, and the classification
//! helpers implement the paper's conventions: **subnormal inputs and
//! outputs are flushed to zero** while infinities and NaNs are preserved.
//!
//! ```
//! use ihw_core::format::{Format, RoundedClass};
//!
//! let parts = Format::SINGLE.decompose(1.5f32.to_bits() as u64);
//! assert_eq!(parts.sign, 0);
//! assert_eq!(Format::SINGLE.unbiased_exp(&parts), 0);
//! assert_eq!(parts.frac, 1 << 22); // 1.1000… in binary
//! assert_eq!(Format::SINGLE.classify(&parts), RoundedClass::Normal);
//! ```

/// Description of an IEEE-754 binary interchange format.
///
/// Only the two formats used by the paper are provided: [`Format::SINGLE`]
/// (binary32) and [`Format::DOUBLE`] (binary64). Bit patterns are always
/// carried in a `u64`; single precision patterns occupy the low 32 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Format {
    /// Number of exponent field bits (8 for single, 11 for double).
    pub exp_bits: u32,
    /// Number of stored fraction (mantissa) bits (23 for single, 52 for double).
    pub frac_bits: u32,
}

/// Decomposed IEEE-754 fields.
///
/// `frac` excludes the hidden bit; `biased_exp` is the raw exponent field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parts {
    /// Sign bit: 0 for positive, 1 for negative.
    pub sign: u64,
    /// Raw (biased) exponent field.
    pub biased_exp: u64,
    /// Stored fraction bits (no hidden bit).
    pub frac: u64,
}

/// Floating point class after the paper's subnormal flush.
///
/// Subnormal numbers never reach the imprecise datapaths: the paper states
/// "subnormal numbers are set to zero by default", so the classifier folds
/// them into [`RoundedClass::Zero`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoundedClass {
    /// Zero, or a subnormal flushed to zero.
    Zero,
    /// A normal finite number.
    Normal,
    /// Positive or negative infinity.
    Infinite,
    /// Not-a-number.
    Nan,
}

impl Format {
    /// IEEE-754 binary32 (single precision).
    pub const SINGLE: Format = Format {
        exp_bits: 8,
        frac_bits: 23,
    };
    /// IEEE-754 binary64 (double precision).
    pub const DOUBLE: Format = Format {
        exp_bits: 11,
        frac_bits: 52,
    };

    /// Total width of the format in bits.
    #[inline]
    pub const fn total_bits(&self) -> u32 {
        1 + self.exp_bits + self.frac_bits
    }

    /// Exponent bias (127 for single, 1023 for double).
    #[inline]
    pub const fn bias(&self) -> i64 {
        (1i64 << (self.exp_bits - 1)) - 1
    }

    /// Maximum raw exponent field value (all ones: infinity / NaN marker).
    #[inline]
    pub const fn exp_max(&self) -> u64 {
        (1u64 << self.exp_bits) - 1
    }

    /// Largest representable unbiased exponent of a normal number.
    #[inline]
    pub const fn max_normal_exp(&self) -> i64 {
        self.exp_max() as i64 - 1 - self.bias()
    }

    /// Smallest representable unbiased exponent of a normal number.
    #[inline]
    pub const fn min_normal_exp(&self) -> i64 {
        1 - self.bias()
    }

    /// Mask of the fraction field.
    #[inline]
    pub const fn frac_mask(&self) -> u64 {
        (1u64 << self.frac_bits) - 1
    }

    /// Value of the hidden (implicit) leading-one bit within a significand.
    #[inline]
    pub const fn hidden_bit(&self) -> u64 {
        1u64 << self.frac_bits
    }

    /// Splits a raw bit pattern into sign, biased exponent and fraction.
    #[inline(always)]
    pub fn decompose(&self, bits: u64) -> Parts {
        Parts {
            sign: (bits >> (self.exp_bits + self.frac_bits)) & 1,
            biased_exp: (bits >> self.frac_bits) & self.exp_max(),
            frac: bits & self.frac_mask(),
        }
    }

    /// Reassembles fields into a raw bit pattern.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any field exceeds its width.
    #[inline(always)]
    pub fn assemble(&self, parts: Parts) -> u64 {
        debug_assert!(parts.sign <= 1);
        debug_assert!(parts.biased_exp <= self.exp_max());
        debug_assert!(parts.frac <= self.frac_mask());
        (parts.sign << (self.exp_bits + self.frac_bits))
            | (parts.biased_exp << self.frac_bits)
            | parts.frac
    }

    /// Classifies a decomposed value, flushing subnormals to zero.
    #[inline(always)]
    pub fn classify(&self, parts: &Parts) -> RoundedClass {
        if parts.biased_exp == 0 {
            // Zero and subnormals collapse together (flush-to-zero).
            RoundedClass::Zero
        } else if parts.biased_exp == self.exp_max() {
            if parts.frac == 0 {
                RoundedClass::Infinite
            } else {
                RoundedClass::Nan
            }
        } else {
            RoundedClass::Normal
        }
    }

    /// Unbiased exponent of a normal value.
    #[inline(always)]
    pub fn unbiased_exp(&self, parts: &Parts) -> i64 {
        parts.biased_exp as i64 - self.bias()
    }

    /// Full significand (hidden bit included) of a normal value.
    #[inline(always)]
    pub fn significand(&self, parts: &Parts) -> u64 {
        self.hidden_bit() | parts.frac
    }

    /// Bit pattern of a signed zero.
    #[inline(always)]
    pub fn zero(&self, sign: u64) -> u64 {
        sign << (self.exp_bits + self.frac_bits)
    }

    /// Bit pattern of a signed infinity.
    #[inline(always)]
    pub fn infinity(&self, sign: u64) -> u64 {
        self.assemble(Parts {
            sign,
            biased_exp: self.exp_max(),
            frac: 0,
        })
    }

    /// Bit pattern of the canonical quiet NaN.
    #[inline(always)]
    pub fn nan(&self) -> u64 {
        self.assemble(Parts {
            sign: 0,
            biased_exp: self.exp_max(),
            frac: 1u64 << (self.frac_bits - 1),
        })
    }

    /// Encodes an unbiased exponent and fraction, saturating to infinity on
    /// overflow and flushing to zero on underflow (no subnormal outputs).
    #[inline(always)]
    pub fn encode_normal(&self, sign: u64, exp: i64, frac: u64) -> u64 {
        // Expressed as straight-line selects (no data-dependent branches) so
        // the SIMT lane loops that inline this can auto-vectorize.
        let over = exp > self.max_normal_exp();
        let under = exp < self.min_normal_exp();
        let clamped = exp.clamp(self.min_normal_exp(), self.max_normal_exp());
        let body = (sign << (self.exp_bits + self.frac_bits))
            | (((clamped + self.bias()) as u64) << self.frac_bits)
            | frac;
        let encoded = if under { self.zero(sign) } else { body };
        if over {
            self.infinity(sign)
        } else {
            encoded
        }
    }

    /// Converts a finite positive `f64` value into this format's bit pattern
    /// by truncating excess mantissa bits (the imprecise units never round).
    ///
    /// Used by the SFU models to re-encode the result of a linear
    /// approximation that was evaluated in double precision. Zero, negative,
    /// and non-finite inputs must be handled by the caller.
    #[inline]
    pub fn encode_truncating(&self, sign: u64, value: f64) -> u64 {
        debug_assert!(value.is_finite() && value > 0.0);
        let bits = value.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
        let frac52 = bits & ((1u64 << 52) - 1);
        let frac = if self.frac_bits >= 52 {
            frac52 << (self.frac_bits - 52)
        } else {
            frac52 >> (52 - self.frac_bits)
        };
        self.encode_normal(sign, exp, frac)
    }

    /// Reconstructs the real value `(1 + frac/2^F) * 2^exp * (-1)^sign` as an
    /// `f64` (exact for both supported formats; used only for reference
    /// computations and diagnostics, never on the imprecise datapath).
    // ihw-lint: allow(float-arith, lossy-cast) reason=exact decode of a stored value into f64; every field fits the f64 significand
    #[inline]
    pub fn to_f64(&self, bits: u64) -> f64 {
        let parts = self.decompose(bits);
        match self.classify(&parts) {
            RoundedClass::Zero => {
                if parts.sign == 1 {
                    -0.0
                } else {
                    0.0
                }
            }
            RoundedClass::Infinite => {
                if parts.sign == 1 {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                }
            }
            RoundedClass::Nan => f64::NAN,
            RoundedClass::Normal => {
                let m = 1.0 + parts.frac as f64 / self.hidden_bit() as f64;
                let v = m * (self.unbiased_exp(&parts) as f64).exp2();
                if parts.sign == 1 {
                    -v
                } else {
                    v
                }
            }
        }
    }
}

/// Flushes a subnormal bit pattern to a same-signed zero, leaving all other
/// values untouched. All imprecise units call this on their inputs.
#[inline(always)]
pub fn flush_subnormal(fmt: Format, bits: u64) -> u64 {
    let parts = fmt.decompose(bits);
    if parts.biased_exp == 0 && parts.frac != 0 {
        fmt.zero(parts.sign)
    } else {
        bits
    }
}

/// Branch-free select on raw bit patterns, used by the units'
/// straight-line select cascades.
#[inline(always)]
pub(crate) fn sel<T>(cond: bool, t: T, f: T) -> T {
    if cond {
        t
    } else {
        f
    }
}

/// Sign bit of a single-precision word.
pub(crate) const SIGN32: u32 = 1 << 31;
/// Exponent field of a single-precision word.
pub(crate) const EXP32: u32 = 0xff << 23;
/// Fraction field of a single-precision word.
pub(crate) const FRAC32: u32 = (1 << 23) - 1;
/// The canonical quiet NaN every single-precision unit returns.
pub(crate) const NAN32: u32 = 0x7fc0_0000;

/// True for a zero, subnormal, infinite or NaN single-precision word:
/// the operands whose result the units' special-operand stage supplies.
/// One subtract and one compare: the normals are the magnitudes in
/// `[0x0080_0000, 0x7f80_0000)`, which the subtract moves to
/// `[0, 0x7f00_0000)` and every other magnitude wraps out of.
#[inline(always)]
pub(crate) fn is_special32(x: u32) -> bool {
    (x & !SIGN32).wrapping_sub(0x0080_0000) >= 0x7f00_0000
}

/// Flushes a subnormal single-precision word to its signed zero.
#[inline(always)]
pub(crate) fn flush32(x: u32) -> u32 {
    sel(x & EXP32 == 0, x & SIGN32, x)
}

/// Bits of a host `f32` result with any NaN mapped to [`NAN32`].
#[inline(always)]
pub(crate) fn canon32(x: f32) -> u32 {
    sel(x.is_nan(), NAN32, x.to_bits())
}

/// Truncating encode of `value · 2^extra_exp` into a single-precision
/// word with sign bit `sign` (`0` or [`SIGN32`]): the exponent and the top
/// 23 fraction bits of `value`, saturating to a signed infinity above
/// exponent 127 and flushing to a signed zero below -126. `value` must be
/// a positive normal `f64`; the single-precision twin of
/// [`Format::encode_truncating`], with no branch.
#[inline(always)]
pub(crate) fn encode_scaled32(sign: u32, value: f64, extra_exp: i32) -> u32 {
    let bits = value.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1023 + extra_exp;
    let frac = (bits >> 29) as u32 & FRAC32;
    let body = sign | (((exp + 127) as u32) << 23) | frac;
    sel(exp > 127, sign | EXP32, sel(exp < -126, sign, body))
}

/// Convenience wrapper: raw bits of an `f32` widened to `u64`.
#[inline]
pub fn f32_bits(x: f32) -> u64 {
    x.to_bits() as u64
}

/// Convenience wrapper: reconstruct an `f32` from widened raw bits.
#[inline]
pub fn bits_f32(bits: u64) -> f32 {
    f32::from_bits(bits as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_constants() {
        assert_eq!(Format::SINGLE.bias(), 127);
        assert_eq!(Format::SINGLE.total_bits(), 32);
        assert_eq!(Format::SINGLE.exp_max(), 255);
        assert_eq!(Format::SINGLE.max_normal_exp(), 127);
        assert_eq!(Format::SINGLE.min_normal_exp(), -126);
    }

    #[test]
    fn double_constants() {
        assert_eq!(Format::DOUBLE.bias(), 1023);
        assert_eq!(Format::DOUBLE.total_bits(), 64);
        assert_eq!(Format::DOUBLE.hidden_bit(), 1u64 << 52);
    }

    #[test]
    fn decompose_assemble_roundtrip_f32() {
        for &x in &[0.0f32, -0.0, 1.0, -1.5, 3.25e10, f32::MIN_POSITIVE, 1e-20] {
            let bits = f32_bits(x);
            let parts = Format::SINGLE.decompose(bits);
            assert_eq!(Format::SINGLE.assemble(parts), bits, "roundtrip of {x}");
        }
    }

    #[test]
    fn decompose_assemble_roundtrip_f64() {
        for &x in &[0.0f64, -2.75, 1.0e300, -1.0e-300, f64::MIN_POSITIVE] {
            let bits = x.to_bits();
            let parts = Format::DOUBLE.decompose(bits);
            assert_eq!(Format::DOUBLE.assemble(parts), bits, "roundtrip of {x}");
        }
    }

    #[test]
    fn classify_all_classes() {
        let f = Format::SINGLE;
        let z = f.decompose(f32_bits(0.0));
        assert_eq!(f.classify(&z), RoundedClass::Zero);
        let sub = f.decompose(f32_bits(f32::MIN_POSITIVE / 2.0));
        assert_eq!(
            f.classify(&sub),
            RoundedClass::Zero,
            "subnormal flushes to zero"
        );
        let n = f.decompose(f32_bits(1.0));
        assert_eq!(f.classify(&n), RoundedClass::Normal);
        let inf = f.decompose(f32_bits(f32::INFINITY));
        assert_eq!(f.classify(&inf), RoundedClass::Infinite);
        let nan = f.decompose(f32_bits(f32::NAN));
        assert_eq!(f.classify(&nan), RoundedClass::Nan);
    }

    #[test]
    fn flush_subnormal_behaviour() {
        let f = Format::SINGLE;
        let sub = f32_bits(-f32::MIN_POSITIVE / 4.0);
        assert_eq!(flush_subnormal(f, sub), f.zero(1));
        let normal = f32_bits(2.5);
        assert_eq!(flush_subnormal(f, normal), normal);
    }

    #[test]
    fn encode_normal_saturates() {
        let f = Format::SINGLE;
        assert_eq!(f.encode_normal(0, 200, 0), f.infinity(0));
        assert_eq!(f.encode_normal(1, -200, 0), f.zero(1));
        let one_half = f.encode_normal(0, -1, 0);
        assert_eq!(bits_f32(one_half), 0.5);
    }

    #[test]
    fn encode_truncating_truncates_not_rounds() {
        let f = Format::SINGLE;
        // A value whose f32 representation would round up; truncation keeps
        // the lower neighbour.
        let v = 1.0 + (0.75 * 2.0f64.powi(-23)); // between 1.0 and 1.0+2^-23
        let bits = f.encode_truncating(0, v);
        assert_eq!(bits_f32(bits), 1.0);
    }

    #[test]
    fn to_f64_matches_native() {
        for &x in &[1.0f32, -3.75, 6.02e23, 1.5e-30] {
            assert_eq!(Format::SINGLE.to_f64(f32_bits(x)), x as f64);
        }
        for &x in &[1.0f64, -3.75, 6.02e123] {
            assert_eq!(Format::DOUBLE.to_f64(x.to_bits()), x);
        }
    }

    #[test]
    fn nan_and_infinity_patterns() {
        let f = Format::SINGLE;
        assert!(bits_f32(f.nan()).is_nan());
        assert_eq!(bits_f32(f.infinity(0)), f32::INFINITY);
        assert_eq!(bits_f32(f.infinity(1)), f32::NEG_INFINITY);
    }
}
