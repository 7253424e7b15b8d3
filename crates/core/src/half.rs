//! Half precision (IEEE-754 binary16) support — an extension of the unit
//! set to the storage format mobile and ML-oriented GPUs expose.
//!
//! The bit-level unit models in this crate are format-generic, so
//! extending them to binary16 only needs the format descriptor
//! ([`Format::HALF`]) and a storage type. [`F16`] is a minimal half
//! float: raw bits plus exact conversions to/from `f32` (every binary16
//! value is exactly representable in binary32).
//!
//! ```
//! use ihw_core::half::{F16, imul16};
//!
//! let a = F16::from_f32(1.5);
//! let b = F16::from_f32(1.5);
//! assert_eq!(imul16(a, b).to_f32(), 2.0); // Table 1 multiplier, true 2.25
//! ```

use crate::adder::{imprecise_add_bits, imprecise_sub_bits};
use crate::format::Format;
use crate::multiplier::imprecise_mul_bits;
use crate::sfu::{imprecise_rcp_bits, imprecise_rsqrt_bits, imprecise_sqrt_bits};

impl Format {
    /// IEEE-754 binary16 (half precision): 5 exponent bits, 10 fraction
    /// bits, bias 15.
    pub const HALF: Format = Format {
        exp_bits: 5,
        frac_bits: 10,
    };
}

/// A half precision value stored as its raw bit pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct F16(pub u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// One.
    pub const ONE: F16 = F16(0x3c00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7c00);

    /// Converts from `f32` with round-to-nearest-even, flushing
    /// out-of-range magnitudes to infinity and subnormals to zero (the
    /// imprecise datapaths flush them anyway).
    pub fn from_f32(x: f32) -> F16 {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        if x.is_nan() {
            return F16(0x7e00);
        }
        if x.is_infinite() {
            return F16(sign | 0x7c00);
        }
        let exp = ((bits >> 23) & 0xff) as i32 - 127;
        if exp > 15 {
            return F16(sign | 0x7c00); // overflow → infinity
        }
        if exp < -14 {
            return F16(sign); // subnormal/underflow → signed zero
        }
        let frac = bits & 0x7f_ffff;
        // Round the 23-bit fraction to 10 bits (nearest even).
        let shifted = frac >> 13;
        let rem = frac & 0x1fff;
        let half = 0x1000;
        let mut frac10 = shifted;
        if rem > half || (rem == half && (shifted & 1) == 1) {
            frac10 += 1;
        }
        let mut e = (exp + 15) as u32;
        if frac10 == 0x400 {
            frac10 = 0;
            e += 1;
            if e >= 31 {
                return F16(sign | 0x7c00);
            }
        }
        F16(sign | ((e as u16) << 10) | frac10 as u16)
    }

    /// Converts to `f32` (exact).
    // ihw-lint: allow(float-arith, lossy-cast) reason=subnormal reconstruction: frac is a 10-bit integer, exact in f32, scaled by the constant 2^-24
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 as u32) & 0x8000) << 16;
        let exp = (self.0 >> 10) & 0x1f;
        let frac = (self.0 & 0x3ff) as u32;
        match exp {
            0 => {
                if frac == 0 {
                    f32::from_bits(sign)
                } else {
                    // Subnormal: value = frac · 2⁻²⁴.
                    let v = frac as f32 * (-24.0f32).exp2();
                    if sign != 0 {
                        -v
                    } else {
                        v
                    }
                }
            }
            31 => {
                if frac == 0 {
                    f32::from_bits(sign | 0x7f80_0000)
                } else {
                    f32::NAN
                }
            }
            _ => {
                let e = (exp as u32 + 127 - 15) << 23;
                f32::from_bits(sign | e | (frac << 13))
            }
        }
    }

    /// True if the value is NaN.
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7c00) == 0x7c00 && (self.0 & 0x3ff) != 0
    }
}

impl From<F16> for f32 {
    fn from(x: F16) -> f32 {
        x.to_f32()
    }
}

impl std::fmt::Display for F16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

/// Imprecise half precision addition with threshold `th`.
///
/// # Panics
///
/// Panics if `th` is outside [`crate::adder::TH_RANGE`].
pub fn iadd16(a: F16, b: F16, th: u32) -> F16 {
    F16(imprecise_add_bits(Format::HALF, a.0 as u64, b.0 as u64, th) as u16)
}

/// Imprecise half precision subtraction with threshold `th`.
///
/// # Panics
///
/// Panics if `th` is outside [`crate::adder::TH_RANGE`].
pub fn isub16(a: F16, b: F16, th: u32) -> F16 {
    F16(imprecise_sub_bits(Format::HALF, a.0 as u64, b.0 as u64, th) as u16)
}

/// Imprecise half precision multiplication (Table 1 unit).
pub fn imul16(a: F16, b: F16) -> F16 {
    F16(imprecise_mul_bits(Format::HALF, a.0 as u64, b.0 as u64) as u16)
}

/// Imprecise half precision reciprocal.
pub fn ircp16(x: F16) -> F16 {
    F16(imprecise_rcp_bits(Format::HALF, x.0 as u64) as u16)
}

/// Imprecise half precision square root.
pub fn isqrt16(x: F16) -> F16 {
    F16(imprecise_sqrt_bits(Format::HALF, x.0 as u64) as u16)
}

/// Imprecise half precision inverse square root.
pub fn irsqrt16(x: F16) -> F16 {
    F16(imprecise_rsqrt_bits(Format::HALF, x.0 as u64) as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;

    #[test]
    fn half_format_constants() {
        assert_eq!(Format::HALF.bias(), 15);
        assert_eq!(Format::HALF.total_bits(), 16);
        assert_eq!(Format::HALF.hidden_bit(), 1 << 10);
    }

    #[test]
    fn conversion_roundtrip_exact_values() {
        for &x in &[0.0f32, 1.0, -1.5, 2.0, 0.5, 65504.0, -0.25, 1024.0] {
            let h = F16::from_f32(x);
            assert_eq!(h.to_f32(), x, "roundtrip of {x}");
        }
    }

    #[test]
    fn conversion_special_values() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert_eq!(F16::from_f32(f32::INFINITY), F16::INFINITY);
        assert_eq!(F16::from_f32(1e10).0, 0x7c00, "overflow saturates to inf");
        assert_eq!(F16::from_f32(1e-10).0, 0, "underflow flushes to zero");
        assert_eq!(F16::from_f32(-1e-10).0, 0x8000);
        assert!(F16::INFINITY.to_f32().is_infinite());
    }

    #[test]
    fn rounding_to_nearest_even() {
        // 1 + 2^-11 sits exactly between two half values → rounds to even.
        let x = 1.0 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(x).to_f32(), 1.0);
        // 1 + 3·2^-11 rounds up to 1 + 2^-9? No: to nearest (1 + 2^-10)… just
        // above the midpoint rounds away.
        let y = 1.0 + 1.5 * 2.0f32.powi(-10);
        assert_eq!(F16::from_f32(y).to_f32(), 1.0 + 2.0f32.powi(-9));
    }

    #[test]
    fn imprecise_units_respect_bounds() {
        // Same algorithms, same bounds — at half precision granularity.
        for i in 0..200u32 {
            let a = F16::from_f32(1.0 + i as f32 / 200.0);
            let b = F16::from_f32(1.0 + ((i * 37) % 200) as f32 / 200.0);
            let exact = a.to_f32() as f64 * b.to_f32() as f64;
            let approx = imul16(a, b).to_f32() as f64;
            let rel = ((approx - exact) / exact).abs();
            assert!(rel <= bounds::IFPMUL_MAX_ERROR + 2e-3, "mul {a}×{b}: {rel}");
        }
    }

    #[test]
    fn adder_threshold_behaviour() {
        // d ≥ TH drops the small operand, as in the wider formats.
        let big = F16::from_f32(1024.0);
        let small = F16::from_f32(1.0);
        assert_eq!(iadd16(big, small, 8).to_f32(), 1024.0);
        let y = iadd16(F16::from_f32(1.5), F16::from_f32(1.25), 8);
        assert_eq!(y.to_f32(), 2.75);
        assert_eq!(
            isub16(F16::from_f32(3.0), F16::from_f32(1.0), 8).to_f32(),
            2.0
        );
    }

    #[test]
    fn sfu_units_work_at_half_precision() {
        let x = F16::from_f32(0.75);
        let rcp = ircp16(x).to_f32() as f64;
        assert!(
            (rcp * 0.75 - 1.0).abs() < bounds::RCP_MAX_ERROR + 5e-3,
            "rcp {rcp}"
        );
        let s = isqrt16(F16::from_f32(2.0)).to_f32() as f64;
        assert!((s / 2.0f64.sqrt() - 1.0).abs() < bounds::SQRT_MAX_ERROR + 5e-3);
        let r = irsqrt16(F16::from_f32(2.0)).to_f32() as f64;
        assert!((r * 2.0f64.sqrt() - 1.0).abs() < bounds::RSQRT_MAX_ERROR + 5e-3);
    }

    #[test]
    fn th_covers_whole_half_mantissa() {
        // With only 10 fraction bits, TH = 11 already keeps every bit.
        let a = F16::from_f32(100.0);
        let b = F16::from_f32(3.5);
        let exact = 103.5f32;
        let y = iadd16(a, b, 27).to_f32();
        assert!((y - exact).abs() / exact < 1e-2);
    }

    #[test]
    fn exhaustive_f16_unary_units_never_panic() {
        // Every one of the 65536 half precision bit patterns goes through
        // every unary unit; results for normal positive inputs stay within
        // the unit bounds, and specials never panic.
        for bits in 0..=u16::MAX {
            let x = F16(bits);
            let _ = ircp16(x);
            let _ = isqrt16(x);
            let _ = irsqrt16(x);
            let xf = x.to_f32();
            // Keep the reciprocal well inside the normal range: near the
            // min-normal boundary the (underestimating) linear reciprocal
            // legitimately flushes to zero.
            if xf.is_finite() && (2.0f32.powi(-12)..8192.0).contains(&xf) {
                let rcp = ircp16(x).to_f32() as f64;
                let rel = (rcp * xf as f64 - 1.0).abs();
                assert!(rel < bounds::RCP_MAX_ERROR + 6e-3, "rcp({xf}): {rel}");
            }
        }
    }

    #[test]
    fn exhaustive_f16_adder_self_sum() {
        // x + x doubles the exponent path for every normal pattern.
        for bits in 0..=u16::MAX {
            let x = F16(bits);
            let y = iadd16(x, x, 8);
            let xf = x.to_f32() as f64;
            let yf = y.to_f32() as f64;
            if xf.is_finite() && xf.abs() >= 2.0f32.powi(-13) as f64 && xf.abs() < 32000.0 {
                // TH = 8 truncates the aligned operand to 8 of the 10
                // fraction bits: error up to 2^-9 ≈ 0.2%.
                assert!(
                    ((yf - 2.0 * xf) / (2.0 * xf)).abs() < 2.5e-3,
                    "{xf} + {xf} -> {yf}"
                );
            }
        }
    }

    #[test]
    fn display_and_default() {
        assert_eq!(format!("{}", F16::ONE), "1");
        assert_eq!(F16::default(), F16::ZERO);
    }
}
