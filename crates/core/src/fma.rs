//! Imprecise fused multiply–add: `a × b ± c` built from the imprecise
//! multiplier and the threshold adder (Table 1, last row).
//!
//! Unlike an IEEE-754 FMA there is no single rounding — the intermediate
//! product is already the imprecise multiplier's output, and the accumulate
//! step goes through the `TH`-parameterised imprecise adder, so the error
//! is the composition of both units (unbounded relative error, as Table 1
//! notes, because the adder's near-cancellation case can blow up).
//!
//! ```
//! use ihw_core::fma::ifma32;
//!
//! let y = ifma32(2.0, 4.0, 1.0, 8); // 2×4 exact, +1 within threshold
//! assert_eq!(y, 9.0);
//! ```

use crate::adder::{iadd32, imprecise_add_bits};
use crate::format::Format;
use crate::multiplier::{imprecise_mul_bits, imul32};

/// Imprecise fused multiply–add on raw bit patterns: `a·b + c`.
pub fn imprecise_fma_bits(fmt: Format, a: u64, b: u64, c: u64, th: u32) -> u64 {
    let prod = imprecise_mul_bits(fmt, a, b);
    imprecise_add_bits(fmt, prod, c, th)
}

/// Imprecise single precision `a·b + c` with adder threshold `th`.
///
/// # Panics
///
/// Panics if `th` is outside [`crate::adder::TH_RANGE`].
#[inline(always)]
pub fn ifma32(a: f32, b: f32, c: f32, th: u32) -> f32 {
    iadd32(imul32(a, b), c, th)
}

/// Imprecise double precision `a·b + c` with adder threshold `th`.
///
/// # Panics
///
/// Panics if `th` is outside [`crate::adder::TH_RANGE`].
pub fn ifma64(a: f64, b: f64, c: f64, th: u32) -> f64 {
    f64::from_bits(imprecise_fma_bits(
        Format::DOUBLE,
        a.to_bits(),
        b.to_bits(),
        c.to_bits(),
        th,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_when_operands_friendly() {
        assert_eq!(ifma32(2.0, 4.0, 1.0, 8), 9.0);
        assert_eq!(ifma64(0.5, 8.0, -2.0, 8), 2.0);
    }

    #[test]
    fn composes_multiplier_error() {
        // 1.5 × 1.5 → 2.0 under the imprecise multiplier, then +0.5 exact.
        assert_eq!(ifma32(1.5, 1.5, 0.5, 8), 2.5);
    }

    #[test]
    fn composes_adder_threshold() {
        // Product 8.0 exact; addend 1/512 is 12 binades away > TH=8 → dropped.
        assert_eq!(ifma32(2.0, 4.0, 1.0 / 512.0, 8), 8.0);
    }

    #[test]
    fn special_values_propagate() {
        assert!(ifma32(f32::NAN, 1.0, 1.0, 8).is_nan());
        assert!(ifma32(f32::INFINITY, 0.0, 1.0, 8).is_nan());
        assert_eq!(ifma32(f32::INFINITY, 2.0, 5.0, 8), f32::INFINITY);
        assert!(ifma32(f32::INFINITY, 1.0, f32::NEG_INFINITY, 8).is_nan());
    }
}
