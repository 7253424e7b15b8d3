//! Segmented-correction Mitchell multiplication — a design-space
//! extension in the direction of the thesis' future work ("enabling more
//! structural parameters of IHW components to expand the design space").
//!
//! Mitchell's `log₂(1+x) ≈ x` approximation errs by up to `0.0861` (at
//! `x = 1/ln2 − 1`), which is where the multiplier's 11.11% bound comes
//! from. A classic refinement adds *piecewise-constant corrections* to
//! both conversions: the fraction selects one of `2^s` equal segments
//! and a per-segment constant — the segment mean of `log₂(1+x) − x` on
//! the way in, of `2^x − 1 − x` on the way out — is added. Hardware cost
//! is two small constant tables and adders — far below a multiplier
//! array — while the maximum error drops substantially:
//!
//! | segments | measured max error (wide operands) |
//! |----------|------------------------------------|
//! | 1 (global constants) | ≈8% |
//! | 4 | ≈5.4% |
//! | 16 | ≈2.0% |
//!
//! ```
//! use ihw_core::segmented::SegmentedMitchell;
//!
//! let sm = SegmentedMitchell::new(4);
//! let approx = sm.mul(1000, 999) as f64;
//! assert!((approx - 999_000.0).abs() / 999_000.0 < 0.03);
//! ```

/// Fixed point fraction width used internally.
const FRAC_BITS: u32 = 61;

/// A Mitchell multiplier with piecewise-constant curve corrections on
/// both the binary→log and log→binary conversions.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentedMitchell {
    segment_bits: u32,
    /// Per-segment mean of `log₂(1+x) − x` (positive), [`FRAC_BITS`]
    /// fixed point.
    log_corr: Vec<u64>,
    /// Per-segment mean of `2^x − 1 − x` (negative: `2^x` lies below the
    /// chord `1+x` on `[0,1]`), [`FRAC_BITS`] fixed point.
    exp_corr: Vec<i64>,
}

impl SegmentedMitchell {
    /// Creates a corrector with the given (power of two) segment count.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is not a power of two or exceeds 256.
    // ihw-lint: allow(float-arith) reason=correction-table construction derives the ROM contents offline; the lookup datapath itself is integer-only
    pub fn new(segments: u32) -> Self {
        assert!(
            segments.is_power_of_two(),
            "segment count must be a power of two"
        );
        let segment_bits = segments.trailing_zeros();
        assert!(segment_bits <= 8, "at most 256 segments supported");
        let n = segments as usize;
        let table = |f: &dyn Fn(f64) -> f64| -> Vec<i64> {
            (0..n)
                .map(|i| {
                    let steps = 256;
                    let mut acc = 0.0f64;
                    for s in 0..steps {
                        let x = (i as f64 + (s as f64 + 0.5) / steps as f64) / n as f64;
                        acc += f(x);
                    }
                    ((acc / steps as f64) * (1u64 << FRAC_BITS) as f64) as i64
                })
                .collect()
        };
        SegmentedMitchell {
            segment_bits,
            log_corr: table(&|x| (1.0 + x).log2() - x)
                .into_iter()
                .map(|v| v.max(0) as u64)
                .collect(),
            exp_corr: table(&|x| x.exp2() - 1.0 - x),
        }
    }

    /// Number of correction segments.
    pub fn segments(&self) -> u32 {
        1 << self.segment_bits
    }

    #[inline]
    fn segment(&self, frac: u64) -> usize {
        (frac >> (FRAC_BITS - self.segment_bits)) as usize
    }

    /// Corrected log-domain value of a non-zero operand: `(k, x + c(x))`.
    fn corrected_log(&self, n: u64) -> (u32, u64) {
        let k = 63 - n.leading_zeros();
        let x = n ^ (1u64 << k);
        let frac = if k == 0 {
            0u64
        } else {
            ((x as u128) << (FRAC_BITS - k)) as u64
        };
        // Clamp below 1.0: near x → 1 the piecewise-constant correction
        // can push x + c(x) over the log₂(2) ceiling.
        let corrected = (frac + self.log_corr[self.segment(frac)]).min((1u64 << FRAC_BITS) - 1);
        (k, corrected)
    }

    /// Approximates `a × b`.
    ///
    /// Returns 0 if either operand is 0.
    pub fn mul(&self, a: u64, b: u64) -> u128 {
        if a == 0 || b == 0 {
            return 0;
        }
        let (ka, la) = self.corrected_log(a);
        let (kb, lb) = self.corrected_log(b);
        let mut k = ka + kb;
        let mut lsum = la as u128 + lb as u128;
        let one = 1u128 << FRAC_BITS;
        if lsum >= one {
            k += 1;
            lsum -= one;
        }
        // Antilog: 2^L ≈ 1 + L + d(L), with d ≤ 0.
        let l = lsum as u64;
        let corrected = l as i64 + self.exp_corr[self.segment(l)];
        let frac = corrected.max(0) as u128;
        let base = 1u128 << k;
        let add = if k >= FRAC_BITS {
            frac << (k - FRAC_BITS)
        } else {
            frac >> (FRAC_BITS - k)
        };
        base + add
    }

    /// Maximum relative error measured over a dense sweep of wide
    /// operands (useful for design-space tables). Wide operands keep the
    /// result's integer truncation negligible, so the measured figure
    /// reflects the approximation itself — which is the regime of the
    /// mantissa multipliers this block targets.
    // ihw-lint: allow(float-arith) reason=error-metric evaluation over the table, reporting only, not a datapath
    pub fn measured_max_error(&self) -> f64 {
        let base = 1u64 << 30;
        let mut worst = 0.0f64;
        for i in (0..1024u64).step_by(3) {
            for j in (0..1024u64).step_by(7) {
                let a = base + i * (base / 1024);
                let b = base + j * (base / 1024);
                let approx = self.mul(a, b);
                let exact = (a as u128) * (b as u128);
                let err = (approx as f64 - exact as f64).abs() / exact as f64;
                worst = worst.max(err);
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mitchell::mitchell_mul;

    #[test]
    fn zero_operands() {
        let sm = SegmentedMitchell::new(4);
        assert_eq!(sm.mul(0, 9), 0);
        assert_eq!(sm.mul(9, 0), 0);
    }

    #[test]
    fn powers_of_two_nearly_exact() {
        // Unlike plain MA, the piecewise-constant correction trades the
        // exactness at x = 0 for lower error everywhere else; powers of
        // two land within the segment bound instead of exactly.
        let sm = SegmentedMitchell::new(8);
        for &(a, b) in &[(1u64 << 20, 1u64 << 22), (1 << 10, 1 << 12)] {
            let exact = (a as u128 * b as u128) as f64;
            let err = (sm.mul(a, b) as f64 - exact).abs() / exact;
            assert!(err < 0.04, "{a}×{b}: err {err}");
        }
    }

    #[test]
    fn four_segments_beat_plain_mitchell() {
        let sm = SegmentedMitchell::new(4);
        let base = 1u64 << 24;
        let mut worst_sm = 0.0f64;
        let mut worst_ma = 0.0f64;
        for i in (0..512u64).step_by(5) {
            for j in (0..512u64).step_by(7) {
                let a = base + i * (base / 512);
                let b = base + j * (base / 512);
                let exact = (a as u128 * b as u128) as f64;
                let es = (sm.mul(a, b) as f64 - exact).abs() / exact;
                let em = (mitchell_mul(a, b) as f64 - exact).abs() / exact;
                worst_sm = worst_sm.max(es);
                worst_ma = worst_ma.max(em);
            }
        }
        assert!(
            worst_sm < worst_ma / 2.0,
            "4-segment {worst_sm} vs plain {worst_ma}"
        );
        assert!(worst_sm < 0.06, "4-segment error {worst_sm}");
    }

    #[test]
    fn error_shrinks_with_segments() {
        let e1 = SegmentedMitchell::new(1).measured_max_error();
        let e4 = SegmentedMitchell::new(4).measured_max_error();
        let e16 = SegmentedMitchell::new(16).measured_max_error();
        assert!(e4 < e1, "{e4} < {e1}");
        assert!(e16 < e4, "{e16} < {e4}");
        assert!(e16 < 0.025, "16-segment error {e16}");
    }

    #[test]
    fn small_integer_truncation_matches_plain_mitchell_regime() {
        // At tiny operands the result's integer truncation dominates both
        // schemes (3×3 has only 3 result fraction bits) — the corrected
        // multiplier cannot be *worse* than the truncation floor.
        let sm = SegmentedMitchell::new(4);
        let approx = sm.mul(3, 3);
        assert!(approx == 8 || approx == 9, "3×3 → {approx}");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = SegmentedMitchell::new(3);
    }

    #[test]
    fn commutative() {
        let sm = SegmentedMitchell::new(8);
        for &(a, b) in &[(123u64, 77), (9999, 3), (511, 513)] {
            assert_eq!(sm.mul(a, b), sm.mul(b, a));
        }
    }

    #[test]
    fn segments_accessor() {
        assert_eq!(SegmentedMitchell::new(16).segments(), 16);
    }
}
