//! # ihw-qmc — low-discrepancy sequences for error characterization
//!
//! The paper characterizes each imprecise unit with 200 million inputs
//! generated by the *quasi-Monte Carlo* method (§4.2, citing Caflisch,
//! paper reference 24): ordinary pseudo-random sampling "would result in an extremely
//! large sample space, making the characterization processes very slow and
//! producing biased results", so a low-discrepancy sequence is used to
//! cover the characterization range with better uniformity.
//!
//! This crate provides the classical constructions:
//!
//! * [`van_der_corput`] — the radical-inverse sequence in one dimension;
//! * [`Halton`] — multi-dimensional sequences using coprime bases;
//! * [`Hammersley`] — the finite 2-D point set `(i/n, φ₂(i))`.
//!
//! ```
//! use ihw_qmc::Halton;
//!
//! // 2-D low-discrepancy points in the unit square.
//! let pts: Vec<[f64; 2]> = Halton::new_2d().take(4).collect();
//! assert_eq!(pts[0], [0.5, 1.0 / 3.0]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// The first few primes, used as Halton bases.
pub const PRIMES: [u64; 8] = [2, 3, 5, 7, 11, 13, 17, 19];

/// Radical inverse of `index` in the given `base` (the van der Corput
/// sequence element `φ_base(index)`), in `[0, 1)`.
///
/// # Panics
///
/// Panics if `base < 2`.
///
/// ```
/// use ihw_qmc::van_der_corput;
/// assert_eq!(van_der_corput(1, 2), 0.5);
/// assert_eq!(van_der_corput(2, 2), 0.25);
/// assert_eq!(van_der_corput(3, 2), 0.75);
/// ```
pub fn van_der_corput(index: u64, base: u64) -> f64 {
    assert!(base >= 2, "radical inverse base must be at least 2");
    if base == 2 {
        return van_der_corput_base2(index);
    }
    radical_inverse_loop(index, base)
}

/// Base-2 radical inverse in O(1) via bit reversal: the binary digits of
/// `index` mirrored across the binary point are exactly
/// `index.reverse_bits() / 2^64`.
///
/// For `index < 2^53` every digit fits the `f64` mantissa, so the result
/// is bit-identical to the generic digit loop (the loop's partial sums
/// are all exactly representable dyadic rationals). Larger indices fall
/// back to the loop so the two paths never diverge. This is the hot
/// path of [`Halton`] dimension 0 and [`Hammersley`]/[`Sobol2`]-style
/// characterization sweeps, which draw tens of millions of base-2
/// samples.
#[inline]
pub fn van_der_corput_base2(index: u64) -> f64 {
    if index < (1u64 << 53) {
        // reverse_bits() moves digit k to bit 63−k; the low 11 bits are
        // zero for indices below 2^53, so the shift loses nothing.
        (index.reverse_bits() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    } else {
        radical_inverse_loop(index, 2)
    }
}

/// Generic digit-by-digit radical inverse (any base ≥ 2).
fn radical_inverse_loop(mut index: u64, base: u64) -> f64 {
    let mut result = 0.0;
    let mut denom = 1.0;
    let b = base as f64;
    while index > 0 {
        denom *= b;
        result += (index % base) as f64 / denom;
        index /= base;
    }
    result
}

/// An iterator over a `D`-dimensional Halton sequence.
///
/// Successive points fill the unit hypercube `[0,1)^D` with low
/// discrepancy. Dimensions use the first `D` primes as bases by default.
///
/// ```
/// use ihw_qmc::Halton;
/// let mut h = Halton::<2>::new_2d();
/// assert_eq!(h.next(), Some([0.5, 1.0 / 3.0]));
/// ```
#[derive(Debug, Clone)]
pub struct Halton<const D: usize> {
    bases: [u64; D],
    index: u64,
}

impl<const D: usize> Halton<D> {
    /// Creates a Halton sequence over the first `D` primes, starting at
    /// index 1 (index 0 is the degenerate all-zeros point).
    ///
    /// # Panics
    ///
    /// Panics if `D` exceeds the number of built-in primes
    /// ([`PRIMES`]`.len()`).
    pub fn new() -> Self {
        assert!(
            D <= PRIMES.len(),
            "at most {} dimensions supported",
            PRIMES.len()
        );
        let mut bases = [0u64; D];
        bases.copy_from_slice(&PRIMES[..D]);
        Halton { bases, index: 1 }
    }

    /// Creates a Halton sequence with explicit (pairwise coprime) bases.
    ///
    /// # Panics
    ///
    /// Panics if any base is below 2.
    pub fn with_bases(bases: [u64; D]) -> Self {
        assert!(bases.iter().all(|&b| b >= 2), "all bases must be ≥ 2");
        Halton { bases, index: 1 }
    }

    /// Skips ahead to the given sequence index (1-based).
    pub fn starting_at(mut self, index: u64) -> Self {
        self.index = index.max(1);
        self
    }
}

impl Halton<2> {
    /// Convenience constructor for the common 2-D (binary, ternary) case.
    pub fn new_2d() -> Self {
        Halton::new()
    }
}

impl<const D: usize> Default for Halton<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize> Iterator for Halton<D> {
    type Item = [f64; D];

    fn next(&mut self) -> Option<[f64; D]> {
        let mut point = [0.0; D];
        for (p, &b) in point.iter_mut().zip(self.bases.iter()) {
            *p = van_der_corput(self.index, b);
        }
        self.index += 1;
        Some(point)
    }
}

/// The 2-D Hammersley point set of size `n`: `(i/n, φ₂(i))`.
///
/// Better discrepancy than Halton when the sample count is known upfront.
///
/// ```
/// use ihw_qmc::Hammersley;
/// let pts: Vec<[f64; 2]> = Hammersley::new(4).collect();
/// assert_eq!(pts[2], [0.5, 0.25]);
/// ```
#[derive(Debug, Clone)]
pub struct Hammersley {
    n: u64,
    index: u64,
}

impl Hammersley {
    /// Creates the point set of size `n`.
    pub fn new(n: u64) -> Self {
        Hammersley { n, index: 0 }
    }
}

impl Iterator for Hammersley {
    type Item = [f64; 2];

    fn next(&mut self) -> Option<[f64; 2]> {
        if self.index >= self.n {
            return None;
        }
        let p = [
            self.index as f64 / self.n as f64,
            van_der_corput(self.index, 2),
        ];
        self.index += 1;
        Some(p)
    }
}

/// A 2-D Sobol sequence (binary digital net), the low-discrepancy
/// construction most Monte-Carlo packages default to.
///
/// Dimension 0 is the van der Corput sequence in base 2; dimension 1 uses
/// the direction numbers of the primitive polynomial `x² + x + 1`. Sobol
/// points fill the unit square more evenly than Halton at equal counts.
///
/// ```
/// use ihw_qmc::Sobol2;
/// let pts: Vec<[f64; 2]> = Sobol2::new().take(4).collect();
/// assert_eq!(pts[1], [0.5, 0.5]);
/// assert_eq!(pts[2], [0.75, 0.25]);
/// ```
#[derive(Debug, Clone)]
pub struct Sobol2 {
    index: u64,
    x: [u64; 2],
    direction: [[u64; 63]; 2],
}

impl Sobol2 {
    /// Bits of precision in each coordinate.
    const BITS: u32 = 63;

    /// Creates the sequence starting at index 0 (the origin point).
    pub fn new() -> Self {
        let mut direction = [[0u64; 63]; 2];
        // Dimension 0: identity direction numbers (van der Corput).
        for (j, v) in direction[0].iter_mut().enumerate() {
            *v = 1u64 << (Self::BITS - 1 - j as u32);
        }
        // Dimension 1: polynomial x² + x + 1 (degree 2, a = 1), initial
        // direction numbers m₁ = 1, m₂ = 3.
        let m = [1u64, 3];
        let mut mj = [0u64; 63];
        mj[0] = m[0];
        mj[1] = m[1];
        for j in 2..63 {
            // m_j = m_{j−1} XOR 2·m_{j−1} XOR 4·m_{j−2}  (degree-2 recurrence)
            mj[j] = mj[j - 1] ^ (2 * mj[j - 1]) ^ (4 * mj[j - 2]);
        }
        for j in 0..63 {
            direction[1][j] = mj[j] << (Self::BITS - 1 - j as u32);
        }
        Sobol2 {
            index: 0,
            x: [0, 0],
            direction,
        }
    }
}

impl Default for Sobol2 {
    fn default() -> Self {
        Self::new()
    }
}

impl Iterator for Sobol2 {
    type Item = [f64; 2];

    fn next(&mut self) -> Option<[f64; 2]> {
        let point = [
            self.x[0] as f64 / (1u64 << Self::BITS) as f64,
            self.x[1] as f64 / (1u64 << Self::BITS) as f64,
        ];
        // Gray-code update: flip the direction number of the lowest zero
        // bit of the index.
        let c = self.index.trailing_ones() as usize;
        if c < 63 {
            self.x[0] ^= self.direction[0][c];
            self.x[1] ^= self.direction[1][c];
        }
        self.index += 1;
        Some(point)
    }
}

/// Maps a unit-interval sample into `[lo, hi)`.
///
/// ```
/// use ihw_qmc::scale;
/// assert_eq!(scale(0.5, 2.0, 4.0), 3.0);
/// ```
#[inline]
pub fn scale(u: f64, lo: f64, hi: f64) -> f64 {
    lo + u * (hi - lo)
}

/// Star-discrepancy of a 1-D sample (exact formula for sorted samples):
/// `D* = max_i max(|x_i − i/n|, |x_i − (i+1)/n|)`.
///
/// Used by the test-suite and the ablation bench to demonstrate that the
/// quasi-MC sequences cover the range more uniformly than pseudo-random
/// sampling.
///
/// # Panics
///
/// Panics if any sample is NaN.
pub fn star_discrepancy_1d(samples: &[f64]) -> f64 {
    let mut xs: Vec<f64> = samples.to_vec();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = xs.len() as f64;
    xs.iter()
        .enumerate()
        .map(|(i, &x)| {
            let lo = (x - i as f64 / n).abs();
            let hi = (x - (i as f64 + 1.0) / n).abs();
            lo.max(hi)
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn van_der_corput_base2_prefix() {
        let expected = [0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(van_der_corput(i as u64 + 1, 2), e);
        }
    }

    #[test]
    fn van_der_corput_base3_prefix() {
        let expected = [1.0 / 3.0, 2.0 / 3.0, 1.0 / 9.0, 4.0 / 9.0, 7.0 / 9.0];
        for (i, &e) in expected.iter().enumerate() {
            assert!((van_der_corput(i as u64 + 1, 3) - e).abs() < 1e-15);
        }
    }

    #[test]
    #[should_panic(expected = "base must be at least 2")]
    fn van_der_corput_rejects_base_1() {
        let _ = van_der_corput(5, 1);
    }

    #[test]
    fn base2_fast_path_matches_digit_loop() {
        // The bit-reversal shortcut must be bit-identical to the generic
        // digit loop over the first 10^5 indices...
        for i in 0..100_000u64 {
            let fast = van_der_corput_base2(i);
            let slow = radical_inverse_loop(i, 2);
            assert_eq!(
                fast.to_bits(),
                slow.to_bits(),
                "index {i}: {fast} vs {slow}"
            );
        }
        // ...and at the 2^53 boundary where it hands back to the loop.
        for i in [(1u64 << 53) - 2, (1 << 53) - 1, 1 << 53, (1 << 53) + 1] {
            assert_eq!(
                van_der_corput_base2(i).to_bits(),
                radical_inverse_loop(i, 2).to_bits(),
                "index {i}"
            );
        }
    }

    #[test]
    fn halton_in_unit_cube() {
        for p in Halton::<3>::new().take(10_000) {
            for &c in &p {
                assert!((0.0..1.0).contains(&c));
            }
        }
    }

    #[test]
    fn halton_starting_at_skips() {
        let direct: Vec<_> = Halton::<2>::new().skip(99).take(5).collect();
        let skipped: Vec<_> = Halton::<2>::new().starting_at(100).take(5).collect();
        assert_eq!(direct, skipped);
    }

    #[test]
    fn hammersley_size_and_range() {
        let pts: Vec<_> = Hammersley::new(1000).collect();
        assert_eq!(pts.len(), 1000);
        for p in &pts {
            assert!((0.0..1.0).contains(&p[0]));
            assert!((0.0..1.0).contains(&p[1]));
        }
    }

    #[test]
    fn qmc_beats_lcg_discrepancy() {
        // A crude LCG as a pseudo-random stand-in; the Halton sequence must
        // cover [0,1) at least ten times more uniformly.
        let n = 4096;
        let halton: Vec<f64> = Halton::<1>::new().take(n).map(|p| p[0]).collect();
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let lcg: Vec<f64> = (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect();
        let dq = star_discrepancy_1d(&halton);
        let dr = star_discrepancy_1d(&lcg);
        // The ablation's claim: at least 10x lower (measured: 1/4096
        // against 0.0135, about 55x).
        assert!(
            dr >= 10.0 * dq,
            "halton D*={dq} should be 10x below pseudo-random D*={dr}"
        );
        assert!(dq < 0.01, "halton discrepancy should be tiny, got {dq}");
    }

    #[test]
    fn scale_maps_range() {
        assert_eq!(scale(0.0, -1.0, 1.0), -1.0);
        assert_eq!(scale(1.0, -1.0, 1.0), 1.0);
        assert_eq!(scale(0.25, 0.0, 8.0), 2.0);
    }

    #[test]
    fn sobol_prefix() {
        let pts: Vec<[f64; 2]> = Sobol2::new().take(8).collect();
        assert_eq!(pts[0], [0.0, 0.0]);
        assert_eq!(pts[1], [0.5, 0.5]);
        assert_eq!(pts[2], [0.75, 0.25]);
        assert_eq!(pts[3], [0.25, 0.75]);
        // All points distinct and in the unit square.
        for p in &pts {
            assert!((0.0..1.0).contains(&p[0]) && (0.0..1.0).contains(&p[1]));
        }
    }

    #[test]
    fn sobol_stratifies_dyadic_boxes() {
        // The first 2^k Sobol points put exactly one point in each dyadic
        // interval of width 2^-k along every dimension (a (0,2)-sequence
        // property in base 2).
        let n = 64;
        let pts: Vec<[f64; 2]> = Sobol2::new().take(n).collect();
        for dim in 0..2 {
            let mut counts = vec![0u32; n];
            for p in &pts {
                counts[(p[dim] * n as f64) as usize] += 1;
            }
            assert!(counts.iter().all(|&c| c == 1), "dim {dim}: {counts:?}");
        }
    }

    #[test]
    fn sobol_low_discrepancy() {
        let n = 4096;
        let xs: Vec<f64> = Sobol2::new().take(n).map(|p| p[1]).collect();
        let d = star_discrepancy_1d(&xs);
        assert!(d < 0.01, "sobol dim-1 discrepancy {d}");
    }

    #[test]
    fn mean_converges_to_half() {
        let n = 100_000;
        let mean: f64 = Halton::<1>::new().take(n).map(|p| p[0]).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 1e-3, "mean {mean}");
    }
}
