//! Log₂-binned error probability mass function (Figures 8–9).
//!
//! Each recorded sample compares an imprecise result against its precise
//! reference. Non-zero relative errors are binned by
//! `x = ⌈log₂ |ERR%|⌉` — the paper's Figure 8 axis — so a bar at `x = −2`
//! is the probability that the error percentage lies in `(2⁻³%, 2⁻²%]`.

use std::collections::BTreeMap;
use std::fmt;

/// Lowest bin of the dense window.
const WINDOW_LO: i32 = -64;
/// Bins `WINDOW_LO .. WINDOW_LO + WINDOW_LEN` are counted in a fixed
/// array (1 KiB). The characterised units land in bins −46 (double
/// precision rounding noise) to 24 (cancellation in the imprecise
/// adder), well inside it. Two distinct `f64`s differ by at least about
/// 2⁻⁵³ relative (one ulp), so no sample lands below bin −46: every bin
/// outside the window lies above it.
const WINDOW_LEN: usize = 128;

/// Error distribution of an imprecise unit under a given input
/// distribution, with the summary statistics of §4.2.
///
/// Bin counts live in a dense window around the bins real units produce,
/// so recording a sample touches no map. Bins outside it go to a
/// fallback map: the saturation bin `i32::MAX` (an infinite relative
/// error, e.g. against a zero reference) and far-out finite bins. Which
/// store holds a bin depends only on the bin, so equality is semantic.
#[derive(Clone, PartialEq)]
pub struct ErrorPmf {
    window: [u64; WINDOW_LEN],
    outliers: BTreeMap<i32, u64>,
    exact_matches: u64,
    total: u64,
    max_err: f64,
    sum_err: f64,
    max_dist: f64,
    sum_dist: f64,
}

/// Window slot of `bin`, if it has one.
#[inline]
fn slot(bin: i32) -> Option<usize> {
    let i = bin.wrapping_sub(WINDOW_LO) as u32 as usize;
    (i < WINDOW_LEN).then_some(i)
}

impl Default for ErrorPmf {
    fn default() -> Self {
        ErrorPmf {
            window: [0; WINDOW_LEN],
            outliers: BTreeMap::new(),
            exact_matches: 0,
            total: 0,
            max_err: 0.0,
            sum_err: 0.0,
            max_dist: 0.0,
            sum_dist: 0.0,
        }
    }
}

/// Renders the same shape as a single map of bins would:
/// `ErrorPmf { bins: {-3: 2, 1: 5}, exact_matches: …, … }`.
impl fmt::Debug for ErrorPmf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Bins<'a>(&'a ErrorPmf);
        impl fmt::Debug for Bins<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.bins()).finish()
            }
        }
        f.debug_struct("ErrorPmf")
            .field("bins", &Bins(self))
            .field("exact_matches", &self.exact_matches)
            .field("total", &self.total)
            .field("max_err", &self.max_err)
            .field("sum_err", &self.sum_err)
            .field("max_dist", &self.max_dist)
            .field("sum_dist", &self.sum_dist)
            .finish()
    }
}

impl ErrorPmf {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one `(approx, exact)` sample pair.
    ///
    /// Samples whose reference is exactly zero are counted as exact when
    /// the approximation is also zero and are otherwise attributed to the
    /// largest bin (relative error is undefined there, but the error
    /// distance statistics still accumulate).
    pub fn record(&mut self, approx: f64, exact: f64) {
        self.total += 1;
        let dist = (approx - exact).abs();
        self.sum_dist += dist;
        self.max_dist = self.max_dist.max(dist);
        if dist == 0.0 {
            self.exact_matches += 1;
            return;
        }
        let rel = if exact != 0.0 {
            dist / exact.abs()
        } else {
            f64::INFINITY
        };
        self.max_err = self.max_err.max(rel);
        self.sum_err += rel;
        let pct = rel * 100.0;
        let bin = pct.log2().ceil() as i32;
        match slot(bin) {
            Some(i) => self.window[i] += 1,
            None => *self.outliers.entry(bin).or_insert(0) += 1,
        }
    }

    /// Non-zero `(bin, count)` pairs in ascending bin order: the window,
    /// then the outliers, which all lie above it (see [`WINDOW_LEN`]).
    fn bins(&self) -> impl Iterator<Item = (i32, u64)> + '_ {
        (WINDOW_LO..)
            .zip(self.window.iter().copied())
            .filter(|&(_, c)| c != 0)
            .chain(self.outliers.iter().map(|(&b, &c)| (b, c)))
    }

    /// Merges another distribution into this one.
    pub fn merge(&mut self, other: &ErrorPmf) {
        for (c, o) in self.window.iter_mut().zip(&other.window) {
            *c += o;
        }
        for (&bin, &count) in &other.outliers {
            *self.outliers.entry(bin).or_insert(0) += count;
        }
        self.exact_matches += other.exact_matches;
        self.total += other.total;
        self.max_err = self.max_err.max(other.max_err);
        self.sum_err += other.sum_err;
        self.max_dist = self.max_dist.max(other.max_dist);
        self.sum_dist += other.sum_dist;
    }

    /// Number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of samples with any error at all ("the sum of all bars").
    pub fn error_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            (self.total - self.exact_matches) as f64 / self.total as f64
        }
    }

    /// Maximum observed relative error, in percent.
    pub fn max_error_pct(&self) -> f64 {
        self.max_err * 100.0
    }

    /// Mean relative error over *all* samples (exact ones contribute 0),
    /// in percent.
    pub fn mean_error_pct(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_err / self.total as f64 * 100.0
        }
    }

    /// Mean error distance (MED): mean of `|approx − exact|`.
    pub fn med(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_dist / self.total as f64
        }
    }

    /// Worst-case error distance (WED): max of `|approx − exact|`.
    pub fn wed(&self) -> f64 {
        self.max_dist
    }

    /// Probability mass of one `⌈log₂ ERR%⌉` bin.
    pub fn bin_probability(&self, bin: i32) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            let count = match slot(bin) {
                Some(i) => self.window[i],
                None => self.outliers.get(&bin).copied().unwrap_or(0),
            };
            count as f64 / self.total as f64
        }
    }

    /// Iterates `(bin, probability)` pairs in ascending bin order.
    pub fn iter(&self) -> impl Iterator<Item = (i32, f64)> + '_ {
        let total = self.total.max(1) as f64;
        self.bins().map(move |(b, c)| (b, c as f64 / total))
    }

    /// The bin holding the largest probability mass, if any error occurred.
    pub fn mode_bin(&self) -> Option<i32> {
        self.bins().max_by_key(|&(_, c)| c).map(|(b, _)| b)
    }

    /// Probability that the error percentage exceeds `threshold_pct`.
    ///
    /// Used in §4.2 to show that the adder's error-magnitude explosion
    /// "has a probability very close to zero when the error magnitude is
    /// larger than 8%".
    pub fn tail_probability(&self, threshold_pct: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let cut = threshold_pct.log2();
        let count: u64 = self
            .bins()
            .filter(|&(b, _)| (b as f64) > cut) // bins strictly above the threshold bin
            .map(|(_, c)| c)
            .sum();
        count as f64 / self.total as f64
    }

    /// Serialises the distribution as CSV: `bin,probability` rows plus a
    /// trailing summary comment — convenient for external plotting.
    pub fn to_csv(&self, label: &str) -> String {
        use std::fmt::Write;
        let mut out = String::from("bin_log2_err_pct,probability\n");
        for (bin, p) in self.iter() {
            let _ = writeln!(out, "{bin},{p}");
        }
        let _ = writeln!(
            out,
            "# {label}: error_rate={} max_pct={} mean_pct={} med={} wed={}",
            self.error_rate(),
            self.max_error_pct(),
            self.mean_error_pct(),
            self.med(),
            self.wed()
        );
        out
    }

    /// Renders an ASCII bar-chart in the style of Figure 8.
    pub fn to_ascii_chart(&self, label: &str) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{label}: error rate {:.2}%, max {:.3}%, mean {:.4}%",
            self.error_rate() * 100.0,
            self.max_error_pct(),
            self.mean_error_pct()
        );
        for (bin, p) in self.iter() {
            let bar = "#".repeat((p * 200.0).round() as usize);
            let _ = writeln!(out, "  2^{bin:>4} % | {bar} {:.3}%", p * 100.0);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_pmf() {
        let p = ErrorPmf::new();
        assert_eq!(p.total(), 0);
        assert_eq!(p.error_rate(), 0.0);
        assert_eq!(p.max_error_pct(), 0.0);
        assert_eq!(p.mode_bin(), None);
    }

    #[test]
    fn exact_samples_only() {
        let mut p = ErrorPmf::new();
        for _ in 0..10 {
            p.record(1.0, 1.0);
        }
        assert_eq!(p.error_rate(), 0.0);
        assert_eq!(p.total(), 10);
        assert_eq!(p.med(), 0.0);
        assert_eq!(p.wed(), 0.0);
    }

    #[test]
    fn binning_matches_formula() {
        let mut p = ErrorPmf::new();
        // 3% error: log2(3) ≈ 1.58 → bin 2 (between 2% and 4%).
        p.record(1.03, 1.0);
        assert!(p.bin_probability(2) > 0.99);
        // 0.2% error: log2(0.2) ≈ -2.32 → bin -2 (between 2^-3 and 2^-2 %).
        let mut q = ErrorPmf::new();
        q.record(1.002, 1.0);
        assert!(q.bin_probability(-2) > 0.99);
    }

    #[test]
    fn large_error_bins() {
        // 50% error: log2(50) ≈ 5.64 → bin 6 (between 32% and 64%).
        let mut p = ErrorPmf::new();
        p.record(1.5, 1.0);
        assert!(p.bin_probability(6) > 0.99);
        assert_eq!(p.mode_bin(), Some(6));
    }

    #[test]
    fn stats_accumulate() {
        let mut p = ErrorPmf::new();
        p.record(1.1, 1.0); // 10% err, dist 0.1
        p.record(2.0, 2.0); // exact
        p.record(3.3, 3.0); // 10% err, dist 0.3
        assert_eq!(p.total(), 3);
        assert!((p.error_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((p.max_error_pct() - 10.0).abs() < 1e-9);
        assert!((p.med() - (0.1 + 0.3) / 3.0).abs() < 1e-12);
        assert!((p.wed() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = ErrorPmf::new();
        a.record(1.05, 1.0);
        let mut b = ErrorPmf::new();
        b.record(1.0, 1.0);
        b.record(0.9, 1.0);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.total(), 3);
        assert!((m.error_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.max_error_pct() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn tail_probability() {
        let mut p = ErrorPmf::new();
        p.record(1.01, 1.0); // ≈1% → bin ≤ 1, below the 8% threshold
        p.record(1.2, 1.0); // ≈20% → bin 5, above it
        assert!((p.tail_probability(8.0) - 0.5).abs() < 1e-12);
        assert_eq!(p.tail_probability(100.0), 0.0);
    }

    #[test]
    fn zero_reference_nonzero_approx_counts_as_error() {
        let mut p = ErrorPmf::new();
        p.record(0.5, 0.0);
        assert_eq!(p.error_rate(), 1.0);
        assert!(p.max_error_pct().is_infinite());
    }

    #[test]
    fn csv_export() {
        let mut p = ErrorPmf::new();
        p.record(1.05, 1.0);
        let csv = p.to_csv("unit");
        assert!(csv.starts_with("bin_log2_err_pct,probability"));
        assert!(csv.contains("# unit:"));
        assert!(csv.lines().count() >= 3);
    }

    #[test]
    fn ascii_chart_renders() {
        let mut p = ErrorPmf::new();
        p.record(1.05, 1.0);
        let chart = p.to_ascii_chart("demo");
        assert!(chart.contains("demo"));
        assert!(chart.contains("2^"));
    }
}
