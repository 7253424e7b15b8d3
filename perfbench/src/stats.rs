//! Summary statistics shared by every workload.

/// Median of an unsorted sample (mean of the two middle values for an
/// even count; 0 for an empty sample).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A nearest-rank percentile together with the number of samples that
/// lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub beyond: usize,
}

impl Percentile {
    /// A tail percentile is only reported as supported when at least
    /// ten samples lie beyond it; otherwise it is close to the maximum.
    pub fn supported(&self) -> bool {
        self.beyond >= 10
    }
}

/// Nearest-rank percentile `q` in `(0, 1]` of an unsorted sample: the
/// smallest value with at least `q·n` samples at or below it.
pub fn percentile(xs: &[f64], q: f64) -> Percentile {
    let n = xs.len();
    if n == 0 {
        return Percentile {
            value: 0.0,
            beyond: 0,
        };
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Percentile {
        value: v[rank - 1],
        beyond: n - rank,
    }
}

/// Ordinary least squares fit of `y = a + b·x`, returning `(a, b)`.
/// Needs at least two distinct `x` values.
pub fn fit_line(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let b = sxy / sxx;
    (my - b * mx, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = percentile(&xs, 0.99);
        assert_eq!((p.value, p.beyond), (990.0, 10));
        assert!(p.supported());
        let p = percentile(&xs[..999], 0.99);
        assert_eq!((p.value, p.beyond), (990.0, 9));
        assert!(!p.supported());
    }

    #[test]
    fn percentile_ignores_input_order_and_handles_edges() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 0.5).value, 3.0);
        assert_eq!(percentile(&xs, 1.0).value, 5.0);
        assert_eq!(percentile(&xs, 1.0).beyond, 0);
        assert_eq!(percentile(&[], 0.99).beyond, 0);
        assert_eq!(median(&xs), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn line_fit_recovers_intercept_and_slope() {
        // The launch ladder's shape: a fixed cost plus a per-thread cost.
        let threads = [128.0, 1024.0, 8192.0, 32768.0];
        let t: Vec<f64> = threads.iter().map(|x| 3.5e-6 + 2.25e-9 * x).collect();
        let (a, b) = fit_line(&threads, &t);
        assert!((a - 3.5e-6).abs() < 1e-15, "{a}");
        assert!((b - 2.25e-9).abs() < 1e-20, "{b}");
        // Symmetric noise around the line leaves the fit on it.
        let xs = [1.0, 1.0, 2.0, 2.0, 3.0, 3.0];
        let ys = [2.9, 3.1, 4.9, 5.1, 6.9, 7.1];
        let (a, b) = fit_line(&xs, &ys);
        assert!(
            (a - 1.0).abs() < 1e-12 && (b - 2.0).abs() < 1e-12,
            "{a} {b}"
        );
    }
}
