//! Summary statistics over repeated measurements (multi-seed runs).
//!
//! The paper evaluates each benchmark on one input; this reproduction
//! additionally reports quality metrics across several synthetic-input
//! seeds, with mean, standard deviation and a normal-approximation 95%
//! confidence interval.

/// Mean / spread summary of a sample of measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of measurements.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected).
    pub std_dev: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
}

impl Summary {
    /// Summarises a sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or NaN values.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary needs at least one sample");
        assert!(
            samples.iter().all(|v| !v.is_nan()),
            "samples must not be NaN"
        );
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n as f64 - 1.0)
        } else {
            0.0
        };
        Summary {
            n,
            mean,
            std_dev: var.sqrt(),
            min: samples.iter().cloned().fold(f64::INFINITY, f64::min),
            max: samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Half-width of the normal-approximation 95% confidence interval of
    /// the mean (`1.96·s/√n`).
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            1.96 * self.std_dev / (self.n as f64).sqrt()
        }
    }

    /// `mean ± ci` formatted for reports.
    pub fn display(&self) -> String {
        format!("{:.4} ± {:.4}", self.mean, self.ci95_half_width())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.mean, 2.5);
        assert!((s.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!(s.ci95_half_width() > 0.0);
    }

    #[test]
    fn single_sample() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    fn constant_sample_zero_spread() {
        let s = Summary::of(&[3.0; 10]);
        assert_eq!(s.std_dev, 0.0);
        assert!(s.display().starts_with("3.0000"));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn rejects_empty() {
        let _ = Summary::of(&[]);
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn rejects_nan() {
        let _ = Summary::of(&[1.0, f64::NAN]);
    }
}
