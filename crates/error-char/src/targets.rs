//! Canned characterization targets: one entry per imprecise unit of
//! Figure 8 and per accuracy configuration of Figure 9.

use crate::{characterize_binary_f32, characterize_unary_f32, ErrorPmf};
use ihw_core::ac_multiplier::{AcMulConfig, MulPath};
use ihw_core::adder::{iadd32, isub32};
use ihw_core::fma::ifma32;
use ihw_core::multiplier::imul32;
use ihw_core::sfu::{idiv32, ilog2_32, ircp32, irsqrt32, isqrt32};

/// A characterizable imprecise unit (the rows of Figures 8 and 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CharTarget {
    /// 32-bit imprecise adder with threshold `th` (effective additions and
    /// subtractions mixed, as in Figure 8's `fpadd`).
    IfpAdd {
        /// Structural threshold.
        th: u32,
    },
    /// The Table 1 imprecise multiplier.
    IfpMul,
    /// Imprecise division.
    IfpDiv,
    /// Imprecise reciprocal.
    Ircp,
    /// Imprecise inverse square root.
    Irsqrt,
    /// Imprecise square root.
    Isqrt,
    /// Imprecise log₂.
    Ilog2,
    /// Imprecise fused multiply–add (`a·b + a`, exercising both sub-units).
    Ifma {
        /// Adder threshold.
        th: u32,
    },
    /// Accuracy-configurable multiplier (Figure 9 configurations).
    AcMul {
        /// Datapath selection.
        path: MulPath,
        /// Truncated operand bits.
        truncation: u32,
    },
}

impl CharTarget {
    /// The Figure 8 unit set (all Table 1 components, `TH = 8`).
    pub fn figure8_set() -> Vec<CharTarget> {
        vec![
            CharTarget::IfpAdd { th: 8 },
            CharTarget::IfpMul,
            CharTarget::IfpDiv,
            CharTarget::Ircp,
            CharTarget::Irsqrt,
            CharTarget::Isqrt,
            CharTarget::Ilog2,
            CharTarget::Ifma { th: 8 },
        ]
    }

    /// The Figure 9 configuration set: both datapaths with the truncation
    /// levels the paper plots.
    pub fn figure9_set() -> Vec<CharTarget> {
        let mut v = Vec::new();
        for &t in &[0u32, 8, 17, 18, 19] {
            v.push(CharTarget::AcMul {
                path: MulPath::Log,
                truncation: t,
            });
            v.push(CharTarget::AcMul {
                path: MulPath::Full,
                truncation: t,
            });
        }
        v
    }

    /// A short display label (e.g. `"Log Path Tr17"`).
    pub fn label(&self) -> String {
        match self {
            CharTarget::IfpAdd { th } => format!("ifpadd TH={th}"),
            CharTarget::IfpMul => "ifpmul".to_string(),
            CharTarget::IfpDiv => "ifpdiv".to_string(),
            CharTarget::Ircp => "ircp".to_string(),
            CharTarget::Irsqrt => "irsqrt".to_string(),
            CharTarget::Isqrt => "isqrt".to_string(),
            CharTarget::Ilog2 => "ilog2".to_string(),
            CharTarget::Ifma { th } => format!("ifma TH={th}"),
            CharTarget::AcMul {
                path: MulPath::Log,
                truncation,
            } => {
                format!("Log Path Tr{truncation}")
            }
            CharTarget::AcMul {
                path: MulPath::Full,
                truncation,
            } => {
                format!("Full Path Tr{truncation}")
            }
        }
    }
}

/// Characterizes a unit with `samples` quasi-Monte Carlo inputs.
pub fn characterize(target: CharTarget, samples: u64) -> ErrorPmf {
    characterize_with_offset(target, samples, 0)
}

/// Characterizes the **double precision** variant of a unit (the f64
/// datapaths of Figure 14b and the §5.3.2 CPU benchmarks).
pub fn characterize64(target: CharTarget, samples: u64) -> ErrorPmf {
    use crate::characterize_binary_f64;
    use ihw_core::adder::{iadd64, isub64};
    use ihw_core::multiplier::imul64;
    use ihw_core::sfu::idiv64;
    match target {
        CharTarget::IfpAdd { th } => characterize_binary_f64(
            move |a, b| {
                if b > a {
                    isub64(a, b, th)
                } else {
                    iadd64(a, b, th)
                }
            },
            |a, b| if b > a { a - b } else { a + b },
            samples,
            0,
        ),
        CharTarget::IfpMul => characterize_binary_f64(imul64, |a, b| a * b, samples, 0),
        CharTarget::IfpDiv => characterize_binary_f64(idiv64, |a, b| a / b, samples, 0),
        CharTarget::AcMul { path, truncation } => {
            let cfg = AcMulConfig::new(path, truncation);
            characterize_binary_f64(move |a, b| cfg.mul64(a, b), |a, b| a * b, samples, 0)
        }
        // Unary SFUs and the FMA reuse the f32 harness's structure; their
        // f64 error profile matches the f32 one (same linear
        // approximations), so route through the f64 scalar wrappers.
        CharTarget::Ircp => {
            characterize_binary_f64(|a, _| ihw_core::sfu::ircp64(a), |a, _| 1.0 / a, samples, 0)
        }
        CharTarget::Irsqrt => characterize_binary_f64(
            |a, _| ihw_core::sfu::irsqrt64(a),
            |a, _| 1.0 / a.sqrt(),
            samples,
            0,
        ),
        CharTarget::Isqrt => characterize_binary_f64(
            |a, _| ihw_core::sfu::isqrt64(a),
            |a, _| a.sqrt(),
            samples,
            0,
        ),
        CharTarget::Ilog2 => characterize_binary_f64(
            |a, _| ihw_core::sfu::ilog2_64(a),
            |a, _| a.log2(),
            samples,
            0,
        ),
        CharTarget::Ifma { th } => characterize_binary_f64(
            move |a, b| ihw_core::fma::ifma64(a, b, a, th),
            |a, b| a * b + a,
            samples,
            0,
        ),
    }
}

/// Convergence study: characterizes `target` at increasing sample
/// budgets and reports `(samples, max error %, error rate)` per budget —
/// evidence that the default sample counts stand in for the paper's
/// 200 million (the PMF statistics stabilise far earlier).
pub fn convergence(target: CharTarget, budgets: &[u64]) -> Vec<(u64, f64, f64)> {
    budgets
        .iter()
        .map(|&n| {
            let pmf = characterize(target, n);
            (n, pmf.max_error_pct(), pmf.error_rate())
        })
        .collect()
}

/// Characterizes starting at a given offset of the low-discrepancy
/// sequence (useful for convergence studies that need disjoint batches).
pub fn characterize_with_offset(target: CharTarget, samples: u64, offset: u64) -> ErrorPmf {
    match target {
        CharTarget::IfpAdd { th } => characterize_binary_f32(
            // Alternate add and subtract on the sign of the second operand's
            // index parity via its magnitude: use subtraction when b > a so
            // both effective operations are exercised.
            move |a, b| {
                if b > a {
                    isub32(a, b, th)
                } else {
                    iadd32(a, b, th)
                }
            },
            |a, b| if b > a { a - b } else { a + b },
            samples,
            offset,
        ),
        CharTarget::IfpMul => characterize_binary_f32(imul32, |a, b| a * b, samples, offset),
        CharTarget::IfpDiv => characterize_binary_f32(idiv32, |a, b| a / b, samples, offset),
        CharTarget::Ircp => characterize_unary_f32(ircp32, |x| 1.0 / x, samples, offset),
        CharTarget::Irsqrt => characterize_unary_f32(irsqrt32, |x| 1.0 / x.sqrt(), samples, offset),
        CharTarget::Isqrt => characterize_unary_f32(isqrt32, |x| x.sqrt(), samples, offset),
        CharTarget::Ilog2 => characterize_unary_f32(ilog2_32, |x| x.log2(), samples, offset),
        CharTarget::Ifma { th } => characterize_binary_f32(
            move |a, b| ifma32(a, b, a, th),
            |a, b| a * b + a,
            samples,
            offset,
        ),
        CharTarget::AcMul { path, truncation } => {
            let cfg = AcMulConfig::new(path, truncation);
            characterize_binary_f32(move |a, b| cfg.mul32(a, b), |a, b| a * b, samples, offset)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ihw_core::bounds;

    const N: u64 = 20_000;

    #[test]
    fn adder_dominated_by_small_errors() {
        // §4.2: "the floating point adder … dominated by frequent small
        // magnitude (FSM) error"; the >8% tail probability is ≈ 0.
        let pmf = characterize(CharTarget::IfpAdd { th: 8 }, N);
        assert!(
            pmf.tail_probability(8.0) < 0.01,
            "tail {}",
            pmf.tail_probability(8.0)
        );
        // Bulk of the mass sits below 1% error (bins ≤ 0). The *mean* is
        // not asserted: case (d) cancellations legitimately explode it.
        let below_one_pct: f64 = pmf.iter().filter(|&(b, _)| b <= 0).map(|(_, p)| p).sum();
        assert!(below_one_pct > 0.5, "FSM mass {below_one_pct}");
    }

    #[test]
    fn multiplier_bounded_by_theory() {
        let pmf = characterize(CharTarget::IfpMul, N);
        assert!(pmf.max_error_pct() <= bounds::IFPMUL_MAX_ERROR * 100.0 + 1e-6);
        assert!(pmf.max_error_pct() > 15.0, "near-worst inputs sampled");
    }

    #[test]
    fn sfu_units_bounded_by_table1() {
        let cases = [
            (CharTarget::Ircp, bounds::RCP_MAX_ERROR),
            (CharTarget::Irsqrt, bounds::RSQRT_MAX_ERROR),
            (CharTarget::Isqrt, bounds::SQRT_MAX_ERROR),
            (CharTarget::IfpDiv, bounds::DIV_MAX_ERROR),
        ];
        for (t, bound) in cases {
            let pmf = characterize(t, N);
            assert!(
                pmf.max_error_pct() <= bound * 100.0 + 0.02,
                "{}: {} > {}",
                t.label(),
                pmf.max_error_pct(),
                bound * 100.0
            );
        }
    }

    #[test]
    fn full_path_much_tighter_than_log_path() {
        let full = characterize(
            CharTarget::AcMul {
                path: MulPath::Full,
                truncation: 0,
            },
            N,
        );
        let log = characterize(
            CharTarget::AcMul {
                path: MulPath::Log,
                truncation: 0,
            },
            N,
        );
        assert!(full.max_error_pct() <= bounds::AC_FULL_PATH_MAX_ERROR * 100.0 + 1e-6);
        assert!(log.max_error_pct() <= bounds::AC_LOG_PATH_MAX_ERROR * 100.0 + 1e-6);
        assert!(full.max_error_pct() < log.max_error_pct() / 2.0);
    }

    #[test]
    fn truncation_shifts_mode_right() {
        // Figure 9: "as the number of truncation bits increases, the error
        // probability tends to be clustered to the right".
        let t0 = characterize(
            CharTarget::AcMul {
                path: MulPath::Log,
                truncation: 0,
            },
            N,
        );
        let t19 = characterize(
            CharTarget::AcMul {
                path: MulPath::Log,
                truncation: 19,
            },
            N,
        );
        assert!(t19.mode_bin().expect("has errors") >= t0.mode_bin().expect("has errors"));
        assert!(t19.mean_error_pct() > t0.mean_error_pct());
    }

    #[test]
    fn tr18_vs_tr19_noticeable_difference() {
        // §4.2: "only a small difference between Tr17 and Tr18, … a
        // noticeable difference appears between 18 and 19 bits truncation".
        let t17 = characterize(
            CharTarget::AcMul {
                path: MulPath::Log,
                truncation: 17,
            },
            N,
        );
        let t18 = characterize(
            CharTarget::AcMul {
                path: MulPath::Log,
                truncation: 18,
            },
            N,
        );
        let t19 = characterize(
            CharTarget::AcMul {
                path: MulPath::Log,
                truncation: 19,
            },
            N,
        );
        let d_17_18 = (t18.mean_error_pct() - t17.mean_error_pct()).abs();
        let d_18_19 = (t19.mean_error_pct() - t18.mean_error_pct()).abs();
        assert!(d_18_19 > d_17_18);
    }

    #[test]
    fn empirical_pmf_matches_analytic_cdf() {
        // Cross-validate the quasi-MC characterization of the Table 1
        // multiplier against the analytic error CDF (uniform mantissas).
        let pmf = characterize(CharTarget::IfpMul, 60_000);
        // Thresholds at the PMF's own bin edges (2^k %), so the binned
        // tail probability is exact rather than rounded up a bin.
        for &threshold in &[0.02f64, 0.04, 0.08, 0.16] {
            let analytic = ihw_core::bounds::ifpmul_error_cdf(threshold);
            // Empirical P[error ≤ threshold] = 1 − tail(threshold·100%).
            let empirical = 1.0 - pmf.tail_probability(threshold * 100.0);
            assert!(
                (analytic - empirical).abs() < 0.05,
                "threshold {threshold}: analytic {analytic} vs empirical {empirical}"
            );
        }
    }

    #[test]
    fn f64_characterization_matches_f32_bounds() {
        // Same algorithms at double width: the bounds carry over.
        let pmf = characterize64(CharTarget::IfpMul, N);
        assert!(pmf.max_error_pct() <= bounds::IFPMUL_MAX_ERROR * 100.0 + 1e-6);
        let full = characterize64(
            CharTarget::AcMul {
                path: MulPath::Full,
                truncation: 0,
            },
            N,
        );
        assert!(full.max_error_pct() <= bounds::AC_FULL_PATH_MAX_ERROR * 100.0 + 1e-6);
        // Deep f64 truncation (tr48) behaves like shallow f32 truncation.
        let tr48 = characterize64(
            CharTarget::AcMul {
                path: MulPath::Log,
                truncation: 48,
            },
            N,
        );
        assert!(
            tr48.max_error_pct() < 20.0,
            "lp tr48 {}",
            tr48.max_error_pct()
        );
    }

    #[test]
    fn characterization_converges_quickly() {
        // Max error and error rate stabilise within a few × 10⁴ samples.
        let runs = convergence(CharTarget::IfpMul, &[5_000, 20_000, 80_000]);
        let (_, max_small, rate_small) = runs[0];
        let (_, max_big, rate_big) = runs[2];
        assert!(
            (max_big - max_small).abs() < 2.0,
            "{max_small} vs {max_big}"
        );
        assert!((rate_big - rate_small).abs() < 0.02);
        // The estimate can only tighten upward toward the true max.
        assert!(max_big >= max_small - 1e-9);
    }

    #[test]
    fn figure_sets_have_expected_sizes() {
        assert_eq!(CharTarget::figure8_set().len(), 8);
        assert_eq!(CharTarget::figure9_set().len(), 10);
    }

    #[test]
    fn labels_are_paper_style() {
        assert_eq!(
            CharTarget::AcMul {
                path: MulPath::Log,
                truncation: 17
            }
            .label(),
            "Log Path Tr17"
        );
        assert_eq!(CharTarget::IfpAdd { th: 8 }.label(), "ifpadd TH=8");
    }
}
