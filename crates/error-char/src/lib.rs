//! # ihw-error — error analysis and characterization (Chapter 4)
//!
//! Empirical error characterization of imprecise arithmetic units: the
//! log₂-binned error probability mass functions of Figures 8 and 9, plus
//! the summary statistics the paper uses to guide quality tuning (error
//! rate, maximum/mean error percentage, mean and worst error distance).
//!
//! A unit under test is one [`FpOp`] at one [`IhwConfig`] knob setting,
//! the same pair the workloads and the simulator dispatch through: Figure
//! 8 characterizes its eight ops under [`IhwConfig::all_imprecise`],
//! Figure 9 the multiplier under each accuracy-configurable setting.
//!
//! Inputs are generated with the quasi-Monte Carlo sequences from
//! [`ihw_qmc`], exactly as §4.2 prescribes; sampling is parallelised with
//! scoped threads so the paper's 200-million-input runs remain
//! tractable.
//!
//! ```
//! use ihw_core::config::{FpOp, IhwConfig};
//! use ihw_error::characterize;
//!
//! let pmf = characterize(FpOp::Mul, &IhwConfig::all_imprecise(), 10_000);
//! // The Table 1 multiplier errs on almost every input…
//! assert!(pmf.error_rate() > 0.9);
//! // …but never by more than 25%.
//! assert!(pmf.max_error_pct() <= 25.0 + 1e-6);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod pmf;

pub use pmf::ErrorPmf;

use ihw_core::ac_multiplier::MulPath;
use ihw_core::config::{AddUnit, FpOp, IhwConfig, MulUnit};
use ihw_qmc::Halton;

/// Characterizes `op` as `cfg` implements it, with `samples`
/// quasi-Monte Carlo inputs, against the double precision reference of
/// the same (single precision) inputs.
///
/// `Add` subtracts when `b > a`, so both effective operations are
/// exercised; `Fma` computes `a·b + a`, exercising both sub-units.
pub fn characterize(op: FpOp, cfg: &IhwConfig, samples: u64) -> ErrorPmf {
    match op {
        FpOp::Add => characterize_binary_f32(
            |a, b| {
                if b > a {
                    cfg.sub32(a, b)
                } else {
                    cfg.add32(a, b)
                }
            },
            |a, b| if b > a { a - b } else { a + b },
            samples,
        ),
        FpOp::Mul => characterize_binary_f32(|a, b| cfg.mul32(a, b), |a, b| a * b, samples),
        FpOp::Div => characterize_binary_f32(|a, b| cfg.div32(a, b), |a, b| a / b, samples),
        FpOp::Fma => characterize_binary_f32(|a, b| cfg.fma32(a, b, a), |a, b| a * b + a, samples),
        FpOp::Rcp => characterize_unary_f32(|x| cfg.rcp32(x), |x| 1.0 / x, samples),
        FpOp::Rsqrt => characterize_unary_f32(|x| cfg.rsqrt32(x), |x| 1.0 / x.sqrt(), samples),
        FpOp::Sqrt => characterize_unary_f32(|x| cfg.sqrt32(x), |x| x.sqrt(), samples),
        FpOp::Log2 => characterize_unary_f32(|x| cfg.log2_32(x), |x| x.log2(), samples),
        FpOp::Exp2 => characterize_unary_f32(|x| cfg.exp2_32(x), |x| x.exp2(), samples),
    }
}

/// A short display label for `op` under `cfg`, in the paper's style:
/// the mnemonic, with the adder's threshold (`"ifpadd TH=8"`) or the
/// multiplier's configuration (`"Log Path Tr17"`) where it has one.
pub fn label(op: FpOp, cfg: &IhwConfig) -> String {
    match (op, cfg.add, cfg.mul) {
        (FpOp::Mul, _, MulUnit::AcMul(ac)) => {
            let path = match ac.path {
                MulPath::Log => "Log",
                MulPath::Full => "Full",
            };
            format!("{path} Path Tr{}", ac.truncation)
        }
        (FpOp::Add | FpOp::Fma, AddUnit::Imprecise { th }, _) => format!("{op} TH={th}"),
        _ => op.mnemonic().to_string(),
    }
}

/// Convergence study: characterizes `op` under `cfg` at increasing
/// sample budgets and reports `(samples, max error %, error rate)` per
/// budget — evidence that the default sample counts stand in for the
/// paper's 200 million (the PMF statistics stabilise far earlier).
pub fn convergence(op: FpOp, cfg: &IhwConfig, budgets: &[u64]) -> Vec<(u64, f64, f64)> {
    budgets
        .iter()
        .map(|&n| {
            let pmf = characterize(op, cfg, n);
            (n, pmf.max_error_pct(), pmf.error_rate())
        })
        .collect()
}

/// Characterizes a binary `f32` operation against a reference.
///
/// `approx` is the unit under test; `exact` is the reference computed in
/// double precision from the same (single precision) inputs. Operands are
/// drawn quasi-randomly from `(0, 1)`, the coverage range §4.2 argues is
/// sufficient because the imprecise algorithms do not disturb exponent
/// arithmetic.
fn characterize_binary_f32(
    approx: impl Fn(f32, f32) -> f32 + Sync,
    exact: impl Fn(f64, f64) -> f64 + Sync,
    samples: u64,
) -> ErrorPmf {
    sweep(samples, |pmf, p: [f64; 2]| {
        let a = p[0] as f32;
        let b = p[1] as f32;
        if a == 0.0 || b == 0.0 {
            return;
        }
        let e = exact(a as f64, b as f64);
        pmf.record(approx(a, b) as f64, e);
    })
}

/// Characterizes a unary `f32` operation against a reference; see
/// [`characterize_binary_f32`].
fn characterize_unary_f32(
    approx: impl Fn(f32) -> f32 + Sync,
    exact: impl Fn(f64) -> f64 + Sync,
    samples: u64,
) -> ErrorPmf {
    sweep(samples, |pmf, p: [f64; 1]| {
        let x = p[0] as f32;
        if x == 0.0 {
            return;
        }
        pmf.record(approx(x) as f64, exact(x as f64));
    })
}

/// Feeds the Halton points `1 ..= samples` to `record`. Each worker takes
/// one contiguous chunk into its own PMF (the last worker also takes the
/// remainder), and the partial PMFs are merged in worker order, so the
/// result does not depend on scheduling.
fn sweep<const D: usize>(
    samples: u64,
    record: impl Fn(&mut ErrorPmf, [f64; D]) + Sync,
) -> ErrorPmf {
    let threads = worker_count(samples);
    let chunk = samples / threads as u64;
    let partials: Vec<ErrorPmf> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let record = &record;
                s.spawn(move || {
                    let start = 1 + t as u64 * chunk;
                    let n = if t == threads - 1 {
                        samples - chunk * (threads as u64 - 1)
                    } else {
                        chunk
                    };
                    let mut pmf = ErrorPmf::new();
                    for p in Halton::<D>::new().starting_at(start).take(n as usize) {
                        record(&mut pmf, p);
                    }
                    pmf
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("characterization worker panicked"))
            .collect()
    });
    let mut acc = ErrorPmf::new();
    for p in &partials {
        acc.merge(p);
    }
    acc
}

fn worker_count(samples: u64) -> usize {
    if samples < 50_000 {
        return 1;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ihw_core::ac_multiplier::AcMulConfig;
    use ihw_core::bounds;

    const N: u64 = 20_000;

    fn imprecise() -> IhwConfig {
        IhwConfig::all_imprecise()
    }

    /// The Figure 9 setting: a precise datapath but for the AC multiplier.
    fn ac(path: MulPath, truncation: u32) -> IhwConfig {
        IhwConfig::precise().with_mul(MulUnit::AcMul(AcMulConfig::new(path, truncation)))
    }

    #[test]
    fn precise_op_has_zero_error_rate() {
        let pmf = characterize(FpOp::Mul, &IhwConfig::precise(), 5_000);
        // f32 multiply of f32 inputs vs f64 reference of the same inputs
        // differs only by the final rounding, far below the 2^-40 % floor.
        assert!(pmf.max_error_pct() < 1e-4, "max {}", pmf.max_error_pct());
    }

    #[test]
    fn parallel_matches_serial() {
        // 60k samples trigger the parallel path; compare against one chunk.
        let par = characterize(FpOp::Mul, &imprecise(), 60_000);
        let mut ser = ErrorPmf::new();
        for p in Halton::<2>::new().take(60_000) {
            let (a, b) = (p[0] as f32, p[1] as f32);
            if a == 0.0 || b == 0.0 {
                continue;
            }
            ser.record(
                ihw_core::multiplier::imul32(a, b) as f64,
                a as f64 * b as f64,
            );
        }
        assert_eq!(par.total(), ser.total());
        assert!((par.max_error_pct() - ser.max_error_pct()).abs() < 1e-12);
    }

    #[test]
    fn adder_dominated_by_small_errors() {
        // §4.2: "the floating point adder … dominated by frequent small
        // magnitude (FSM) error"; the >8% tail probability is ≈ 0.
        let pmf = characterize(FpOp::Add, &imprecise(), N);
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
        let pmf = characterize(FpOp::Mul, &imprecise(), N);
        assert!(pmf.max_error_pct() <= bounds::IFPMUL_MAX_ERROR * 100.0 + 1e-6);
        assert!(pmf.max_error_pct() > 15.0, "near-worst inputs sampled");
    }

    #[test]
    fn sfu_units_bounded_by_table1() {
        let cases = [
            (FpOp::Rcp, bounds::RCP_MAX_ERROR),
            (FpOp::Rsqrt, bounds::RSQRT_MAX_ERROR),
            (FpOp::Sqrt, bounds::SQRT_MAX_ERROR),
            (FpOp::Div, bounds::DIV_MAX_ERROR),
        ];
        for (op, bound) in cases {
            let pmf = characterize(op, &imprecise(), N);
            assert!(
                pmf.max_error_pct() <= bound * 100.0 + 0.02,
                "{op}: {} > {}",
                pmf.max_error_pct(),
                bound * 100.0
            );
        }
    }

    #[test]
    fn full_path_much_tighter_than_log_path() {
        let full = characterize(FpOp::Mul, &ac(MulPath::Full, 0), N);
        let log = characterize(FpOp::Mul, &ac(MulPath::Log, 0), N);
        assert!(full.max_error_pct() <= bounds::AC_FULL_PATH_MAX_ERROR * 100.0 + 1e-6);
        assert!(log.max_error_pct() <= bounds::AC_LOG_PATH_MAX_ERROR * 100.0 + 1e-6);
        assert!(full.max_error_pct() < log.max_error_pct() / 2.0);
    }

    #[test]
    fn truncation_shifts_mode_right() {
        // Figure 9: "as the number of truncation bits increases, the error
        // probability tends to be clustered to the right".
        let t0 = characterize(FpOp::Mul, &ac(MulPath::Log, 0), N);
        let t19 = characterize(FpOp::Mul, &ac(MulPath::Log, 19), N);
        assert!(t19.mode_bin().expect("has errors") >= t0.mode_bin().expect("has errors"));
        assert!(t19.mean_error_pct() > t0.mean_error_pct());
    }

    #[test]
    fn tr18_vs_tr19_noticeable_difference() {
        // §4.2: "only a small difference between Tr17 and Tr18, … a
        // noticeable difference appears between 18 and 19 bits truncation".
        let [t17, t18, t19] =
            [17, 18, 19].map(|t| characterize(FpOp::Mul, &ac(MulPath::Log, t), N));
        let d_17_18 = (t18.mean_error_pct() - t17.mean_error_pct()).abs();
        let d_18_19 = (t19.mean_error_pct() - t18.mean_error_pct()).abs();
        assert!(d_18_19 > d_17_18);
    }

    #[test]
    fn empirical_pmf_matches_analytic_cdf() {
        // Cross-validate the quasi-MC characterization of the Table 1
        // multiplier against the analytic error CDF (uniform mantissas).
        let pmf = characterize(FpOp::Mul, &imprecise(), 60_000);
        // Thresholds at the PMF's own bin edges (2^k %), so the binned
        // tail probability is exact rather than rounded up a bin.
        for &threshold in &[0.02f64, 0.04, 0.08, 0.16] {
            let analytic = bounds::ifpmul_error_cdf(threshold);
            // Empirical P[error ≤ threshold] = 1 − tail(threshold·100%).
            let empirical = 1.0 - pmf.tail_probability(threshold * 100.0);
            assert!(
                (analytic - empirical).abs() < 0.05,
                "threshold {threshold}: analytic {analytic} vs empirical {empirical}"
            );
        }
    }

    #[test]
    fn characterization_converges_quickly() {
        // Max error and error rate stabilise within a few × 10⁴ samples.
        let runs = convergence(FpOp::Mul, &imprecise(), &[5_000, 20_000, 80_000]);
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
    fn labels_are_paper_style() {
        assert_eq!(label(FpOp::Mul, &ac(MulPath::Log, 17)), "Log Path Tr17");
        assert_eq!(label(FpOp::Mul, &ac(MulPath::Full, 0)), "Full Path Tr0");
        assert_eq!(label(FpOp::Add, &imprecise()), "ifpadd TH=8");
        assert_eq!(label(FpOp::Fma, &imprecise()), "ifma TH=8");
        assert_eq!(label(FpOp::Mul, &imprecise()), "ifpmul");
        assert_eq!(label(FpOp::Log2, &imprecise()), "ilog2");
    }
}
