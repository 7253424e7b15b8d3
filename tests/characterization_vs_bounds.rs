//! Cross-crate check: the empirical characterization (ihw-error) must
//! respect the closed-form error analysis of Chapter 4 (ihw-core::bounds)
//! for every unit, and the PMF statistics must be internally consistent.

use imprecise_gpgpu::core::bounds;
use imprecise_gpgpu::core::prelude::*;
use imprecise_gpgpu::error::{characterize, label};

const N: u64 = 30_000;

/// A precise datapath but for the AC multiplier (a Figure 9 setting).
fn ac(path: MulPath) -> IhwConfig {
    IhwConfig::precise().with_mul(MulUnit::AcMul(AcMulConfig::new(path, 0)))
}

#[test]
fn every_figure8_unit_within_its_bound() {
    let cfg = IhwConfig::all_imprecise();
    let cases = [
        (FpOp::Mul, bounds::IFPMUL_MAX_ERROR),
        (FpOp::Rcp, bounds::RCP_MAX_ERROR),
        (FpOp::Rsqrt, bounds::RSQRT_MAX_ERROR),
        (FpOp::Sqrt, bounds::SQRT_MAX_ERROR),
        (FpOp::Div, bounds::DIV_MAX_ERROR),
    ];
    for (op, bound) in cases {
        let pmf = characterize(op, &cfg, N);
        assert!(
            pmf.max_error_pct() <= bound * 100.0 + 0.05,
            "{}: {}% exceeds bound {}%",
            label(op, &cfg),
            pmf.max_error_pct(),
            bound * 100.0
        );
    }
}

#[test]
fn ac_paths_within_analytic_bounds() {
    let full = characterize(FpOp::Mul, &ac(MulPath::Full), N);
    assert!(full.max_error_pct() <= bounds::AC_FULL_PATH_MAX_ERROR * 100.0 + 1e-6);
    let log = characterize(FpOp::Mul, &ac(MulPath::Log), N);
    assert!(log.max_error_pct() <= bounds::AC_LOG_PATH_MAX_ERROR * 100.0 + 1e-6);
}

#[test]
fn pmf_probabilities_sum_to_error_rate() {
    let pmf = characterize(FpOp::Mul, &IhwConfig::all_imprecise(), N);
    let sum: f64 = pmf.iter().map(|(_, p)| p).sum();
    assert!((sum - pmf.error_rate()).abs() < 1e-9);
    assert!(
        pmf.error_rate() > 0.9,
        "Table 1 multiplier errs almost always"
    );
}

#[test]
fn adder_bound_tightens_with_th() {
    // Larger TH ⇒ strictly lower error rate, mean and max characterized
    // error (additions), over the adder ablation's TH set plus 12.
    let pmfs = [1u32, 4, 8, 12, 16, 27].map(|th| {
        let cfg = IhwConfig::precise().with_add(AddUnit::Imprecise { th });
        (th, characterize(FpOp::Add, &cfg, N))
    });
    for pair in pmfs.windows(2) {
        let ((lo_th, lo), (hi_th, hi)) = (&pair[0], &pair[1]);
        assert!(
            hi.error_rate() < lo.error_rate(),
            "error rate: TH {hi_th} {} vs TH {lo_th} {}",
            hi.error_rate(),
            lo.error_rate()
        );
        assert!(
            hi.mean_error_pct() < lo.mean_error_pct(),
            "mean error: TH {hi_th} {}% vs TH {lo_th} {}%",
            hi.mean_error_pct(),
            lo.mean_error_pct()
        );
        assert!(
            hi.max_error_pct() < lo.max_error_pct(),
            "max error: TH {hi_th} {}% vs TH {lo_th} {}%",
            hi.max_error_pct(),
            lo.max_error_pct()
        );
    }
}

#[test]
fn deterministic_characterization() {
    // Quasi-MC sequences are deterministic: identical runs, identical PMFs.
    let cfg = IhwConfig::all_imprecise();
    let a = characterize(FpOp::Sqrt, &cfg, 10_000);
    let b = characterize(FpOp::Sqrt, &cfg, 10_000);
    assert_eq!(a, b);
}
