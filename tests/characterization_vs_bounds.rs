//! Cross-crate check: the empirical characterization (ihw-error) must
//! respect the closed-form error analysis of Chapter 4 (ihw-core::bounds)
//! for every unit, and the PMF statistics must be internally consistent.

use imprecise_gpgpu::core::bounds;
use imprecise_gpgpu::core::prelude::MulPath;
use imprecise_gpgpu::error::{characterize, CharTarget};

const N: u64 = 30_000;

#[test]
fn every_figure8_unit_within_its_bound() {
    let cases: Vec<(CharTarget, f64)> = vec![
        (CharTarget::IfpMul, bounds::IFPMUL_MAX_ERROR),
        (CharTarget::Ircp, bounds::RCP_MAX_ERROR),
        (CharTarget::Irsqrt, bounds::RSQRT_MAX_ERROR),
        (CharTarget::Isqrt, bounds::SQRT_MAX_ERROR),
        (CharTarget::IfpDiv, bounds::DIV_MAX_ERROR),
    ];
    for (target, bound) in cases {
        let pmf = characterize(target, N);
        assert!(
            pmf.max_error_pct() <= bound * 100.0 + 0.05,
            "{}: {}% exceeds bound {}%",
            target.label(),
            pmf.max_error_pct(),
            bound * 100.0
        );
    }
}

#[test]
fn ac_paths_within_analytic_bounds() {
    let full = characterize(
        CharTarget::AcMul {
            path: MulPath::Full,
            truncation: 0,
        },
        N,
    );
    assert!(full.max_error_pct() <= bounds::AC_FULL_PATH_MAX_ERROR * 100.0 + 1e-6);
    let log = characterize(
        CharTarget::AcMul {
            path: MulPath::Log,
            truncation: 0,
        },
        N,
    );
    assert!(log.max_error_pct() <= bounds::AC_LOG_PATH_MAX_ERROR * 100.0 + 1e-6);
}

#[test]
fn pmf_probabilities_sum_to_error_rate() {
    let pmf = characterize(CharTarget::IfpMul, N);
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
    let pmfs = [1u32, 4, 8, 12, 16, 27].map(|th| (th, characterize(CharTarget::IfpAdd { th }, N)));
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
    let a = characterize(CharTarget::Isqrt, 10_000);
    let b = characterize(CharTarget::Isqrt, 10_000);
    assert_eq!(a, b);
}
