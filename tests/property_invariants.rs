//! Property-based invariants over the imprecise units (proptest), run
//! from the facade crate so they exercise the full public API.

use imprecise_gpgpu::core::bounds;
use imprecise_gpgpu::core::prelude::*;
use proptest::prelude::*;

/// Finite, normal, positive f32 values across the full exponent range.
fn pos_normal_f32() -> impl Strategy<Value = f32> {
    (any::<u32>(), -100i32..100).prop_map(|(m, e)| {
        let mant = 1.0 + (m as f32 / u32::MAX as f32);
        mant * (e as f32).exp2()
    })
}

/// Finite, normal, positive f64 values; any product of two stays normal.
fn pos_normal_f64() -> impl Strategy<Value = f64> {
    (any::<u64>(), -500i32..500).prop_map(|(m, e)| {
        let mant = 1.0 + (m as f64 / u64::MAX as f64);
        mant * (e as f64).exp2()
    })
}

/// Any-signed normal f32.
fn normal_f32() -> impl Strategy<Value = f32> {
    (pos_normal_f32(), any::<bool>()).prop_map(|(x, s)| if s { -x } else { x })
}

proptest! {
    #[test]
    fn imul32_bounded_and_underestimating(a in pos_normal_f32(), b in pos_normal_f32()) {
        let approx = imul32(a, b) as f64;
        let exact = a as f64 * b as f64;
        prop_assume!(exact.is_finite() && exact > 2.0 * f32::MIN_POSITIVE as f64 && exact < f32::MAX as f64);
        let rel = (approx - exact) / exact;
        prop_assert!(rel <= 1e-7, "never overshoots: {rel}");
        prop_assert!(rel >= -(bounds::IFPMUL_MAX_ERROR + 1e-7), "bounded: {rel}");
    }

    #[test]
    fn imul64_bounded_and_underestimating(a in pos_normal_f64(), b in pos_normal_f64()) {
        let exact = a * b;
        let rel = (imul64(a, b) - exact) / exact;
        prop_assert!(rel <= 1e-15, "never overshoots: {rel}");
        prop_assert!(rel >= -(bounds::IFPMUL_MAX_ERROR + 1e-15), "bounded: {rel}");
    }

    #[test]
    fn ac_full_path_bound(a in pos_normal_f32(), b in pos_normal_f32()) {
        let cfg = AcMulConfig::new(MulPath::Full, 0);
        let approx = cfg.mul32(a, b) as f64;
        let exact = a as f64 * b as f64;
        prop_assume!(exact.is_finite() && exact > 2.0 * f32::MIN_POSITIVE as f64 && exact < f32::MAX as f64);
        let rel = ((approx - exact) / exact).abs();
        prop_assert!(rel <= bounds::AC_FULL_PATH_MAX_ERROR + 1e-6, "{rel}");
    }

    #[test]
    fn ac_log_path_bound(a in pos_normal_f32(), b in pos_normal_f32()) {
        let cfg = AcMulConfig::new(MulPath::Log, 0);
        let approx = cfg.mul32(a, b) as f64;
        let exact = a as f64 * b as f64;
        prop_assume!(exact.is_finite() && exact > 2.0 * f32::MIN_POSITIVE as f64 && exact < f32::MAX as f64);
        let rel = ((approx - exact) / exact).abs();
        prop_assert!(rel <= bounds::AC_LOG_PATH_MAX_ERROR + 1e-6, "{rel}");
    }

    #[test]
    fn ac_paths_bound_f64(a in pos_normal_f64(), b in pos_normal_f64()) {
        // Untruncated, `ac_mul_bound` is the §4.1.2 path bound plus a
        // few ulps of re-encoding; deep f64 truncation stays within it too.
        let exact = a * b;
        for (path, t) in [(MulPath::Full, 0), (MulPath::Log, 0), (MulPath::Log, 48)] {
            let rel = ((AcMulConfig::new(path, t).mul64(a, b) - exact) / exact).abs();
            prop_assert!(rel <= bounds::ac_mul_bound(path, t, 52), "{path:?} t={t}: {rel}");
        }
    }

    #[test]
    fn adder_commutative(a in normal_f32(), b in normal_f32(), th in 1u32..=27) {
        prop_assert_eq!(iadd32(a, b, th).to_bits(), iadd32(b, a, th).to_bits());
    }

    #[test]
    fn adder_effective_add_bound(a in pos_normal_f32(), b in pos_normal_f32(), th in 2u32..=27) {
        let approx = iadd32(a, b, th) as f64;
        let exact = a as f64 + b as f64;
        prop_assume!(exact.is_finite() && exact < f32::MAX as f64);
        let rel = ((approx - exact) / exact).abs();
        // §4.1.1 cases (a)+(b) plus one truncated-renormalize ulp.
        prop_assert!(rel <= bounds::adder_add_bound(th) + 1e-6, "th={th}: {rel}");
    }

    #[test]
    fn adder_sign_symmetry(a in normal_f32(), b in normal_f32(), th in 1u32..=27) {
        // −(a + b) = (−a) + (−b) bit-exactly.
        let lhs = iadd32(-a, -b, th);
        let rhs = -iadd32(a, b, th);
        prop_assert_eq!(lhs.to_bits(), rhs.to_bits());
    }

    #[test]
    fn mul_sign_rules(a in normal_f32(), b in normal_f32()) {
        let y = imul32(a, b);
        if y != 0.0 && !y.is_nan() {
            prop_assert_eq!(y.is_sign_negative(), a.is_sign_negative() != b.is_sign_negative());
        }
    }

    #[test]
    fn rcp_bounded_everywhere(x in pos_normal_f32()) {
        let approx = ircp32(x) as f64;
        let exact = 1.0 / x as f64;
        prop_assume!(approx.is_finite() && approx != 0.0);
        let rel = ((approx - exact) / exact).abs();
        prop_assert!(rel <= bounds::RCP_MAX_ERROR + 1e-4, "{rel}");
    }

    #[test]
    fn sqrt_rsqrt_consistent(x in pos_normal_f32()) {
        // isqrt(x) · irsqrt(x) ≈ 1 within the combined error budget.
        let p = isqrt32(x) as f64 * irsqrt32(x) as f64;
        prop_assume!(p.is_finite() && p != 0.0);
        prop_assert!((p - 1.0).abs() < 0.25, "{p}");
    }

    #[test]
    fn truncated_mul_monotone_error(a in pos_normal_f32(), b in pos_normal_f32()) {
        let exact = a as f64 * b as f64;
        prop_assume!(exact.is_finite() && exact > 2.0 * f32::MIN_POSITIVE as f64 && exact < f32::MAX as f64);
        let e0 = ((TruncatedMul::new(0).mul32(a, b) as f64 - exact) / exact).abs();
        prop_assert!(e0 < 3e-7, "t=0 nearly exact: {e0}");
    }

    #[test]
    fn mitchell_underestimates(a in 1u64..u32::MAX as u64, b in 1u64..u32::MAX as u64) {
        let approx = mitchell_mul(a, b);
        let exact = a as u128 * b as u128;
        prop_assert!(approx <= exact);
        let err = (exact - approx) as f64 / exact as f64;
        prop_assert!(err <= 1.0 / 9.0 + 1e-12, "{err}");
    }

    #[test]
    fn config_dispatch_consistent(a in pos_normal_f32(), b in pos_normal_f32()) {
        // The IhwConfig dispatcher must agree with the direct unit calls.
        let cfg = IhwConfig::all_imprecise();
        prop_assert_eq!(cfg.mul32(a, b).to_bits(), imul32(a, b).to_bits());
        prop_assert_eq!(cfg.add32(a, b).to_bits(), iadd32(a, b, 8).to_bits());
        prop_assert_eq!(cfg.sqrt32(a).to_bits(), isqrt32(a).to_bits());
        prop_assert_eq!(cfg.rcp32(a).to_bits(), ircp32(a).to_bits());
    }

    #[test]
    fn f64_units_match_f32_error_profile(a in 1.0f64..2.0, b in 1.0f64..2.0) {
        // Same algorithm, different width: double precision error of the
        // Table 1 multiplier is within an ulp-scale of the single one.
        let e32 = (imul32(a as f32, b as f32) as f64 - a * b).abs() / (a * b);
        let e64 = (imul64(a, b) - a * b).abs() / (a * b);
        prop_assert!((e32 - e64).abs() < 1e-5, "{e32} vs {e64}");
    }
}
