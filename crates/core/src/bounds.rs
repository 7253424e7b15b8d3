//! Closed-form maximum error bounds from the paper's formal error analysis
//! (Chapter 4 and Table 1).
//!
//! These constants and functions are the analytical counterparts of the
//! empirical characterization in `ihw-error`; the property test-suite
//! checks the implementations in this crate against them.
//!
//! ```
//! use ihw_core::bounds;
//!
//! // TH = 8 ⇒ effective additions err below 0.78% (§4.1.1 cases a–b).
//! assert!(bounds::adder_add_bound(8) < 0.0078);
//! assert!((bounds::AC_FULL_PATH_MAX_ERROR - 0.0204).abs() < 1e-4);
//! ```

/// Maximum relative error of the Table 1 imprecise multiplier
/// (`Mz ≈ 1+Ma+Mb`): 25%, attained as `Ma, Mb → 1`.
pub const IFPMUL_MAX_ERROR: f64 = 0.25;

/// Maximum relative error of the accuracy-configurable multiplier's
/// **full path** with no truncation: `1/49 ≈ 2.04%` (§4.1.2).
pub const AC_FULL_PATH_MAX_ERROR: f64 = 1.0 / 49.0;

/// Maximum relative error of the accuracy-configurable multiplier's
/// **log path** with no truncation: `1/9 ≈ 11.11%` (Mitchell's bound).
pub const AC_LOG_PATH_MAX_ERROR: f64 = 1.0 / 9.0;

/// Maximum relative error of the imprecise reciprocal. Table 1 quotes
/// 5.88%; the exact analytic endpoint value at `x = 0.5` is
/// `(2 − 1.882)/2 = 5.90%`, which is the bound used here.
pub const RCP_MAX_ERROR: f64 = 0.059;

/// Maximum relative error of the imprecise inverse square root: 11.11%.
pub const RSQRT_MAX_ERROR: f64 = 1.0 / 9.0;

/// Maximum relative error of the imprecise square root: 11.11%.
pub const SQRT_MAX_ERROR: f64 = 1.0 / 9.0;

/// Maximum relative error of the imprecise division: inherited from the
/// reciprocal approximation (the dividend multiply is exact), see
/// [`RCP_MAX_ERROR`].
pub const DIV_MAX_ERROR: f64 = RCP_MAX_ERROR;

/// §4.1.1 case (a): effective addition with exponent difference `d ≥ TH`:
/// `ε_max < 1 / (2^(TH−1) + 1)`.
pub fn adder_add_far_bound(th: u32) -> f64 {
    1.0 / (2f64.powi(th as i32 - 1) + 1.0)
}

/// §4.1.1 case (b): effective addition with `0 < d < TH`:
/// `ε_max < 1 / 2^(TH+1)`.
pub fn adder_add_near_bound(th: u32) -> f64 {
    2f64.powi(-(th as i32) - 1)
}

/// Overall bound for effective additions: the max of cases (a) and (b).
///
/// For `TH = 8` this is `1/(2^7+1) ≈ 0.775%`, the figure quoted in §3.1.
pub fn adder_add_bound(th: u32) -> f64 {
    adder_add_far_bound(th).max(adder_add_near_bound(th))
}

/// §4.1.1 case (c): effective subtraction with `d ≥ TH`:
/// `ε_max < 1 / (2^(TH−1) − 1)`.
pub fn adder_sub_far_bound(th: u32) -> f64 {
    1.0 / (2f64.powi(th as i32 - 1) - 1.0)
}

/// Maximum **absolute** error of the imprecise adder as a fraction of
/// the larger operand magnitude, valid in *every* §4.1.1 case — including
/// case (d), where the *relative* error is unbounded.
///
/// From the `adder` implementation (`add_word32`/`add_word64`), with
/// `M = max(|a|, |b|)` and `e = exponent(M)` (so `2^e ≤ M`):
///
/// * `d ≥ TH`: the small operand is dropped entirely —
///   loss `< 2^(e−d+1) ≤ 2^(e−TH+1) ≤ 2^(1−TH)·M`;
/// * `d < TH`, effective addition: the aligned small significand is
///   truncated to `TH` fraction bits (loss `< 2^(e−TH) ≤ 2^(−TH)·M`) and
///   a carry normalisation may drop one ULP (loss `≤ 2^(e−23) ≤ 2^(−23)·M`);
/// * `d < TH`, effective subtraction: only the alignment truncation
///   (loss `< 2^(e−TH) ≤ 2^(−TH)·M`) — the wide difference is exact.
///
/// `2^(1−TH)` covers every case; the `2^(2−23)` term adds the carry-drop
/// ULP with headroom. This is the coefficient the affine error domain
/// attaches to each adder noise symbol: `|computed − exact| ≤
/// adder_abs_factor(TH) · max(|a|, |b|)`, finite even for overlapping
/// effective subtractions.
///
/// ```
/// use ihw_core::bounds;
/// assert!(bounds::adder_abs_factor(8) < 0.0079);
/// // Monotone: a wider TH window truncates less.
/// assert!(bounds::adder_abs_factor(17) < bounds::adder_abs_factor(16));
/// ```
pub fn adder_abs_factor(th: u32) -> f64 {
    2f64.powi(1 - th as i32) + 2f64.powi(2 - 23)
}

/// Numerically computed CDF of the Table 1 multiplier's relative error
/// under independent uniform mantissas `Ma, Mb ~ U[0,1)`:
/// `P[ error ≤ e ]` where `error = Ma·Mb / (1+Ma)(1+Mb)`.
///
/// This is the analytical counterpart of the empirical Figure 8 PMF for
/// `ifpmul`; the characterization tests cross-check the two.
///
/// # Panics
///
/// Panics unless `e` is in `[0, 1]`.
pub fn ifpmul_error_cdf(e: f64) -> f64 {
    assert!((0.0..=1.0).contains(&e), "error threshold out of range");
    // 2-D numeric integration on a fixed grid (deterministic, fast).
    let n = 400;
    let mut hits = 0u64;
    for i in 0..n {
        let ma = (i as f64 + 0.5) / n as f64;
        for j in 0..n {
            let mb = (j as f64 + 0.5) / n as f64;
            let err = ma * mb / ((1.0 + ma) * (1.0 + mb));
            if err <= e {
                hits += 1;
            }
        }
    }
    hits as f64 / (n * n) as f64
}

/// §4.1.1 case (d) has no closed bound: effective subtraction of nearly
/// equal operands can produce unbounded *relative* error (with tiny
/// absolute magnitude). This constant communicates that fact.
pub const ADDER_SUB_NEAR_BOUND: f64 = f64::INFINITY;

/// Overall bound for effective subtractions: the max of cases (c) and
/// (d). Because case (d) — nearly equal operands — has no closed bound,
/// the overall effective-subtraction bound is unbounded for every `TH`;
/// a static analysis may only use the finite [`adder_sub_far_bound`]
/// when it can prove the operand exponents differ by at least `TH`.
///
/// ```
/// use ihw_core::bounds;
/// assert!(bounds::adder_sub_bound(8).is_infinite());
/// assert!(bounds::adder_sub_far_bound(8).is_finite());
/// ```
pub fn adder_sub_bound(_th: u32) -> f64 {
    ADDER_SUB_NEAR_BOUND
}

/// Worst-case relative error of a fused multiply–add composed (as the
/// paper's datapath composes it, §5.1) from a multiplier with maximum
/// relative error `mul_err` and an adder with maximum relative error
/// `add_err`: the two stages compound multiplicatively,
/// `(1+ε_mul)(1+ε_add) − 1`.
///
/// ```
/// use ihw_core::bounds;
///
/// // Table 1 multiplier (25%) into a TH=8 effective addition (§4.1.1):
/// let e = bounds::fma_bound(bounds::IFPMUL_MAX_ERROR, bounds::adder_add_bound(8));
/// assert!(e > 0.25 && e < 0.26);
/// // Any unbounded stage makes the composition unbounded.
/// assert!(bounds::fma_bound(0.25, f64::INFINITY).is_infinite());
/// ```
pub fn fma_bound(mul_err: f64, add_err: f64) -> f64 {
    compose_rel(mul_err, add_err)
}

/// Multiplicative composition of two relative-error bounds:
/// `(1+ε₁)(1+ε₂) − 1`. Both arguments may be infinite (⊤).
pub fn compose_rel(e1: f64, e2: f64) -> f64 {
    if e1.is_infinite() || e2.is_infinite() {
        return f64::INFINITY;
    }
    (1.0 + e1) * (1.0 + e2) - 1.0
}

/// Maximum relative error of the accuracy-configurable multiplier (§3.2)
/// for a given datapath and operand truncation, in a format with
/// `frac_bits` fraction bits.
///
/// The path bound (§4.1.2: `1/49` full, `1/9` log) applies to the
/// *truncated* operands; dropping `truncation` low fraction bits
/// perturbs each operand by at most `2^(t−F)` relative, and re-encoding
/// the product into the format truncates at most `2^(1−F)` more, so the
/// stages compound multiplicatively.
///
/// ```
/// use ihw_core::ac_multiplier::MulPath;
/// use ihw_core::bounds;
///
/// // No truncation ⇒ essentially the pure path bounds of §4.1.2.
/// let full = bounds::ac_mul_bound(MulPath::Full, 0, 23);
/// assert!(full >= bounds::AC_FULL_PATH_MAX_ERROR && full < 0.0205);
/// let log = bounds::ac_mul_bound(MulPath::Log, 0, 23);
/// assert!(log >= bounds::AC_LOG_PATH_MAX_ERROR && log < 0.112);
/// // Truncation monotonically loosens the bound.
/// assert!(bounds::ac_mul_bound(MulPath::Full, 19, 23) > full);
/// ```
pub fn ac_mul_bound(path: crate::ac_multiplier::MulPath, truncation: u32, frac_bits: u32) -> f64 {
    let path_bound = match path {
        crate::ac_multiplier::MulPath::Full => AC_FULL_PATH_MAX_ERROR,
        crate::ac_multiplier::MulPath::Log => AC_LOG_PATH_MAX_ERROR,
    };
    let t = truncation.min(frac_bits);
    let operand = 2f64.powi(t as i32 - frac_bits as i32);
    let encode = 2f64.powi(1 - frac_bits as i32);
    compose_rel(
        path_bound,
        compose_rel(operand, compose_rel(operand, encode)),
    )
}

/// Maximum relative error of the bit-truncation baseline multiplier
/// (§3.2.2): each operand mantissa is *rounded* to `F − t` fraction bits
/// (half-step error `2^(t−F−1)` relative), multiplied exactly, and the
/// product truncated back into the format (`2^(1−F)` relative).
///
/// ```
/// use ihw_core::bounds;
///
/// // t = 21, single precision: ≈ 27% worst case (the measured maximum
/// // of §3.2.2, ≈21%, sits below this sound bound).
/// let e = bounds::truncated_mul_bound(21, 23);
/// assert!(e > 0.21 && e < 0.29);
/// assert!(bounds::truncated_mul_bound(0, 23) < 1e-6);
/// ```
pub fn truncated_mul_bound(truncation: u32, frac_bits: u32) -> f64 {
    let t = truncation.min(frac_bits);
    let operand = 2f64.powi(t as i32 - frac_bits as i32 - 1);
    let encode = 2f64.powi(1 - frac_bits as i32);
    compose_rel(operand, compose_rel(operand, encode))
}

/// Maximum *absolute* error of the Table 1 imprecise base-2 logarithm.
///
/// The unit computes `exp + C0·m − C1` for the significand `m ∈ [1, 2)`
/// (`C0 = 0.9846`, `C1 = 0.9196`, [`crate::sfu::LOG2_C0`]); its absolute
/// error `|C0·m − C1 − log₂ m|` is maximised at an interval endpoint or
/// at the stationary point `m* = 1/(C0·ln 2)`. Relative error is
/// unbounded near `x = 1` (where `log₂ x → 0`), which is why Table 1
/// quotes this unit's error in absolute terms.
///
/// ```
/// use ihw_core::bounds;
/// let a = bounds::log2_abs_bound();
/// assert!(a > 0.06 && a < 0.07);
/// ```
pub fn log2_abs_bound() -> f64 {
    let f = |m: f64| (crate::sfu::LOG2_C0 * m - crate::sfu::LOG2_C1 - m.log2()).abs();
    let stationary = 1.0 / (crate::sfu::LOG2_C0 * std::f64::consts::LN_2);
    let analytic = f(1.0).max(f(2.0)).max(f(stationary));
    // Headroom for the format re-encoding truncation of the result.
    analytic + 1e-3
}

/// The maximum relative error of the unit serving `op` under `cfg`, for
/// the single precision (`frac_bits = 23`) datapath — the closed-form
/// counterpart of one `ihw-error` characterization sweep.
///
/// Caveats a static analysis must respect:
///
/// * [`FpOp::Add`](crate::config::FpOp::Add) returns the *effective
///   addition* bound (§4.1.1 cases a–b). Effective subtraction is
///   unbounded in general ([`adder_sub_bound`]); use
///   [`adder_sub_far_bound`] only with a proven exponent gap.
/// * [`FpOp::Log2`](crate::config::FpOp::Log2) has unbounded relative
///   error ([`log2_abs_bound`] bounds it absolutely).
///
/// ```
/// use ihw_core::bounds;
/// use ihw_core::config::{FpOp, IhwConfig};
///
/// let c = IhwConfig::all_imprecise();
/// assert_eq!(bounds::unit_bound(&c, FpOp::Mul), bounds::IFPMUL_MAX_ERROR);
/// assert!(bounds::unit_bound(&c, FpOp::Log2).is_infinite());
/// assert_eq!(bounds::unit_bound(&IhwConfig::precise(), FpOp::Mul), 0.0);
/// ```
pub fn unit_bound(cfg: &crate::config::IhwConfig, op: crate::config::FpOp) -> f64 {
    use crate::config::{AddUnit, FpOp, MulUnit};
    let add_bound = match cfg.add {
        AddUnit::Precise => 0.0,
        AddUnit::Imprecise { th } => adder_add_bound(th),
    };
    let mul_bound = match cfg.mul {
        MulUnit::Precise => 0.0,
        MulUnit::Imprecise => IFPMUL_MAX_ERROR,
        MulUnit::AcMul(ac) => ac_mul_bound(ac.path, ac.truncation, 23),
        MulUnit::Truncated(tm) => truncated_mul_bound(tm.truncation, 23),
    };
    let sfu = |imprecise: bool, bound: f64| if imprecise { bound } else { 0.0 };
    match op {
        FpOp::Add => add_bound,
        FpOp::Mul => mul_bound,
        FpOp::Div => sfu(cfg.div.is_imprecise(), DIV_MAX_ERROR),
        FpOp::Rcp => sfu(cfg.rcp.is_imprecise(), RCP_MAX_ERROR),
        FpOp::Rsqrt => sfu(cfg.rsqrt.is_imprecise(), RSQRT_MAX_ERROR),
        FpOp::Sqrt => sfu(cfg.sqrt.is_imprecise(), SQRT_MAX_ERROR),
        FpOp::Log2 => sfu(cfg.log2.is_imprecise(), f64::INFINITY),
        FpOp::Exp2 => sfu(cfg.exp2.is_imprecise(), EXP2_MAX_ERROR),
        FpOp::Fma => fma_bound(mul_bound, add_bound),
    }
}

/// Maximum relative error of the `iexp2` extension unit (the linear
/// segment approximation `C0 + f`, characterized at ≈4.5%).
pub const EXP2_MAX_ERROR: f64 = 0.046;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn th8_matches_paper_figures() {
        // §4.1.1: TH=8 ⇒ case (a) < 0.775%, case (b) < 0.2%, case (c) < 0.785%.
        assert!((adder_add_far_bound(8) - 1.0 / 129.0).abs() < 1e-12);
        assert!(adder_add_far_bound(8) < 0.00776);
        assert!(adder_add_near_bound(8) < 0.00196);
        assert!(adder_sub_far_bound(8) < 0.00788);
    }

    #[test]
    fn bounds_monotone_in_th() {
        for th in 2..27 {
            assert!(adder_add_bound(th + 1) < adder_add_bound(th));
            assert!(adder_sub_far_bound(th + 1) < adder_sub_far_bound(th));
        }
    }

    #[test]
    fn ifpmul_cdf_properties() {
        assert_eq!(ifpmul_error_cdf(0.25), 1.0, "bounded by 25%");
        assert_eq!(ifpmul_error_cdf(0.0), 0.0);
        // Monotone.
        let mut prev = 0.0;
        for k in 1..=10 {
            let c = ifpmul_error_cdf(k as f64 * 0.025);
            assert!(c >= prev);
            prev = c;
        }
        // The median error sits well below the worst case.
        assert!(ifpmul_error_cdf(0.10) > 0.5, "{}", ifpmul_error_cdf(0.10));
    }

    #[test]
    fn sub_bound_is_unbounded_for_every_th() {
        for th in 1..28 {
            assert!(adder_sub_bound(th).is_infinite());
        }
    }

    #[test]
    fn fma_bound_compounds_multiplicatively() {
        let e = fma_bound(IFPMUL_MAX_ERROR, adder_add_bound(8));
        assert!(e > IFPMUL_MAX_ERROR);
        assert!(e < IFPMUL_MAX_ERROR + adder_add_bound(8) + 0.01);
        assert_eq!(fma_bound(0.0, 0.0), 0.0);
        assert!(compose_rel(f64::INFINITY, 0.1).is_infinite());
    }

    #[test]
    fn ac_and_truncated_bounds_monotone_in_truncation() {
        use crate::ac_multiplier::MulPath;
        for t in 0..22 {
            assert!(ac_mul_bound(MulPath::Full, t + 1, 23) > ac_mul_bound(MulPath::Full, t, 23));
            assert!(truncated_mul_bound(t + 1, 23) > truncated_mul_bound(t, 23));
        }
        // Truncation clamps to the fraction width.
        assert_eq!(
            ac_mul_bound(MulPath::Log, 23, 23),
            ac_mul_bound(MulPath::Log, 99, 23)
        );
    }

    #[test]
    fn unit_bound_covers_every_op() {
        use crate::config::{FpOp, IhwConfig};
        let c = IhwConfig::all_imprecise();
        for op in FpOp::ALL {
            let b = unit_bound(&c, op);
            assert!(b > 0.0, "{op} bound must be positive when imprecise");
            assert_eq!(unit_bound(&IhwConfig::precise(), op), 0.0);
        }
        assert!(unit_bound(&c, FpOp::Fma) > unit_bound(&c, FpOp::Mul));
    }

    #[test]
    fn log2_abs_bound_dominates_measured_unit_error() {
        // Cross-check the closed form against a sweep of the actual unit.
        let bound = log2_abs_bound();
        let mut worst = 0.0f64;
        for i in 1..2000 {
            let x = i as f32 * 0.01;
            let approx = crate::sfu::ilog2_32(x) as f64;
            worst = worst.max((approx - (x as f64).log2()).abs());
        }
        assert!(worst <= bound, "measured {worst} vs bound {bound}");
        assert!(worst > bound - 0.04, "bound should be near-attained");
    }

    #[test]
    fn adder_abs_factor_dominates_measured_absolute_error() {
        // Differential sweep against the real adder: the absolute error of
        // iadd32/isub32 must stay within adder_abs_factor(th)·max(|a|,|b|)
        // for every case — same sign, opposite sign, overlapping and far
        // magnitudes — which is exactly the invariant the affine error
        // domain leans on.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64
        };
        for th in [2u32, 4, 8, 12, 17, 23, 27] {
            let factor = adder_abs_factor(th);
            for _ in 0..4000 {
                // Magnitudes spread over ~2^24 so d sweeps both sides of th.
                let a = ((next() - 0.5) * 2.0 * 2f64.powf(next() * 24.0 - 12.0)) as f32;
                let b = ((next() - 0.5) * 2.0 * 2f64.powf(next() * 24.0 - 12.0)) as f32;
                let got = crate::adder::iadd32(a, b, th) as f64;
                let exact = a as f64 + b as f64;
                let m = (a as f64).abs().max((b as f64).abs());
                assert!(
                    (got - exact).abs() <= factor * m,
                    "th={th} a={a:e} b={b:e}: |{got:e} - {exact:e}| > {factor:e}·{m:e}"
                );
                let got_sub = crate::adder::isub32(a, b, th) as f64;
                let exact_sub = a as f64 - b as f64;
                assert!(
                    (got_sub - exact_sub).abs() <= factor * m,
                    "sub th={th} a={a:e} b={b:e}"
                );
            }
        }
        // Near-attained: overlapping subtraction at th=8 loses ~2^(−8)·M.
        let worst = (0..2000)
            .map(|i| {
                let a = 1.0f32 + i as f32 * 4.8e-4;
                let b = -(1.0f32 + (1999 - i) as f32 * 4.9e-4);
                (crate::adder::iadd32(a, b, 8) as f64 - (a as f64 + b as f64)).abs()
                    / (a as f64).abs().max((b as f64).abs())
            })
            .fold(0.0f64, f64::max);
        assert!(
            worst > adder_abs_factor(8) / 8.0,
            "factor far from tight: {worst:e}"
        );
    }

    #[test]
    fn path_bounds_ordered() {
        const {
            assert!(AC_FULL_PATH_MAX_ERROR < AC_LOG_PATH_MAX_ERROR);
            assert!(AC_LOG_PATH_MAX_ERROR < IFPMUL_MAX_ERROR);
        }
    }
}
