//! EFT — error-free transformations (TwoSum, TwoProd) and the Ogita–Rump
//! compensated dot product, routed through the counting dispatcher.
//!
//! These are the workload-level twins of the `gpu_sim::programs` EFT
//! kernels (`two_sum`, `two_prod`, `dot_compensated`) that the affine
//! relational domain in `ihw-analyze` bounds: every correction term is
//! computed by *subtracting back* the rounded result, so the interval
//! domain alone reports the correction chain ⊤ while the true error is
//! tiny. On precise hardware the transformations are error-free
//! identities (`a + b = s + e` exactly); on imprecise hardware the
//! compensation degrades gracefully — the tests below measure both.
//!
//! Quality metric: relative error of the compensated dot against an
//! `f64` host reference, compared to the naive FMA accumulation.

use gpu_sim::dispatch::FpCtx;
use ihw_core::config::IhwConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// EFT workload parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EftParams {
    /// Vector length of the dot product.
    pub n: usize,
    /// Input seed.
    pub seed: u64,
}

impl Default for EftParams {
    /// Test-scale instance.
    fn default() -> Self {
        EftParams {
            n: 256,
            seed: 0x2e57,
        }
    }
}

/// Result of one EFT dot-product run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EftOutput {
    /// Naive FMA accumulation of the same products.
    pub naive: f32,
    /// Compensated (dot2) result: accumulated sum plus correction.
    pub compensated: f32,
    /// Host `f64` reference of the exact dot product.
    pub reference: f64,
}

/// Knuth's branch-free TwoSum on the configured adder: returns the
/// rounded sum `s` and the correction `e`. On precise hardware
/// `a + b = s + e` exactly; six adder operations, no comparisons.
pub fn two_sum(ctx: &mut FpCtx, a: f32, b: f32) -> (f32, f32) {
    let s = ctx.add32(a, b);
    let bb = ctx.sub32(s, a);
    let aa = ctx.sub32(s, bb);
    let da = ctx.sub32(a, aa);
    let db = ctx.sub32(b, bb);
    let e = ctx.add32(da, db);
    (s, e)
}

/// TwoProd via the multiply–add: returns the rounded product `p` and
/// the correction `e = fma(a, b, −p)`. The simulated FMA is decomposed
/// (round after the multiply, like the IR's `ffma`), so on precise
/// hardware the residual is exactly zero — the transformation is kept
/// for its op mix and because imprecise units make `e` observable.
pub fn two_prod(ctx: &mut FpCtx, a: f32, b: f32) -> (f32, f32) {
    let p = ctx.mul32(a, b);
    let e = ctx.fma32(a, b, -p);
    (p, e)
}

/// Naive dot product: one FMA chain, the uncompensated baseline.
pub fn dot_naive(ctx: &mut FpCtx, xs: &[f32], ys: &[f32]) -> f32 {
    let mut s = 0.0f32;
    for (&x, &y) in xs.iter().zip(ys) {
        s = ctx.fma32(x, y, s);
    }
    s
}

/// Ogita–Rump `dot2`: every product and every partial sum is transformed
/// error-free, the corrections accumulate separately and are folded in
/// once at the end.
pub fn dot_compensated(ctx: &mut FpCtx, xs: &[f32], ys: &[f32]) -> f32 {
    let mut s = 0.0f32;
    let mut c = 0.0f32;
    for (&x, &y) in xs.iter().zip(ys) {
        let (p, ep) = two_prod(ctx, x, y);
        let (t, es) = two_sum(ctx, s, p);
        s = t;
        let e = ctx.add32(ep, es);
        c = ctx.add32(c, e);
    }
    ctx.add32(s, c)
}

/// Synthesizes an ill-conditioned input pair: the first half carries
/// products spread over 13 binades (magnitudes up to `2¹²`), the second
/// half mirrors them with negated `y`, so the exact dot is zero while
/// `Σ|xᵢyᵢ|` is large — naive accumulation drowns in the rounding noise
/// of the big partial sums, the regime compensation exists for.
pub fn synth_inputs(params: &EftParams) -> (Vec<f32>, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let half = params.n / 2;
    let mut xs = Vec::with_capacity(half * 2);
    let mut ys = Vec::with_capacity(half * 2);
    for i in 0..half {
        let scale = 2.0f32.powi((i % 13) as i32);
        xs.push(rng.gen_range(0.5f32..1.0) * scale);
        ys.push(rng.gen_range(0.5f32..1.0) * if i % 2 == 0 { 1.0 } else { -1.0 });
    }
    for i in 0..half {
        xs.push(xs[i]);
        ys.push(-ys[i]);
    }
    (xs, ys)
}

/// Runs naive and compensated dots under the configuration carried by
/// `ctx` and pairs them with the `f64` host reference.
pub fn run(params: &EftParams, xs: &[f32], ys: &[f32], ctx: &mut FpCtx) -> EftOutput {
    let _ = params;
    let reference: f64 = xs.iter().zip(ys).map(|(&x, &y)| x as f64 * y as f64).sum();
    let naive = dot_naive(ctx, xs, ys);
    ctx.mem_op(2 * xs.len() as u64);
    let compensated = dot_compensated(ctx, xs, ys);
    ctx.mem_op(2 * xs.len() as u64 + 1);
    EftOutput {
        naive,
        compensated,
        reference,
    }
}

/// Convenience: synthesizes inputs, runs, returns output + context.
pub fn run_with_config(params: &EftParams, cfg: IhwConfig) -> (EftOutput, FpCtx) {
    let (xs, ys) = synth_inputs(params);
    let mut ctx = FpCtx::new(cfg);
    let out = run(params, &xs, &ys, &mut ctx);
    (out, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ihw_core::config::FpOp;

    #[test]
    fn deterministic() {
        let (a, _) = run_with_config(&EftParams::default(), IhwConfig::all_imprecise());
        let (b, _) = run_with_config(&EftParams::default(), IhwConfig::all_imprecise());
        assert_eq!(a, b);
    }

    #[test]
    fn two_sum_is_error_free_on_precise_hardware() {
        let mut ctx = FpCtx::new(IhwConfig::precise());
        for (a, b) in [
            (1.0f32, 2f32.powi(-24)),
            (1e8, -1e8 + 3.0),
            (0.1, 0.2),
            (-7.25, 7.250_001),
        ] {
            let (s, e) = two_sum(&mut ctx, a, b);
            assert_eq!(s, a + b, "s is the rounded sum");
            assert_eq!(
                s as f64 + e as f64,
                a as f64 + b as f64,
                "a + b = s + e exactly for ({a}, {b})"
            );
        }
    }

    #[test]
    fn two_prod_residual_is_zero_for_the_decomposed_fma() {
        // Mirrors the IR-level regression in `gpu_sim::programs`: the
        // simulated FMA rounds the product before adding, so
        // `fma(a, b, −p)` cancels bit-exactly on precise hardware.
        let mut ctx = FpCtx::new(IhwConfig::precise());
        for (a, b) in [
            (0.1f32, 0.3f32),
            (1.0 + 2f32.powi(-23), 1.0 - 2f32.powi(-23)),
        ] {
            let (p, e) = two_prod(&mut ctx, a, b);
            assert_eq!(p, a * b, "p is the rounded product");
            assert_eq!(e, 0.0, "decomposed FMA leaves no residual ({a}, {b})");
        }
    }

    #[test]
    fn compensation_beats_naive_accumulation_when_precise() {
        let params = EftParams::default();
        let (out, _) = run_with_config(&params, IhwConfig::precise());
        let naive_err = (out.naive as f64 - out.reference).abs();
        let comp_err = (out.compensated as f64 - out.reference).abs();
        assert!(
            comp_err <= naive_err,
            "compensated {comp_err} vs naive {naive_err}"
        );
        // The summation error is recovered entirely; what remains is the
        // products' own rounding, bounded by `Σ|xᵢyᵢ| · 2⁻²⁴` (plus the
        // final f32 rounding) — orders below the naive noise floor.
        let (xs, ys) = synth_inputs(&params);
        let scale: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(&x, &y)| (x as f64 * y as f64).abs())
            .sum();
        assert!(
            comp_err <= scale * 2f64.powi(-23),
            "compensated error {comp_err} vs product-rounding budget {}",
            scale * 2f64.powi(-23)
        );
        assert!(
            naive_err > 0.0 && comp_err < naive_err,
            "compensation must strictly improve on this conditioning \
             (naive {naive_err}, compensated {comp_err})"
        );
    }

    #[test]
    fn compensation_degrades_gracefully_on_imprecise_hardware() {
        // The imprecise adder breaks the error-free identity, but the
        // result stays finite and within the coarse §4.1.1 error regime.
        let (out, _) = run_with_config(&EftParams::default(), IhwConfig::all_imprecise());
        assert!(out.compensated.is_finite());
        let scale: f64 = {
            let (xs, ys) = synth_inputs(&EftParams::default());
            xs.iter()
                .zip(&ys)
                .map(|(&x, &y)| (x as f64 * y as f64).abs())
                .sum()
        };
        let comp_err = (out.compensated as f64 - out.reference).abs();
        assert!(
            comp_err < 0.5 * scale,
            "error {comp_err} vs magnitude scale {scale}"
        );
    }

    #[test]
    fn op_counts_match_the_dot2_recurrence() {
        // Per element: TwoProd = 1 mul + 1 fma; TwoSum = 6 adds; folding
        // the two corrections = 2 adds. Plus the final s + c, and the
        // naive baseline's n FMAs.
        let n = EftParams::default().n as u64;
        let (_, ctx) = run_with_config(&EftParams::default(), IhwConfig::precise());
        assert_eq!(ctx.counts().get(FpOp::Mul), n);
        assert_eq!(ctx.counts().get(FpOp::Fma), 2 * n);
        assert_eq!(ctx.counts().get(FpOp::Add), 8 * n + 1);
    }
}
