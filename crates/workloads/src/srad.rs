//! SRAD — Speckle Reducing Anisotropic Diffusion (Rodinia; Yu & Acton
//! paper reference 29), the ultrasound despeckling benchmark of Figure 16.
//!
//! The PDE iteratively diffuses the image everywhere except across
//! feature edges, with the diffusion coefficient driven by the local
//! instantaneous coefficient of variation `q` against the speckle scale
//! `q₀` estimated over a homogeneous region of interest. The kernel is
//! division-heavy, which is what puts SRAD's power into the SFU.
//!
//! Input: a synthetic ultrasound image — dark elliptical cysts on a
//! bright background, corrupted by multiplicative speckle noise — with a
//! known ideal edge map (the ellipse boundaries). Quality is evaluated as
//! in the original SRAD paper: binary edge maps (Sobel) compared by
//! Pratt's figure of merit.

use gpu_sim::dispatch::FpCtx;
use ihw_core::config::IhwConfig;
use ihw_quality::{pratt_fom, GrayImage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SRAD workload parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SradParams {
    /// Image side length (square image).
    pub size: usize,
    /// Diffusion iterations.
    pub iterations: usize,
    /// Diffusion strength λ.
    pub lambda: f32,
    /// Multiplicative speckle amplitude.
    pub speckle: f32,
    /// Input generator seed.
    pub seed: u64,
}

impl Default for SradParams {
    /// Test-scale instance (48×48); the repro harness uses 128×128.
    fn default() -> Self {
        SradParams {
            size: 48,
            iterations: 24,
            lambda: 0.5,
            speckle: 0.25,
            seed: 0x5eed,
        }
    }
}

impl SradParams {
    /// Repro-scale instance.
    pub fn paper() -> Self {
        SradParams {
            size: 128,
            iterations: 50,
            lambda: 0.5,
            speckle: 0.25,
            seed: 0x5eed,
        }
    }
}

/// The synthetic ultrasound scene: noisy input, clean reference, and the
/// ideal (analytic) edge map.
#[derive(Debug, Clone)]
pub struct SradScene {
    /// Speckled input image in `[0, 1]`.
    pub noisy: GrayImage,
    /// Noise-free image.
    pub clean: GrayImage,
    /// Ideal edge map (the cyst boundaries).
    pub ideal_edges: Vec<bool>,
}

/// Result of a SRAD run.
#[derive(Debug, Clone)]
pub struct SradOutput {
    /// The despeckled image.
    pub image: GrayImage,
}

/// Elliptical cysts used by the scene generator: one large central cyst
/// plus a smaller offset one, as in typical SRAD demonstrations.
fn cysts(size: usize) -> Vec<(f64, f64, f64, f64)> {
    let s = size as f64;
    vec![
        (0.42 * s, 0.45 * s, 0.22 * s, 0.16 * s),
        (0.72 * s, 0.68 * s, 0.10 * s, 0.12 * s),
    ]
}

/// Generates the synthetic scene.
pub fn synth_scene(params: &SradParams) -> SradScene {
    let n = params.size;
    let shapes = cysts(n);
    let inside = |x: f64, y: f64| {
        shapes.iter().any(|&(cx, cy, a, b)| {
            let dx = (x - cx) / a;
            let dy = (y - cy) / b;
            dx * dx + dy * dy <= 1.0
        })
    };
    let clean = GrayImage::from_fn(n, n, |x, y| {
        if inside(x as f64, y as f64) {
            0.18
        } else {
            0.72
        }
    });
    // Ideal edges: pixels where the analytic inside/outside test flips
    // against any 4-neighbour.
    let mut ideal_edges = vec![false; n * n];
    for y in 1..n - 1 {
        for x in 1..n - 1 {
            let c = inside(x as f64, y as f64);
            let flip = [(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)]
                .iter()
                .any(|&(xx, yy)| inside(xx as f64, yy as f64) != c);
            ideal_edges[y * n + x] = flip;
        }
    }
    // Multiplicative speckle.
    let mut rng = StdRng::seed_from_u64(params.seed);
    let noisy = GrayImage::from_fn(n, n, |x, y| {
        let u: f64 = rng.gen_range(-1.0..1.0);
        (clean.get(x, y) * (1.0 + params.speckle as f64 * u)).clamp(0.0, 1.0)
    });
    SradScene {
        noisy,
        clean,
        ideal_edges,
    }
}

/// Runs the SRAD kernel on the scene's noisy image under the arithmetic
/// configuration carried by `ctx`.
pub fn run(params: &SradParams, scene: &SradScene, ctx: &mut FpCtx) -> SradOutput {
    let n = params.size;
    let lambda = params.lambda;
    let mut j: Vec<f32> = scene
        .noisy
        .as_slice()
        .iter()
        .map(|&v| v as f32 + 0.02)
        .collect();
    let mut c = vec![0.0f32; n * n];
    let mut dn = vec![0.0f32; n * n];
    let mut ds = vec![0.0f32; n * n];
    let mut dw = vec![0.0f32; n * n];
    let mut de = vec![0.0f32; n * n];

    // Homogeneous ROI for the speckle-scale estimate: top-left corner.
    let roi = (n / 8).max(2);

    for _ in 0..params.iterations {
        // ROI statistics (device-side reduction in Rodinia).
        let mut sum = 0.0f32;
        let mut sum2 = 0.0f32;
        for y in 0..roi {
            for x in 0..roi {
                let v = j[y * n + x];
                sum = ctx.add32(sum, v);
                sum2 = ctx.fma32(v, v, sum2);
                ctx.mem_op(1);
            }
        }
        let count = (roi * roi) as f32;
        let mean = ctx.div32(sum, count);
        let mean2 = ctx.mul32(mean, mean);
        let ex2 = ctx.div32(sum2, count);
        let var = ctx.sub32(ex2, mean2);
        let q0sqr = ctx.div32(var, mean2);

        // Pass 1: directional derivatives and diffusion coefficient.
        for y in 0..n {
            for x in 0..n {
                let idx = y * n + x;
                let jc = j[idx];
                let jn = if y > 0 { j[idx - n] } else { jc };
                let js = if y + 1 < n { j[idx + n] } else { jc };
                let jw = if x > 0 { j[idx - 1] } else { jc };
                let je = if x + 1 < n { j[idx + 1] } else { jc };
                ctx.int_op(8);
                ctx.mem_op(5);

                let d_n = ctx.sub32(jn, jc);
                let d_s = ctx.sub32(js, jc);
                let d_w = ctx.sub32(jw, jc);
                let d_e = ctx.sub32(je, jc);
                dn[idx] = d_n;
                ds[idx] = d_s;
                dw[idx] = d_w;
                de[idx] = d_e;

                // G² = (dN²+dS²+dW²+dE²)/Jc², L = (dN+dS+dW+dE)/Jc
                let ss = ctx.mul32(d_s, d_s);
                let g_a = ctx.fma32(d_n, d_n, ss);
                let ee = ctx.mul32(d_e, d_e);
                let g_b = ctx.fma32(d_w, d_w, ee);
                let g2_num = ctx.add32(g_a, g_b);
                let jc2 = ctx.mul32(jc, jc);
                let g2 = ctx.div32(g2_num, jc2);
                let l_ns = ctx.add32(d_n, d_s);
                let l_we = ctx.add32(d_w, d_e);
                let l_num = ctx.add32(l_ns, l_we);
                let l = ctx.div32(l_num, jc);
                // num = ½G² − (1/16)L²; den = 1 + ¼L; q² = num/den²
                let half_g2 = ctx.mul32(0.5, g2);
                let l_sq = ctx.mul32(l, l);
                let l_term = ctx.mul32(0.0625, l_sq);
                let num = ctx.sub32(half_g2, l_term);
                let quarter_l = ctx.mul32(0.25, l);
                let den = ctx.add32(1.0, quarter_l);
                let den_sq = ctx.mul32(den, den);
                let qsqr = ctx.div32(num, den_sq);
                // c = 1 / (1 + (q² − q0²)/(q0²(1+q0²)))
                let one_plus_q0 = ctx.add32(1.0, q0sqr);
                let denom = ctx.mul32(q0sqr, one_plus_q0);
                let dq = ctx.sub32(qsqr, q0sqr);
                let frac = ctx.div32(dq, denom);
                let one_plus_frac = ctx.add32(1.0, frac);
                let coeff = ctx.rcp32(one_plus_frac);
                c[idx] = coeff.clamp(0.0, 1.0);
            }
        }

        // Pass 2: divergence update.
        for y in 0..n {
            for x in 0..n {
                let idx = y * n + x;
                let cc = c[idx];
                let cs = if y + 1 < n { c[idx + n] } else { cc };
                let ce = if x + 1 < n { c[idx + 1] } else { cc };
                ctx.int_op(6);
                ctx.mem_op(4);
                let sd = ctx.mul32(cs, ds[idx]);
                let div_a = ctx.fma32(cc, dn[idx], sd);
                let ed = ctx.mul32(ce, de[idx]);
                let div_b = ctx.fma32(cc, dw[idx], ed);
                let div = ctx.add32(div_a, div_b);
                let gain = ctx.mul32(0.25, lambda);
                let scaled = ctx.mul32(gain, div);
                j[idx] = ctx.add32(j[idx], scaled);
            }
        }
    }

    let image = GrayImage::from_vec(n, n, j.iter().map(|&v| v as f64).collect());
    SradOutput { image }
}

/// Sobel threshold used for the edge-map quality evaluation.
pub const EDGE_THRESHOLD: f64 = 0.55;

/// Evaluates a SRAD output with Pratt's figure of merit against the
/// scene's ideal edge map (the Figure 16 metric).
pub fn evaluate_fom(output: &SradOutput, scene: &SradScene) -> f64 {
    let n = output.image.width();
    let edges = output.image.sobel_edges(EDGE_THRESHOLD);
    pratt_fom(&edges, &scene.ideal_edges, n, n)
}

/// Convenience: synthesizes the scene, runs, and returns output + context.
pub fn run_with_config(params: &SradParams, cfg: IhwConfig) -> (SradOutput, SradScene, FpCtx) {
    let scene = synth_scene(params);
    let mut ctx = FpCtx::new(cfg);
    let out = run(params, &scene, &mut ctx);
    (out, scene, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ihw_core::config::FpOp;

    fn small() -> SradParams {
        SradParams {
            size: 32,
            iterations: 10,
            ..SradParams::default()
        }
    }

    #[test]
    fn scene_has_structure() {
        let scene = synth_scene(&small());
        assert!(scene.ideal_edges.iter().filter(|&&e| e).count() > 20);
        let (lo, hi) = scene.clean.min_max();
        assert!(lo < 0.2 && hi > 0.7);
        // Noise actually applied.
        assert_ne!(scene.noisy, scene.clean);
    }

    #[test]
    fn diffusion_reduces_speckle_variance() {
        let params = small();
        let (out, scene, _) = run_with_config(&params, IhwConfig::precise());
        // Variance in a homogeneous background patch must drop.
        let patch_var = |img: &GrayImage| {
            let mut s = 0.0;
            let mut s2 = 0.0;
            let mut n = 0.0;
            for y in 2..8 {
                for x in 20..30 {
                    let v = img.get(x, y);
                    s += v;
                    s2 += v * v;
                    n += 1.0;
                }
            }
            s2 / n - (s / n) * (s / n)
        };
        let before = patch_var(&scene.noisy);
        let after = patch_var(&out.image);
        assert!(after < before * 0.5, "speckle var {before} → {after}");
    }

    #[test]
    fn edges_survive_diffusion() {
        let params = small();
        let (out, scene, _) = run_with_config(&params, IhwConfig::precise());
        let fom = evaluate_fom(&out, &scene);
        assert!(fom > 0.10, "Pratt FOM {fom} too low — edges destroyed");
    }

    #[test]
    fn imprecise_fom_close_to_precise() {
        // Figure 16: precise FOM 0.20 vs imprecise 0.23 — the IHW noise is
        // dwarfed by the image noise. Assert the gap stays small.
        let params = small();
        let (p_out, scene, _) = run_with_config(&params, IhwConfig::precise());
        let (i_out, _, _) = run_with_config(&params, IhwConfig::all_imprecise());
        let p_fom = evaluate_fom(&p_out, &scene);
        let i_fom = evaluate_fom(&i_out, &scene);
        assert!((p_fom - i_fom).abs() < 0.15, "FOM gap {p_fom} vs {i_fom}");
    }

    #[test]
    fn division_heavy_kernel() {
        let (_, _, ctx) = run_with_config(&small(), IhwConfig::precise());
        let divs = ctx.counts().get(FpOp::Div) + ctx.counts().get(FpOp::Rcp);
        assert!(divs > 0);
        // SFU ops are a substantial fraction — that is where SRAD's power
        // goes in Figure 2.
        let sfu_frac = ctx.counts().sfu_total() as f64 / ctx.counts().total() as f64;
        assert!(sfu_frac > 0.10, "SFU fraction {sfu_frac}");
    }

    #[test]
    fn deterministic() {
        let params = small();
        let (a, _, _) = run_with_config(&params, IhwConfig::precise());
        let (b, _, _) = run_with_config(&params, IhwConfig::precise());
        assert_eq!(a.image, b.image);
    }

    #[test]
    fn output_in_valid_range() {
        let (out, _, _) = run_with_config(&small(), IhwConfig::all_imprecise());
        let (lo, hi) = out.image.min_max();
        assert!(lo >= -0.2 && hi <= 1.5, "range [{lo}, {hi}]");
    }
}
