//! 179.art — the SPEC CPU2000 Adaptive Resonance Theory 2 neural network
//! benchmark (Figure 21a), recognising objects in a thermal image.
//!
//! The substitute implements the benchmark's computational core: an ART-2
//! style two-layer resonance network. Bottom-up weights trained on object
//! templates ("helicopter" and "airplane" patterns) are scanned across a
//! synthetic thermal image; for each window the F2 activation is a large
//! double precision dot product, and the winning category's *vigilance* —
//! the normalized match confidence in `[0, 1]` — is the benchmark's
//! quality metric, exactly as in the paper ("confidence of an object
//! match").
//!
//! The workload is dominated by double precision multiplications
//! (Table 6: 3.17 billion in the full benchmark; the substitute scales
//! the image down but preserves the mix).

use gpu_sim::dispatch::FpCtx;
use ihw_core::config::IhwConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Template side length (object windows are `PATCH × PATCH`).
pub const PATCH: usize = 10;

/// ART workload parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArtParams {
    /// Thermal image side length.
    pub image_size: usize,
    /// Which object to embed (0 = helicopter, 1 = airplane).
    pub object: usize,
    /// Additive sensor-noise amplitude (fraction of full scale).
    pub noise_milli: u32,
    /// Input seed.
    pub seed: u64,
}

impl Default for ArtParams {
    fn default() -> Self {
        ArtParams {
            image_size: 48,
            object: 0,
            noise_milli: 60,
            seed: 0xa47,
        }
    }
}

/// Recognition result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArtOutput {
    /// Winning category (0 or 1).
    pub category: usize,
    /// Location of the best window (x, y).
    pub location: (usize, usize),
    /// Vigilance: confidence of the match, in `[0, 1]`.
    pub vigilance: f64,
}

/// The two object templates: crude "helicopter" (cross with rotor line)
/// and "airplane" (swept wings), as intensity patches in `[0, 1]`.
pub fn templates() -> [[f64; PATCH * PATCH]; 2] {
    let mut heli = [0.05f64; PATCH * PATCH];
    let mut plane = [0.05f64; PATCH * PATCH];
    for i in 0..PATCH {
        // Helicopter: vertical body + horizontal rotor at the top.
        heli[PATCH + i] = 0.9; // rotor
        heli[i * PATCH + PATCH / 2] = 0.8; // body
                                           // Airplane: fuselage + swept wings.
        plane[i * PATCH + PATCH / 2] = 0.85; // fuselage
        if (2..PATCH - 2).contains(&i) {
            plane[(PATCH / 2) * PATCH + i] = 0.9; // wings
        }
    }
    // Tail features distinguish them further.
    heli[(PATCH - 2) * PATCH + PATCH / 2 + 1] = 0.7;
    plane[(PATCH - 2) * PATCH + PATCH / 2 - 1] = 0.6;
    plane[(PATCH - 2) * PATCH + PATCH / 2 + 1] = 0.6;
    [heli, plane]
}

/// Synthesizes a thermal image with one embedded object plus noise.
pub fn synth_image(params: &ArtParams) -> (Vec<f64>, (usize, usize)) {
    let n = params.image_size;
    let mut rng = StdRng::seed_from_u64(params.seed);
    let noise = params.noise_milli as f64 / 1000.0;
    let mut img: Vec<f64> = (0..n * n)
        .map(|_| 0.05 + rng.gen_range(0.0..noise))
        .collect();
    let tpl = templates()[params.object.min(1)];
    let x0 = rng.gen_range(2..n - PATCH - 2);
    let y0 = rng.gen_range(2..n - PATCH - 2);
    for dy in 0..PATCH {
        for dx in 0..PATCH {
            let v = tpl[dy * PATCH + dx] + rng.gen_range(-noise..noise);
            let p = &mut img[(y0 + dy) * n + (x0 + dx)];
            *p = (*p + v).clamp(0.0, 1.0);
        }
    }
    (img, (x0, y0))
}

/// Bottom-up weights: L2-normalized templates (host-side training).
fn bottom_up_weights() -> [[f64; PATCH * PATCH]; 2] {
    let mut w = templates();
    for t in &mut w {
        let norm = t.iter().map(|v| v * v).sum::<f64>().sqrt();
        for v in t.iter_mut() {
            *v /= norm;
        }
    }
    w
}

/// Runs the recognition network under the arithmetic configuration
/// carried by `ctx`.
pub fn run(params: &ArtParams, image: &[f64], ctx: &mut FpCtx) -> ArtOutput {
    let n = params.image_size;
    assert_eq!(image.len(), n * n, "image size mismatch");
    let weights = bottom_up_weights();

    let mut best = ArtOutput {
        category: 0,
        location: (0, 0),
        vigilance: -1.0,
    };
    for y0 in 0..=(n - PATCH) {
        for x0 in 0..=(n - PATCH) {
            ctx.int_op(6);
            // Window energy ‖x‖² (F1 normalisation term), folded in
            // row-major order over the gathered window.
            let mut window = [0.0f64; PATCH * PATCH];
            for (dy, row) in window.chunks_exact_mut(PATCH).enumerate() {
                let start = (y0 + dy) * n + x0;
                row.copy_from_slice(&image[start..start + PATCH]);
            }
            ctx.mem_op((PATCH * PATCH) as u64);
            let energy = ctx.fma64_fold(&window, &window, 0.0);
            let norm = ctx.sqrt64(energy);
            if norm <= 0.0 {
                continue;
            }
            let inv_norm = ctx.rcp64(norm);
            // F2 activations: dot products against each category's
            // bottom-up weights.
            for (cat, w) in weights.iter().enumerate() {
                let act = ctx.fma64_fold(&window, w, 0.0);
                // Vigilance: cosine match of the window to the category.
                let vig = ctx.mul64(act, inv_norm);
                if vig > best.vigilance {
                    best = ArtOutput {
                        category: cat,
                        location: (x0, y0),
                        vigilance: vig,
                    };
                }
            }
        }
    }
    best.vigilance = best.vigilance.clamp(0.0, 1.0);
    best
}

/// Convenience: synthesizes the image, runs, returns output + context.
pub fn run_with_config(params: &ArtParams, cfg: IhwConfig) -> (ArtOutput, FpCtx) {
    let (image, _) = synth_image(params);
    let mut ctx = FpCtx::new(cfg);
    let out = run(params, &image, &mut ctx);
    (out, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ihw_core::ac_multiplier::{AcMulConfig, MulPath};
    use ihw_core::config::{FpOp, MulUnit};
    use ihw_core::truncated::TruncatedMul;

    #[test]
    fn recognizes_embedded_object_precisely() {
        for object in 0..2 {
            let params = ArtParams {
                object,
                ..ArtParams::default()
            };
            let (image, loc) = synth_image(&params);
            let mut ctx = FpCtx::new(IhwConfig::precise());
            let out = run(&params, &image, &mut ctx);
            assert_eq!(out.category, object, "wrong category for object {object}");
            let (dx, dy) = (
                out.location.0.abs_diff(loc.0),
                out.location.1.abs_diff(loc.1),
            );
            assert!(
                dx <= 2 && dy <= 2,
                "location {:?} vs {:?}",
                out.location,
                loc
            );
            assert!(out.vigilance > 0.8, "vigilance {}", out.vigilance);
        }
    }

    #[test]
    fn fma_dominated_double_precision_mix() {
        let (_, ctx) = run_with_config(&ArtParams::default(), IhwConfig::precise());
        let c = ctx.counts();
        assert!(c.get(FpOp::Fma) > c.get(FpOp::Sqrt) * 50);
        assert!(c.get(FpOp::Rcp) > 0);
    }

    #[test]
    fn figure21a_vigilance_degrades_gracefully_on_full_path() {
        // Figure 21(a): the AC multiplier keeps vigilance above 0.8 even
        // at 26× power reduction, while intuitive truncation collapses.
        let params = ArtParams::default();
        let (p, _) = run_with_config(&params, IhwConfig::precise());
        let mk_ac =
            |t| IhwConfig::precise().with_mul(MulUnit::AcMul(AcMulConfig::new(MulPath::Full, t)));
        let (full44, _) = run_with_config(&params, mk_ac(44));
        assert!(
            full44.vigilance > p.vigilance - 0.2,
            "full path tr44 vigilance {} vs precise {}",
            full44.vigilance,
            p.vigilance
        );
        // Brutal truncation (4 mantissa bits left) drops the confidence.
        let tr = IhwConfig::precise().with_mul(MulUnit::Truncated(TruncatedMul::new(48)));
        let (trunc, _) = run_with_config(&params, tr);
        assert!(trunc.vigilance <= full44.vigilance + 0.05);
    }

    #[test]
    fn deterministic() {
        let (a, _) = run_with_config(&ArtParams::default(), IhwConfig::precise());
        let (b, _) = run_with_config(&ArtParams::default(), IhwConfig::precise());
        assert_eq!(a, b);
    }

    #[test]
    fn templates_are_distinct() {
        let [h, p] = templates();
        let dot: f64 = h.iter().zip(&p).map(|(a, b)| a * b).sum();
        let nh: f64 = h.iter().map(|v| v * v).sum::<f64>().sqrt();
        let np: f64 = p.iter().map(|v| v * v).sum::<f64>().sqrt();
        let cosine = dot / (nh * np);
        assert!(cosine < 0.9, "templates too similar: cos {cosine}");
    }

    #[test]
    #[should_panic(expected = "image size mismatch")]
    fn validates_image_size() {
        let params = ArtParams::default();
        let mut ctx = FpCtx::new(IhwConfig::precise());
        let _ = run(&params, &[0.0; 10], &mut ctx);
    }
}
