//! JPEG decompression — the motivating example of the paper's Figure 5,
//! where an imprecise adder in the JPEG decompression pipeline produced
//! "minimal quality loss but significant EDP gain".
//!
//! The workload is the decoder's computational core: per 8×8 block,
//! dequantisation (multiplies) followed by the separable 2-D inverse DCT
//! (multiply/accumulate chains), all routed through the counted IHW
//! dispatcher. The input is produced by a host-side (precise) forward
//! DCT + quantisation of a synthetic image, so the decompression error of
//! an imprecise run is measured against the precise decompression of the
//! same bitstream — exactly Figure 5's middle-vs-left comparison.
//!
//! Quality metric: PSNR in dB (8-bit scale).

use gpu_sim::dispatch::FpCtx;
use ihw_core::config::IhwConfig;
use ihw_quality::GrayImage;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Block size of the JPEG transform.
pub const BLOCK: usize = 8;

/// JPEG workload parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JpegParams {
    /// Image side length (multiple of 8).
    pub size: usize,
    /// Quantisation aggressiveness: 1 = fine (high quality), larger =
    /// coarser tables.
    pub quant_scale: u32,
    /// Scene generator seed.
    pub seed: u64,
}

impl Default for JpegParams {
    fn default() -> Self {
        JpegParams {
            size: 64,
            quant_scale: 1,
            seed: 0x1dc7,
        }
    }
}

/// The standard JPEG luminance quantisation table (Annex K).
#[rustfmt::skip]
pub const LUMA_QUANT: [u16; 64] = [
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68,109,103, 77,
    24, 35, 55, 64, 81,104,113, 92,
    49, 64, 78, 87,103,121,120,101,
    72, 92, 95, 98,112,100,103, 99,
];

/// A "compressed" image: quantised DCT coefficients per block,
/// row-major blocks of row-major coefficients.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedImage {
    /// Image side length in pixels.
    pub size: usize,
    /// Quantised coefficients (i16, like a JPEG entropy decoder emits).
    pub coefficients: Vec<i16>,
    /// Quantisation scale used at encode time.
    pub quant_scale: u32,
}

/// Synthesizes a test scene: smooth gradients, a bright disc and some
/// texture — enough spectral content to exercise all DCT bands.
pub fn synth_scene(params: &JpegParams) -> GrayImage {
    let n = params.size;
    let mut rng = StdRng::seed_from_u64(params.seed);
    let cx = n as f64 * rng.gen_range(0.3..0.7);
    let cy = n as f64 * rng.gen_range(0.3..0.7);
    let r = n as f64 * 0.22;
    GrayImage::from_fn(n, n, |x, y| {
        let grad = 60.0 + 120.0 * (x as f64 / n as f64) * (1.0 - y as f64 / n as f64);
        let d = ((x as f64 - cx).powi(2) + (y as f64 - cy).powi(2)).sqrt();
        let disc = if d < r { 70.0 * (1.0 - d / r) } else { 0.0 };
        let texture = 8.0 * ((x as f64 * 0.9).sin() * (y as f64 * 0.7).cos());
        (grad + disc + texture).clamp(0.0, 255.0)
    })
}

/// 1-D DCT-II basis value `cos((2j+1)·uπ/16)` with orthonormal scaling.
fn dct_cos(u: usize, j: usize) -> f64 {
    let c = if u == 0 {
        (1.0f64 / BLOCK as f64).sqrt()
    } else {
        (2.0f64 / BLOCK as f64).sqrt()
    };
    c * ((2 * j + 1) as f64 * u as f64 * std::f64::consts::PI / (2.0 * BLOCK as f64)).cos()
}

/// Host-side (precise) encoder: forward DCT + quantisation. This is the
/// camera/encoder side, not the benchmark kernel.
///
/// # Panics
///
/// Panics if the image side is not a multiple of 8.
pub fn encode(image: &GrayImage, quant_scale: u32) -> CompressedImage {
    let n = image.width();
    assert_eq!(n % BLOCK, 0, "image side must be a multiple of 8");
    assert_eq!(image.height(), n, "square images only");
    let mut coefficients = vec![0i16; n * n];
    for by in (0..n).step_by(BLOCK) {
        for bx in (0..n).step_by(BLOCK) {
            for u in 0..BLOCK {
                for v in 0..BLOCK {
                    let mut acc = 0.0;
                    for y in 0..BLOCK {
                        for x in 0..BLOCK {
                            acc +=
                                (image.get(bx + x, by + y) - 128.0) * dct_cos(v, x) * dct_cos(u, y);
                        }
                    }
                    let q = (LUMA_QUANT[u * BLOCK + v] as u32 * quant_scale) as f64;
                    coefficients[(by + u) * n + bx + v] = (acc / q).round() as i16;
                }
            }
        }
    }
    CompressedImage {
        size: n,
        coefficients,
        quant_scale,
    }
}

/// The benchmark kernel: dequantisation + inverse DCT through the
/// counted dispatcher (one thread per 8×8 block on the GPU).
pub fn decode(compressed: &CompressedImage, ctx: &mut FpCtx) -> GrayImage {
    let n = compressed.size;
    let mut out = GrayImage::new(n, n);
    // The cosine tables are constants baked into the kernel.
    let mut cos_tab = [[0.0f32; BLOCK]; BLOCK];
    for (u, row) in cos_tab.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            *v = dct_cos(u, j) as f32;
        }
    }
    for by in (0..n).step_by(BLOCK) {
        for bx in (0..n).step_by(BLOCK) {
            ctx.int_op(8);
            // Dequantise the block.
            let mut f = [[0.0f32; BLOCK]; BLOCK];
            for u in 0..BLOCK {
                for v in 0..BLOCK {
                    ctx.mem_op(1);
                    let c = compressed.coefficients[(by + u) * n + bx + v] as f32;
                    let q = (LUMA_QUANT[u * BLOCK + v] as u32 * compressed.quant_scale) as f32;
                    f[u][v] = ctx.mul32(c, q);
                }
            }
            // Separable inverse DCT: rows then columns.
            let mut tmp = [[0.0f32; BLOCK]; BLOCK];
            for u in 0..BLOCK {
                for x in 0..BLOCK {
                    let mut acc = 0.0f32;
                    for v in 0..BLOCK {
                        acc = ctx.fma32(f[u][v], cos_tab[v][x], acc);
                    }
                    tmp[u][x] = acc;
                }
            }
            // Column pass: `x`/`y` select the *inner* subscript of
            // `tmp`/`cos_tab`, so iterator-based indexing does not apply.
            #[allow(clippy::needless_range_loop)]
            for x in 0..BLOCK {
                for y in 0..BLOCK {
                    let mut acc = 0.0f32;
                    for u in 0..BLOCK {
                        acc = ctx.fma32(tmp[u][x], cos_tab[u][y], acc);
                    }
                    ctx.mem_op(1);
                    let pixel = ctx.add32(acc, 128.0);
                    out.set(bx + x, by + y, (pixel as f64).clamp(0.0, 255.0));
                }
            }
        }
    }
    out
}

/// Convenience: encodes the synthetic scene precisely and decodes it
/// under `cfg`, returning the image, the reference scene and the context.
pub fn run_with_config(params: &JpegParams, cfg: IhwConfig) -> (GrayImage, GrayImage, FpCtx) {
    let scene = synth_scene(params);
    let compressed = encode(&scene, params.quant_scale);
    let mut ctx = FpCtx::new(cfg);
    let decoded = decode(&compressed, &mut ctx);
    (decoded, scene, ctx)
}

/// PSNR between two images on the 8-bit scale.
pub fn psnr_8bit(a: &GrayImage, b: &GrayImage) -> f64 {
    ihw_quality::metrics::psnr(a.as_slice(), b.as_slice(), 255.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ihw_core::config::{AddUnit, FpOp};

    #[test]
    fn precise_roundtrip_high_psnr() {
        let params = JpegParams::default();
        let (decoded, scene, _) = run_with_config(&params, IhwConfig::precise());
        let p = psnr_8bit(&scene, &decoded);
        assert!(p > 30.0, "codec roundtrip PSNR {p} dB");
    }

    #[test]
    fn coarser_quantisation_lowers_psnr() {
        let fine = JpegParams {
            quant_scale: 1,
            ..JpegParams::default()
        };
        let coarse = JpegParams {
            quant_scale: 6,
            ..JpegParams::default()
        };
        let (df, sf, _) = run_with_config(&fine, IhwConfig::precise());
        let (dc, sc, _) = run_with_config(&coarse, IhwConfig::precise());
        assert!(psnr_8bit(&sf, &df) > psnr_8bit(&sc, &dc));
    }

    #[test]
    fn figure5_imprecise_adder_minimal_quality_loss() {
        // Figure 5's configuration: the IHW adder in the decompression
        // pipeline. Quality loss vs. the precise decode must be minimal.
        let params = JpegParams::default();
        let (reference, _, _) = run_with_config(&params, IhwConfig::precise());
        let adder_only = IhwConfig::precise().with_add(AddUnit::Imprecise {
            th: IhwConfig::DEFAULT_TH,
        });
        let (imprecise, _, _) = run_with_config(&params, adder_only);
        let p = psnr_8bit(&reference, &imprecise);
        assert!(
            p > 30.0,
            "imprecise-adder decode PSNR {p} dB vs precise decode"
        );
    }

    #[test]
    fn all_imprecise_degrades_more_but_recognisable() {
        let params = JpegParams::default();
        let (reference, _, _) = run_with_config(&params, IhwConfig::precise());
        let adder_only = IhwConfig::precise().with_add(AddUnit::Imprecise {
            th: IhwConfig::DEFAULT_TH,
        });
        let (add_img, _, _) = run_with_config(&params, adder_only);
        let (all_img, _, _) = run_with_config(&params, IhwConfig::all_imprecise());
        let p_add = psnr_8bit(&reference, &add_img);
        let p_all = psnr_8bit(&reference, &all_img);
        assert!(
            p_all < p_add,
            "more imprecision, lower PSNR: {p_all} vs {p_add}"
        );
        assert!(p_all > 12.0, "still image-shaped: {p_all} dB");
    }

    #[test]
    fn kernel_is_fma_and_mul_dominated() {
        let (_, _, ctx) = run_with_config(&JpegParams::default(), IhwConfig::precise());
        let c = ctx.counts();
        let mul_like = c.get(FpOp::Mul) + c.get(FpOp::Fma);
        assert!(mul_like as f64 / c.total() as f64 > 0.8);
        // Per block: 64 dequant muls + 2·512 FMA chains.
        let blocks = (64 / BLOCK) * (64 / BLOCK);
        assert_eq!(c.get(FpOp::Mul) as usize, blocks * 64);
        assert_eq!(c.get(FpOp::Fma) as usize, blocks * 2 * 512);
    }

    #[test]
    fn deterministic() {
        let (a, _, _) = run_with_config(&JpegParams::default(), IhwConfig::precise());
        let (b, _, _) = run_with_config(&JpegParams::default(), IhwConfig::precise());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn encode_validates_size() {
        let img = GrayImage::new(10, 10);
        let _ = encode(&img, 1);
    }
}
