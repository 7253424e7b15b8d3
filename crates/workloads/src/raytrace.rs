//! RayTracing — the ISPASS-2009 3-D graphics benchmark (Figures 17–18).
//!
//! A recursive Whitted-style ray tracer over a sphere scene with a ground
//! plane, one point light, Phong shading and specular reflections. The
//! kernel is exactly the arithmetic profile the paper describes: dot and
//! cross products (multiply/add chains) for reflection angles and surface
//! normals, square roots for intersection discriminants, and
//! reciprocal/inverse-square-root for normalisation — which is why the
//! application is so sensitive to floating point multiplication accuracy
//! (errors compound across bounces).
//!
//! Quality metric: SSIM against the precise rendering (paper reference 31).

use gpu_sim::dispatch::FpCtx;
use ihw_core::config::IhwConfig;
use ihw_quality::GrayImage;

/// Ray tracer parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RayParams {
    /// Output image side length (square).
    pub size: usize,
    /// Maximum reflection depth.
    pub max_depth: u32,
}

impl Default for RayParams {
    /// Test-scale 32×32 render; the repro harness uses 128×128.
    fn default() -> Self {
        RayParams {
            size: 32,
            max_depth: 3,
        }
    }
}

impl RayParams {
    /// Repro-scale render.
    pub fn paper() -> Self {
        RayParams {
            size: 128,
            max_depth: 4,
        }
    }
}

/// A sphere: centre, radius, diffuse albedo, reflectivity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sphere {
    /// Centre position.
    pub center: [f32; 3],
    /// Radius.
    pub radius: f32,
    /// Diffuse albedo (grayscale).
    pub albedo: f32,
    /// Specular reflectivity in `[0, 1]`.
    pub reflect: f32,
}

/// The fixed demo scene: four spheres over a reflective floor sphere,
/// echoing the ISPASS benchmark's sphere-field output.
pub fn demo_scene() -> Vec<Sphere> {
    vec![
        // A huge sphere acting as the floor.
        Sphere {
            center: [0.0, -100.5, -1.0],
            radius: 100.0,
            albedo: 0.6,
            reflect: 0.25,
        },
        Sphere {
            center: [0.0, 0.0, -1.2],
            radius: 0.5,
            albedo: 0.85,
            reflect: 0.4,
        },
        Sphere {
            center: [-1.05, -0.1, -1.5],
            radius: 0.4,
            albedo: 0.5,
            reflect: 0.6,
        },
        Sphere {
            center: [1.0, -0.15, -0.9],
            radius: 0.35,
            albedo: 0.7,
            reflect: 0.3,
        },
        Sphere {
            center: [0.35, 0.45, -1.9],
            radius: 0.45,
            albedo: 0.95,
            reflect: 0.5,
        },
    ]
}

const LIGHT: [f32; 3] = [2.0, 3.0, 0.5];
/// Point-light intensity scaling the inverse-square attenuation.
const LIGHT_POWER: f32 = 14.0;
const AMBIENT: f32 = 0.08;
const BACKGROUND: f32 = 0.15;
const EPS: f32 = 1e-3;

fn sub3(ctx: &mut FpCtx, a: [f32; 3], b: [f32; 3]) -> [f32; 3] {
    [
        ctx.sub32(a[0], b[0]),
        ctx.sub32(a[1], b[1]),
        ctx.sub32(a[2], b[2]),
    ]
}

fn scale3(ctx: &mut FpCtx, a: [f32; 3], s: f32) -> [f32; 3] {
    [ctx.mul32(a[0], s), ctx.mul32(a[1], s), ctx.mul32(a[2], s)]
}

fn add3(ctx: &mut FpCtx, a: [f32; 3], b: [f32; 3]) -> [f32; 3] {
    [
        ctx.add32(a[0], b[0]),
        ctx.add32(a[1], b[1]),
        ctx.add32(a[2], b[2]),
    ]
}

/// Normalises a vector with the configured rsqrt unit.
fn normalize(ctx: &mut FpCtx, v: [f32; 3]) -> [f32; 3] {
    let len2 = ctx.dot3_32(v, v);
    let inv = ctx.rsqrt32(len2);
    scale3(ctx, v, inv)
}

/// Nearest ray–sphere intersection: returns `(t, sphere index)`.
fn intersect(
    ctx: &mut FpCtx,
    scene: &[Sphere],
    origin: [f32; 3],
    dir: [f32; 3],
) -> Option<(f32, usize)> {
    let mut best: Option<(f32, usize)> = None;
    for (i, s) in scene.iter().enumerate() {
        ctx.int_op(2);
        ctx.mem_op(1); // sphere record fetch
        let oc = sub3(ctx, origin, s.center);
        // Quadratic: t² + 2·(oc·d)·t + (oc·oc − r²) = 0  (d normalized).
        let b = ctx.dot3_32(oc, dir);
        let r2 = ctx.mul32(s.radius, s.radius);
        let oc_oc = ctx.dot3_32(oc, oc);
        let c = ctx.sub32(oc_oc, r2);
        let b_sq = ctx.mul32(b, b);
        let disc = ctx.sub32(b_sq, c);
        if disc <= 0.0 {
            continue;
        }
        let sq = ctx.sqrt32(disc);
        let neg_b = ctx.sub32(0.0, b);
        let t = ctx.sub32(neg_b, sq); // −b − √disc
        if t > EPS && best.is_none_or(|(bt, _)| t < bt) {
            best = Some((t, i));
        }
    }
    best
}

/// Traces one ray, returning a grayscale radiance value.
fn trace(ctx: &mut FpCtx, scene: &[Sphere], origin: [f32; 3], dir: [f32; 3], depth: u32) -> f32 {
    let Some((t, i)) = intersect(ctx, scene, origin, dir) else {
        return BACKGROUND;
    };
    let s = scene[i];
    let step = scale3(ctx, dir, t);
    let hit = add3(ctx, origin, step);
    let n = {
        let v = sub3(ctx, hit, s.center);
        normalize(ctx, v)
    };
    // Diffuse lighting with inverse-square attenuation (no shadow rays,
    // like the ISPASS kernel). The attenuation is the SFU reciprocal.
    let lv = sub3(ctx, LIGHT, hit);
    let dist2 = ctx.dot3_32(lv, lv);
    let atten_raw = ctx.rcp32(dist2);
    let atten = ctx.mul32(LIGHT_POWER, atten_raw);
    let l = normalize(ctx, lv);
    // Clamp to the physical cosine range: imprecise normalisation can
    // overshoot vector lengths, and real shaders clamp here anyway.
    let ndotl = ctx.dot3_32(n, l).clamp(0.0, 1.0);
    let lambert = ctx.mul32(s.albedo, ndotl);
    let diffuse = ctx.mul32(lambert, atten.clamp(0.0, 1.0));
    let mut color = ctx.add32(AMBIENT, diffuse);
    let offset = scale3(ctx, n, EPS * 8.0);
    let bounce_origin = add3(ctx, hit, offset);

    // Specular reflection bounce: r = d − 2(d·n)n.
    if depth > 0 && s.reflect > 0.0 {
        let ddotn = ctx.dot3_32(dir, n);
        let two_ddotn = ctx.add32(ddotn, ddotn);
        let proj = scale3(ctx, n, two_ddotn);
        let r = sub3(ctx, dir, proj);
        let r = normalize(ctx, r);
        let bounce = trace(ctx, scene, bounce_origin, r, depth - 1);
        color = ctx.fma32(s.reflect, bounce, color);
    }
    color.clamp(0.0, 1.0)
}

/// Renders the demo scene under the arithmetic configuration carried by
/// `ctx`.
pub fn render(params: &RayParams, ctx: &mut FpCtx) -> GrayImage {
    let scene = demo_scene();
    let n = params.size;
    let mut img = GrayImage::new(n, n);
    let origin = [0.0f32, 0.0, 1.0];
    for y in 0..n {
        for x in 0..n {
            ctx.int_op(4);
            ctx.mem_op(1);
            // Camera ray through the pixel. The viewport math, including
            // the primary-direction normalisation, happens on the host
            // (precomputed per-pixel directions, as GPU renderers do).
            let u = (x as f32 + 0.5) / n as f32 * 2.0 - 1.0;
            let v = 1.0 - (y as f32 + 0.5) / n as f32 * 2.0;
            let len = (u * u + v * v + 1.5 * 1.5).sqrt();
            let dir = [u / len, v / len, -1.5 / len];
            let c = trace(ctx, &scene, origin, dir, params.max_depth);
            img.set(x, y, c as f64);
        }
    }
    img
}

/// Convenience: renders under a fresh context.
pub fn render_with_config(params: &RayParams, cfg: IhwConfig) -> (GrayImage, FpCtx) {
    let mut ctx = FpCtx::new(cfg);
    let img = render(params, &mut ctx);
    (img, ctx)
}

/// Average active-lane fraction of the ray tracing kernel: rays in a
/// warp diverge on hit/miss and on reflection depth. This default is the
/// rounded value [`measure_warp_efficiency`] reports for the demo scene.
pub const WARP_EFFICIENCY: f64 = 0.6;

/// Measures the kernel's warp efficiency on the demo scene: pixels are
/// grouped into 32-wide warps (row-major, like the real rasterised
/// launch); a warp's efficiency is `mean(ops)/max(ops)` over its lanes,
/// since the warp executes in lock-step for as long as its busiest ray.
pub fn measure_warp_efficiency(params: &RayParams) -> f64 {
    let mut ctx = FpCtx::new(IhwConfig::precise());
    let scene = demo_scene();
    let n = params.size;
    let origin = [0.0f32, 0.0, 1.0];
    let mut ops = Vec::with_capacity(n * n);
    for y in 0..n {
        for x in 0..n {
            let before = ctx.counts().total();
            let u = (x as f32 + 0.5) / n as f32 * 2.0 - 1.0;
            let v = 1.0 - (y as f32 + 0.5) / n as f32 * 2.0;
            let len = (u * u + v * v + 1.5 * 1.5).sqrt();
            let dir = [u / len, v / len, -1.5 / len];
            let _ = trace(&mut ctx, &scene, origin, dir, params.max_depth);
            ops.push(ctx.counts().total() - before);
        }
    }
    let mut eff_sum = 0.0;
    let mut warps = 0u32;
    for warp in ops.chunks(32) {
        let max = *warp.iter().max().expect("nonempty warp") as f64;
        if max == 0.0 {
            continue;
        }
        let mean = warp.iter().sum::<u64>() as f64 / warp.len() as f64;
        eff_sum += mean / max;
        warps += 1;
    }
    if warps == 0 {
        1.0
    } else {
        eff_sum / warps as f64
    }
}

// ---------------------------------------------------------------------
// Dual-mode (per-site) variant — the Chapter 6 future-work study.
// ---------------------------------------------------------------------

/// Semantic multiplication sites of the ray tracing kernel, for the
/// dual-mode multiplier study: the thesis observes that RayTracing is
/// only *partially* error tolerant — some multiplication chains
/// (reflection/normal math) need precision while others (shading) do
/// not — and proposes per-site mode selection as future work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MulSite {
    /// Ray–sphere intersection quadratic terms.
    Intersection,
    /// Surface-normal computation and normalisation.
    Normal,
    /// Diffuse shading and attenuation.
    Shading,
    /// Reflection-direction math.
    Reflection,
}

impl MulSite {
    /// Number of sites.
    pub const COUNT: usize = 4;
    /// All sites, index order matching the tuning mask.
    pub const ALL: [MulSite; 4] = [
        MulSite::Intersection,
        MulSite::Normal,
        MulSite::Shading,
        MulSite::Reflection,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            MulSite::Intersection => "intersection",
            MulSite::Normal => "surface normals",
            MulSite::Shading => "shading",
            MulSite::Reflection => "reflection",
        }
    }
}

/// Renders the demo scene with a [`DualModeMul`] whose mode is selected
/// per [`MulSite`] by `mask` (`true` = imprecise). Additions and SFU ops
/// stay precise so the study isolates the multiplier, as in §5.3.2.
///
/// [`DualModeMul`]: ihw_core::dual_mode::DualModeMul
pub fn render_sited(params: &RayParams, mask: &[bool; MulSite::COUNT]) -> ihw_quality::GrayImage {
    use ihw_core::ac_multiplier::{AcMulConfig, MulPath};
    use ihw_core::dual_mode::{DualModeMul, MulMode};

    let unit = DualModeMul::new(AcMulConfig::new(MulPath::Log, 12));
    let mode = |site: MulSite| {
        if mask[MulSite::ALL
            .iter()
            .position(|&s| s == site)
            .expect("site listed")]
        {
            MulMode::Imprecise
        } else {
            MulMode::Precise
        }
    };
    let mul = |site: MulSite, a: f32, b: f32| unit.mul32(a, b, mode(site));
    let dot = |site: MulSite, a: [f32; 3], b: [f32; 3]| {
        mul(site, a[0], b[0]) + mul(site, a[1], b[1]) + mul(site, a[2], b[2])
    };
    let scale = |site: MulSite, v: [f32; 3], s: f32| {
        [mul(site, v[0], s), mul(site, v[1], s), mul(site, v[2], s)]
    };
    let norm = |site: MulSite, v: [f32; 3]| {
        let inv = 1.0 / dot(site, v, v).sqrt();
        scale(site, v, inv)
    };

    let scene = demo_scene();
    let n = params.size;
    let origin = [0.0f32, 0.0, 1.0];

    let intersect = |origin: [f32; 3], dir: [f32; 3]| -> Option<(f32, usize)> {
        let mut best: Option<(f32, usize)> = None;
        for (i, s) in scene.iter().enumerate() {
            let oc = [
                origin[0] - s.center[0],
                origin[1] - s.center[1],
                origin[2] - s.center[2],
            ];
            let b = dot(MulSite::Intersection, oc, dir);
            let c =
                dot(MulSite::Intersection, oc, oc) - mul(MulSite::Intersection, s.radius, s.radius);
            let disc = mul(MulSite::Intersection, b, b) - c;
            if disc <= 0.0 {
                continue;
            }
            let t = -b - disc.sqrt();
            if t > EPS && best.is_none_or(|(bt, _)| t < bt) {
                best = Some((t, i));
            }
        }
        best
    };

    fn sub3h(a: [f32; 3], b: [f32; 3]) -> [f32; 3] {
        [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
    }

    let mut img = ihw_quality::GrayImage::new(n, n);
    for y in 0..n {
        for x in 0..n {
            let u = (x as f32 + 0.5) / n as f32 * 2.0 - 1.0;
            let v = 1.0 - (y as f32 + 0.5) / n as f32 * 2.0;
            let len = (u * u + v * v + 1.5 * 1.5).sqrt();
            let mut dir = [u / len, v / len, -1.5 / len];
            let mut org = origin;
            let mut color = 0.0f32;
            let mut weight = 1.0f32;
            for depth in 0..=params.max_depth {
                let Some((t, i)) = intersect(org, dir) else {
                    color += weight * BACKGROUND;
                    break;
                };
                let s = scene[i];
                let hit = [
                    org[0] + mul(MulSite::Intersection, dir[0], t),
                    org[1] + mul(MulSite::Intersection, dir[1], t),
                    org[2] + mul(MulSite::Intersection, dir[2], t),
                ];
                let nrm = norm(MulSite::Normal, sub3h(hit, s.center));
                let lv = sub3h(LIGHT, hit);
                let atten = (LIGHT_POWER / dot(MulSite::Shading, lv, lv)).clamp(0.0, 1.0);
                let l = norm(MulSite::Normal, lv);
                let ndotl = dot(MulSite::Shading, nrm, l).clamp(0.0, 1.0);
                let local = AMBIENT
                    + mul(
                        MulSite::Shading,
                        mul(MulSite::Shading, s.albedo, ndotl),
                        atten,
                    );
                color += weight * local.clamp(0.0, 1.0);
                if depth == params.max_depth || s.reflect == 0.0 {
                    break;
                }
                weight = mul(MulSite::Reflection, weight, s.reflect);
                let ddotn = dot(MulSite::Reflection, dir, nrm);
                let r = sub3h(dir, scale(MulSite::Reflection, nrm, 2.0 * ddotn));
                dir = norm(MulSite::Normal, r);
                org = [
                    hit[0] + nrm[0] * EPS * 8.0,
                    hit[1] + nrm[1] * EPS * 8.0,
                    hit[2] + nrm[2] * EPS * 8.0,
                ];
            }
            img.set(x, y, (color as f64).clamp(0.0, 1.0));
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use ihw_core::config::FpOp;
    use ihw_quality::ssim;

    #[test]
    fn renders_spheres_not_flat() {
        let (img, _) = render_with_config(&RayParams::default(), IhwConfig::precise());
        let (lo, hi) = img.min_max();
        assert!(hi - lo > 0.3, "dynamic range {lo}..{hi} too flat");
        // Background must be visible in corners, geometry in the middle.
        assert!((img.get(1, 1) - BACKGROUND as f64).abs() < 0.2);
    }

    #[test]
    fn deterministic() {
        let (a, _) = render_with_config(&RayParams::default(), IhwConfig::precise());
        let (b, _) = render_with_config(&RayParams::default(), IhwConfig::precise());
        assert_eq!(a, b);
    }

    #[test]
    fn mix_is_mul_heavy_with_sqrt_and_rsqrt() {
        let (_, ctx) = render_with_config(&RayParams::default(), IhwConfig::precise());
        let c = ctx.counts();
        assert!(c.get(FpOp::Mul) > c.get(FpOp::Sqrt));
        assert!(c.get(FpOp::Sqrt) > 0);
        assert!(c.get(FpOp::Rsqrt) > 0);
        let mul_frac = c.get(FpOp::Mul) as f64 / c.total() as f64;
        assert!(
            mul_frac > 0.25,
            "mul fraction {mul_frac} — Table 6 says ≈36%"
        );
    }

    #[test]
    fn figure17_quality_ordering() {
        // Figure 17: basic IHW subset keeps SSIM ≈0.95; adding imprecise
        // rsqrt drops it to ≈0.83. Assert the ordering and bands.
        let p = RayParams::default();
        let (reference, _) = render_with_config(&p, IhwConfig::precise());
        let (basic, _) = render_with_config(&p, IhwConfig::ray_basic());
        let (with_rsqrt, _) = render_with_config(&p, IhwConfig::ray_with_rsqrt());
        let s_basic = ssim(&reference, &basic, 1.0);
        let s_rsqrt = ssim(&reference, &with_rsqrt, 1.0);
        // Absolute SSIM values are scene dependent (our synthetic scene is
        // harsher than the ISPASS one); the paper's ordering must hold.
        assert!(s_basic > 0.6, "basic config SSIM {s_basic}");
        assert!(
            s_rsqrt < s_basic,
            "rsqrt config must degrade: {s_rsqrt} vs {s_basic}"
        );
        assert!(
            s_rsqrt > 0.4,
            "rsqrt config SSIM {s_rsqrt} not catastrophic"
        );
    }

    #[test]
    fn figure18_original_multiplier_destroys_image() {
        // Figure 18(a): the Table 1 multiplier (25% error) wrecks the
        // render; the full-path AC multiplier keeps it close.
        let p = RayParams::default();
        let (reference, _) = render_with_config(&p, IhwConfig::precise());
        let orig = IhwConfig::ray_basic().with_mul(ihw_core::config::MulUnit::Imprecise);
        let (wrecked, _) = render_with_config(&p, orig);
        let (ac, _) = render_with_config(&p, IhwConfig::ray_with_ac_mul(0));
        let s_wrecked = ssim(&reference, &wrecked, 1.0);
        let s_ac = ssim(&reference, &ac, 1.0);
        assert!(
            s_ac > s_wrecked + 0.2,
            "AC multiplier must clearly beat the Table 1 unit: {s_ac} vs {s_wrecked}"
        );
        assert!(s_ac > 0.5, "full path keeps structure: {s_ac}");
        assert!(
            s_wrecked < 0.4,
            "Table 1 multiplier wrecks the render: {s_wrecked}"
        );
    }

    #[test]
    fn render_sited_precise_mask_matches_structure() {
        let params = RayParams {
            size: 16,
            max_depth: 2,
        };
        let all_precise = render_sited(&params, &[false; MulSite::COUNT]);
        let all_imprecise = render_sited(&params, &[true; MulSite::COUNT]);
        // Same scene geometry in both; imprecision changes the values.
        assert_ne!(all_precise, all_imprecise);
        let (lo, hi) = all_precise.min_max();
        assert!(hi - lo > 0.2, "sited render too flat");
    }

    #[test]
    fn render_sited_partial_masks_order_by_quality() {
        use ihw_quality::ssim;
        let params = RayParams {
            size: 32,
            max_depth: 2,
        };
        let reference = render_sited(&params, &[false; MulSite::COUNT]);
        let shading_only = {
            let mut m = [false; MulSite::COUNT];
            m[2] = true; // shading
            render_sited(&params, &m)
        };
        let everything = render_sited(&params, &[true; MulSite::COUNT]);
        let s_shading = ssim(&reference, &shading_only, 1.0);
        let s_all = ssim(&reference, &everything, 1.0);
        assert!(
            s_shading > s_all,
            "fewer imprecise sites, better SSIM: {s_shading} vs {s_all}"
        );
        assert!(
            s_shading > 0.7,
            "shading tolerates imprecision: {s_shading}"
        );
    }

    #[test]
    fn measured_divergence_matches_constant() {
        let eff = measure_warp_efficiency(&RayParams {
            size: 32,
            max_depth: 3,
        });
        assert!((0.3..1.0).contains(&eff), "efficiency {eff}");
        assert!(
            (eff - WARP_EFFICIENCY).abs() < 0.25,
            "measured {eff} far from modelled {WARP_EFFICIENCY}"
        );
    }

    #[test]
    fn mul_site_metadata() {
        assert_eq!(MulSite::ALL.len(), MulSite::COUNT);
        assert_eq!(MulSite::Shading.name(), "shading");
    }

    #[test]
    fn deeper_recursion_costs_more_ops() {
        let shallow = RayParams {
            size: 16,
            max_depth: 0,
        };
        let deep = RayParams {
            size: 16,
            max_depth: 4,
        };
        let (_, c0) = render_with_config(&shallow, IhwConfig::precise());
        let (_, c4) = render_with_config(&deep, IhwConfig::precise());
        assert!(c4.counts().total() > c0.counts().total());
    }
}
