//! HotSpot3D — the Rodinia 3-D thermal simulation (the stacked-die
//! variant of HotSpot), extending the Figure 2 benchmark set.
//!
//! The kernel solves the same discretized heat equation as
//! [`crate::hotspot`] over a `rows × cols × layers` grid: six-point
//! conduction stencil plus the vertical heat-sink path on the top layer.
//! Like the 2-D kernel, the thermal-resistance divisions run as SFU
//! reciprocal + FPU multiply.

use gpu_sim::dispatch::FpCtx;
use ihw_core::config::IhwConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// HotSpot3D workload parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hotspot3dParams {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Die layers (Rodinia uses 8).
    pub layers: usize,
    /// Simulation steps.
    pub steps: usize,
    /// Power-map seed.
    pub seed: u64,
}

impl Default for Hotspot3dParams {
    fn default() -> Self {
        Hotspot3dParams {
            rows: 24,
            cols: 24,
            layers: 4,
            steps: 12,
            seed: 0x3d,
        }
    }
}

impl Hotspot3dParams {
    /// Repro-scale instance (Rodinia ships 512×512×8; this keeps the
    /// layer count and scales the plane).
    pub fn paper() -> Self {
        Hotspot3dParams {
            rows: 128,
            cols: 128,
            layers: 8,
            steps: 24,
            seed: 0x3d,
        }
    }
}

/// Result: the final 3-D temperature field.
#[derive(Debug, Clone, PartialEq)]
pub struct Hotspot3dOutput {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Layers.
    pub layers: usize,
    /// Temperatures (K), layer-major then row-major.
    pub temps: Vec<f64>,
}

impl Hotspot3dOutput {
    /// The top layer as a plane (for maps and 2-D quality metrics).
    pub fn top_layer(&self) -> &[f64] {
        let plane = self.rows * self.cols;
        &self.temps[(self.layers - 1) * plane..]
    }
}

const T_AMB: f32 = 80.0 + 273.15;
const T_INIT: f32 = 50.0 + 273.15;

/// Synthesizes the bottom-layer power map (hot blocks, like the 2-D
/// generator) — only the silicon layer dissipates.
pub fn synth_power_map(params: &Hotspot3dParams) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let (r, c) = (params.rows, params.cols);
    let mut p = vec![0.15f32; r * c];
    for _ in 0..5 {
        let bw = rng.gen_range(c / 8..c / 3);
        let bh = rng.gen_range(r / 8..r / 3);
        let x0 = rng.gen_range(0..c - bw);
        let y0 = rng.gen_range(0..r - bh);
        let intensity = rng.gen_range(0.5f32..1.0);
        for y in y0..y0 + bh {
            for x in x0..x0 + bw {
                p[y * c + x] = p[y * c + x].max(intensity);
            }
        }
    }
    p
}

/// Runs the 3-D kernel under the arithmetic configuration carried by
/// `ctx`.
pub fn run(params: &Hotspot3dParams, ctx: &mut FpCtx) -> Hotspot3dOutput {
    let (r, c, l) = (params.rows, params.cols, params.layers);
    assert!(l >= 2, "need at least two layers");
    let plane = r * c;
    let power = synth_power_map(params);

    // Lumped thermal constants (nondimensionalised like the 2-D kernel).
    let r_lateral = 10.0f32;
    let r_vertical = 4.0f32;
    let r_sink = 60.0f32;
    let step_div_cap = 5.0e-3f32;
    let power_w = 400.0f32;

    let mut t = vec![T_INIT; plane * l];
    // Structured initial condition on the silicon layer.
    for i in 0..plane {
        t[i] += 20.0 * power[i];
    }
    let mut t_next = t.clone();

    for _ in 0..params.steps {
        for z in 0..l {
            for y in 0..r {
                for x in 0..c {
                    let idx = z * plane + y * c + x;
                    let tc = t[idx];
                    let get = |dz: isize, dy: isize, dx: isize| -> f32 {
                        let (nz, ny, nx) = (z as isize + dz, y as isize + dy, x as isize + dx);
                        if nz < 0
                            || nz >= l as isize
                            || ny < 0
                            || ny >= r as isize
                            || nx < 0
                            || nx >= c as isize
                        {
                            tc
                        } else {
                            t[(nz as usize) * plane + (ny as usize) * c + nx as usize]
                        }
                    };
                    ctx.int_op(8);
                    ctx.mem_op(3);

                    // Lateral conduction.
                    let lat_sum = {
                        let ns = ctx.add32(get(0, -1, 0), get(0, 1, 0));
                        let ew = ctx.add32(get(0, 0, -1), get(0, 0, 1));
                        let four_tc = {
                            let two = ctx.add32(tc, tc);
                            ctx.add32(two, two)
                        };
                        let s = ctx.add32(ns, ew);
                        ctx.sub32(s, four_tc)
                    };
                    let rl_inv = ctx.rcp32(r_lateral);
                    let lateral = ctx.mul32(lat_sum, rl_inv);
                    // Vertical conduction between layers.
                    let vert_sum = {
                        let ud = ctx.add32(get(-1, 0, 0), get(1, 0, 0));
                        let two_tc = ctx.add32(tc, tc);
                        ctx.sub32(ud, two_tc)
                    };
                    let rv_inv = ctx.rcp32(r_vertical);
                    let vertical = ctx.mul32(vert_sum, rv_inv);
                    // Sink on the top layer, power on the bottom layer.
                    let mut rate = ctx.add32(lateral, vertical);
                    if z == l - 1 {
                        let damb = ctx.sub32(T_AMB, tc);
                        let rs_inv = ctx.rcp32(r_sink);
                        let sink = ctx.mul32(damb, rs_inv);
                        rate = ctx.add32(rate, sink);
                    }
                    if z == 0 {
                        let p = ctx.mul32(power[y * c + x], power_w);
                        rate = ctx.add32(rate, p);
                    }
                    let delta = ctx.mul32(step_div_cap, rate);
                    t_next[idx] = ctx.add32(tc, delta);
                }
            }
        }
        std::mem::swap(&mut t, &mut t_next);
    }

    Hotspot3dOutput {
        rows: r,
        cols: c,
        layers: l,
        temps: t.iter().map(|&v| v as f64).collect(),
    }
}

/// Convenience: runs under a fresh context.
pub fn run_with_config(params: &Hotspot3dParams, cfg: IhwConfig) -> (Hotspot3dOutput, FpCtx) {
    let mut ctx = FpCtx::new(cfg);
    let out = run(params, &mut ctx);
    (out, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ihw_core::config::FpOp;
    use ihw_quality::metrics::mae;

    #[test]
    fn deterministic() {
        let (a, _) = run_with_config(&Hotspot3dParams::default(), IhwConfig::precise());
        let (b, _) = run_with_config(&Hotspot3dParams::default(), IhwConfig::precise());
        assert_eq!(a, b);
    }

    #[test]
    fn heat_flows_bottom_to_top() {
        // Power enters the silicon (bottom) layer; after some steps the
        // bottom runs hotter than the sink-cooled top.
        let params = Hotspot3dParams {
            steps: 24,
            ..Hotspot3dParams::default()
        };
        let (out, _) = run_with_config(&params, IhwConfig::precise());
        let plane = params.rows * params.cols;
        let bottom_mean: f64 = out.temps[..plane].iter().sum::<f64>() / plane as f64;
        let top_mean: f64 = out.top_layer().iter().sum::<f64>() / plane as f64;
        assert!(
            bottom_mean > top_mean + 0.5,
            "bottom {bottom_mean} vs top {top_mean}"
        );
        assert!(out.temps.iter().all(|&v| (273.0..600.0).contains(&v)));
    }

    #[test]
    fn imprecise_error_small_relative_to_field() {
        let params = Hotspot3dParams::default();
        let (p, _) = run_with_config(&params, IhwConfig::precise());
        let (i, _) = run_with_config(&params, IhwConfig::all_imprecise());
        let e = mae(&p.temps, &i.temps);
        let mean = p.temps.iter().sum::<f64>() / p.temps.len() as f64;
        assert!(e / mean < 0.02, "relative MAE {}", e / mean);
    }

    #[test]
    fn sfu_usage_from_reciprocals() {
        let (_, ctx) = run_with_config(&Hotspot3dParams::default(), IhwConfig::precise());
        assert!(ctx.counts().get(FpOp::Rcp) > 0);
        let cells = 24 * 24 * 4 * 12u64;
        // Two reciprocals per interior cell (lateral + vertical).
        assert!(ctx.counts().get(FpOp::Rcp) >= 2 * cells);
    }

    #[test]
    #[should_panic(expected = "at least two layers")]
    fn validates_layers() {
        let params = Hotspot3dParams {
            layers: 1,
            ..Hotspot3dParams::default()
        };
        let mut ctx = FpCtx::new(IhwConfig::precise());
        let _ = run(&params, &mut ctx);
    }
}
