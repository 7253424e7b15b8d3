//! Parity gate for the compiled HotSpot kernel: `hotspot::run` (one SIMT
//! launch per time step on the compiled engine, one thread per cell)
//! must leave the same temperatures, bit for bit, and the same
//! counters as the scalar `FpCtx` loop it replaced. That loop lives on
//! here, unchanged, as the oracle.
//!
//! Configurations: Figure 19's 11 multipliers, precise, all-imprecise,
//! `ray_basic` (imprecise adder, rcp and sqrt) and the imprecise adder
//! alone at TH ∈ {1, 4, 8, 23}. Grids: the Quick-scale 64×64×32, the
//! unit-test 24×24×10, degenerate strips and single cells (where every
//! neighbour is clamped), and zero and one time steps.

use ihw_bench::experiments::apps::MulConfig;
use imprecise_gpgpu::core::config::{AddUnit, IhwConfig};
use imprecise_gpgpu::sim::dispatch::FpCtx;
use imprecise_gpgpu::workloads::hotspot::{self, HotspotOutput, HotspotParams};

// Rodinia hotspot constants, as in the workload.
const T_CHIP: f32 = 0.0005;
const CHIP_HEIGHT: f32 = 0.016;
const CHIP_WIDTH: f32 = 0.016;
const K_SI: f32 = 100.0;
const SPEC_HEAT_SI: f32 = 1.75e6;
const FACTOR_CHIP: f32 = 0.5;
const T_AMB: f32 = 80.0 + 273.15;
const MAX_PD: f32 = 3.0e6;
const PRECISION: f32 = 0.001;
const INIT_SPREAD_K: f32 = 30.0;
const T_INIT_BASE: f32 = 50.0 + 273.15;

/// The scalar HotSpot loop the compiled kernel replaced, verbatim.
fn oracle(params: &HotspotParams, ctx: &mut FpCtx) -> HotspotOutput {
    let (r, c) = (params.rows, params.cols);
    let power = hotspot::synth_power_map(params);

    let grid_height = CHIP_HEIGHT / r as f32;
    let grid_width = CHIP_WIDTH / c as f32;
    let cap = FACTOR_CHIP * SPEC_HEAT_SI * T_CHIP * grid_width * grid_height;
    let rx = grid_width / (2.0 * K_SI * T_CHIP * grid_height);
    let ry = grid_height / (2.0 * K_SI * T_CHIP * grid_width);
    let rz = T_CHIP / (K_SI * grid_height * grid_width);
    let max_slope = MAX_PD / (FACTOR_CHIP * T_CHIP * SPEC_HEAT_SI);
    let step = PRECISION / max_slope;
    let step_div_cap = step / cap;

    let cell_area = grid_width * grid_height;
    let power_w: Vec<f32> = power.iter().map(|&p| p * MAX_PD * cell_area).collect();

    let mut t: Vec<f32> = power
        .iter()
        .map(|&p| T_INIT_BASE + INIT_SPREAD_K * p)
        .collect();
    let mut t_next = t.clone();

    for _ in 0..params.steps {
        for y in 0..r {
            for x in 0..c {
                let idx = y * c + x;
                let tc = t[idx];
                let tn = if y > 0 { t[idx - c] } else { tc };
                let ts = if y + 1 < r { t[idx + c] } else { tc };
                let tw = if x > 0 { t[idx - 1] } else { tc };
                let te = if x + 1 < c { t[idx + 1] } else { tc };
                ctx.int_op(4);
                ctx.mem_op(2);

                let v1 = ctx.add32(tn, ts);
                let two_tc = ctx.add32(tc, tc);
                let dv = ctx.sub32(v1, two_tc);
                let ry_inv = ctx.rcp32(ry);
                let vert = ctx.mul32(dv, ry_inv);
                let h1 = ctx.add32(te, tw);
                let dh = ctx.sub32(h1, two_tc);
                let rx_inv = ctx.rcp32(rx);
                let horiz = ctx.mul32(dh, rx_inv);
                let damb = ctx.sub32(T_AMB, tc);
                let rz_inv = ctx.rcp32(rz);
                let sink = ctx.mul32(damb, rz_inv);
                let s1 = ctx.add32(power_w[idx], vert);
                let s2 = ctx.add32(s1, horiz);
                let s3 = ctx.add32(s2, sink);
                let delta = ctx.mul32(step_div_cap, s3);
                t_next[idx] = ctx.add32(tc, delta);
            }
        }
        std::mem::swap(&mut t, &mut t_next);
    }

    HotspotOutput {
        rows: r,
        cols: c,
        temps: t.iter().map(|&v| v as f64).collect(),
    }
}

fn configs() -> Vec<(String, IhwConfig)> {
    let fig19 = [
        MulConfig::Lp(0),
        MulConfig::Lp(8),
        MulConfig::Lp(15),
        MulConfig::Lp(19),
        MulConfig::Fp(0),
        MulConfig::Fp(15),
        MulConfig::Fp(19),
        MulConfig::Bt(8),
        MulConfig::Bt(16),
        MulConfig::Bt(19),
        MulConfig::Bt(22),
    ];
    let mut out: Vec<(String, IhwConfig)> = fig19.iter().map(|c| (c.label(), c.config())).collect();
    out.push(("precise".into(), IhwConfig::precise()));
    out.push(("all_imprecise".into(), IhwConfig::all_imprecise()));
    out.push(("ray_basic".into(), IhwConfig::ray_basic()));
    for th in [1, 4, 8, 23] {
        out.push((
            format!("add_th{th}"),
            IhwConfig::precise().with_add(AddUnit::Imprecise { th }),
        ));
    }
    out
}

fn grid(rows: usize, cols: usize, steps: usize) -> HotspotParams {
    HotspotParams {
        rows,
        cols,
        steps,
        seed: 0x5eed ^ (rows * 131 + cols) as u64,
    }
}

fn assert_parity(params: &HotspotParams, label: &str, cfg: IhwConfig) {
    let mut want_ctx = FpCtx::new(cfg);
    let want = oracle(params, &mut want_ctx);
    let mut got_ctx = FpCtx::new(cfg);
    let got = hotspot::run(params, &mut got_ctx);
    let at = format!(
        "{label} on {}x{}x{}",
        params.rows, params.cols, params.steps
    );
    assert_eq!((got.rows, got.cols), (want.rows, want.cols), "{at}: shape");
    assert_eq!(got.temps.len(), want.temps.len(), "{at}: cell count");
    for (i, (g, w)) in got.temps.iter().zip(&want.temps).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{at}: cell {i} (row {}, col {}): {g} vs {w}",
            i / params.cols,
            i % params.cols
        );
    }
    assert_eq!(got_ctx.counts(), want_ctx.counts(), "{at}: OpCounts");
    assert_eq!(got_ctx.int_ops(), want_ctx.int_ops(), "{at}: int_ops");
    assert_eq!(got_ctx.mem_ops(), want_ctx.mem_ops(), "{at}: mem_ops");
    assert_eq!(
        got_ctx.precise_mul_ops(),
        want_ctx.precise_mul_ops(),
        "{at}: precise_mul_ops"
    );
}

#[test]
fn quick_scale_grid_matches_the_scalar_loop() {
    let params = HotspotParams::default();
    assert_eq!((params.rows, params.cols, params.steps), (64, 64, 32));
    for (label, cfg) in configs() {
        assert_parity(&params, &label, cfg);
    }
}

#[test]
fn unit_test_grid_matches_the_scalar_loop() {
    for (label, cfg) in configs() {
        assert_parity(&grid(24, 24, 10), &label, cfg);
    }
}

#[test]
fn degenerate_grids_match_the_scalar_loop() {
    // Single cells and one-cell-wide strips clamp every missing
    // neighbour to the cell itself; 3×7 is the smallest grid with
    // floor-plan blocks.
    for (rows, cols) in [(1, 1), (1, 5), (5, 1), (3, 7)] {
        for (label, cfg) in configs() {
            assert_parity(&grid(rows, cols, 4), &label, cfg);
        }
    }
}

#[test]
fn zero_and_one_steps_match_the_scalar_loop() {
    for steps in [0, 1] {
        for (label, cfg) in configs() {
            assert_parity(&grid(24, 24, steps), &label, cfg);
            assert_parity(&grid(3, 7, steps), &label, cfg);
        }
    }
}
