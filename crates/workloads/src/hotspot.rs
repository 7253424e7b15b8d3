//! HotSpot — the Rodinia processor-temperature simulation benchmark
//! (Figures 15 and 19; Skadron et al., paper reference 28).
//!
//! The kernel iteratively solves the discretized heat differential
//! equation over a 2-D processor floor plan:
//!
//! ```text
//! T'(c) = T(c) + step/Cap · [ P(c) + (T(n)+T(s)−2T(c))/Ry
//!                                  + (T(e)+T(w)−2T(c))/Rx
//!                                  + (T_amb − T(c))/Rz ]
//! ```
//!
//! Each time step is one launch of a kernel-IR program ([`kernel`]) on
//! the simulator's compiled SIMT engine, one thread per grid cell, so all
//! floating point arithmetic (including the thermal-resistance
//! reciprocals, which execute on the SFU) runs on the configured IHW
//! units and is counted into the caller's [`FpCtx`]. The input power map
//! is synthesized: a handful of hot functional blocks on a cool
//! background, seeded deterministically.
//!
//! Quality metrics: mean absolute error and worst error distance over all
//! temperature blocks, in Kelvin — the paper reports MAE 0.05 K with all
//! IHW units enabled.

use gpu_sim::asm::assemble;
use gpu_sim::dispatch::FpCtx;
use gpu_sim::isa::{Program, WarpInterpreter};
use gpu_sim::simt::InstrMix;
use ihw_core::config::IhwConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// HotSpot workload parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotspotParams {
    /// Grid rows (paper: 512).
    pub rows: usize,
    /// Grid columns (paper: 512).
    pub cols: usize,
    /// Simulation time steps.
    pub steps: usize,
    /// Seed for the synthetic floor-plan power map.
    pub seed: u64,
}

impl Default for HotspotParams {
    /// A laptop-scale instance (64×64, 32 steps) for tests; the repro
    /// harness uses the paper's 512×512.
    fn default() -> Self {
        HotspotParams {
            rows: 64,
            cols: 64,
            steps: 32,
            seed: 0x9e3779b9,
        }
    }
}

impl HotspotParams {
    /// The paper's configuration: a 512×512 block processor.
    pub fn paper() -> Self {
        HotspotParams {
            rows: 512,
            cols: 512,
            steps: 60,
            seed: 0x9e3779b9,
        }
    }
}

/// Result of a HotSpot run: the final temperature field.
#[derive(Debug, Clone, PartialEq)]
pub struct HotspotOutput {
    /// Rows of the temperature grid.
    pub rows: usize,
    /// Columns of the temperature grid.
    pub cols: usize,
    /// Final temperatures (K), row-major.
    pub temps: Vec<f64>,
}

// Rodinia hotspot constants (chip geometry and material parameters).
const T_CHIP: f32 = 0.0005; // m
const CHIP_HEIGHT: f32 = 0.016; // m
const CHIP_WIDTH: f32 = 0.016; // m
const K_SI: f32 = 100.0; // W/(m·K)
const SPEC_HEAT_SI: f32 = 1.75e6;
const FACTOR_CHIP: f32 = 0.5;
const T_AMB: f32 = 80.0 + 273.15; // ambient, K
const MAX_PD: f32 = 3.0e6; // maximum power density, W/m²
const PRECISION: f32 = 0.001;
/// Initial-condition spread: like the Rodinia temperature input files,
/// the starting field already carries the floor plan's structure, with
/// hot functional blocks this many Kelvin above the cool baseline.
const INIT_SPREAD_K: f32 = 30.0;
const T_INIT_BASE: f32 = 50.0 + 273.15;

/// Synthesizes a floor-plan power map: `n_blobs` rectangular hot blocks
/// of random intensity on a low-power background. A grid with fewer
/// than 3 rows or columns has no room for a block (block sides are
/// drawn from `[n/10, n/3)`) and stays background only.
pub fn synth_power_map(params: &HotspotParams) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let (r, c) = (params.rows, params.cols);
    let mut p = vec![0.2f32; r * c]; // background activity
    if r < 3 || c < 3 {
        return p;
    }
    let n_blobs = 6 + (r / 32).min(10);
    for _ in 0..n_blobs {
        let bw = rng.gen_range(c / 10..c / 3);
        let bh = rng.gen_range(r / 10..r / 3);
        let x0 = rng.gen_range(0..c - bw);
        let y0 = rng.gen_range(0..r - bh);
        let intensity = rng.gen_range(0.6f32..1.0);
        for y in y0..y0 + bh {
            for x in x0..x0 + bw {
                p[y * c + x] = p[y * c + x].max(intensity);
            }
        }
    }
    p
}

/// Host-side per-grid constants (the Rodinia driver computes these on
/// the CPU; they are not counted).
struct Thermal {
    rx: f32,
    ry: f32,
    rz: f32,
    step_div_cap: f32,
    cell_area: f32,
}

impl Thermal {
    fn new(params: &HotspotParams) -> Self {
        let grid_height = CHIP_HEIGHT / params.rows as f32;
        let grid_width = CHIP_WIDTH / params.cols as f32;
        let cap = FACTOR_CHIP * SPEC_HEAT_SI * T_CHIP * grid_width * grid_height;
        let max_slope = MAX_PD / (FACTOR_CHIP * T_CHIP * SPEC_HEAT_SI);
        let step = PRECISION / max_slope;
        Thermal {
            rx: grid_width / (2.0 * K_SI * T_CHIP * grid_height),
            ry: grid_height / (2.0 * K_SI * T_CHIP * grid_width),
            rz: T_CHIP / (K_SI * grid_height * grid_width),
            step_div_cap: step / cap,
            cell_area: grid_width * grid_height,
        }
    }
}

// Kernel buffers the host swaps (layout in [`kernel`]).
const B_T: usize = 0;
const B_NEXT: usize = 6;

/// Workload-declared per-cell integer ops (index arithmetic and
/// branches) and memory ops (tiled: one shared-memory load and one
/// store reach global memory per cell on average). The Figure 12 power
/// model consumes these in place of the kernel IR's own load/store
/// counters.
const CELL_INT_OPS: u64 = 4;
const CELL_MEM_OPS: u64 = 2;

/// The HotSpot time step as a kernel-IR program: one thread per grid
/// cell, every access at `b[tid]`. Buffers: `0` the field `T`, `1`..`4`
/// its north/south/west/east neighbours (edges clamp to the cell
/// itself), `5` the power map in Watts per cell, `6` the next field.
///
/// The 17 FP ops run in the order of the Rodinia loop, including the
/// three per-cell reciprocals of the constant resistances: the ÷R
/// divisions compile to SFU reciprocal + FPU multiply, as the CUDA
/// fast-math path does.
///
/// The kernel declares no feedback binding: between steps the host
/// feeds buffer `6` back as buffer `0` *and* re-derives buffers `1`..`4`
/// from it, which a single `from → to` binding cannot express.
pub fn kernel(params: &HotspotParams) -> Program {
    let th = Thermal::new(params);
    let source = format!(
        "
        .buffers 7
        ld   r0, b0[tid]    # tc
        ld   r1, b1[tid]    # tn
        ld   r2, b2[tid]    # ts
        fadd r1, r1, r2     # v1 = tn + ts
        fadd r2, r0, r0     # two_tc = tc + tc
        fsub r1, r1, r2     # dv = v1 - two_tc
        movi r3, {ry:?}
        rcp  r3, r3         # 1/Ry
        fmul r1, r1, r3     # vert = dv * (1/Ry)
        ld   r3, b4[tid]    # te
        ld   r4, b3[tid]    # tw
        fadd r3, r3, r4     # h1 = te + tw
        fsub r3, r3, r2     # dh = h1 - two_tc
        movi r4, {rx:?}
        rcp  r4, r4         # 1/Rx
        fmul r3, r3, r4     # horiz = dh * (1/Rx)
        movi r4, {T_AMB:?}
        fsub r4, r4, r0     # damb = T_amb - tc
        movi r2, {rz:?}
        rcp  r2, r2         # 1/Rz
        fmul r4, r4, r2     # sink = damb * (1/Rz)
        ld   r2, b5[tid]    # P(c)
        fadd r1, r2, r1     # s1 = P + vert
        fadd r1, r1, r3     # s2 = s1 + horiz
        fadd r1, r1, r4     # s3 = s2 + sink
        movi r2, {sdc:?}
        fmul r1, r2, r1     # delta = step/Cap * s3
        fadd r1, r0, r1     # T'(c) = tc + delta
        st   b6[tid], r1
        ",
        ry = th.ry,
        rx = th.rx,
        rz = th.rz,
        sdc = th.step_div_cap,
    );
    assemble("hotspot", &source).expect("the HotSpot kernel assembles")
}

/// Refreshes the four neighbour buffers from the current field, with
/// replicate clamping at the edges (`tn = tc` on the top row, and so
/// on).
fn refresh_neighbours(bufs: &mut [Vec<f32>], cols: usize) {
    let (t, halo) = bufs.split_first_mut().expect("HotSpot buffer set");
    let [tn, ts, tw, te, ..] = halo else {
        unreachable!("HotSpot buffer set")
    };
    let n = t.len();
    if n == 0 {
        return;
    }
    tn[..cols].copy_from_slice(&t[..cols]);
    tn[cols..].copy_from_slice(&t[..n - cols]);
    ts[..n - cols].copy_from_slice(&t[cols..]);
    ts[n - cols..].copy_from_slice(&t[n - cols..]);
    for ((row, w), e) in t
        .chunks_exact(cols)
        .zip(tw.chunks_exact_mut(cols))
        .zip(te.chunks_exact_mut(cols))
    {
        w[0] = row[0];
        w[1..].copy_from_slice(&row[..cols - 1]);
        e[..cols - 1].copy_from_slice(&row[1..]);
        e[cols - 1] = row[cols - 1];
    }
}

/// Runs HotSpot under the arithmetic configuration carried by `ctx`:
/// each time step is one launch of [`kernel`] on a compiled
/// [`WarpInterpreter`], one thread per cell.
///
/// Counting contract: `ctx` receives the launches' FP `OpCounts`
/// (17 per cell and step) plus the workload's declared
/// `CELL_INT_OPS`/`CELL_MEM_OPS` per cell and step; the kernel IR's own
/// load/store counters are dropped.
pub fn run(params: &HotspotParams, ctx: &mut FpCtx) -> HotspotOutput {
    let (r, c) = (params.rows, params.cols);
    let cells = r * c;
    let threads = u32::try_from(cells).expect("HotSpot grid fits one launch");
    let prog = kernel(params);

    // Structured initial condition (the Rodinia temp input analogue),
    // then host-side scaling of the power map into Watts per node:
    // activity × maximum power density × cell area, which keeps the
    // per-step temperature increment grid-size independent.
    let mut power = synth_power_map(params);
    let field: Vec<f32> = power
        .iter()
        .map(|&p| T_INIT_BASE + INIT_SPREAD_K * p)
        .collect();
    let cell_area = Thermal::new(params).cell_area;
    power.iter_mut().for_each(|p| *p = *p * MAX_PD * cell_area);
    let zeros = || vec![0.0f32; cells];
    // T, tn, ts, tw, te, P, T'.
    let mut bufs = vec![field, zeros(), zeros(), zeros(), zeros(), power, zeros()];

    let mut sim = WarpInterpreter::new(*ctx.config());
    for _ in 0..params.steps {
        refresh_neighbours(&mut bufs, c);
        sim.launch(&prog, threads, &mut bufs)
            .expect("every HotSpot access is in bounds");
        bufs.swap(B_T, B_NEXT);
    }

    let cell_steps = (cells * params.steps) as u64;
    ctx.record_static(&InstrMix {
        fp: sim.ctx().counts().clone(),
        int_ops: CELL_INT_OPS * cell_steps,
        mem_ops: CELL_MEM_OPS * cell_steps,
    });

    // Free the other six buffers before the f64 copy of the field.
    let field = bufs.swap_remove(B_T);
    drop(bufs);
    HotspotOutput {
        rows: r,
        cols: c,
        temps: field.iter().map(|&v| v as f64).collect(),
    }
}

/// Convenience: runs under a fresh context and returns output + context.
pub fn run_with_config(params: &HotspotParams, cfg: IhwConfig) -> (HotspotOutput, FpCtx) {
    let mut ctx = FpCtx::new(cfg);
    let out = run(params, &mut ctx);
    (out, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ihw_core::config::FpOp;
    use ihw_quality::metrics::{mae, wed};

    fn small() -> HotspotParams {
        HotspotParams {
            rows: 24,
            cols: 24,
            steps: 10,
            seed: 7,
        }
    }

    #[test]
    fn deterministic() {
        let (a, _) = run_with_config(&small(), IhwConfig::precise());
        let (b, _) = run_with_config(&small(), IhwConfig::precise());
        assert_eq!(a, b);
    }

    #[test]
    fn temperatures_physical() {
        let (out, _) = run_with_config(&small(), IhwConfig::precise());
        for &t in &out.temps {
            assert!(t > 273.0 && t < 520.0, "temperature {t} K implausible");
        }
        // The field carries the floor plan structure: hot spots well above
        // the baseline.
        let max = out.temps.iter().cloned().fold(f64::MIN, f64::max);
        let min = out.temps.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max - min > 10.0, "no thermal structure: range {min}..{max}");
        // And the solver actually evolved the field from its initial state.
        let params = small();
        let power = synth_power_map(&params);
        let evolved = out
            .temps
            .iter()
            .zip(&power)
            .any(|(&t, &p)| (t - (T_INIT_BASE + INIT_SPREAD_K * p) as f64).abs() > 1e-4);
        assert!(evolved, "solver did not change the field");
    }

    #[test]
    fn hot_blocks_stay_hotter() {
        let params = small();
        let power = synth_power_map(&params);
        let (out, _) = run_with_config(&params, IhwConfig::precise());
        // The hottest cell should sit on a high-power block.
        let (hot_idx, _) = out
            .temps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
            .expect("nonempty");
        assert!(
            power[hot_idx] > 0.5,
            "hottest cell power {}",
            power[hot_idx]
        );
    }

    #[test]
    fn imprecise_error_small() {
        // The algorithm "tends to iteratively average out errors"; MAE
        // with all IHW on stays tiny relative to the ≈360 K field.
        let params = small();
        let (precise, _) = run_with_config(&params, IhwConfig::precise());
        let (imprecise, _) = run_with_config(&params, IhwConfig::all_imprecise());
        let e = mae(&precise.temps, &imprecise.temps);
        assert!(e < 5.0, "MAE {e} K too large");
        let w = wed(&precise.temps, &imprecise.temps);
        assert!(w < 25.0, "WED {w} K too large");
        // Relative to the ≈400 K field the degradation is negligible.
        let mean_t = precise.temps.iter().sum::<f64>() / precise.temps.len() as f64;
        assert!(e / mean_t < 0.015, "relative MAE {}", e / mean_t);
    }

    #[test]
    fn counts_cover_fpu_and_sfu() {
        let (_, ctx) = run_with_config(&small(), IhwConfig::precise());
        assert!(ctx.counts().get(FpOp::Add) > 0);
        assert!(ctx.counts().get(FpOp::Mul) > 0);
        assert!(
            ctx.counts().get(FpOp::Rcp) > 0,
            "thermal reciprocals hit the SFU"
        );
        assert!(ctx.int_ops() > 0 && ctx.mem_ops() > 0);
        // Per-cell op budget: 10 adds/subs + 3 rcps + 4 muls per step.
        let cells = 24 * 24 * 10;
        assert_eq!(ctx.counts().get(FpOp::Add), 10 * cells);
        assert_eq!(ctx.counts().get(FpOp::Rcp), 3 * cells);
        assert_eq!(ctx.counts().get(FpOp::Mul), 4 * cells);
    }

    #[test]
    fn kernel_is_hygienic_and_thread_independent() {
        // The same source-level checks the stock kernels pass: no
        // cross-tid dependence (so the compiled engine runs lane blocks), no
        // unwritten-register reads, no dead stores, no static OOB, and
        // no suppressions.
        use gpu_sim::deps::{racecheck, Verdict};
        for params in [small(), HotspotParams::default(), HotspotParams::paper()] {
            let prog = kernel(&params);
            let report = racecheck(&prog);
            assert_eq!(report.verdict, Verdict::ThreadIndependent);
            assert!(report.uninit_reads.is_empty(), "{:?}", report.uninit_reads);
            assert!(report.dead_stores.is_empty(), "{:?}", report.dead_stores);
            assert!(report.oob.is_empty(), "{:?}", report.oob);
            assert!(prog.allows().is_empty());
            assert!(prog.feedback().is_none());
        }
    }

    #[test]
    fn neighbour_buffers_replicate_the_edges() {
        // Checked directly: every adder is commutative, so swapping the
        // north/south or west/east views leaves the temperatures
        // unchanged and no end-to-end comparison can see it.
        for (rows, cols) in [(3, 7), (1, 1), (1, 5), (5, 1)] {
            let n = rows * cols;
            let mut bufs = vec![vec![0.0f32; n]; B_NEXT + 1];
            bufs[B_T] = (0..n).map(|i| i as f32).collect();
            refresh_neighbours(&mut bufs, cols);
            let at = |y: usize, x: usize| (y * cols + x) as f32;
            for y in 0..rows {
                for x in 0..cols {
                    let idx = y * cols + x;
                    let cell = format!("{rows}x{cols} cell ({y}, {x})");
                    assert_eq!(bufs[1][idx], at(y.saturating_sub(1), x), "tn {cell}");
                    assert_eq!(bufs[2][idx], at((y + 1).min(rows - 1), x), "ts {cell}");
                    assert_eq!(bufs[3][idx], at(y, x.saturating_sub(1)), "tw {cell}");
                    assert_eq!(bufs[4][idx], at(y, (x + 1).min(cols - 1)), "te {cell}");
                }
            }
        }
    }

    #[test]
    fn mix_credits_the_declared_int_and_mem_ops() {
        // The kernel IR's own load/store counters are dropped: the mix
        // carries exactly the declared per-cell integer and memory ops.
        let (_, ctx) = run_with_config(&small(), IhwConfig::precise());
        let cell_steps = 24 * 24 * 10;
        assert_eq!(ctx.mix().int_ops, CELL_INT_OPS * cell_steps);
        assert_eq!(ctx.mix().mem_ops, CELL_MEM_OPS * cell_steps);
    }

    #[test]
    fn power_map_in_range() {
        let p = synth_power_map(&HotspotParams::default());
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(p.iter().any(|&v| v > 0.55), "some hot blocks exist");
    }
}
