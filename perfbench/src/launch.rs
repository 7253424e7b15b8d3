//! The `launch` workload: one caller drives a warm `WarpInterpreter`
//! (compiled engine, worker budget 1) through the stock kernels × stock
//! configs × a ladder of thread counts, over seeded payloads.

use crate::gen::{payload, same_bits, Rng};
use crate::json::Json;
use crate::layers::{compile_us, core_units, PairRef};
use crate::report::{for_seconds, Outcome};
use crate::stats::{fit_line, median};
use gpu_sim::isa::{ExecEngine, Program, WarpInterpreter};
use ihw_bench::runner::report::Stopwatch;
use ihw_core::config::IhwConfig;
use ihw_power::system::OpCounts;

/// The thread counts of the ladder.
pub const THREADS: [u32; 4] = [128, 1024, 8192, 32768];

/// The seeded input buffers of every (kernel, threads) rung, kernel
/// major; every config of a rung launches the same payload.
pub fn payloads(kernels: &[Program], seed: u64, threads: &[u32]) -> Vec<Vec<Vec<f32>>> {
    let mut rng = Rng::new(seed, 0x1a0c);
    kernels
        .iter()
        .flat_map(|k| {
            threads
                .iter()
                .map(|&t| payload(k, t, &mut rng))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// What the sequential reference engine produced for one launch.
#[derive(Debug)]
struct Reference {
    buffers: Vec<Vec<f32>>,
    counts: OpCounts,
    int_ops: u64,
    mem_ops: u64,
}

/// One rung: a (kernel, config, threads) launch and its reference.
/// Rungs are ordered by threads, then config, then kernel, so each
/// launch size runs against caches warmed by launches of its own size.
#[derive(Debug)]
pub struct Point {
    pub kernel: usize,
    pub config: usize,
    pub threads: u32,
    /// Instructions × threads the launch executes.
    pub thread_instrs: u64,
    payload: usize,
    reference: Reference,
}

/// One timed launch.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub point: usize,
    pub seconds: f64,
    pub ok: bool,
}

/// The ladder with its inputs, references and warm interpreter.
#[derive(Debug)]
pub struct Ladder {
    pub kernels: Vec<Program>,
    pub configs: Vec<(&'static str, IhwConfig)>,
    pub points: Vec<Point>,
    payloads: Vec<Vec<Vec<f32>>>,
    sim: WarpInterpreter,
}

impl Ladder {
    /// Generates the payloads from `seed`, computes every rung's
    /// reference with `launch_sequential` on the interpreted engine,
    /// and warms the compiled interpreter's plan cache with one launch
    /// per rung.
    pub fn build(seed: u64, threads: &[u32]) -> Ladder {
        let kernels = ihw_analyze::stock_kernels();
        let configs = ihw_analyze::stock_configs();
        let payloads = payloads(&kernels, seed, threads);
        let mut points = Vec::new();
        for (ti, &t) in threads.iter().enumerate() {
            for (c, (_, cfg)) in configs.iter().enumerate() {
                for (k, prog) in kernels.iter().enumerate() {
                    let payload = k * threads.len() + ti;
                    let mut buffers = payloads[payload].clone();
                    let mut oracle =
                        WarpInterpreter::new(*cfg).with_engine(ExecEngine::Interpreted);
                    oracle
                        .launch_sequential(prog, t, &mut buffers)
                        .expect("seeded payloads are sized to the kernel's footprint");
                    let ctx = oracle.ctx();
                    points.push(Point {
                        kernel: k,
                        config: c,
                        threads: t,
                        thread_instrs: prog.instrs().len() as u64 * u64::from(t),
                        payload,
                        reference: Reference {
                            buffers,
                            counts: ctx.counts().clone(),
                            int_ops: ctx.int_ops(),
                            mem_ops: ctx.mem_ops(),
                        },
                    });
                }
            }
        }
        let mut ladder = Ladder {
            kernels,
            configs,
            points,
            payloads,
            sim: WarpInterpreter::new(IhwConfig::precise()),
        };
        let mut warm = Vec::new();
        ladder.cycle(&mut warm);
        ladder
    }

    /// Launches every rung once, smallest thread count first, timing each
    /// launch (the per-request context reset included, as
    /// `SharedInterpreter::launch` does it) and checking its buffers and
    /// op counts against the reference outside the timed region.
    pub fn cycle(&mut self, samples: &mut Vec<Sample>) {
        for (i, p) in self.points.iter().enumerate() {
            let prog = &self.kernels[p.kernel];
            let cfg = &self.configs[p.config].1;
            let mut buffers = self.payloads[p.payload].clone();
            let sw = Stopwatch::start();
            if self.sim.config() == cfg {
                self.sim.reset_counters();
            } else {
                self.sim.set_config(*cfg);
            }
            let result = self.sim.launch(prog, p.threads, &mut buffers);
            let seconds = sw.elapsed_seconds();
            let ctx = self.sim.ctx();
            let r = &p.reference;
            let ok = result.is_ok()
                && same_bits(&buffers, &r.buffers)
                && *ctx.counts() == r.counts
                && ctx.int_ops() == r.int_ops
                && ctx.mem_ops() == r.mem_ops;
            samples.push(Sample {
                point: i,
                seconds,
                ok,
            });
        }
    }

    pub fn plan_cache_stats(&self) -> gpu_sim::plan::PlanCacheStats {
        self.sim.plan_cache_stats()
    }
}

/// Up to 3 × 2^16 seeded operand values of the ladder's payloads, for
/// the unit-level sweeps.
pub fn operand_values(seed: u64) -> Vec<f32> {
    let kernels = ihw_analyze::stock_kernels();
    payloads(&kernels, seed, &THREADS)
        .into_iter()
        .flatten()
        .flatten()
        .take(3 << 16)
        .collect()
}

/// Counts the launches and their oracle failures into `o`.
pub fn count(o: &mut Outcome, samples: &[Sample]) {
    o.attempted += samples.len() as u64;
    o.failed += samples.iter().filter(|s| !s.ok).count() as u64;
}

/// Counts `samples` and reports `thread_instr_per_s` (a cycle's
/// thread-instructions over the median cycle's launch time) and
/// `small_launch_p50_us` (the 128-thread launches).
pub fn probe_metrics(o: &mut Outcome, ladder: &Ladder, samples: &[Sample]) {
    count(o, samples);
    let per_cycle: u64 = ladder.points.iter().map(|p| p.thread_instrs).sum();
    let cycle_s = median(&cycle_seconds(samples, ladder.points.len()));
    o.metric("thread_instr_per_s", per_cycle as f64 / cycle_s);
    let small: Vec<f64> = samples
        .iter()
        .filter(|s| ladder.points[s.point].threads == THREADS[0])
        .map(|s| s.seconds)
        .collect();
    o.median_of("small_launch_p50_us", &small, 1e6);
}

/// Seconds of launch time per full cycle of the ladder.
fn cycle_seconds(samples: &[Sample], per_cycle: usize) -> Vec<f64> {
    samples
        .chunks_exact(per_cycle)
        .map(|c| c.iter().map(|s| s.seconds).sum())
        .collect()
}

/// The `launch` workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut o = Outcome::new();
    let mut ladder = o.setup(|| Ladder::build(seed, &THREADS));
    let per_cycle = ladder.points.len();
    let mut samples = Vec::new();
    if !trace {
        for_seconds(seconds, || ladder.cycle(&mut samples));
        probe_metrics(&mut o, &ladder, &samples);
        let cycles = cycle_seconds(&samples, per_cycle);
        o.median_of("pass_s", &cycles, 1.0);
        o.metric("req_per_s", per_cycle as f64 / median(&cycles));
        let lat: Vec<f64> = samples.iter().map(|s| s.seconds).collect();
        o.latencies(&lat, per_cycle);
        o.finish_end_to_end();
        return o;
    }
    for_seconds(seconds / 2.0, || ladder.cycle(&mut samples));
    let split = samples.len();
    let before = ladder.plan_cache_stats();
    for_seconds(seconds / 2.0, || ladder.cycle(&mut samples));
    let after = ladder.plan_cache_stats();
    count(&mut o, &samples);
    let (untraced, traced) = samples.split_at(split);
    let cycles = (traced.len() / per_cycle) as f64;
    o.metric("plan.hits", (after.hits - before.hits) as f64 / cycles);
    o.metric(
        "plan.misses",
        (after.misses - before.misses) as f64 / cycles,
    );
    o.metric(
        "plan.evictions",
        (after.evictions - before.evictions) as f64 / cycles,
    );
    o.note("plan.per", Json::str("ladder cycle"));

    // t = a + b·threads per (kernel, config), over each rung's median.
    let mut rung_s = vec![Vec::new(); per_cycle];
    for s in traced {
        rung_s[s.point].push(s.seconds);
    }
    let pairs_n = per_cycle / THREADS.len();
    let mut intercepts = Vec::new();
    let mut slopes = vec![Vec::new(); ladder.configs.len()];
    for pair in 0..pairs_n {
        let rungs: Vec<usize> = (0..THREADS.len()).map(|ti| ti * pairs_n + pair).collect();
        let xs: Vec<f64> = rungs
            .iter()
            .map(|&i| f64::from(ladder.points[i].threads))
            .collect();
        let ys: Vec<f64> = rungs.iter().map(|&i| median(&rung_s[i])).collect();
        let (a, b) = fit_line(&xs, &ys);
        let p = &ladder.points[rungs[0]];
        intercepts.push(a);
        let instrs = ladder.kernels[p.kernel].instrs().len() as f64;
        slopes[p.config].push(b / instrs);
    }
    o.metric("launch.fixed_us", median(&intercepts) * 1e6);
    for (c, (label, _)) in ladder.configs.iter().enumerate() {
        o.metric(
            &format!("launch.ns_per_ti.{label}"),
            median(&slopes[c]) * 1e9,
        );
    }
    let pairs: Vec<PairRef<'_>> = ladder
        .configs
        .iter()
        .flat_map(|(label, cfg)| ladder.kernels.iter().map(move |k| (k, cfg, *label)))
        .collect();
    o.metric("plan.compile_us", compile_us(&pairs, 5));
    core_units(&mut o, &operand_values(seed));
    o.trace_overhead(
        &cycle_seconds(untraced, per_cycle),
        &cycle_seconds(traced, per_cycle),
    );
    o
}
