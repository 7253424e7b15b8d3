//! The two serve workloads: closed loops of tenant threads, each
//! submitting its next request only after the previous reply, against
//! `ihw_bench::serve::LaunchService` with worker budget 1.
//!
//! * `serve_shared` — two tenants in the stock-mix shape: 20 (kernel,
//!   config) pairs at 4096 threads, four of every five payloads shared
//!   across tenants, a fresh service per pass. Most requests coalesce.
//! * `serve_unique` — one tenant, every payload distinct, over 80
//!   (kernel, config) pairs (more than the plan cache's 64) at mixed
//!   thread counts, one service per pass of [`UNIQUE_REQUESTS`]
//!   requests. Nothing coalesces; plan evictions and the result cache
//!   grow instead. With two tenants its p99 and throughput were bimodal
//!   on a two-core host (README.md, Known noise).

use crate::gen::{payload, same_bits, Rng};
use crate::json::Json;
use crate::layers::{bound_us, compile_us, PairRef};
use crate::report::{for_seconds, Outcome};
use crate::stats::median;
use gpu_sim::concurrent::SharedInterpreter;
use gpu_sim::isa::{Program, WarpInterpreter};
use gpu_sim::plan::PlanCacheStats;
use ihw_analyze::{analyze_program, AnalysisSettings};
use ihw_bench::runner::report::Stopwatch;
use ihw_bench::serve::{request_key, LaunchRequest, LaunchService, ServeReply, DEFAULT_MAX_OPS};
use ihw_core::config::{AddUnit, IhwConfig};

/// Requests per tenant per pass of `serve_shared` (the 2 × 200 shape).
pub const SHARED_REQUESTS: usize = 200;
/// Threads per `serve_shared` request (the stock-mix shape).
pub const SHARED_THREADS: u32 = 4096;
/// Requests per pass (one service lifetime) of `serve_unique`: each of
/// the 240 (pair, threads) combinations five times. Fixed, so memory
/// does not scale with throughput.
pub const UNIQUE_REQUESTS: usize = 1200;
/// Thread counts a `serve_unique` request draws from.
pub const UNIQUE_THREADS: [u32; 3] = [128, 1024, 4096];

/// Which request mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Shared,
    Unique,
}

impl Mix {
    /// Tenant threads (the host has two cores).
    pub fn tenants(self) -> usize {
        match self {
            Mix::Shared => 2,
            Mix::Unique => 1,
        }
    }
}

/// One (kernel, config) pair and the bounds every reply for it must
/// carry: `(buffer, bound bits, domain label)` from `analyze_program`.
#[derive(Debug)]
pub struct Pair {
    pub program: Program,
    pub label: String,
    pub config: IhwConfig,
    bounds: Vec<(usize, u64, String)>,
}

/// One request with the index of its expected output.
#[derive(Debug)]
pub struct Req {
    pub req: LaunchRequest,
    pub pair: usize,
    pub thread_instrs: u64,
    oracle: usize,
}

/// A generated request mix with its oracles.
#[derive(Debug)]
pub struct Plan {
    pub mix: Mix,
    pub pairs: Vec<Pair>,
    pub tenants: Vec<Vec<Req>>,
    /// Output buffers of a direct launch of each distinct request on a
    /// fresh `WarpInterpreter`.
    oracles: Vec<Vec<Vec<f32>>>,
}

fn pairs_for(mix: Mix) -> Vec<Pair> {
    let kernels = ihw_analyze::stock_kernels();
    let configs: Vec<(String, IhwConfig)> = match mix {
        Mix::Shared => ihw_analyze::stock_configs()
            .into_iter()
            .map(|(l, c)| (l.to_string(), c))
            .collect(),
        // The AC-multiplier truncation ladder and the adder-TH ladder:
        // 20 configs × 4 kernels = 80 pairs.
        Mix::Unique => (0..12u32)
            .map(|i| {
                (
                    format!("ac_mul_t{}", 2 * i),
                    IhwConfig::ray_with_ac_mul(2 * i),
                )
            })
            .chain((4..12u32).map(|th| {
                (
                    format!("add_th{th}"),
                    IhwConfig::precise().with_add(AddUnit::Imprecise { th }),
                )
            }))
            .collect(),
    };
    let mut pairs = Vec::new();
    for (label, config) in configs {
        for program in &kernels {
            let bounds = analyze_program(program, &config, &label, &AnalysisSettings::default())
                .outputs
                .iter()
                .map(|o| (o.buffer, o.bound.to_bits(), o.domain.label().to_string()))
                .collect();
            pairs.push(Pair {
                program: program.clone(),
                label: label.clone(),
                config,
                bounds,
            });
        }
    }
    pairs
}

impl Plan {
    /// Generates the mix from `seed` and computes every oracle.
    pub fn build(mix: Mix, seed: u64) -> Plan {
        let pairs = pairs_for(mix);
        let mut oracles = Vec::new();
        let mut tenants: Vec<Vec<Req>> = (0..mix.tenants()).map(|_| Vec::new()).collect();
        let request = |pair: usize, threads: u32, buffers: Vec<Vec<f32>>, oracle: usize| {
            let p: &Pair = &pairs[pair];
            Req {
                thread_instrs: p.program.instrs().len() as u64 * u64::from(threads),
                req: LaunchRequest {
                    program: p.program.clone(),
                    config: p.config,
                    config_label: p.label.clone(),
                    threads,
                    buffers,
                },
                pair,
                oracle,
            }
        };
        match mix {
            Mix::Shared => {
                // One payload per pair shared by both tenants, and one
                // per (tenant, pair) for the private fifth: repeated
                // keys, so most requests coalesce.
                let mut rng = Rng::new(seed, 0x5e_0001);
                let mut shared = vec![None; pairs.len()];
                let mut private = vec![vec![None; pairs.len()]; tenants.len()];
                for r in 0..SHARED_REQUESTS {
                    // Cycles kernels and configs as `serve::stock_requests`
                    // does; pairs are config-major.
                    let pair = (r % 5) * 4 + r % 4;
                    for (t, reqs) in tenants.iter_mut().enumerate() {
                        let slot = if r % 5 == 0 {
                            &mut private[t][pair]
                        } else {
                            &mut shared[pair]
                        };
                        let oracle = *slot.get_or_insert_with(|| {
                            oracles.push(payload(&pairs[pair].program, SHARED_THREADS, &mut rng));
                            oracles.len() - 1
                        });
                        let bufs = oracles[oracle].clone();
                        reqs.push(request(pair, SHARED_THREADS, bufs, oracle));
                    }
                }
            }
            Mix::Unique => {
                // Every (pair, threads) combination equally often, in a
                // seeded order: the seed moves the order and the values,
                // not the amount of work.
                let mut rng = Rng::new(seed, 0x5e_0003);
                let combos = pairs.len() * UNIQUE_THREADS.len();
                let mut order: Vec<usize> = (0..UNIQUE_REQUESTS).map(|i| i % combos).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.below(i + 1));
                }
                for (i, combo) in order.into_iter().enumerate() {
                    let (pair, threads) = (
                        combo / UNIQUE_THREADS.len(),
                        UNIQUE_THREADS[combo % UNIQUE_THREADS.len()],
                    );
                    oracles.push(payload(&pairs[pair].program, threads, &mut rng));
                    let bufs = oracles.last().expect("just pushed").clone();
                    tenants[i % mix.tenants()].push(request(
                        pair,
                        threads,
                        bufs,
                        oracles.len() - 1,
                    ));
                }
            }
        }
        // Oracles so far hold the inputs; run each on a fresh
        // interpreter to turn them into expected outputs.
        let mut done = vec![false; oracles.len()];
        for r in tenants.iter().flatten() {
            if !std::mem::replace(&mut done[r.oracle], true) {
                let p = &pairs[r.pair];
                WarpInterpreter::new(p.config)
                    .launch(&p.program, r.req.threads, &mut oracles[r.oracle])
                    .expect("seeded payloads are sized to the kernel's footprint");
            }
        }
        Plan {
            mix,
            pairs,
            tenants,
            oracles,
        }
    }

    /// The smallest thread count in the mix.
    pub fn small_threads(&self) -> u32 {
        match self.mix {
            Mix::Shared => SHARED_THREADS,
            Mix::Unique => UNIQUE_THREADS[0],
        }
    }
}

/// Replays per layer call in a traced pass; the fastest is kept.
const REPLAYS: usize = 3;

/// Seconds of the fastest of [`REPLAYS`] calls of `f`: the estimate of
/// a layer's cost least disturbed by the host, so the residual
/// subtracted from submit time does not over-count it.
fn fastest(mut f: impl FnMut()) -> f64 {
    (0..REPLAYS)
        .map(|_| {
            let sw = Stopwatch::start();
            f();
            sw.elapsed_seconds()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Per-request layer replays of a traced pass: each tenant thread times
/// `request_key` and, for requests it executed, a
/// `SharedInterpreter::launch` (buffer clone included) on its own warm
/// replica, right after the reply.
#[derive(Debug)]
pub struct Replicas(Vec<SharedInterpreter>);

impl Replicas {
    /// One warm replica per tenant, with room for every pair's plan so
    /// the replayed launch times execution, not compilation.
    pub fn new(plan: &Plan) -> Replicas {
        let replicas = (0..plan.tenants.len())
            .map(|_| {
                let sim = SharedInterpreter::new(IhwConfig::precise());
                sim.with(|s| s.set_plan_cache_capacity(plan.pairs.len()));
                for p in &plan.pairs {
                    let bufs = payload(&p.program, 32, &mut Rng::new(0, 0));
                    let _ = sim.launch(&p.program, &p.config, 32, bufs);
                }
                sim
            })
            .collect();
        Replicas(replicas)
    }
}

/// One pass: a fresh service, the whole mix, every reply checked.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Wall seconds from the first submit to the last reply.
    pub wall: f64,
    /// `(submit seconds, threads)` per request.
    pub latencies: Vec<(f64, u32)>,
    pub submitted: u64,
    pub executed: u64,
    pub coalesced: u64,
    pub rejected: u64,
    pub faulted: u64,
    /// Replies that were rejected, faulted, or differ from the oracle.
    pub failed: u64,
    /// Instructions × threads of the executed launches.
    pub thread_instrs: u64,
    /// Bytes of buffers held by the service's result cache at the end.
    pub retained_bytes: u64,
    pub plan: PlanCacheStats,
    /// Distinct pairs executed: bound analyses the service ran.
    pub analysed_pairs: Vec<usize>,
    /// Replayed `request_key` seconds, every request (traced passes).
    pub key_s: Vec<f64>,
    /// Replayed execute seconds, executed requests (traced passes).
    pub execute_s: Vec<f64>,
}

/// Runs one pass of `plan` against a fresh service; with `replicas`,
/// also replays the per-request layers.
pub fn run_pass(plan: &Plan, replicas: Option<&Replicas>) -> PassOut {
    let service = LaunchService::new(1, DEFAULT_MAX_OPS);
    let sw = Stopwatch::start();
    let per_tenant: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .tenants
            .iter()
            .enumerate()
            .map(|(i, reqs)| {
                let service = &service;
                let replica = replicas.map(|r| &r.0[i]);
                s.spawn(move || {
                    let mut out = Vec::with_capacity(reqs.len());
                    let mut key_s = Vec::new();
                    let mut execute_s = Vec::new();
                    for r in reqs {
                        let sw = Stopwatch::start();
                        let reply = service.submit(&r.req);
                        let latency = sw.elapsed_seconds();
                        if let Some(sim) = replica {
                            key_s.push(fastest(|| {
                                std::hint::black_box(request_key(&r.req));
                            }));
                            if matches!(
                                reply,
                                ServeReply::Served {
                                    coalesced: false,
                                    ..
                                }
                            ) {
                                let q = &r.req;
                                execute_s.push(fastest(|| {
                                    std::hint::black_box(sim.launch(
                                        &q.program,
                                        &q.config,
                                        q.threads,
                                        q.buffers.clone(),
                                    ));
                                }));
                            }
                        }
                        out.push((latency, reply));
                    }
                    (out, key_s, execute_s)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread panicked"))
            .collect()
    });
    let mut o = PassOut {
        wall: sw.elapsed_seconds(),
        plan: service.plan_cache_stats(),
        ..PassOut::default()
    };
    let stats = service.stats();
    o.submitted = stats.submitted;
    o.executed = stats.executed;
    o.coalesced = stats.dedup_hits;
    o.rejected = stats.rejected;
    o.faulted = stats.faulted;
    for (reqs, (replies, key_s, execute_s)) in plan.tenants.iter().zip(per_tenant) {
        o.key_s.extend(key_s);
        o.execute_s.extend(execute_s);
        for (r, (latency, reply)) in reqs.iter().zip(replies) {
            o.latencies.push((latency, r.req.threads));
            let ServeReply::Served { outcome, coalesced } = reply else {
                o.failed += 1;
                continue;
            };
            if !coalesced {
                o.thread_instrs += r.thread_instrs;
                o.retained_bytes += outcome
                    .buffers
                    .iter()
                    .map(|b| 4 * b.len() as u64)
                    .sum::<u64>();
                if !o.analysed_pairs.contains(&r.pair) {
                    o.analysed_pairs.push(r.pair);
                }
            }
            let bounds: Vec<(usize, u64, String)> = outcome
                .bounds
                .iter()
                .map(|b| (b.buffer, b.bound.to_bits(), b.domain.clone()))
                .collect();
            let ok = outcome.error.is_none()
                && same_bits(&outcome.buffers, &plan.oracles[r.oracle])
                && bounds == plan.pairs[r.pair].bounds;
            if !ok {
                o.failed += 1;
            }
        }
    }
    o
}

/// Submit time the standalone layer timings do not account for, in
/// microseconds per request: coalesce waits, interpreter-lock waits and
/// uninstrumented work. Each traced pass's summed submit latency, minus
/// its replayed `request_key` and execute times, minus one cold compile
/// per plan miss and one bound analysis per analysed pair.
pub fn residual_us(passes: &[PassOut], compile_us: f64, bound_us: &[f64]) -> f64 {
    let mut residual = 0.0;
    let mut submitted = 0;
    for p in passes {
        let submit: f64 = p.latencies.iter().map(|(s, _)| s).sum();
        let key: f64 = p.key_s.iter().sum();
        let execute: f64 = p.execute_s.iter().sum();
        let compile = p.plan.misses as f64 * compile_us * 1e-6;
        let bound: f64 = p.analysed_pairs.iter().map(|&i| bound_us[i] * 1e-6).sum();
        residual += submit - key - execute - compile - bound;
        submitted += p.submitted;
    }
    residual / submitted.max(1) as f64 * 1e6
}

fn count(o: &mut Outcome, passes: &[PassOut]) {
    for p in passes {
        o.attempted += p.latencies.len() as u64;
        o.failed += p.failed;
    }
}

/// A serve workload.
pub fn run(mix: Mix, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut o = Outcome::new();
    let plan = o.setup(|| {
        std::hint::black_box(LaunchService::new(1, DEFAULT_MAX_OPS));
        Plan::build(mix, seed)
    });
    let mut passes = Vec::new();
    let walls = |ps: &[PassOut]| ps.iter().map(|p| p.wall).collect::<Vec<f64>>();
    if !trace {
        for_seconds(seconds, || passes.push(run_pass(&plan, None)));
        count(&mut o, &passes);
        // Rates per median pass: every pass does the same work, and the
        // median resists a stalled pass.
        let pass_walls = walls(&passes);
        let pass_s = median(&pass_walls);
        o.median_of("pass_s", &pass_walls, 1.0);
        let last = passes.last().expect("at least one pass");
        o.metric("thread_instr_per_s", last.thread_instrs as f64 / pass_s);
        o.metric("req_per_s", last.submitted as f64 / pass_s);
        let small = plan.small_threads();
        let lat = |all: bool| -> Vec<f64> {
            passes
                .iter()
                .flat_map(|p| &p.latencies)
                .filter(|(_, t)| all || *t == small)
                .map(|(s, _)| *s)
                .collect()
        };
        o.median_of("small_launch_p50_us", &lat(false), 1e6);
        o.latencies(&lat(true), last.latencies.len());
        o.finish_end_to_end();
        return o;
    }
    for_seconds(seconds / 2.0, || passes.push(run_pass(&plan, None)));
    let replicas = Replicas::new(&plan);
    let pairs: Vec<PairRef<'_>> = plan
        .pairs
        .iter()
        .map(|p| (&p.program, &p.config, p.label.as_str()))
        .collect();
    let compile = compile_us(&pairs, 3);
    let bounds = bound_us(&pairs, 3);
    let mut traced = Vec::new();
    for_seconds(seconds / 2.0, || {
        traced.push(run_pass(&plan, Some(&replicas)))
    });
    count(&mut o, &passes);
    count(&mut o, &traced);

    let n = traced.len() as f64;
    let sum = |f: fn(&PassOut) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    o.metric("plan.compile_us", compile);
    o.metric("plan.hits", sum(|p| p.plan.hits) / n);
    o.metric("plan.misses", sum(|p| p.plan.misses) / n);
    o.metric("plan.evictions", sum(|p| p.plan.evictions) / n);
    o.note("plan.per", Json::str("pass (one service lifetime)"));
    o.metric("analyze.bound_us", median(&bounds));
    let key: Vec<f64> = traced.iter().flat_map(|p| p.key_s.clone()).collect();
    let execute: Vec<f64> = traced.iter().flat_map(|p| p.execute_s.clone()).collect();
    o.median_of("serve.key_us", &key, 1e6);
    o.median_of("serve.execute_us", &execute, 1e6);
    o.metric("serve.residual_us", residual_us(&traced, compile, &bounds));
    o.metric(
        "serve.coalesced_share",
        sum(|p| p.coalesced) / sum(|p| p.submitted),
    );
    o.metric("serve.executed", sum(|p| p.executed) / n);
    o.metric("serve.rejected", sum(|p| p.rejected) / n);
    o.metric("serve.faulted", sum(|p| p.faulted) / n);
    o.metric(
        "serve.retained_mib",
        sum(|p| p.retained_bytes) / n / (1u64 << 20) as f64,
    );
    o.note(
        "serve.retained_mib.method",
        Json::str("summed buffer sizes (4 bytes per element) of the executed outcomes the service's result cache holds at the end of a pass"),
    );
    o.trace_overhead(&walls(&passes), &walls(&traced));
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The serve tests time two-tenant passes; run them one at a time so
    /// they do not compete for the cores they measure.
    static SERIAL: Mutex<()> = Mutex::new(());

    /// The standalone layer timings never account for more than the
    /// submit time they are subtracted from.
    #[test]
    fn residual_is_never_negative_on_the_seed() {
        let _serial = SERIAL.lock().expect("a serve test panicked");
        for mix in [Mix::Shared, Mix::Unique] {
            let plan = Plan::build(mix, 1);
            let replicas = Replicas::new(&plan);
            let pairs: Vec<PairRef<'_>> = plan
                .pairs
                .iter()
                .map(|p| (&p.program, &p.config, p.label.as_str()))
                .collect();
            let compile = compile_us(&pairs, 3);
            let bounds = bound_us(&pairs, 3);
            let passes: Vec<PassOut> = (0..2).map(|_| run_pass(&plan, Some(&replicas))).collect();
            assert!(
                passes.iter().all(|p| p.failed == 0),
                "{mix:?}: oracle failures"
            );
            let r = residual_us(&passes, compile, &bounds);
            assert!(r >= 0.0, "{mix:?}: residual {r} us");
        }
    }

    #[test]
    fn shared_mix_mostly_coalesces_and_unique_mix_never_does() {
        let _serial = SERIAL.lock().expect("a serve test panicked");
        let shared = run_pass(&Plan::build(Mix::Shared, 2), None);
        assert!(shared.coalesced * 10 > shared.submitted * 9, "{shared:?}");
        let unique = run_pass(&Plan::build(Mix::Unique, 2), None);
        assert_eq!(unique.coalesced, 0);
        assert!(unique.plan.evictions > 0);
    }
}
