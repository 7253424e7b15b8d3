//! A batched multi-tenant launch service over the simulator stack.
//!
//! The [`LaunchService`] is the multi-tenant front door: tenants submit
//! [`LaunchRequest`]s (program + [`IhwConfig`] + input buffers) from
//! any number of threads and get back the written buffers and the
//! static error-bound metadata `ihw-analyze` derives for the request's
//! `(program, config)` pair. Four mechanisms stack up behind
//! [`LaunchService::submit`]:
//!
//! * **Admission control** — every request is priced in estimated ops
//!   (`instructions × threads`) *before* it runs; anything above the
//!   service's `max_ops` budget is rejected with the estimate, not
//!   executed.
//! * **Request coalescing** — the run-cache key, a [`ServeKey`]
//!   (program fingerprint × typed config × threads × input-buffer
//!   bits), routes identical requests to one
//!   [`crate::runner::cache::RunCache`] cell; while one
//!   tenant's execution is in flight, coalesced tenants block on the
//!   cell and then share the *same* `Arc`'d outcome (the reply says
//!   whether it was coalesced, and the stats count dedup hits).
//! * **Execution** — through [`gpu_sim::concurrent::SharedInterpreter`]
//!   on the compiled engine: one long-lived LRU-bounded plan cache that
//!   stays warm across requests with different configs. Each launch is
//!   one sequential run of its plan; the cache's lock is held only for
//!   the plan lookup, so tenants' launches execute concurrently.
//! * **Fault isolation** — a request that faults (memory error) or
//!   panics fails alone: the error is stored in *its* outcome, sibling
//!   tenants and subsequent requests are untouched (the shared
//!   interpreter's panic containment makes this hold end to end).
//!
//! The service is measured by perfbench's `serve_shared` and
//! `serve_unique` workloads; `tests/serve_concurrency.rs` checks that
//! concurrent replies are bit-identical to a sequential replay and that
//! a multi-tenant mix coalesces.

use crate::runner::cache::RunCache;
use gpu_sim::concurrent::SharedInterpreter;
use gpu_sim::isa::Program;
use gpu_sim::plan::PlanCacheStats;
use gpu_sim::programs::seed_buffers;
use ihw_analyze::{analyze_program, AnalysisSettings, KernelAnalysis};
use ihw_core::config::IhwConfig;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default admission budget in estimated ops (instructions × threads)
/// per request.
pub const DEFAULT_MAX_OPS: u64 = 1 << 22;

/// One tenant's kernel-launch request.
#[derive(Debug, Clone)]
pub struct LaunchRequest {
    /// The kernel to run.
    pub program: Program,
    /// The datapath configuration to run it under — per request, which
    /// is the whole point of accuracy-configurable hardware.
    pub config: IhwConfig,
    /// Human label for the config (bound-report metadata only; the
    /// typed config itself is what keys caches).
    pub config_label: String,
    /// Threads to launch.
    pub threads: u32,
    /// Input global buffers (request payload).
    pub buffers: Vec<Vec<f32>>,
}

impl LaunchRequest {
    /// The op-denominated admission estimate: instructions × threads,
    /// the number of thread-instructions the launch executes.
    pub fn est_ops(&self) -> u64 {
        self.program.instrs().len() as u64 * u64::from(self.threads)
    }
}

/// A key of the service's run cache, compared as a value (derived
/// `Ord`), so no key is rendered to text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ServeKey {
    /// One request's outcome; see [`request_key`].
    Request {
        /// [`Program::fingerprint`] of the kernel.
        fingerprint: u64,
        /// The typed datapath config.
        config: IhwConfig,
        /// Threads launched.
        threads: u32,
        /// FNV-1a fold of the input-buffer lengths and bit patterns.
        payload_hash: u64,
    },
    /// The static bounds of a `(program, config)` pair, shared by every
    /// payload.
    Bounds {
        /// [`Program::fingerprint`] of the kernel.
        fingerprint: u64,
        /// The typed datapath config.
        config: IhwConfig,
    },
}

/// The run-cache key of a request: program fingerprint, the typed
/// config, the thread count and an FNV-1a fold of the input-buffer bit
/// patterns. Two requests coalesce exactly when every one of those
/// matches — same kernel, same hardware config, same payload.
pub fn request_key(req: &LaunchRequest) -> ServeKey {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for buf in &req.buffers {
        fold(&(buf.len() as u64).to_le_bytes());
        for x in buf {
            fold(&x.to_bits().to_le_bytes());
        }
    }
    ServeKey::Request {
        fingerprint: req.program.fingerprint(),
        config: req.config,
        threads: req.threads,
        payload_hash: h,
    }
}

/// Static error-bound metadata for one output buffer of a served
/// request, straight from the `ihw-analyze` abstract interpreter.
#[derive(Debug, Clone)]
pub struct BoundMeta {
    /// Global buffer index the bound covers.
    pub buffer: usize,
    /// Sound relative-error bound (`+∞` = unbounded cancellation).
    pub bound: f64,
    /// Which abstract domain produced the bound (`interval`/`affine`).
    pub domain: String,
}

/// Everything a served request streams back to its tenant.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// The written global buffers (possibly partially written when
    /// `error` is set — identically so on either engine).
    pub buffers: Vec<Vec<f32>>,
    /// `Some` when the launch faulted or panicked; the failure stays
    /// confined to this outcome.
    pub error: Option<String>,
    /// Per-output static error bounds for the request's
    /// `(program, config)` pair.
    pub bounds: Vec<BoundMeta>,
}

/// The service's reply to one [`LaunchService::submit`].
#[derive(Debug, Clone)]
pub enum ServeReply {
    /// Admission control refused the request before execution.
    Rejected {
        /// The request's op-denominated cost estimate.
        est_ops: u64,
        /// The service's admission budget it exceeded.
        max_ops: u64,
    },
    /// The request was served (executed or coalesced).
    Served {
        /// The shared outcome — coalesced tenants receive the *same*
        /// `Arc` as the tenant whose submission executed.
        outcome: Arc<ServeOutcome>,
        /// Whether this submission rode an identical executed (or
        /// in-flight) request instead of running itself.
        coalesced: bool,
    },
}

/// Cumulative service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests that actually executed a launch.
    pub executed: u64,
    /// Requests coalesced onto an identical executed/in-flight one.
    pub dedup_hits: u64,
    /// Requests refused by admission control.
    pub rejected: u64,
    /// Executed requests whose launch faulted or panicked.
    pub faulted: u64,
}

/// The batched multi-tenant launch service. See the
/// [module docs](self) for the architecture.
pub struct LaunchService {
    sim: SharedInterpreter,
    cache: RunCache<ServeKey>,
    max_ops: u64,
    submitted: AtomicU64,
    executed: AtomicU64,
    dedup_hits: AtomicU64,
    rejected: AtomicU64,
    faulted: AtomicU64,
}

impl LaunchService {
    /// Builds a service over a fresh shared interpreter (compiled
    /// engine) with the given admission budget in estimated ops (min
    /// 1).
    ///
    /// `_workers` is ignored: a launch runs its threads sequentially.
    /// The parameter is kept only because the repository benchmark
    /// (`perfbench/`) still passes `1` here.
    pub fn new(_workers: usize, max_ops: u64) -> Self {
        LaunchService {
            sim: SharedInterpreter::new(IhwConfig::precise()),
            cache: RunCache::new(),
            max_ops: max_ops.max(1),
            submitted: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            faulted: AtomicU64::new(0),
        }
    }

    /// The admission budget requests are priced against.
    pub fn max_ops(&self) -> u64 {
        self.max_ops
    }

    /// Submits one request: admission control, then dedup-or-execute.
    /// Callable from any number of tenant threads concurrently.
    pub fn submit(&self, req: &LaunchRequest) -> ServeReply {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let est_ops = req.est_ops();
        if est_ops > self.max_ops {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return ServeReply::Rejected {
                est_ops,
                max_ops: self.max_ops,
            };
        }
        let key = request_key(req);
        let (outcome, executed_here) = self
            .cache
            .get_or_compute_flagged(&key, || self.execute(req));
        if executed_here {
            self.executed.fetch_add(1, Ordering::Relaxed);
            if outcome.error.is_some() {
                self.faulted.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            self.dedup_hits.fetch_add(1, Ordering::Relaxed);
        }
        ServeReply::Served {
            outcome,
            coalesced: !executed_here,
        }
    }

    /// Runs the launch and assembles the outcome (exactly once per
    /// distinct request key; coalesced tenants never reach this).
    fn execute(&self, req: &LaunchRequest) -> ServeOutcome {
        let launch = self
            .sim
            .launch(&req.program, &req.config, req.threads, req.buffers.clone());
        ServeOutcome {
            buffers: launch.buffers,
            error: launch.result.err().map(|e| e.to_string()),
            bounds: self.bounds_for(req),
        }
    }

    /// Static per-output error bounds for the request's
    /// `(program, config)`, memoized independently of the payload — a
    /// thousand requests with different buffers share one analysis.
    fn bounds_for(&self, req: &LaunchRequest) -> Vec<BoundMeta> {
        let key = ServeKey::Bounds {
            fingerprint: req.program.fingerprint(),
            config: req.config,
        };
        let analysis: Arc<KernelAnalysis> = self.cache.get_or_compute(&key, || {
            analyze_program(
                &req.program,
                &req.config,
                &req.config_label,
                &AnalysisSettings::default(),
            )
        });
        analysis
            .outputs
            .iter()
            .map(|o| BoundMeta {
                buffer: o.buffer,
                bound: o.bound,
                domain: o.domain.label().to_string(),
            })
            .collect()
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            faulted: self.faulted.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the shared interpreter's plan-cache counters.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.sim.plan_cache_stats()
    }
}

/// The deterministic multi-tenant benchmark mix: per tenant, `requests`
/// launches cycling through the stock kernels × stock configs. Every
/// fifth request carries a tenant-private payload (one input element
/// depends on the tenant index) and therefore cannot coalesce; the rest
/// are identical across tenants and *should* — that ratio is what the
/// dedup-hit check of `tests/serve_concurrency.rs` relies on.
pub fn stock_requests(tenants: usize, requests: usize, threads: u32) -> Vec<Vec<LaunchRequest>> {
    let kernels = ihw_analyze::stock_kernels();
    let configs = ihw_analyze::stock_configs();
    (0..tenants)
        .map(|tenant| {
            (0..requests)
                .map(|r| {
                    let program = kernels[r % kernels.len()].clone();
                    let (label, config) = configs[r % configs.len()];
                    let mut buffers = seed_buffers(&program, threads);
                    if r % 5 == 0 {
                        if let Some(x) = buffers.first_mut().and_then(|b| b.first_mut()) {
                            *x = 0.5 + (tenant as f32 + 1.0) / 1024.0;
                        }
                    }
                    LaunchRequest {
                        program,
                        config,
                        config_label: label.to_string(),
                        threads,
                        buffers,
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::programs;

    fn request(threads: u32) -> LaunchRequest {
        let program = programs::saxpy(2.0);
        let buffers = seed_buffers(&program, threads);
        LaunchRequest {
            program,
            config: IhwConfig::all_imprecise(),
            config_label: "all_imprecise".to_string(),
            threads,
            buffers,
        }
    }

    #[test]
    fn admission_control_prices_in_ops() {
        let service = LaunchService::new(1, 100);
        let req = request(64); // 5 instrs × 64 threads = 320 ops > 100
        assert_eq!(req.est_ops(), 320);
        match service.submit(&req) {
            ServeReply::Rejected { est_ops, max_ops } => {
                assert_eq!((est_ops, max_ops), (320, 100));
            }
            ServeReply::Served { .. } => panic!("over-budget request must be rejected"),
        }
        let stats = service.stats();
        assert_eq!((stats.submitted, stats.rejected, stats.executed), (1, 1, 0));
    }

    #[test]
    fn identical_requests_coalesce_to_the_same_arc() {
        let service = LaunchService::new(1, u64::MAX);
        let req = request(64);
        let first = match service.submit(&req) {
            ServeReply::Served { outcome, coalesced } => {
                assert!(!coalesced, "first submission executes");
                outcome
            }
            ServeReply::Rejected { .. } => panic!("admitted"),
        };
        let second = match service.submit(&req) {
            ServeReply::Served { outcome, coalesced } => {
                assert!(coalesced, "identical resubmission coalesces");
                outcome
            }
            ServeReply::Rejected { .. } => panic!("admitted"),
        };
        assert!(
            Arc::ptr_eq(&first, &second),
            "coalesced tenants share one outcome"
        );
        let stats = service.stats();
        assert_eq!((stats.executed, stats.dedup_hits), (1, 1));
        // A different payload is a different request.
        let mut other = request(64);
        other.buffers[0][0] += 0.125;
        match service.submit(&other) {
            ServeReply::Served { coalesced, .. } => assert!(!coalesced),
            ServeReply::Rejected { .. } => panic!("admitted"),
        }
        assert_eq!(service.stats().executed, 2);
    }

    #[test]
    fn outcomes_carry_static_bounds() {
        let service = LaunchService::new(1, u64::MAX);
        let req = request(64);
        let ServeReply::Served { outcome, .. } = service.submit(&req) else {
            panic!("admitted");
        };
        assert!(outcome.error.is_none());
        assert!(!outcome.bounds.is_empty(), "saxpy has an output bound");
        for b in &outcome.bounds {
            assert!(b.bound.is_finite() && b.bound > 0.0);
            assert!(b.domain == "interval" || b.domain == "affine");
        }
        // Bounds are memoized per (program, config): a payload-different
        // request reuses the analysis cell (2 outcome cells + 1 bounds
        // cell in the run cache).
        let mut other = request(64);
        other.buffers[0][0] += 0.125;
        let ServeReply::Served { outcome: o2, .. } = service.submit(&other) else {
            panic!("admitted");
        };
        assert_eq!(o2.bounds.len(), outcome.bounds.len());
        assert_eq!(service.cache.len(), 3);
    }

    #[test]
    fn faulting_request_fails_alone() {
        let service = LaunchService::new(1, u64::MAX);
        let mut bad = request(64);
        bad.buffers = bad.buffers.iter().map(|b| b[..4].to_vec()).collect();
        let ServeReply::Served { outcome, .. } = service.submit(&bad) else {
            panic!("admitted");
        };
        assert!(outcome.error.is_some(), "short buffers fault");
        // The sibling (and every later) request is untouched.
        let ServeReply::Served { outcome, .. } = service.submit(&request(64)) else {
            panic!("admitted");
        };
        assert!(outcome.error.is_none());
        assert_eq!(service.stats().faulted, 1);
    }

    #[test]
    fn request_keys_distinguish_all_components() {
        let a = request(64);
        let mut b = a.clone();
        b.threads = 128;
        b.buffers = seed_buffers(&b.program, 128);
        let mut c = a.clone();
        c.config = IhwConfig::precise();
        let mut d = a.clone();
        d.buffers[0][0] += 0.125;
        let e = LaunchRequest {
            program: programs::distance(),
            buffers: seed_buffers(&programs::distance(), 64),
            ..a.clone()
        };
        let keys = [
            request_key(&a),
            request_key(&b),
            request_key(&c),
            request_key(&d),
            request_key(&e),
        ];
        for (i, x) in keys.iter().enumerate() {
            for y in keys.iter().skip(i + 1) {
                assert_ne!(x, y);
            }
        }
        // Label is metadata, not identity.
        let mut f = a.clone();
        f.config_label = "renamed".to_string();
        assert_eq!(request_key(&a), request_key(&f));
    }
}
