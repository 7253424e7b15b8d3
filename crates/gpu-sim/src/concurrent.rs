//! Concurrent launch surface: a [`SharedInterpreter`] that many
//! tenants (threads) can drive at once.
//!
//! The [`crate::isa::WarpInterpreter`] is deliberately `&mut self` —
//! one launch at a time owns the counters, the plan cache and the
//! datapath config. A multi-tenant front door (`ihw_bench::serve`) needs
//! the *opposite* shape: many request threads, one long-lived
//! interpreter whose plan cache stays warm across requests with
//! *different* configs. `SharedInterpreter` provides that by
//! serializing launches behind a mutex while keeping everything
//! launch-scoped explicit:
//!
//! * the datapath config travels **with the request** — each launch
//!   names its own [`IhwConfig`], and the interpreter is re-pointed via
//!   [`crate::isa::WarpInterpreter::set_config`] only when it differs
//!   from the previous launch's (the plan cache is keyed on
//!   `(program, config)`, so config switches stay warm);
//! * counters are reset per launch, so each launch's energy counters
//!   describe exactly one request;
//! * a panicking launch is contained: the panic is caught, the
//!   interpreter is rebuilt to a consistent state, and the caller gets
//!   [`LaunchError::Panicked`] — one faulting request never takes a
//!   sibling tenant (or the process) down. Mutex poisoning from such a
//!   panic is recovered for the same reason.
//!
//! Determinism carries over unchanged: launches are serialized, each
//! starts from a per-launch-reset context, and each launch is one
//! sequential call on the engine — so any interleaving of requests
//! produces byte-identical per-request outputs to running them
//! sequentially (asserted by `ihw-bench`'s serve concurrency tests).

use crate::isa::{ExecError, Program, WarpInterpreter};
use crate::plan::PlanCacheStats;
use ihw_core::config::IhwConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Why a concurrent launch failed, per request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// The kernel reported a memory fault (unknown buffer or
    /// out-of-bounds access); the returned buffers may be partially
    /// written, identically so on either engine.
    Exec(ExecError),
    /// The launch panicked inside the engine; the payload is rendered
    /// to text. The interpreter was rebuilt afterwards, so subsequent
    /// launches (and concurrent tenants) are unaffected.
    Panicked(String),
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::Exec(e) => write!(f, "{e}"),
            LaunchError::Panicked(msg) => write!(f, "launch panicked: {msg}"),
        }
    }
}

/// Everything one concurrent launch produces: the (possibly partially
/// written) buffers and the per-request outcome.
#[derive(Debug, Clone)]
pub struct LaunchOutcome {
    /// The global buffers after the launch, in input order.
    pub buffers: Vec<Vec<f32>>,
    /// `Ok` for a clean launch, or the per-request failure.
    pub result: Result<(), LaunchError>,
}

/// A thread-safe, long-lived interpreter for multi-tenant launching.
///
/// See the [module docs](self) for the contract. Construction mirrors
/// [`WarpInterpreter::new`]; the config given here is only the initial
/// one — every [`SharedInterpreter::launch`] names its own.
#[derive(Debug)]
pub struct SharedInterpreter {
    inner: Mutex<WarpInterpreter>,
}

/// A panicking launch cannot corrupt the interpreter (it is rebuilt
/// before the lock is released), so recover the guard instead of
/// propagating a stranger's panic to an unrelated tenant.
fn recover<'a>(
    r: Result<MutexGuard<'a, WarpInterpreter>, PoisonError<MutexGuard<'a, WarpInterpreter>>>,
) -> MutexGuard<'a, WarpInterpreter> {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl SharedInterpreter {
    /// Wraps a fresh [`WarpInterpreter::new`] over `cfg`.
    pub fn new(cfg: IhwConfig) -> Self {
        SharedInterpreter {
            inner: Mutex::new(WarpInterpreter::new(cfg)),
        }
    }

    /// Runs `f` with exclusive access to the underlying interpreter —
    /// for configuration (engine, plan-cache capacity) and
    /// diagnostics, not for launching (use
    /// [`SharedInterpreter::launch`], which owns the per-request
    /// reset/containment discipline).
    pub fn with<R>(&self, f: impl FnOnce(&mut WarpInterpreter) -> R) -> R {
        f(&mut recover(self.inner.lock()))
    }

    /// Snapshot of the shared plan cache's hit/miss/eviction counters.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        recover(self.inner.lock()).plan_cache_stats()
    }

    /// Runs `threads` threads of `prog` under `cfg` over `buffers`,
    /// returning the written buffers and the per-request result. Safe to
    /// call from any number of threads; launches serialize on the
    /// interpreter, and each one observes a freshly reset context.
    pub fn launch(
        &self,
        prog: &Program,
        cfg: &IhwConfig,
        threads: u32,
        mut buffers: Vec<Vec<f32>>,
    ) -> LaunchOutcome {
        let mut sim = recover(self.inner.lock());
        if sim.config() == cfg {
            sim.reset_counters();
        } else {
            sim.set_config(*cfg);
        }
        let run = catch_unwind(AssertUnwindSafe(|| sim.launch(prog, threads, &mut buffers)));
        match run {
            Ok(result) => LaunchOutcome {
                buffers,
                result: result.map_err(LaunchError::Exec),
            },
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".to_owned());
                // Rebuild the context so the next tenant starts clean;
                // the plan cache is exception-safe and stays.
                sim.set_config(*cfg);
                LaunchOutcome {
                    buffers,
                    result: Err(LaunchError::Panicked(msg)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;
    use std::sync::Arc;

    fn seed(prog: &Program, threads: u32) -> Vec<Vec<f32>> {
        let fps = crate::deps::footprints(prog);
        let n_bufs = fps.keys().max().map_or(0, |b| b + 1);
        (0..n_bufs)
            .map(|b| {
                let len = fps.get(&b).map_or(0, |fp| fp.required_len(threads));
                (0..len)
                    .map(|i| 0.5 + ((i * 37 + b * 11) % 512) as f32 / 1024.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn per_request_configs_share_one_plan_cache() {
        let sim = SharedInterpreter::new(IhwConfig::precise());
        let prog = programs::saxpy(2.0);
        let bufs = seed(&prog, 64);
        let precise = sim.launch(&prog, &IhwConfig::precise(), 64, bufs.clone());
        let imprecise = sim.launch(&prog, &IhwConfig::all_imprecise(), 64, bufs.clone());
        assert!(precise.result.is_ok() && imprecise.result.is_ok());
        assert_ne!(
            precise.buffers, imprecise.buffers,
            "configs actually differ"
        );
        // Re-launching either config is a plan-cache hit, not a rebuild.
        let before = sim.plan_cache_stats();
        let precise2 = sim.launch(&prog, &IhwConfig::precise(), 64, bufs);
        assert_eq!(precise.buffers, precise2.buffers, "bit-identical replay");
        let after = sim.plan_cache_stats();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.misses, before.misses);
    }

    #[test]
    fn interleaved_tenants_match_sequential_execution() {
        let prog = programs::distance();
        let threads = 128u32;
        let configs = [
            IhwConfig::precise(),
            IhwConfig::all_imprecise(),
            IhwConfig::ray_basic(),
        ];
        // Sequential reference: one interpreter, one launch at a time.
        let reference: Vec<Vec<Vec<f32>>> = configs
            .iter()
            .map(|cfg| {
                let sim = SharedInterpreter::new(*cfg);
                sim.launch(&prog, cfg, threads, seed(&prog, threads))
                    .buffers
            })
            .collect();
        // Concurrent: three tenants hammer one shared interpreter.
        let sim = Arc::new(SharedInterpreter::new(IhwConfig::precise()));
        let handles: Vec<_> = configs
            .iter()
            .map(|cfg| {
                let sim = Arc::clone(&sim);
                let prog = prog.clone();
                let cfg = *cfg;
                std::thread::spawn(move || {
                    (0..4)
                        .map(|_| {
                            sim.launch(&prog, &cfg, threads, seed(&prog, threads))
                                .buffers
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for (tenant, handle) in handles.into_iter().enumerate() {
            for got in handle.join().expect("tenant thread") {
                assert_eq!(
                    got, reference[tenant],
                    "tenant {tenant} interleaved output equals sequential"
                );
            }
        }
    }

    #[test]
    fn exec_errors_stay_per_request() {
        let sim = SharedInterpreter::new(IhwConfig::precise());
        let prog = programs::saxpy(2.0);
        // Too-short buffers fault...
        let short: Vec<Vec<f32>> = seed(&prog, 64)
            .into_iter()
            .map(|b| b[..4].to_vec())
            .collect();
        let bad = sim.launch(&prog, &IhwConfig::precise(), 64, short);
        assert!(matches!(bad.result, Err(LaunchError::Exec(_))));
        // ...and the very next request on the same interpreter is clean.
        let good = sim.launch(&prog, &IhwConfig::precise(), 64, seed(&prog, 64));
        assert!(good.result.is_ok());
    }
}
