//! Concurrent launch surface: a [`SharedInterpreter`] that many
//! tenants (threads) can drive at once.
//!
//! A compiled launch is one pure call on an immutable plan,
//! [`crate::plan::CompiledKernel`]: it writes only the caller's buffers
//! and a register file. So the one thing tenants share is the plan
//! cache, which stays warm across requests with *different* configs.
//! `SharedInterpreter` keeps that cache in a [`WarpInterpreter`] behind
//! a mutex, and a launch holds the mutex only to look up its
//! `(program, config)` plan (compiling it there on a miss):
//!
//! * the datapath config travels **with the request** — each launch
//!   names its own [`IhwConfig`], and the plan cache is keyed on
//!   `(program, config)`, so config switches stay warm;
//! * the plan runs outside the lock, on a register file taken from a
//!   spare list and returned afterwards, so tenants' launches execute
//!   concurrently and a warm launch allocates nothing;
//! * a shared launch credits no op counters — none of its callers read
//!   them; [`WarpInterpreter::launch`] runs the same plan call and
//!   credits them;
//! * a panicking launch is contained: the panic is caught and the
//!   caller gets [`LaunchError::Panicked`], so one faulting request
//!   never takes a sibling tenant (or the process) down. It leaves
//!   nothing shared half-updated: the plan cache is exception-safe, and
//!   the launch's register file is dropped, not returned. A panic
//!   during a compile poisons the plan lock, which is recovered for the
//!   same reason.
//!
//! Determinism carries over unchanged: each launch is one sequential
//! run of an immutable plan over its own buffers and register file, so
//! any interleaving of requests produces byte-identical per-request
//! outputs to running them sequentially (asserted by `ihw-bench`'s
//! serve concurrency tests).

use crate::compile::RegFile;
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
    /// to text. Subsequent launches (and concurrent tenants) are
    /// unaffected.
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

/// A thread-safe, long-lived plan cache for multi-tenant launching.
///
/// See the [module docs](self) for the contract. The config given to
/// [`SharedInterpreter::new`] is only the wrapped interpreter's
/// initial one — every [`SharedInterpreter::launch`] names its own.
#[derive(Debug)]
pub struct SharedInterpreter {
    inner: Mutex<WarpInterpreter>,
    /// Register files of finished launches, kept for the next ones: at
    /// most as many as launches ever ran at once.
    spare: Mutex<Vec<RegFile>>,
}

/// Every critical section here leaves its data consistent even when it
/// panics (a compile panics before it inserts), so recover the guard
/// instead of propagating a stranger's panic to an unrelated tenant.
fn recover<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl SharedInterpreter {
    /// Wraps a fresh [`WarpInterpreter::new`] over `cfg`.
    pub fn new(cfg: IhwConfig) -> Self {
        SharedInterpreter {
            inner: Mutex::new(WarpInterpreter::new(cfg)),
            spare: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` with exclusive access to the wrapped interpreter, for
    /// the plan cache's capacity and for diagnostics. Its engine,
    /// config and counters play no part in
    /// [`SharedInterpreter::launch`].
    pub fn with<R>(&self, f: impl FnOnce(&mut WarpInterpreter) -> R) -> R {
        f(&mut recover(self.inner.lock()))
    }

    /// Snapshot of the shared plan cache's hit/miss/eviction counters.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        recover(self.inner.lock()).plan_cache_stats()
    }

    /// Runs `threads` threads of `prog` under `cfg` over `buffers` on
    /// the compiled engine, returning the written buffers and the
    /// per-request result. Safe to call from any number of threads: the
    /// lock is held only for the plan lookup, and the plan runs
    /// outside it.
    pub fn launch(
        &self,
        prog: &Program,
        cfg: &IhwConfig,
        threads: u32,
        mut buffers: Vec<Vec<f32>>,
    ) -> LaunchOutcome {
        let run = catch_unwind(AssertUnwindSafe(|| {
            let plan = recover(self.inner.lock()).plan(prog, cfg);
            let mut rf = recover(self.spare.lock()).pop().unwrap_or_default();
            let fault = plan.run(&mut rf, &mut buffers, threads);
            recover(self.spare.lock()).push(rf);
            fault
        }));
        let result = match run {
            Ok(None) => Ok(()),
            Ok(Some(fault)) => Err(LaunchError::Exec(fault.err)),
            Err(payload) => Err(LaunchError::Panicked(
                payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".to_owned()),
            )),
        };
        LaunchOutcome { buffers, result }
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
