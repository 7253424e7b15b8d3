//! Parallel sweep/execution engine for the repro harness.
//!
//! Every experiment in this crate is, at heart, a *sweep*: a list of
//! independent (benchmark × configuration × scale) evaluations whose
//! results are assembled into a table in a fixed order. This module
//! gives the harness three things:
//!
//! 1. **A worker pool** ([`sweep`]) — each sweep is expressed as a list
//!    of independent [`SweepPoint`] jobs executed on a worker pool.
//!    Results are returned **in input order**, so a parallel sweep
//!    renders byte-identically to the serial one. The
//!    pool itself lives in the `ihw-pool` crate (re-exported here
//!    unchanged).
//! 2. **A memoizing run cache** ([`cache`]) — workload executions are
//!    keyed by a stable hash of (benchmark, params, [`IhwConfig`]) so
//!    shared baselines (e.g. the precise HotSpot run that fig15, fig19,
//!    table5 and the sensitivity extension all need) are computed
//!    exactly once per process.
//! 3. **A timing report** ([`report`]) — per-experiment wall-clock and
//!    cache hit/miss counters, renderable as a table or machine-readable
//!    JSON for tracking the perf trajectory across PRs.
//!
//! # Determinism guarantee
//!
//! Workloads thread no state between sweep points (`run_with_config` is
//! a pure function of its params + config — each run seeds its own
//! synthetic-input generator), the pool writes each job's result into
//! its own slot, and tables are built from the ordered result vector.
//! Therefore `--jobs N` produces byte-identical tables and CSVs for
//! every `N`; `tests/runner_determinism.rs` locks this in.
//!
//! [`IhwConfig`]: ihw_core::config::IhwConfig

pub mod cache;
pub mod report;

pub use ihw_pool::{jobs, set_jobs, sweep, sweep_with, SweepPoint};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reexport_is_live() {
        // The engine moved to `ihw-pool`; the runner facade must keep
        // exposing it unchanged (experiments and the repro binary call
        // `runner::sweep`/`runner::set_jobs`).
        let out = sweep_with(2, vec![1u32, 2, 3], |x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
        assert!(jobs() >= 1);
    }
}
