//! Sweep/execution engine for the repro harness.
//!
//! Every experiment in this crate is, at heart, a *sweep*: a list of
//! independent (benchmark × configuration × scale) evaluations whose
//! results are assembled into a table in a fixed order. This module
//! gives the harness three things:
//!
//! 1. **A sweep** ([`sweep`]) — maps a job over a list of inputs on up
//!    to [`set_jobs`] scoped threads and returns the results **in input
//!    order**, so a parallel sweep renders byte-identically to the
//!    serial one. A sweep issued from inside another sweep's job runs
//!    serially on that job's thread.
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
//! synthetic-input generator), each job's result lands in the slot of
//! its input's index, and tables are built from the ordered result
//! vector. Therefore `--jobs N` produces byte-identical tables and CSVs
//! for every `N`; `tests/runner_determinism.rs` locks this in.
//!
//! [`IhwConfig`]: ihw_core::config::IhwConfig

pub mod cache;
pub mod report;

use std::cell::Cell;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Worker-thread budget shared by every [`sweep`] in the process.
/// Default 1 (serial); the `repro` binary sets it from `--jobs`.
static JOBS: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    /// Set on sweep workers, so a sweep issued from inside a job runs
    /// serially on that job's thread: nested sweeps can neither
    /// oversubscribe the budget nor wait on each other.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Sets the worker-thread budget for subsequent [`sweep`]s (min 1).
pub fn set_jobs(n: usize) {
    JOBS.store(n.max(1), Ordering::SeqCst);
}

/// The budget of a sweep issued from this thread: 1 inside a job.
fn budget() -> usize {
    if IN_JOB.get() {
        1
    } else {
        JOBS.load(Ordering::SeqCst)
    }
}

/// Runs `f` over every item and returns the results in input order.
///
/// With a budget of 1, at most one item, or when called from inside
/// another sweep's job, this is a plain serial map on the calling
/// thread. Otherwise the items are split into `min(jobs, items)`
/// contiguous chunks, each mapped on its own scoped thread, and the
/// caller only waits for them.
///
/// # Panics
///
/// Re-raises the panic of the lowest-indexed failing job, with its
/// original payload, once every worker has stopped.
pub fn sweep<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let n = items.len();
    let workers = budget().min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Contiguous chunks rather than one-item claims: with one-item
    // claims, `repro --jobs 2 --paper fig8 fig9 fig21 tolerance` started
    // fig21, its costliest job, only after fig8 and ran 0.6 s slower.
    let chunk_len = n.div_ceil(workers);
    let mut items = items.into_iter();
    let f = &f;
    thread::scope(|s| {
        let handles: Vec<_> = (0..n.div_ceil(chunk_len))
            .map(|_| {
                let chunk: Vec<I> = items.by_ref().take(chunk_len).collect();
                s.spawn(move || {
                    IN_JOB.set(true);
                    chunk.into_iter().map(f).collect::<Vec<T>>()
                })
            })
            .collect();
        // Join every worker before re-raising. A chunk stops at its first
        // panic and the chunks are in index order, so the first failed
        // join holds the lowest-indexed failing job's payload.
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        joined
            .into_iter()
            .flat_map(|chunk| chunk.unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;
    use std::sync::{mpsc, Mutex, MutexGuard};
    use std::thread::ThreadId;
    use std::time::Duration;

    /// The jobs budget is process-global; tests that set it hold this
    /// lock so the parallel test harness cannot interleave them.
    fn jobs_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn current() -> ThreadId {
        thread::current().id()
    }

    #[test]
    fn output_order_matches_the_serial_map() {
        let _guard = jobs_lock();
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 8] {
            set_jobs(jobs);
            assert_eq!(sweep(items.clone(), |x| x * x), expect, "jobs {jobs}");
        }
        set_jobs(1);
    }

    #[test]
    fn zero_and_one_item_sweeps_run_on_the_caller() {
        let _guard = jobs_lock();
        set_jobs(8);
        let empty = sweep(Vec::<u32>::new(), |_| current());
        let single = sweep(vec![21u32], |_| current());
        set_jobs(1);
        assert!(empty.is_empty());
        assert_eq!(single, vec![current()]);
    }

    #[test]
    fn a_sweep_inside_a_parallel_job_runs_on_that_jobs_thread() {
        let _guard = jobs_lock();
        set_jobs(8);
        let outer = sweep(vec![0u32; 4], |_| {
            let job = current();
            let inner = sweep(vec![0u32; 16], |_| current());
            (job, inner)
        });
        set_jobs(1);
        assert!(outer.iter().all(|(_, inner)| inner.len() == 16));
        for (job, inner) in outer {
            assert!(inner.iter().all(|&id| id == job));
        }
    }

    #[test]
    fn a_sweep_inside_a_serial_outer_sweep_still_spreads() {
        let _guard = jobs_lock();
        set_jobs(2);
        // Job 0 waits for job 1 to start: on one thread it times out,
        // on two the other worker runs job 1 meanwhile.
        let (tx, rx) = mpsc::channel();
        let rx = Mutex::new(rx);
        let ids = sweep(vec![()], |()| {
            sweep(vec![0u32, 1], |i| {
                if i == 0 {
                    let _ = rx.lock().unwrap().recv_timeout(Duration::from_secs(5));
                } else {
                    tx.send(()).unwrap();
                }
                current()
            })
        });
        set_jobs(1);
        assert_ne!(ids[0][0], ids[0][1], "the inner sweep ran on one thread");
    }

    #[test]
    fn a_panicking_job_re_raises_its_own_payload() {
        let _guard = jobs_lock();
        set_jobs(4);
        let caught = catch_unwind(|| {
            sweep((0..32).collect::<Vec<u64>>(), |x| {
                if x == 9 || x == 20 {
                    panic!("boom at {x}");
                }
                x
            })
        });
        let payload = caught.expect_err("the job's panic reaches the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "boom at 9", "the lowest-indexed payload is re-raised");
        let again = sweep((0..16).collect::<Vec<u64>>(), |x| x * 3);
        set_jobs(1);
        assert_eq!(again, (0..16).map(|x| x * 3).collect::<Vec<u64>>());
    }

    #[test]
    fn jobs_floor_is_one() {
        let _guard = jobs_lock();
        set_jobs(0);
        assert_eq!(budget(), 1);
        set_jobs(1);
    }
}
