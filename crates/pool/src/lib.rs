//! # ihw-pool — persistent worker-pool sweep engine
//!
//! The workspace's one implementation of "run N independent jobs on
//! worker threads and return the results in input order". Its one user
//! is the repro harness (`ihw-bench::runner`): every experiment sweep
//! is a list of independent (benchmark × configuration × scale)
//! evaluations assembled into a table in a fixed order. A kernel launch
//! runs its threads sequentially and never enters the pool.
//!
//! # Persistent workers
//!
//! Worker threads are spawned lazily on first demand and then **parked
//! between sweeps** on a condition variable, so a sweep pays a queue
//! handoff rather than N `thread::spawn`s.
//!
//! Each sweep submits one *batch*: its items pre-chunked into
//! contiguous index ranges, each chunk a single queue entry that writes
//! into its own pre-sized result slot. Workers claim whole chunks (not
//! items), and the **calling thread helps drain its own batch** before
//! collecting results — so a sweep issued from inside another sweep's
//! job (the repro harness nests them) always makes progress even when
//! every pool worker is busy elsewhere.
//!
//! # Determinism guarantee
//!
//! Jobs must be pure functions of their input. Chunks report into
//! index-addressed slots, so the returned vector is in input order
//! regardless of execution interleaving — a parallel sweep renders
//! byte-identically to the serial one at any worker count. With a
//! budget of 1 (or zero/one items) [`sweep_with`] degenerates to a
//! plain serial map that never touches the pool: the reference
//! execution the parallel path must match byte-for-byte.
//!
//! # Panic policy & per-sweep fault isolation
//!
//! A panicking job never takes the pool down: each chunk runs under
//! `catch_unwind`, every chunk of the batch still completes and reports
//! its slot, and the *first* panic payload (lowest chunk index) is
//! re-raised on the calling thread only after the whole batch has
//! drained — no deadlock, no lost sibling results, no poisoned queue.
//!
//! Multiple submitters may sweep concurrently (each batch is private;
//! the pool's workers drain batches in FIFO order), and a fault stays
//! confined to the sweep that raised it: even a chunk that is *lost*
//! outright — its worker died between claiming the job and reporting —
//! panics that sweep's caller with a lost-chunk message instead of
//! blocking forever. Worker threads additionally run every job under
//! their own `catch_unwind`, so a pathological panic that escapes the
//! chunk wrapper (e.g. a panicking `Drop` in a job's captures) kills
//! neither the persistent worker nor any sibling submitter's sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// One independent job of a sweep: an input item tagged with the output
/// slot it fills, so workers can execute points in any order while the
/// sweep's result vector stays in input order.
#[derive(Debug)]
pub struct SweepPoint<I> {
    /// Position in the sweep (and in the result vector).
    pub index: usize,
    /// The sweep input (benchmark, config, truncation level, seed, …).
    pub input: I,
}

/// Worker-thread budget shared by every [`sweep`] in the process.
///
/// Default 1 (serial). The `repro` binary sets it from `--jobs`/the
/// available parallelism; tests flip it to prove determinism. Callers
/// that need an explicit, caller-owned budget use [`sweep_with`]
/// instead and never touch this global.
static JOBS: AtomicUsize = AtomicUsize::new(1);

/// Sets the worker-thread budget for subsequent [`sweep`]s (min 1).
pub fn set_jobs(n: usize) {
    JOBS.store(n.max(1), Ordering::SeqCst);
}

/// The current worker-thread budget.
pub fn jobs() -> usize {
    JOBS.load(Ordering::SeqCst)
}

/// A queued unit of work: one chunk of one sweep.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// One sweep's private chunk queue. Shared between the pool (workers
/// steal chunks) and the submitting thread (which helps drain it).
struct Batch {
    chunks: Mutex<VecDeque<Job>>,
}

impl Batch {
    fn pop(&self) -> Option<Job> {
        recover(self.chunks.lock()).pop_front()
    }
}

/// Pool bookkeeping behind one mutex: the queue of live batches and
/// how many workers have been spawned so far.
struct PoolState {
    batches: VecDeque<Arc<Batch>>,
    spawned: usize,
}

/// The process-wide persistent worker pool.
///
/// Obtained via [`persistent`]; [`sweep_with`] submits batches to it
/// automatically — the handle only exposes diagnostics.
pub struct PersistentPool {
    state: Mutex<PoolState>,
    work_ready: Condvar,
}

/// Mutex poisoning cannot corrupt the pool (jobs run outside the
/// locks, under `catch_unwind`), so recover the guard instead of
/// propagating a stranger's panic.
fn recover<'a, T>(
    r: Result<MutexGuard<'a, T>, std::sync::PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The shared persistent pool (created empty; workers spawn on first
/// parallel sweep).
pub fn persistent() -> &'static PersistentPool {
    static POOL: OnceLock<PersistentPool> = OnceLock::new();
    POOL.get_or_init(|| PersistentPool {
        state: Mutex::new(PoolState {
            batches: VecDeque::new(),
            spawned: 0,
        }),
        work_ready: Condvar::new(),
    })
}

impl PersistentPool {
    /// Number of worker threads spawned so far (they persist for the
    /// process lifetime; diagnostics and tests only).
    pub fn spawned_workers(&self) -> usize {
        recover(self.state.lock()).spawned
    }

    /// Enqueues a batch and makes sure at least `helpers` pool workers
    /// exist to drain it alongside the submitting thread.
    fn submit(&'static self, batch: &Arc<Batch>, helpers: usize) {
        let mut st = recover(self.state.lock());
        st.batches.push_back(Arc::clone(batch));
        while st.spawned < helpers {
            let id = st.spawned;
            st.spawned += 1;
            std::thread::Builder::new()
                .name(format!("ihw-pool-{id}"))
                .spawn(move || self.worker_loop())
                .expect("spawn pool worker");
        }
        drop(st);
        self.work_ready.notify_all();
    }

    /// Worker body: park until a batch has chunks, claim one, run it.
    fn worker_loop(&'static self) {
        loop {
            let job = {
                let mut st = recover(self.state.lock());
                loop {
                    if let Some(job) = claim_chunk(&mut st) {
                        break job;
                    }
                    st = recover(self.work_ready.wait(st));
                }
            };
            // Chunks are panic-proof (the sweep wraps each in
            // `catch_unwind` and reports through its result channel),
            // but a pathological payload can still unwind on the way
            // out — e.g. a panicking `Drop` in the job's captures. A
            // second guard here keeps the persistent worker alive; the
            // affected sweep sees a lost chunk, not a dead pool.
            let _ = catch_unwind(AssertUnwindSafe(job));
        }
    }
}

/// Claims one chunk from the front-most non-empty batch, retiring
/// batches the submitter has already drained. Lock order: pool state,
/// then batch queue (the helping submitter takes only the latter).
fn claim_chunk(st: &mut PoolState) -> Option<Job> {
    while let Some(batch) = st.batches.front() {
        let mut chunks = recover(batch.chunks.lock());
        if let Some(job) = chunks.pop_front() {
            let drained = chunks.is_empty();
            drop(chunks);
            if drained {
                st.batches.pop_front();
            }
            return Some(job);
        }
        drop(chunks);
        st.batches.pop_front();
    }
    None
}

/// Runs `f` over every item on the shared worker pool (budget set by
/// [`set_jobs`]), returning the results in input order.
///
/// # Panics
///
/// Re-raises the first job panic after the whole sweep has drained.
pub fn sweep<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send + 'static,
    T: Send + 'static,
    F: Fn(I) -> T + Send + Sync + 'static,
{
    sweep_with(jobs(), items, f)
}

/// Runs `f` over every item with an explicit worker budget, returning
/// the results in input order. `workers <= 1` (or zero/one items) is a
/// plain serial map that never touches the pool.
///
/// The items are pre-chunked into `workers` contiguous index ranges;
/// each chunk is one queue entry reporting into its own slot, and the
/// calling thread drains its own batch alongside the persistent
/// workers (it is always one of the `workers` hands).
///
/// # Panics
///
/// Re-raises the first job panic (lowest chunk index) after the whole
/// sweep has drained; sibling chunks still complete and the pool stays
/// usable. A chunk lost without reporting panics with a lost-chunk
/// message.
pub fn sweep_with<I, T, F>(workers: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send + 'static,
    T: Send + 'static,
    F: Fn(I) -> T + Send + Sync + 'static,
{
    let n = items.len();
    let workers = workers.min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    let chunk_len = n.div_ceil(workers);
    let f = Arc::new(f);
    let (tx, rx) = mpsc::channel::<(usize, std::thread::Result<Vec<T>>)>();

    let mut chunks: VecDeque<Job> = VecDeque::with_capacity(workers);
    let mut items = items.into_iter();
    let mut n_chunks = 0usize;
    loop {
        let chunk: Vec<I> = items.by_ref().take(chunk_len).collect();
        if chunk.is_empty() {
            break;
        }
        let run = Arc::clone(&f);
        let report = tx.clone();
        let index = n_chunks;
        n_chunks += 1;
        chunks.push_back(Box::new(move || {
            let out = catch_unwind(AssertUnwindSafe(|| {
                chunk.into_iter().map(|item| run(item)).collect::<Vec<T>>()
            }));
            // Release the shared closure handle *before* reporting, so
            // once the caller has collected every chunk the closure
            // (and everything it captured) is provably dropped.
            drop(run);
            let _ = report.send((index, out));
        }));
    }
    drop(tx);

    let batch = Arc::new(Batch {
        chunks: Mutex::new(chunks),
    });
    persistent().submit(&batch, n_chunks.saturating_sub(1));

    // Help-first: drain our own batch so nested sweeps cannot starve
    // even if every pool worker is stuck in some other batch. The same
    // guard the workers use keeps a pathological unwind (panicking
    // `Drop` in a job's captures) from escaping past the collection
    // below — the chunk would surface as lost, not as a double fault.
    while let Some(job) = batch.pop() {
        let _ = catch_unwind(AssertUnwindSafe(job));
    }

    let slots = collect_chunks(&rx, n_chunks);
    drop(f);

    let mut results = Vec::with_capacity(n);
    for (chunk, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(Ok(out)) => results.extend(out),
            Some(Err(payload)) => resume_unwind(payload),
            None => panic!("chunk {chunk} was lost: its worker died before reporting"),
        }
    }
    results
}

/// Collects up to `n_chunks` chunk reports into index-addressed slots.
///
/// Every chunk job owns a clone of the report sender and drops it after
/// (or instead of) sending, so a disconnected channel proves no further
/// report can ever arrive: a slot still `None` at that point is a *lost*
/// chunk — its worker died between claiming the job and reporting —
/// which [`sweep_with`] reports instead of blocking on `recv()`.
fn collect_chunks<T>(
    rx: &mpsc::Receiver<(usize, std::thread::Result<Vec<T>>)>,
    n_chunks: usize,
) -> Vec<Option<std::thread::Result<Vec<T>>>> {
    let mut slots: Vec<Option<std::thread::Result<Vec<T>>>> = Vec::with_capacity(n_chunks);
    slots.resize_with(n_chunks, || None);
    for _ in 0..n_chunks {
        match rx.recv() {
            Ok((index, out)) => slots[index] = Some(out),
            Err(_) => break,
        }
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The jobs budget is process-global; tests that mutate it hold this
    /// lock so the parallel test harness can't interleave them.
    fn jobs_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn serial_and_parallel_order_match() {
        let _guard = jobs_lock();
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        set_jobs(1);
        let serial = sweep(items.clone(), |x| x * x);
        set_jobs(8);
        let parallel = sweep(items, |x| x * x);
        set_jobs(1);
        assert_eq!(serial, expect);
        assert_eq!(parallel, expect);
    }

    #[test]
    fn explicit_budget_ignores_the_global() {
        let _guard = jobs_lock();
        set_jobs(1);
        let items: Vec<u64> = (0..33).collect();
        let expect: Vec<u64> = items.iter().map(|x| x + 1).collect();
        assert_eq!(sweep_with(4, items, |x| x + 1), expect);
    }

    #[test]
    fn zero_and_single_item_sweeps_stay_serial() {
        let _guard = jobs_lock();
        set_jobs(8);
        let before = persistent().spawned_workers();
        let empty: Vec<u32> = sweep(Vec::<u32>::new(), |x| x);
        let single = sweep(vec![21u32], |x| x * 2);
        set_jobs(1);
        assert!(empty.is_empty());
        assert_eq!(single, vec![42]);
        // Degenerate sweeps never touch the pool.
        assert_eq!(persistent().spawned_workers(), before);
    }

    #[test]
    fn workers_persist_between_sweeps() {
        let _guard = jobs_lock();
        let items: Vec<u64> = (0..64).collect();
        let expect: Vec<u64> = items.iter().map(|x| x + 7).collect();
        assert_eq!(sweep_with(4, items.clone(), |x| x + 7), expect);
        let after_first = persistent().spawned_workers();
        assert!(after_first >= 1, "parallel sweep spawns helpers");
        for _ in 0..16 {
            assert_eq!(sweep_with(4, items.clone(), |x| x + 7), expect);
        }
        // Re-sweeping at the same budget reuses the parked workers.
        assert_eq!(persistent().spawned_workers(), after_first);
    }

    #[test]
    fn nested_sweeps_do_not_deadlock() {
        let _guard = jobs_lock();
        let outer: Vec<u64> = (0..8).collect();
        let got = sweep_with(4, outer, |o| {
            let inner: Vec<u64> = (0..5).collect();
            sweep_with(4, inner, move |i| o * 10 + i)
                .iter()
                .sum::<u64>()
        });
        let expect: Vec<u64> = (0..8).map(|o| (0..5).map(|i| o * 10 + i).sum()).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn panicking_job_neither_deadlocks_nor_loses_siblings() {
        use std::sync::atomic::AtomicU64;
        let _guard = jobs_lock();
        static COMPLETED: AtomicU64 = AtomicU64::new(0);
        COMPLETED.store(0, Ordering::SeqCst);
        let items: Vec<u64> = (0..32).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            sweep_with(4, items, |x| {
                if x == 9 {
                    panic!("boom at {x}");
                }
                COMPLETED.fetch_add(1, Ordering::SeqCst);
                x
            })
        }));
        let payload = caught.expect_err("panic propagates to the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "boom at 9", "first panic payload is re-raised");
        // Every sibling chunk still ran to completion: only the items
        // after the panic *within the panicking chunk* are skipped.
        // 32 items / 4 workers = chunks of 8; item 9 is the second item
        // of chunk 1, so that chunk completes exactly 1 item.
        assert_eq!(COMPLETED.load(Ordering::SeqCst), 3 * 8 + 1);
        // And the pool is still usable afterwards.
        let again: Vec<u64> = sweep_with(4, (0..16).collect(), |x| x * 3);
        assert_eq!(again, (0..16).map(|x| x * 3).collect::<Vec<u64>>());
    }

    #[test]
    fn faulting_submitter_leaves_concurrent_sweep_intact() {
        let _guard = jobs_lock();
        // Submitter A keeps throwing faulting sweeps at the pool while
        // submitter B's healthy sweeps run concurrently: B must see
        // byte-identical results and A must see only its own panics.
        let faulty = std::thread::spawn(|| {
            let mut panics = 0usize;
            for _ in 0..8 {
                let res = catch_unwind(|| {
                    sweep_with(4, (0..32).collect::<Vec<u64>>(), |x| {
                        if x % 5 == 0 {
                            panic!("tenant-a fault at {x}");
                        }
                        x
                    })
                });
                if res.is_err() {
                    panics += 1;
                }
            }
            panics
        });
        let expect: Vec<u64> = (0..64).map(|x| x * x).collect();
        for _ in 0..8 {
            let got = sweep_with(4, (0..64).collect::<Vec<u64>>(), |x| x * x);
            assert_eq!(got, expect);
        }
        let panics = faulty
            .join()
            .expect("faulting submitter catches its panics");
        assert_eq!(panics, 8, "every faulting sweep raised its own panic");
        // The pool survives the whole episode.
        let again: Vec<u64> = sweep_with(4, (0..16).collect(), |x| x + 1);
        assert_eq!(again, (0..16).map(|x| x + 1).collect::<Vec<u64>>());
    }

    #[test]
    fn lost_chunk_is_reported_not_fatal() {
        // Drive the collection loop directly: chunk 1's sender is
        // dropped without reporting (a worker that died mid-job), which
        // must surface as a lost slot, not a process abort.
        let (tx, rx) = mpsc::channel::<(usize, std::thread::Result<Vec<u64>>)>();
        let orphan = tx.clone();
        tx.send((0, Ok(vec![1, 2]))).unwrap();
        tx.send((2, Ok(vec![5, 6]))).unwrap();
        drop(tx);
        drop(orphan);
        let slots = collect_chunks(&rx, 3);
        assert!(slots[0].is_some() && slots[2].is_some());
        assert!(slots[1].is_none(), "unreported chunk stays empty");
    }

    #[test]
    fn jobs_floor_is_one() {
        let _guard = jobs_lock();
        set_jobs(0);
        assert_eq!(jobs(), 1);
        set_jobs(1);
    }
}
