//! Allocation guard for the compiled engine's warm launch.
//!
//! Once a `WarpInterpreter` has compiled the plan of a `(program,
//! config)` pair and sized its register file, a further launch of that
//! pair must not touch the heap: the fingerprint is read, not
//! recomputed, the plan is a cache hit, and the register file is the
//! interpreter's own. The same holds for `SharedInterpreter::launch`,
//! whose register file comes from its spare list and goes back there.
//! A counting global allocator checks both over every stock kernel ×
//! stock config with tracing off. It counts only on the thread that
//! asked for it, so tests running in parallel threads of this binary
//! cannot leak into the count.

use ihw_bench::racebench::seed_buffers;
use imprecise_gpgpu::analyze::{stock_configs, stock_kernels};
use imprecise_gpgpu::core::config::IhwConfig;
use imprecise_gpgpu::sim::concurrent::SharedInterpreter;
use imprecise_gpgpu::sim::isa::{Program, WarpInterpreter};
use imprecise_gpgpu::sim::plan::PlanCacheStats;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    if COUNTING.with(Cell::get) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counters are const-initialised thread-locals without destructors,
// so touching them never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(Cell::get)
}

#[test]
fn the_counter_sees_this_threads_allocations() {
    let n = allocations(|| drop(std::hint::black_box(vec![1u8; 16])));
    assert_eq!(n, 1);
}

/// Launches every stock kernel × stock config at 1, 128 and 300
/// threads (one lane, a full lane block, and a block plus a partial
/// tail), the config changing from one launch to the next: once to
/// compile, then again counting allocations. The warm round must hit the
/// plan cache every time and allocate nothing. `launch` runs one launch
/// in place and returns the plan-cache stats after it.
fn assert_warm_round_allocates_nothing(
    what: &str,
    mut launch: impl FnMut(&Program, &IhwConfig, u32, &mut Vec<Vec<f32>>) -> PlanCacheStats,
) {
    let kernels = stock_kernels();
    let configs = stock_configs();
    let threads = [1u32, 128, 300];
    let mut bufs: Vec<Vec<Vec<f32>>> = kernels.iter().map(|k| seed_buffers(k, 300)).collect();
    let mut round = || {
        let mut stats = PlanCacheStats::default();
        for (k, prog) in kernels.iter().enumerate() {
            for &t in &threads {
                for (_, cfg) in &configs {
                    stats = launch(prog, cfg, t, &mut bufs[k]);
                }
            }
        }
        stats
    };
    let cold = round();
    let mut warm = cold;
    let n = allocations(|| warm = round());
    assert_eq!(warm.misses, cold.misses, "the warm round compiles nothing");
    assert_eq!(
        warm.hits - cold.hits,
        (configs.len() * kernels.len() * threads.len()) as u64
    );
    assert_eq!(n, 0, "{what} allocated {n} times");
}

#[test]
fn warm_compiled_launches_do_not_allocate() {
    let mut sim = WarpInterpreter::new(IhwConfig::precise());
    assert_warm_round_allocates_nothing("warm launches", |prog, cfg, t, bufs| {
        sim.set_config(*cfg);
        sim.launch(prog, t, bufs).expect("runs");
        sim.plan_cache_stats()
    });
}

#[test]
fn warm_shared_launches_do_not_allocate() {
    let sim = SharedInterpreter::new(IhwConfig::precise());
    assert_warm_round_allocates_nothing("warm shared launches", |prog, cfg, t, bufs| {
        let out = sim.launch(prog, cfg, t, std::mem::take(bufs));
        out.result.expect("runs");
        *bufs = out.buffers;
        sim.plan_cache_stats()
    });
}
