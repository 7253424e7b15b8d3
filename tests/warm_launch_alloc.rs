//! Allocation guard for the compiled engine's warm launch.
//!
//! Once a `WarpInterpreter` has compiled the plan of a `(program,
//! config)` pair and sized its register file, a further launch of that
//! pair must not touch the heap: the fingerprint is read, not
//! recomputed, the plan is a cache hit, and the register file is the
//! interpreter's own. A counting global allocator checks this over
//! every stock kernel × stock config with tracing off. It counts only
//! on the thread that asked for it, so tests running in parallel
//! threads of this binary cannot leak into the count.

use imprecise_gpgpu::analyze::{stock_configs, stock_kernels};
use imprecise_gpgpu::core::config::IhwConfig;
use imprecise_gpgpu::sim::isa::WarpInterpreter;
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

#[test]
fn warm_compiled_launches_do_not_allocate() {
    let kernels = stock_kernels();
    let configs = stock_configs();
    // 1, a full lane block, and a block plus a partial tail.
    let threads = [1u32, 128, 300];
    let mut bufs: Vec<Vec<Vec<f32>>> = kernels
        .iter()
        .map(|k| ihw_bench::racebench::seed_buffers(k, 300))
        .collect();
    let mut sim = WarpInterpreter::new(IhwConfig::precise());
    let round = |sim: &mut WarpInterpreter, bufs: &mut [Vec<Vec<f32>>]| {
        for (_, cfg) in &configs {
            sim.set_config(*cfg);
            for (k, prog) in kernels.iter().enumerate() {
                for &t in &threads {
                    sim.reset_counters();
                    sim.launch(prog, t, &mut bufs[k]).expect("runs");
                }
            }
        }
    };
    round(&mut sim, &mut bufs);
    let cold = sim.plan_cache_stats();
    let n = allocations(|| round(&mut sim, &mut bufs));
    let warm = sim.plan_cache_stats();
    assert_eq!(warm.misses, cold.misses, "the warm round compiles nothing");
    assert_eq!(
        warm.hits - cold.hits,
        (configs.len() * kernels.len() * threads.len()) as u64
    );
    assert_eq!(n, 0, "warm launches allocated {n} times");
}
