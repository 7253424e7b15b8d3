//! Parity gate for the compiled execution engine: a compiled launch
//! must be indistinguishable from the interpreter's sequential
//! reference loop through every observable side channel — the written
//! buffers (bit for bit), the returned error, the per-unit `OpCounts`
//! map and the int/mem/precise-mul counters — including on faulting
//! launches, where the partially-executed prefix must write and count
//! identically. The power model (§5) and the tuner both consume
//! these counters, so a silent divergence would skew every downstream
//! energy number.
//!
//! Besides the stock kernels (lane blocks), the suite drives a plan the
//! compiled engine must run one lane at a time: a carried
//! prefix-propagation kernel. The write-after-read in-place shift, the
//! other one-lane case, is in `shared_launch_parity.rs`.

mod common;

use common::assert_engines_agree;
use imprecise_gpgpu::analyze::{stock_configs, stock_kernels};
use imprecise_gpgpu::sim::asm::assemble;
use imprecise_gpgpu::sim::deps::{racecheck, Verdict};
use imprecise_gpgpu::sim::isa::{ExecEngine, WarpInterpreter};
use imprecise_gpgpu::sim::programs::seed_buffers;

#[test]
fn compiled_counts_and_traces_match_interpreted_for_every_stock_pair() {
    let threads = 193u32;
    for prog in stock_kernels() {
        for (label, cfg) in stock_configs() {
            let tag = format!("{}/{label}", prog.name());
            let (res, _) =
                assert_engines_agree(&prog, &cfg, threads, &seed_buffers(&prog, threads), &tag);
            res.expect("stock kernels run");
        }
    }
}

#[test]
fn faulting_launch_counts_and_traces_match() {
    // Strided read one past the end: thread `threads-1` faults, and
    // both engines must have written and counted exactly the
    // threads (and the faulting thread's instruction prefix) that ran.
    let src = "\
.buffers 2
ld r0, b0[tid+1]
fmul r0, r0, r0
st b1[tid], r0
";
    let prog = assemble("parity_oob", src).expect("assembles");
    let threads = 41u32;
    let base = vec![
        (0..threads).map(|i| i as f32 + 0.5).collect::<Vec<f32>>(),
        vec![0.0f32; threads as usize],
    ];
    for (label, cfg) in stock_configs() {
        let (res, bufs) = assert_engines_agree(&prog, &cfg, threads, &base, label);
        res.expect_err("last thread faults");
        assert_ne!(bufs[1][threads as usize - 2], 0.0, "earlier threads stored");
        assert_eq!(
            bufs[1][threads as usize - 1],
            0.0,
            "the faulting one did not"
        );
    }
}

#[test]
fn parity_survives_plan_cache_reuse() {
    // A second launch through the same interpreter is served from the
    // plan cache — the cached plan must count exactly like a freshly
    // lowered one (and like the interpreter), and the cache must
    // actually have been hit (one plan, not two).
    let prog = stock_kernels().remove(0);
    let (_, cfg) = stock_configs().remove(1);
    let threads = 67u32;
    let base = seed_buffers(&prog, threads);

    let mut compiled = WarpInterpreter::new(cfg.to_owned()).with_engine(ExecEngine::Compiled);
    for _ in 0..2 {
        let mut bufs = base.clone();
        compiled.launch(&prog, threads, &mut bufs).expect("runs");
    }
    let stats = compiled.plan_cache_stats();
    assert_eq!(
        (stats.len, stats.hits),
        (1, 1),
        "second launch must hit the cache"
    );

    let mut interp = WarpInterpreter::new(cfg).with_engine(ExecEngine::Interpreted);
    for _ in 0..2 {
        let mut bufs = base.clone();
        interp.launch(&prog, threads, &mut bufs).expect("runs");
    }

    assert_eq!(interp.ctx().counts(), compiled.ctx().counts());
}

#[test]
fn zero_and_single_thread_launches_match() {
    let prog = stock_kernels().remove(0);
    let (label, cfg) = &stock_configs()[0];
    for threads in [0u32, 1] {
        let tag = format!("{label}/{threads} threads");
        let (res, _) =
            assert_engines_agree(&prog, cfg, threads, &seed_buffers(&prog, threads), &tag);
        res.expect("runs");
    }
}

#[test]
fn carried_kernel_matches_sequential() {
    // A prefix-propagation kernel: thread `t` reads what thread `t−1`
    // stored into `b1[t]` — legal sequentially, so the compiled engine
    // must run it one lane at a time, in tid order.
    let src = "\
.buffers 2
ld r0, b0[tid]
ld r1, b1[tid]
fadd r0, r0, r1
st b1[tid+1], r0
";
    let prog = assemble("prefix", src).expect("assembles");
    assert_eq!(racecheck(&prog).verdict, Verdict::SequentialCarried);

    let threads = 200u32;
    let base = vec![vec![0.25f32; 200], {
        let mut b = vec![0.0f32; 201];
        b[0] = 1.0;
        b
    }];
    for (label, cfg) in stock_configs() {
        let (res, bufs) = assert_engines_agree(&prog, &cfg, threads, &base, label);
        res.expect("runs");
        // The chain really is order-dependent: the last output
        // accumulates every earlier thread's contribution.
        assert!(bufs[1][200] > 1.0, "{label}");
    }
}
