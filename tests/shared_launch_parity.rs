//! Differential gate for the shared launch entry point and for
//! write-after-read kernels.
//!
//! `SharedInterpreter::launch` (the serve path) must reproduce the
//! interpreter's sequential reference loop (`launch_sequential`) — the
//! returned error and the written buffers — on every stock pair and on
//! a faulting launch's partial state. A shared launch credits no
//! counters; counter parity of the compiled run it shares with
//! `WarpInterpreter::launch` is checked by `compiled_engine_parity.rs`.
//!
//! A write-after-read kernel (each thread reads another thread's store
//! slot; the "forward shift" in the test names) is proven independent
//! but not own-slot, so the compiled engine runs it one lane at a time;
//! `WarpInterpreter::launch` must match the sequential loop on it, with
//! and without a fault.

mod common;

use common::{assert_engines_agree, bits};
use ihw_bench::racebench::seed_buffers;
use imprecise_gpgpu::analyze::{stock_configs, stock_kernels};
use imprecise_gpgpu::core::config::IhwConfig;
use imprecise_gpgpu::sim::asm::assemble;
use imprecise_gpgpu::sim::concurrent::{LaunchError, SharedInterpreter};
use imprecise_gpgpu::sim::deps::{racecheck, store_shape, StoreShape, Verdict};
use imprecise_gpgpu::sim::isa::{ExecError, Program, WarpInterpreter};

/// Runs `prog` over `base` on the sequential reference and on a
/// `SharedInterpreter`, and asserts that the shared launch agrees on
/// the result and the buffers. Returns the reference result and
/// buffers.
fn assert_shared_agrees(
    prog: &Program,
    cfg: &IhwConfig,
    threads: u32,
    base: &[Vec<f32>],
    tag: &str,
) -> (Result<(), ExecError>, Vec<Vec<f32>>) {
    let mut want = base.to_vec();
    let mut reference = WarpInterpreter::new(*cfg);
    let want_res = reference.launch_sequential(prog, threads, &mut want);

    let shared = SharedInterpreter::new(*cfg);
    let out = shared.launch(prog, cfg, threads, base.to_vec());
    let got_res = match out.result {
        Ok(()) => Ok(()),
        Err(LaunchError::Exec(e)) => Err(e),
        Err(LaunchError::Panicked(msg)) => panic!("{tag}: launch panicked: {msg}"),
    };
    assert_eq!(want_res, got_res, "{tag}: results diverge");
    assert_eq!(bits(&want), bits(&out.buffers), "{tag}: buffers diverge");
    (want_res, want)
}

#[test]
fn forced_sequential_matches_for_every_stock_pair() {
    let threads = 257u32;
    for prog in stock_kernels() {
        for (label, cfg) in stock_configs() {
            let tag = format!("{}/{label}", prog.name());
            let (res, _) =
                assert_shared_agrees(&prog, &cfg, threads, &seed_buffers(&prog, threads), &tag);
            res.expect("stock kernels run");
        }
    }
}

#[test]
fn error_path_partial_state_is_identical() {
    // Strided read one past the end: the last thread faults. The shared
    // launch must return the same error and the sequential partial
    // state: every thread before the faulting one applied, nothing
    // after.
    let src = "\
.buffers 2
ld r0, b0[tid+1]
st b1[tid], r0
";
    let prog = assemble("stride_oob", src).expect("assembles");
    assert_eq!(racecheck(&prog).verdict, Verdict::ThreadIndependent);

    let threads = 97u32;
    // b0 exactly `threads` long → thread `threads-1` reads index
    // `threads`, out of bounds.
    let base = vec![
        (0..threads).map(|i| i as f32 + 0.5).collect::<Vec<f32>>(),
        vec![0.0f32; threads as usize],
    ];
    let last = threads as usize - 1;
    for (label, cfg) in stock_configs() {
        let (res, bufs) = assert_shared_agrees(&prog, &cfg, threads, &base, label);
        res.expect_err("last thread faults");
        assert_eq!(
            bufs[1][last - 1],
            base[0][last],
            "{label}: earlier threads stored"
        );
        assert_eq!(bufs[1][last], 0.0, "{label}: the faulting one did not");
    }
}

/// Forward shift: thread `t` reads `b0[t+1]` and writes `b0[t]`.
const FWD_SHIFT: &str = "\
.buffers 1
ld r0, b0[tid+1]
st b0[tid], r0
";

/// Store, then peek at the next thread's slot: in tid order thread `t`
/// reads `b0[t+1]` before thread `t+1` overwrites it, while a lane
/// block would have run every lane's first store before any lane's
/// load, so running this kernel as lane blocks changes its output.
const STORE_THEN_PEEK: &str = "\
.buffers 1
ld r0, b0[tid]
fmul r0, r0, r0
st b0[tid], r0
ld r1, b0[tid+1]
fadd r0, r0, r1
st b0[tid], r0
";

/// `len` distinct values for the one buffer of the shift kernels.
fn shift_input(len: u32) -> Vec<Vec<f32>> {
    vec![(0..len).map(|i| i as f32 * 0.25 + 0.5).collect()]
}

#[test]
fn forward_shift_kernel_is_bit_identical() {
    // Every read belongs to a *different* thread's store slot, so the
    // kernel is proven independent but not own-slot: the store-shape
    // proof does not cover it, and the compiled engine runs it one lane
    // at a time.
    let prog = assemble("fwd_shift", FWD_SHIFT).expect("assembles");
    let report = racecheck(&prog);
    assert_eq!(report.verdict, Verdict::ThreadIndependent);
    assert_eq!(store_shape(&report), Some(StoreShape::OneLane));

    let threads = 301u32;
    let base = shift_input(threads + 1);
    for (label, cfg) in stock_configs() {
        let (res, bufs) = assert_engines_agree(&prog, &cfg, threads, &base, label);
        res.expect("runs");
        // In tid order each thread reads its neighbour's slot before the
        // neighbour overwrites it, so the buffer shifts down by one.
        assert_eq!(
            bits(&bufs)[0][..threads as usize],
            bits(&base)[0][1..],
            "{label}"
        );
    }

    let prog = assemble("store_then_peek", STORE_THEN_PEEK).expect("assembles");
    let report = racecheck(&prog);
    assert_eq!(report.verdict, Verdict::ThreadIndependent);
    assert_eq!(store_shape(&report), Some(StoreShape::OneLane));
    for (label, cfg) in stock_configs() {
        let (res, _) = assert_engines_agree(&prog, &cfg, threads, &base, label);
        res.expect("runs");
    }
}

#[test]
fn forward_shift_error_path_partial_state_is_identical() {
    // The forward shift over exactly `threads` elements: the last
    // thread's read faults, after every earlier thread stored.
    let prog = assemble("fwd_shift_oob", FWD_SHIFT).expect("assembles");
    assert_eq!(store_shape(&racecheck(&prog)), Some(StoreShape::OneLane));

    let threads = 53u32;
    let base = shift_input(threads);
    let last = threads as usize - 1;
    for (label, cfg) in stock_configs() {
        let (res, bufs) = assert_engines_agree(&prog, &cfg, threads, &base, label);
        res.expect_err("last thread faults");
        assert_eq!(
            bufs[0][last - 1],
            base[0][last],
            "{label}: earlier threads stored"
        );
        assert_eq!(
            bufs[0][last], base[0][last],
            "{label}: the faulting one did not"
        );
    }
}
