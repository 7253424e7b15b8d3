//! Helpers shared by the launch parity suites
//! (`compiled_engine_parity.rs`, `shared_launch_parity.rs`).

use imprecise_gpgpu::core::config::IhwConfig;
use imprecise_gpgpu::sim::isa::{ExecEngine, ExecError, Program, WarpInterpreter};

pub fn bits(bufs: &[Vec<f32>]) -> Vec<Vec<u32>> {
    bufs.iter()
        .map(|b| b.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// Runs `prog` over `base` on the interpreter's sequential loop and on
/// the compiled engine, and asserts that the results, buffers and
/// counters agree. Returns the (shared) result and the reference
/// buffers.
pub fn assert_engines_agree(
    prog: &Program,
    cfg: &IhwConfig,
    threads: u32,
    base: &[Vec<f32>],
    tag: &str,
) -> (Result<(), ExecError>, Vec<Vec<f32>>) {
    let mut want = base.to_vec();
    let mut reference = WarpInterpreter::new(*cfg);
    let want_res = reference.launch_sequential(prog, threads, &mut want);

    let mut got = base.to_vec();
    let mut compiled = WarpInterpreter::new(*cfg).with_engine(ExecEngine::Compiled);
    let got_res = compiled.launch(prog, threads, &mut got);

    assert_eq!(want_res, got_res, "{tag}: results diverge");
    assert_eq!(bits(&want), bits(&got), "{tag}: buffers diverge");
    let (r, c) = (reference.ctx(), compiled.ctx());
    assert_eq!(r.counts(), c.counts(), "{tag}: OpCounts diverge");
    assert_eq!(r.int_ops(), c.int_ops(), "{tag}: int ops diverge");
    assert_eq!(r.mem_ops(), c.mem_ops(), "{tag}: mem ops diverge");
    assert_eq!(r.precise_mul_ops(), c.precise_mul_ops(), "{tag}");
    (want_res, want)
}
