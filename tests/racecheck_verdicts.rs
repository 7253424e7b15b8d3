//! Property test for the racecheck verdicts: on random affine kernels
//! the symbolic analysis must agree with a brute-force concrete
//! footprint intersection at small thread counts.
//!
//! With access offsets drawn from `tid−2 … tid+3` and broadcast
//! elements `0 … 4`, every symbolic dependence has a concrete witness
//! among the first 16 threads (the witness tid difference is bounded by
//! the offset spread), so at `T = 16` the two sides are *equivalent*,
//! not just one-sided:
//!
//! * `ThreadIndependent` ⇔ the brute-force intersection is empty;
//! * the brute-force WW / carried flags match the dependence kinds the
//!   analysis reports.
//!
//! A second property runs the same random kernels on the compiled
//! engine and on the interpreter's sequential loop: the compiled plan
//! runs instruction-major lane blocks only when the store-shape proof
//! says that is observationally sequential, so an unsound proof shows
//! up as a buffer mismatch.

use imprecise_gpgpu::analyze::deps::{brute_force_conflicts, racecheck, DepKind, Verdict};
use imprecise_gpgpu::sim::isa::{AddrMode, Instr, Program, Reg};
use proptest::collection::vec;
use proptest::prelude::*;

/// One random memory access: load or store, buffer 0–2, affine mode.
fn access() -> impl Strategy<Value = (bool, usize, AddrMode)> {
    (any::<bool>(), 0usize..3, 0u8..3, -2i64..4, 0usize..5).prop_map(
        |(store, buf, kind, off, abs)| {
            let mode = match kind {
                0 => AddrMode::Tid,
                1 => AddrMode::TidPlus(off),
                _ => AddrMode::Abs(abs),
            };
            (store, buf, mode)
        },
    )
}

/// Straight-line kernel from an access list: each load lands in `r1`
/// and is summed into `r0`, and stores write `r0`, so every stored
/// value depends on what the thread loaded before it.
fn build(accesses: &[(bool, usize, AddrMode)]) -> Program {
    let mut instrs = vec![Instr::Movi(Reg(0), 1.0)];
    for &(store, buf, mode) in accesses {
        if store {
            instrs.push(Instr::St(buf, mode, Reg(0)));
        } else {
            instrs.push(Instr::Ld(Reg(1), buf, mode));
            instrs.push(Instr::Fadd(Reg(0), Reg(0), Reg(1)));
        }
    }
    Program::new("affine_rand", 2, instrs).expect("valid program")
}

proptest! {
    #[test]
    fn symbolic_verdict_matches_brute_force(accesses in vec(access(), 1..8)) {
        let prog = build(&accesses);
        let report = racecheck(&prog);

        // The whole AddrMode language is affine: Unknown is unreachable.
        prop_assert_ne!(report.verdict, Verdict::Unknown);

        let brute = brute_force_conflicts(&prog, 16);
        prop_assert_eq!(
            report.verdict == Verdict::ThreadIndependent,
            !brute.any(),
            "verdict {} vs brute {:?}", report.verdict, brute
        );

        // Kind-level agreement at the witness thread count.
        let has_ww = report.dependences.iter().any(|d| matches!(d.kind, DepKind::WriteWrite { .. }));
        let has_rw = report.dependences.iter().any(|d| matches!(d.kind, DepKind::ReadWrite { .. }));
        prop_assert_eq!(has_ww, brute.write_write);
        prop_assert_eq!(has_rw, brute.carried);

        // Soundness at every smaller thread count: anything the brute
        // force sees must be covered by a reported dependence.
        for threads in 1..=8u32 {
            if brute_force_conflicts(&prog, threads).any() {
                prop_assert_ne!(report.verdict, Verdict::ThreadIndependent);
            }
        }
    }

    #[test]
    fn compiled_launch_matches_sequential_on_random_kernels(accesses in vec(access(), 1..6)) {
        use imprecise_gpgpu::core::prelude::IhwConfig;
        use imprecise_gpgpu::sim::deps::footprints;
        use imprecise_gpgpu::sim::isa::WarpInterpreter;

        let prog = build(&accesses);
        let fps = footprints(&prog);
        let n_bufs = fps.keys().max().map_or(0, |b| b + 1);
        // 12 threads run as one partial lane block, 130 cross a block
        // edge. Kernels with a negative offset fault at thread 0, so
        // the error path is covered as well.
        for threads in [12u32, 130] {
            let base: Vec<Vec<f32>> = (0..n_bufs)
                .map(|b| {
                    let len = fps.get(&b).map_or(0, |fp| fp.required_len(threads));
                    (0..len).map(|i| 0.5 + (i as f32 % 7.0) / 16.0).collect()
                })
                .collect();

            let mut seq_bufs = base.clone();
            let mut seq = WarpInterpreter::new(IhwConfig::all_imprecise());
            let seq_res = seq.launch_sequential(&prog, threads, &mut seq_bufs);

            let mut comp_bufs = base;
            let mut comp = WarpInterpreter::new(IhwConfig::all_imprecise());
            let comp_res = comp.launch(&prog, threads, &mut comp_bufs);

            let bits = |bufs: &[Vec<f32>]| -> Vec<Vec<u32>> {
                bufs.iter().map(|b| b.iter().map(|x| x.to_bits()).collect()).collect()
            };
            prop_assert_eq!(seq_res, comp_res);
            prop_assert_eq!(bits(&seq_bufs), bits(&comp_bufs));
            prop_assert_eq!(seq.ctx().counts(), comp.ctx().counts());
            prop_assert_eq!(seq.ctx().int_ops(), comp.ctx().int_ops());
            prop_assert_eq!(seq.ctx().mem_ops(), comp.ctx().mem_ops());
        }
    }
}
