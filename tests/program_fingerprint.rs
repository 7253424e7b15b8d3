//! Program identity for the plan cache.
//!
//! `Program::fingerprint` is folded once, when the program is built,
//! and keys both the plan cache and the serve caches. These tests pin
//! its values for the stock, EFT and one assembled program, check that
//! the builder methods that do not touch the instruction stream keep
//! it, and check that the plan cache's hit test agrees with it on
//! float immediates: a NaN `movi` hits its own plan, and `0.0` and
//! `-0.0` are two plans.

use imprecise_gpgpu::analyze::{eft_kernels, stock_kernels};
use imprecise_gpgpu::core::config::IhwConfig;
use imprecise_gpgpu::sim::asm::assemble;
use imprecise_gpgpu::sim::isa::{Instr, Program, Reg, WarpInterpreter};

/// A program with lane (`tid+k`, `tid-k`) and absolute addressing.
fn addressed() -> Program {
    assemble(
        "addressed",
        "
        .buffers 3
        ld r0, b0[tid+2]
        ld r1, b1[7]
        ld r2, b0[tid-1]
        movi r3, -0.5
        fadd r0, r0, r1
        ffma r0, r0, r2, r3
        st b2[tid+1], r0
        st b2[0], r1
        ",
    )
    .expect("assembles")
}

/// A fresh `Program::new` over the same registers and instructions.
fn rebuilt(p: &Program) -> Program {
    Program::new("rebuilt", p.regs(), p.instrs().to_vec()).expect("valid")
}

#[test]
fn fingerprints_keep_their_values() {
    let want: [(&str, u64); 8] = [
        ("saxpy", 0x4fa8_b2b5_54e5_b763),
        ("rsqrt_norm", 0xcfb6_c777_a728_5d84),
        ("dot_partial", 0xad62_f3aa_4c16_a128),
        ("distance", 0xd3d3_3e11_3628_c6e1),
        ("two_sum", 0x6843_96ee_2a8f_37c5),
        ("two_prod", 0x5076_885f_c496_015c),
        ("dot_compensated", 0x08f4_e28b_09af_2776),
        ("addressed", 0xe5f0_240c_b876_d38a),
    ];
    let mut progs = stock_kernels();
    progs.extend(eft_kernels());
    progs.push(addressed());
    let got: Vec<(&str, u64)> = progs.iter().map(|p| (p.name(), p.fingerprint())).collect();
    assert_eq!(got, want);
}

#[test]
fn fingerprint_follows_registers_and_instructions_only() {
    let mut progs = stock_kernels();
    progs.extend(eft_kernels());
    progs.push(addressed());
    for p in progs {
        let fresh = rebuilt(&p).fingerprint();
        let name = p.name().to_string();
        assert_eq!(p.fingerprint(), fresh, "{name}: the name does not enter it");
        assert_eq!(p.clone().fingerprint(), fresh, "{name}: clone");
        let lines = (1..=p.instrs().len() as u32).collect();
        assert_eq!(
            p.clone().with_source_lines(lines).fingerprint(),
            fresh,
            "{name}: with_source_lines"
        );
        assert_eq!(
            p.clone().with_allow(0, "A007", "pinned").fingerprint(),
            fresh,
            "{name}: with_allow"
        );
        assert_eq!(
            p.clone().with_feedback(0, 1).fingerprint(),
            fresh,
            "{name}: with_feedback"
        );
        let body = [Instr::Movi(Reg(0), 1.5)];
        let unrolled = p.unroll(&body, 3).expect("valid");
        assert_eq!(
            unrolled.fingerprint(),
            rebuilt(&unrolled).fingerprint(),
            "{name}: unroll"
        );
        assert_ne!(
            unrolled.fingerprint(),
            fresh,
            "{name}: unroll adds instructions"
        );
    }
}

/// `movi r0, imm` stored to `b0[tid]`.
fn store_immediate(imm: &str) -> Program {
    assemble("imm", &format!("movi r0, {imm}\nst b0[tid], r0")).expect("assembles")
}

#[test]
fn nan_immediate_hits_its_plan() {
    let prog = store_immediate("nan");
    assert!(matches!(prog.instrs()[0], Instr::Movi(_, x) if x.is_nan()));
    let mut sim = WarpInterpreter::new(IhwConfig::precise());
    for _ in 0..2 {
        let mut bufs = vec![vec![0.0f32; 4]];
        sim.launch(&prog, 4, &mut bufs).expect("runs");
        assert!(bufs[0].iter().all(|x| x.is_nan()));
    }
    let s = sim.plan_cache_stats();
    assert_eq!((s.misses, s.hits, s.len), (1, 1, 1));
}

#[test]
fn signed_zero_immediates_are_two_plans() {
    let pos = store_immediate("0.0");
    let neg = store_immediate("-0.0");
    assert_ne!(pos.fingerprint(), neg.fingerprint());
    let mut sim = WarpInterpreter::new(IhwConfig::precise());
    for prog in [&pos, &neg, &pos, &neg] {
        let mut bufs = vec![vec![1.0f32; 4]];
        sim.launch(prog, 4, &mut bufs).expect("runs");
        let Instr::Movi(_, imm) = prog.instrs()[0] else {
            unreachable!("the program starts with its movi")
        };
        assert!(bufs[0].iter().all(|x| x.to_bits() == imm.to_bits()));
    }
    let s = sim.plan_cache_stats();
    assert_eq!((s.misses, s.hits, s.len), (2, 2, 2));
}
