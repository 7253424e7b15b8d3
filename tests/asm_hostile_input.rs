//! Hostile assembly input: seeded programs built from edge tokens
//! (registers `r254`/`r255`, tid offsets at `±i64::MAX`, absolute
//! addresses at `u64::MAX`, `.buffers 0/256/2^64`, `nan`/`inf`/`1e-45`
//! immediates) and random token soup. Assembling must return `Ok` or an
//! `AsmError`, never panic; every program that assembles is launched
//! at 0, 1, 129 and 4096 threads over short buffers on the
//! interpreter's sequential loop and on the compiled engine, which must
//! return the same `Result` and leave the same buffer bits.

use imprecise_gpgpu::analyze::stock_configs;
use imprecise_gpgpu::core::config::IhwConfig;
use imprecise_gpgpu::sim::asm::assemble;
use imprecise_gpgpu::sim::isa::{ExecEngine, Program, WarpInterpreter};
use std::panic::{catch_unwind, AssertUnwindSafe};

const PROGRAMS: u32 = 100_000;
const THREADS: [u32; 4] = [0, 1, 129, 4096];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pick<'a>(pool: &[&'a str], st: &mut u64) -> &'a str {
    pool[(splitmix(st) % pool.len() as u64) as usize]
}

const REGS: &[&str] = &["r0", "r1", "r2", "R3", "r254", "r255"];
const BAD_REGS: &[&str] = &["r256", "r-1", "x0", "r", ""];
const MEMS: &[&str] = &[
    "b0[tid]",
    "b1[tid+1]",
    "b1[tid-1]",
    "b0[tid+9223372036854775807]",
    "b0[tid-9223372036854775807]",
    "b0[tid-9223372036854775808]",
    "b0[tid+9223372036854775808]",
    "b0[18446744073709551615]",
    "b0[9223372036854775807]",
    "b0[0]",
    "b2[3]",
    "B1[128]",
    "b255[tid]",
    "b0[tid",
    "b0[]",
    "c0[tid]",
];
const IMMS: &[&str] = &[
    "nan", "NaN", "inf", "-inf", "1e-45", "-1e-45", "-0.0", "3.4e38", "1e39", "1.0", "0x10",
];
const BUFFERS: &[&str] = &[
    ".buffers 0",
    ".buffers 1",
    ".buffers 2",
    ".buffers 3",
    ".buffers 256",
    ".buffers 18446744073709551615",
    ".buffers 18446744073709551616",
    ".buffers -1",
    ".buffers",
];
const MNEMONICS: &[&str] = &[
    "movi", "tid", "fadd", "fsub", "fmul", "fdiv", "fmax", "sel", "ffma", "rcp", "rsqrt", "sqrt",
    "log2", "ld", "st", "FADD", "nop",
];

/// A register operand: usually one already written (so the program gets
/// past the read-before-write check), sometimes an edge or bad token.
fn reg_operand(written: &[&'static str], st: &mut u64) -> &'static str {
    match splitmix(st) % 16 {
        0 => pick(BAD_REGS, st),
        1..=3 => pick(REGS, st),
        _ if !written.is_empty() => pick(written, st),
        _ => pick(REGS, st),
    }
}

/// One instruction line with the mnemonic's arity (or, rarely, a wrong
/// one); returns the line and the register it writes, if any.
fn instruction(written: &[&'static str], st: &mut u64) -> (String, Option<&'static str>) {
    let m = pick(MNEMONICS, st);
    let dst = pick(REGS, st);
    let src: Vec<&str> = (0..3).map(|_| reg_operand(written, st)).collect();
    let (mut ops, writes) = match m.to_ascii_lowercase().as_str() {
        "movi" => (vec![dst, pick(IMMS, st)], true),
        "tid" => (vec![dst], true),
        "fadd" | "fsub" | "fmul" | "fdiv" | "fmax" => (vec![dst, src[0], src[1]], true),
        "sel" | "ffma" => (vec![dst, src[0], src[1], src[2]], true),
        "rcp" | "rsqrt" | "sqrt" | "log2" => (vec![dst, src[0]], true),
        "ld" => (vec![dst, pick(MEMS, st)], true),
        "st" => (vec![pick(MEMS, st), src[0]], false),
        _ => (vec![dst], false),
    };
    if splitmix(st).is_multiple_of(32) {
        ops.pop();
    }
    (format!("{m} {}", ops.join(", ")), writes.then_some(dst))
}

/// A program of up to 6 lines, often after a `.buffers` directive, with
/// an occasional repeated directive or stray comment.
fn structured(st: &mut u64) -> String {
    let mut lines = Vec::new();
    if splitmix(st).is_multiple_of(3) {
        lines.push(pick(BUFFERS, st).to_string());
    }
    // Usually open with a write, so later reads can pass the
    // read-before-write check.
    let mut written: Vec<&'static str> = Vec::new();
    if !splitmix(st).is_multiple_of(4) {
        let dst = pick(REGS, st);
        lines.push(match splitmix(st) % 3 {
            0 => format!("tid {dst}"),
            1 => format!("movi {dst}, {}", pick(IMMS, st)),
            _ => format!("ld {dst}, {}", pick(MEMS, st)),
        });
        written.push(dst);
    }
    for _ in 0..splitmix(st) % 6 {
        let (line, dst) = instruction(&written, st);
        lines.push(line);
        written.extend(dst);
        match splitmix(st) % 64 {
            0 => lines.push(pick(BUFFERS, st).to_string()),
            1 => lines.push("# ihw-racecheck: allow(A004)".to_string()),
            _ => {}
        }
    }
    lines.join("\n")
}

/// Random token soup: any token from any pool, joined by spaces,
/// commas and newlines.
fn soup(st: &mut u64) -> String {
    let pools: [&[&str]; 6] = [REGS, BAD_REGS, MEMS, IMMS, BUFFERS, MNEMONICS];
    let mut out = String::new();
    for _ in 0..1 + splitmix(st) % 12 {
        let pool = pools[(splitmix(st) % pools.len() as u64) as usize];
        out.push_str(pick(pool, st));
        out.push_str(pick(&[" ", ", ", "\n", ",", "#"], st));
    }
    out
}

/// Up to three short buffers (0, 1, 3 or 130 elements) holding ordinary
/// values, signed zeros, infinities, NaN and subnormals.
fn short_buffers(st: &mut u64) -> Vec<Vec<f32>> {
    let values = [
        1.5,
        -0.75,
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::from_bits(1),
        f32::MIN_POSITIVE,
        f32::MAX,
    ];
    (0..splitmix(st) % 4)
        .map(|_| {
            let len = [0, 1, 3, 130][(splitmix(st) % 4) as usize];
            (0..len)
                .map(|_| values[(splitmix(st) % values.len() as u64) as usize])
                .collect()
        })
        .collect()
}

fn bits(bufs: &[Vec<f32>]) -> Vec<Vec<u32>> {
    bufs.iter()
        .map(|b| b.iter().map(|x| x.to_bits()).collect())
        .collect()
}

fn launch_both(prog: &Program, cfg: &IhwConfig, threads: u32, base: &[Vec<f32>], tag: &str) {
    let mut want = base.to_vec();
    let want_res = WarpInterpreter::new(*cfg).launch_sequential(prog, threads, &mut want);
    let mut got = base.to_vec();
    let got_res = WarpInterpreter::new(*cfg)
        .with_engine(ExecEngine::Compiled)
        .launch(prog, threads, &mut got);
    assert_eq!(want_res, got_res, "{tag}: results diverge");
    assert_eq!(bits(&want), bits(&got), "{tag}: buffers diverge");
}

/// Generates, assembles and launches `count` programs from `seed`;
/// returns how many assembled.
fn fuzz(seed: u64, count: u32) -> u32 {
    let configs = stock_configs();
    let mut st = seed;
    let mut assembled = 0;
    for i in 0..count {
        let source = if splitmix(&mut st).is_multiple_of(4) {
            soup(&mut st)
        } else {
            structured(&mut st)
        };
        let bufs = short_buffers(&mut st);
        let (label, cfg) = configs[i as usize % configs.len()];
        let run = catch_unwind(AssertUnwindSafe(|| {
            let Ok(prog) = assemble("hostile", &source) else {
                return false;
            };
            for threads in THREADS {
                let tag = format!(
                    "seed {seed:#x} program {i} ({label}, {threads} threads):\n{source}\n--"
                );
                launch_both(&prog, &cfg, threads, &bufs, &tag);
            }
            true
        }));
        match run {
            Ok(ok) => assembled += u32::from(ok),
            Err(_) => panic!("seed {seed:#x} program {i} ({label}) panicked:\n{source}\n--"),
        }
    }
    assembled
}

#[test]
fn hostile_programs_error_or_agree_never_panic() {
    // Two seed streams on two threads halve the wall time.
    let assembled: u32 = std::thread::scope(|s| {
        let workers: Vec<_> = [0x5EED_A5A5, 0x5EED_5A5A]
            .map(|seed| s.spawn(move || fuzz(seed, PROGRAMS / 2)))
            .into_iter()
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .sum()
    });
    // The generator must reach the launch path, not only the parser.
    assert!(
        assembled > PROGRAMS / 10,
        "only {assembled} of {PROGRAMS} programs assembled"
    );
}
