//! Block-boundary parity gate for the compiled engine: launches whose
//! thread counts sit on either side of a lane-block edge (1, `LANES − 1`,
//! `LANES`, `LANES + 1`, `2·LANES + 37`) must leave the same buffers (bit
//! for bit), the same `FpCtx` counters and the same issue-port trace as
//! the interpreter's sequential reference loop.
//!
//! Payloads mix ±0, ±∞, NaN, subnormals and normal operands whose
//! exponents spread over ±15 binades, so adder operand pairs fall on both
//! sides of every `TH` alignment cut-off. Configurations cover every
//! folded adder arm (`TH` ∈ {1, 4, 8, 11, 23, 27}, the default `TH` = 8
//! having its own arm), the Table 1 multiplier, the accuracy-configurable
//! multiplier on both paths at truncation {0, 19, 22}, and the truncated
//! multiplier, each paired with a precise and an imprecise adder.

use imprecise_gpgpu::analyze::{eft_kernels, stock_kernels};
use imprecise_gpgpu::core::ac_multiplier::{AcMulConfig, MulPath};
use imprecise_gpgpu::core::config::{AddUnit, IhwConfig, MulUnit};
use imprecise_gpgpu::core::truncated::TruncatedMul;
use imprecise_gpgpu::sim::compile::LANES;
use imprecise_gpgpu::sim::deps::footprints;
use imprecise_gpgpu::sim::isa::{ExecEngine, Program, WarpInterpreter};

const THREADS: [u32; 5] = [
    1,
    LANES as u32 - 1,
    LANES as u32,
    LANES as u32 + 1,
    2 * LANES as u32 + 37,
];

const THS: [u32; 6] = [1, 4, 8, 11, 23, 27];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const SPECIALS: [f32; 10] = [
    0.0,
    -0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
    f32::MIN_POSITIVE,
    1.0e-40,  // subnormal
    -1.0e-45, // smallest negative subnormal
    f32::MAX,
    -1.0,
];

/// One payload value: a special one time in eight, otherwise
/// `±(1 + frac)·2^e` with `e` in −15..=15 and a fraction that is often
/// zero, all ones or a single bit.
fn payload(st: &mut u64) -> f32 {
    let r = splitmix(st);
    if r.is_multiple_of(8) {
        return SPECIALS[((r >> 8) % SPECIALS.len() as u64) as usize];
    }
    let frac = match (r >> 8) % 4 {
        0 => 0,
        1 => (1 << 23) - 1,
        2 => 1 << ((r >> 16) % 23),
        _ => (r >> 16) as u32 & ((1 << 23) - 1),
    };
    let exp = 127 - 15 + ((r >> 40) % 31) as u32;
    let sign = ((r >> 63) as u32) << 31;
    f32::from_bits(sign | (exp << 23) | frac)
}

/// Buffers sized by the kernel's own footprint, seeded per kernel.
fn seed_buffers(prog: &Program, threads: u32) -> Vec<Vec<f32>> {
    let fps = footprints(prog);
    let n_bufs = fps.keys().max().map_or(0, |b| b + 1);
    let mut st = 0x5EED_B10C ^ u64::from(threads);
    (0..n_bufs)
        .map(|b| {
            let len = fps.get(&b).map_or(0, |fp| fp.required_len(threads));
            (0..len).map(|_| payload(&mut st)).collect()
        })
        .collect()
}

fn configs() -> Vec<(String, IhwConfig)> {
    let mut out = vec![
        ("precise".to_string(), IhwConfig::precise()),
        ("all_imprecise".to_string(), IhwConfig::all_imprecise()),
    ];
    let imprecise_add = AddUnit::Imprecise {
        th: IhwConfig::DEFAULT_TH,
    };
    for th in THS {
        let add = AddUnit::Imprecise { th };
        out.push((
            format!("all_imprecise_th{th}"),
            IhwConfig::all_imprecise().with_add(add),
        ));
        out.push((
            format!("precise_th{th}"),
            IhwConfig::precise().with_add(add),
        ));
    }
    let mut muls = vec![("imul".to_string(), MulUnit::Imprecise)];
    for t in [0, 19, 22] {
        for (name, path) in [("log", MulPath::Log), ("full", MulPath::Full)] {
            let ac = MulUnit::AcMul(AcMulConfig::new(path, t));
            muls.push((format!("ac_{name}_t{t}"), ac));
        }
        muls.push((
            format!("trunc_t{t}"),
            MulUnit::Truncated(TruncatedMul::new(t)),
        ));
    }
    for (name, mul) in muls {
        out.push((
            format!("{name}_precise_add"),
            IhwConfig::precise().with_mul(mul),
        ));
        out.push((
            format!("{name}_th8"),
            IhwConfig::ray_basic().with_mul(mul).with_add(imprecise_add),
        ));
        out.push((
            format!("{name}_th23"),
            IhwConfig::ray_with_rsqrt()
                .with_mul(mul)
                .with_add(AddUnit::Imprecise { th: 23 }),
        ));
    }
    out
}

fn bits(bufs: &[Vec<f32>]) -> Vec<Vec<u32>> {
    bufs.iter()
        .map(|b| b.iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn compiled_matches_sequential_reference_across_block_edges() {
    let mut kernels = stock_kernels();
    kernels.extend(eft_kernels());
    let configs = configs();
    for prog in &kernels {
        for (label, cfg) in &configs {
            for threads in THREADS {
                let base = seed_buffers(prog, threads);

                let mut reference = WarpInterpreter::new(*cfg).with_engine(ExecEngine::Interpreted);
                reference.enable_trace();
                let mut want = base.clone();
                reference
                    .launch_sequential(prog, threads, &mut want)
                    .expect("stock kernels run");
                let want_trace = reference.take_trace();

                for workers in [1, 2] {
                    let tag = format!(
                        "{}/{label}/{threads} threads/{workers} workers",
                        prog.name()
                    );
                    let mut compiled = WarpInterpreter::new(*cfg)
                        .with_engine(ExecEngine::Compiled)
                        .with_workers(workers);
                    compiled.enable_trace();
                    let mut got = base.clone();
                    compiled
                        .launch(prog, threads, &mut got)
                        .expect("stock kernels run");

                    assert_eq!(bits(&got), bits(&want), "{tag}: buffers diverge");
                    let (r, c) = (reference.ctx(), compiled.ctx());
                    assert_eq!(r.counts(), c.counts(), "{tag}: OpCounts diverge");
                    assert_eq!(r.int_ops(), c.int_ops(), "{tag}");
                    assert_eq!(r.mem_ops(), c.mem_ops(), "{tag}");
                    assert_eq!(r.precise_mul_ops(), c.precise_mul_ops(), "{tag}");
                    assert_eq!(compiled.take_trace(), want_trace, "{tag}: traces diverge");
                }
            }
        }
    }
}

/// The payload really reaches the cases the gate is for: every special
/// class appears, and exponent gaps span every `TH` cut-off.
#[test]
fn payload_covers_specials_and_th_cutoffs() {
    let bufs = seed_buffers(&stock_kernels()[0], 2 * LANES as u32 + 37);
    let vals: Vec<f32> = bufs.concat();
    assert!(vals.iter().any(|v| v.is_nan()));
    assert!(vals.iter().any(|v| v.is_infinite()));
    assert!(vals.iter().any(|v| v.is_subnormal()));
    assert!(vals.iter().any(|v| *v == 0.0 && v.is_sign_negative()));
    let exps: Vec<i32> = vals
        .iter()
        .filter(|v| v.is_normal())
        .map(|v| ((v.to_bits() >> 23) & 0xff) as i32)
        .collect();
    let (lo, hi) = (exps.iter().min().unwrap(), exps.iter().max().unwrap());
    assert!(hi - lo >= 28, "exponent spread {lo}..{hi}");
}
