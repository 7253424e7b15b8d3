//! Standalone timings of single layers, called from outside the
//! program through their public functions (the traced run).

use crate::report::Outcome;
use crate::stats::median;
use gpu_sim::isa::Program;
use ihw_analyze::{analyze_program, AnalysisSettings};
use ihw_bench::runner::report::Stopwatch;
use ihw_core::ac_multiplier::{AcMulConfig, MulPath};
use ihw_core::config::IhwConfig;
use ihw_core::format::Format;
use ihw_core::{adder, fma, multiplier, sfu};
use std::hint::black_box;

/// Times `f` over every operand triple, `repeats` times; returns the
/// median nanoseconds per call.
fn ns_per_op(ops: &[[f32; 3]], repeats: usize, f: impl Fn(f32, f32, f32) -> u32) -> f64 {
    let runs: Vec<f64> = (0..repeats)
        .map(|_| {
            let sw = Stopwatch::start();
            let mut acc = 0u32;
            for &[a, b, c] in ops {
                acc ^= f(black_box(a), black_box(b), black_box(c));
            }
            black_box(acc);
            sw.elapsed_seconds() * 1e9 / ops.len() as f64
        })
        .collect();
    median(&runs)
}

/// Reports nanoseconds per call of the five `ihw-core` unit functions
/// over the given operand values, taken three at a time.
pub fn core_units(o: &mut Outcome, values: &[f32]) {
    let ops: Vec<[f32; 3]> = values.chunks_exact(3).map(|c| [c[0], c[1], c[2]]).collect();
    let th = IhwConfig::DEFAULT_TH;
    let ac = AcMulConfig::new(MulPath::Log, 19);
    const R: usize = 7;
    let units = [
        (
            "core.iadd32_ns",
            ns_per_op(&ops, R, |a, b, _| adder::iadd32(a, b, th).to_bits()),
        ),
        (
            "core.imul32_ns",
            ns_per_op(&ops, R, |a, b, _| multiplier::imul32(a, b).to_bits()),
        ),
        (
            "core.acmul32_t19_ns",
            ns_per_op(&ops, R, |a, b, _| ac.mul32(a, b).to_bits()),
        ),
        (
            "core.rsqrt32_ns",
            ns_per_op(&ops, R, |a, _, _| {
                sfu::imprecise_rsqrt_bits(Format::SINGLE, u64::from(a.to_bits())) as u32
            }),
        ),
        (
            "core.ifma32_ns",
            ns_per_op(&ops, R, |a, b, c| fma::ifma32(a, b, c, th).to_bits()),
        ),
    ];
    for (name, ns) in units {
        o.metric(name, ns);
    }
}

/// A (kernel, config) pair as the layer sweeps take it.
pub type PairRef<'a> = (&'a Program, &'a IhwConfig, &'a str);

/// Median microseconds of a cold `gpu_sim::plan::compile` over the
/// pairs, each compiled `repeats` times.
pub fn compile_us(pairs: &[PairRef<'_>], repeats: usize) -> f64 {
    let mut t = Vec::new();
    for &(prog, cfg, _) in pairs {
        for _ in 0..repeats {
            let sw = Stopwatch::start();
            black_box(gpu_sim::plan::compile(prog, cfg));
            t.push(sw.elapsed_seconds() * 1e6);
        }
    }
    median(&t)
}

/// Microseconds of `ihw_analyze::analyze_program` per pair (median of
/// `repeats` calls each), in pair order.
pub fn bound_us(pairs: &[PairRef<'_>], repeats: usize) -> Vec<f64> {
    let settings = AnalysisSettings::default();
    pairs
        .iter()
        .map(|&(prog, cfg, label)| {
            let t: Vec<f64> = (0..repeats)
                .map(|_| {
                    let sw = Stopwatch::start();
                    black_box(analyze_program(prog, cfg, label, &settings));
                    sw.elapsed_seconds() * 1e6
                })
                .collect();
            median(&t)
        })
        .collect()
}
