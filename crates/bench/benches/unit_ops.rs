//! Throughput of every imprecise unit model against its precise host
//! counterpart — the software cost of the Tables 1–4 kernels — plus the
//! per-op bookkeeping around them: the counting dispatcher's counter
//! update and the error PMF's per-sample binning.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gpu_sim::dispatch::FpCtx;
use ihw_core::ac_multiplier::{AcMulConfig, MulPath};
use ihw_core::adder::iadd32;
use ihw_core::config::{IhwConfig, MulUnit};
use ihw_core::mitchell::mitchell_mul;
use ihw_core::multiplier::imul32;
use ihw_core::sfu::{idiv32, ilog2_32, ircp32, irsqrt32, isqrt32};
use ihw_core::truncated::TruncatedMul;
use ihw_error::ErrorPmf;

fn inputs() -> Vec<(f32, f32)> {
    ihw_qmc::Halton::<2>::new()
        .take(256)
        .map(|p| (0.5 + p[0] as f32 * 100.0, 0.5 + p[1] as f32 * 100.0))
        .collect()
}

fn bench_units(c: &mut Criterion) {
    let xs = inputs();
    let mut g = c.benchmark_group("unit_ops");
    g.bench_function("precise_add", |b| {
        b.iter(|| {
            xs.iter()
                .map(|&(x, y)| black_box(x) + black_box(y))
                .sum::<f32>()
        })
    });
    g.bench_function("iadd32_th8", |b| {
        b.iter(|| {
            xs.iter()
                .map(|&(x, y)| iadd32(black_box(x), black_box(y), 8))
                .sum::<f32>()
        })
    });
    g.bench_function("precise_mul", |b| {
        b.iter(|| {
            xs.iter()
                .map(|&(x, y)| black_box(x) * black_box(y))
                .sum::<f32>()
        })
    });
    g.bench_function("imul32", |b| {
        b.iter(|| {
            xs.iter()
                .map(|&(x, y)| imul32(black_box(x), black_box(y)))
                .sum::<f32>()
        })
    });
    let log = AcMulConfig::new(MulPath::Log, 19);
    g.bench_function("ac_mul_log_tr19", |b| {
        b.iter(|| {
            xs.iter()
                .map(|&(x, y)| log.mul32(black_box(x), black_box(y)))
                .sum::<f32>()
        })
    });
    let full = AcMulConfig::new(MulPath::Full, 0);
    g.bench_function("ac_mul_full_tr0", |b| {
        b.iter(|| {
            xs.iter()
                .map(|&(x, y)| full.mul32(black_box(x), black_box(y)))
                .sum::<f32>()
        })
    });
    // The stock `ray_ac_mul_t19` unit.
    let full19 = AcMulConfig::new(MulPath::Full, 19);
    g.bench_function("ac_mul_full_tr19", |b| {
        b.iter(|| {
            xs.iter()
                .map(|&(x, y)| full19.mul32(black_box(x), black_box(y)))
                .sum::<f32>()
        })
    });
    let tm = TruncatedMul::new(21);
    g.bench_function("trunc_mul_21", |b| {
        b.iter(|| {
            xs.iter()
                .map(|&(x, y)| tm.mul32(black_box(x), black_box(y)))
                .sum::<f32>()
        })
    });
    g.bench_function("mitchell_mul_u64", |b| {
        b.iter(|| {
            (1u64..257).fold(0u128, |acc, i| {
                acc ^ mitchell_mul(black_box(i * 7919), black_box(i * 104729))
            })
        })
    });
    g.bench_function("ircp32", |b| {
        b.iter(|| xs.iter().map(|&(x, _)| ircp32(black_box(x))).sum::<f32>())
    });
    g.bench_function("irsqrt32", |b| {
        b.iter(|| xs.iter().map(|&(x, _)| irsqrt32(black_box(x))).sum::<f32>())
    });
    g.bench_function("isqrt32", |b| {
        b.iter(|| xs.iter().map(|&(x, _)| isqrt32(black_box(x))).sum::<f32>())
    });
    g.bench_function("ilog2_32", |b| {
        b.iter(|| xs.iter().map(|&(x, _)| ilog2_32(black_box(x))).sum::<f32>())
    });
    g.bench_function("idiv32", |b| {
        b.iter(|| {
            xs.iter()
                .map(|&(x, y)| idiv32(black_box(x), black_box(y)))
                .sum::<f32>()
        })
    });
    // Counted dispatch: compare with `precise_add` for the counter cost.
    let mut precise = FpCtx::new(IhwConfig::precise());
    g.bench_function("fpctx_add32_precise", |b| {
        b.iter(|| {
            xs.iter()
                .map(|&(x, y)| precise.add32(black_box(x), black_box(y)))
                .sum::<f32>()
        })
    });
    // The Table 7 FP44 unit (full path, 44 truncated bits) in double
    // precision.
    let mut fp44 = FpCtx::new(
        IhwConfig::precise().with_mul(MulUnit::AcMul(AcMulConfig::new(MulPath::Full, 44))),
    );
    g.bench_function("fpctx_mul64_fp44", |b| {
        b.iter(|| {
            xs.iter()
                .map(|&(x, y)| fp44.mul64(black_box(x as f64), black_box(y as f64)))
                .sum::<f64>()
        })
    });
    let samples: Vec<(f64, f64)> = xs
        .iter()
        .map(|&(x, y)| (imul32(x, y) as f64, x as f64 * y as f64))
        .collect();
    g.bench_function("error_pmf_record", |b| {
        b.iter(|| {
            let mut pmf = ErrorPmf::new();
            for &(approx, exact) in &samples {
                pmf.record(black_box(approx), black_box(exact));
            }
            pmf.total()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_units);
criterion_main!(benches);
