//! Throughput of every imprecise unit model against its precise host
//! counterpart — the software cost of the Tables 1–4 kernels — plus the
//! per-op bookkeeping around them: the counting dispatcher's counter
//! update and the error PMF's per-sample binning. The `lanes128_*`
//! rows run one unit over a 128-lane block in a loop shaped like the
//! compiled engine's `map2`/`map3`: a unit body that stops vectorizing
//! shows up there as a several-fold jump.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gpu_sim::dispatch::FpCtx;
use ihw_core::ac_multiplier::{AcMulConfig, MulPath};
use ihw_core::adder::iadd32;
use ihw_core::config::{IhwConfig, MulUnit};
use ihw_core::fma::ifma32;
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

/// The compiled engine's lane-block width.
const LANES: usize = 128;
const _: () = assert!(LANES == gpu_sim::compile::LANES);

/// `d[i] ← f(a[i], b[i])` for `i < n`, as `compile::map2` runs it.
#[inline(never)]
fn lanes2(d: &mut [f32], a: &[f32], b: &[f32], n: usize, f: impl Fn(f32, f32) -> f32) {
    let (d, a, b) = (&mut d[..n], &a[..n], &b[..n]);
    for i in 0..n {
        d[i] = f(a[i], b[i]);
    }
}

/// `d[i] ← f(a[i], b[i], c[i])` for `i < n`, as `compile::map3` runs it.
#[inline(never)]
fn lanes3(
    d: &mut [f32],
    a: &[f32],
    b: &[f32],
    c: &[f32],
    n: usize,
    f: impl Fn(f32, f32, f32) -> f32,
) {
    let (d, a, b, c) = (&mut d[..n], &a[..n], &b[..n], &c[..n]);
    for i in 0..n {
        d[i] = f(a[i], b[i], c[i]);
    }
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
    let xa: Vec<f32> = xs[..LANES].iter().map(|p| p.0).collect();
    let xb: Vec<f32> = xs[..LANES].iter().map(|p| p.1).collect();
    let xc: Vec<f32> = xs[LANES..2 * LANES].iter().map(|p| p.0).collect();
    let mut out = vec![0.0f32; LANES];
    g.bench_function("lanes128_iadd32_th8", |b| {
        b.iter(|| {
            lanes2(&mut out, &xa, &xb, black_box(LANES), |x, y| iadd32(x, y, 8));
            black_box(&out);
        })
    });
    g.bench_function("lanes128_imul32", |b| {
        b.iter(|| {
            lanes2(&mut out, &xa, &xb, black_box(LANES), imul32);
            black_box(&out);
        })
    });
    g.bench_function("lanes128_ifma32_th8", |b| {
        b.iter(|| {
            lanes3(&mut out, &xa, &xb, &xc, black_box(LANES), |x, y, z| {
                ifma32(x, y, z, 8)
            });
            black_box(&out);
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
