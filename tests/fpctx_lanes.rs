//! Conformance of the `FpCtx` double-precision slice ops to the scalar
//! ops they batch.
//!
//! For every stock config (precise, `all_imprecise`, each multiplier
//! kind, and the imprecise adder at TH 1, 8 and 27), each slice op
//! (`add64_lanes`, `sub64_lanes`, `mul64_lanes`, `fma64_lanes`,
//! `rcp64_lanes`) and the ordered fold `fma64_fold` must equal a loop of
//! the scalar op over the same operands: every value bit for bit (any
//! NaN equals any NaN; see `bits`) and the `OpCounts`. The operands
//! are seeded draws mixed with NaN, ±Inf, ±0, subnormals and values near
//! the overflow threshold, at lengths 0, 1, an odd length and one past
//! `LANE_BLOCK`. Slices of mismatched length panic with a message.

use imprecise_gpgpu::core::ac_multiplier::{AcMulConfig, MulPath};
use imprecise_gpgpu::core::config::{AddUnit, IhwConfig, MulUnit};
use imprecise_gpgpu::core::truncated::TruncatedMul;
use imprecise_gpgpu::sim::dispatch::{FpCtx, LANE_BLOCK};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

fn configs() -> Vec<(String, IhwConfig)> {
    let p = IhwConfig::precise();
    let mut v = vec![
        ("precise".to_string(), p),
        ("all_imprecise".to_string(), IhwConfig::all_imprecise()),
        ("imul".to_string(), p.with_mul(MulUnit::Imprecise)),
    ];
    for t in [0, 44] {
        for (name, path) in [("fp", MulPath::Full), ("lp", MulPath::Log)] {
            let mul = MulUnit::AcMul(AcMulConfig::new(path, t));
            v.push((format!("{name}_tr{t}"), p.with_mul(mul)));
        }
        let mul = MulUnit::Truncated(TruncatedMul::new(t));
        v.push((format!("bt_{t}"), p.with_mul(mul)));
    }
    for th in [1, 8, 27] {
        let add = AddUnit::Imprecise { th };
        v.push((format!("add_th{th}"), p.with_add(add)));
        // The imprecise adder under an imprecise multiplier, for the FMA.
        let both = p
            .with_add(add)
            .with_mul(MulUnit::AcMul(AcMulConfig::new(MulPath::Log, 44)));
        v.push((format!("add_th{th}_lp_tr44"), both));
    }
    v
}

const SPECIALS: [f64; 14] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    f64::MIN_POSITIVE,
    -f64::MIN_POSITIVE / 2.0,
    5e-324,
    -1e-310,
    f64::MAX,
    -f64::MAX,
    1e308,
    -1.7e308,
    1.0,
];

/// `n` operands: a third arbitrary bit patterns (every exponent), a
/// third moderate values, a third specials.
fn operands(rng: &mut StdRng, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| match rng.gen_range(0..3u32) {
            0 => f64::from_bits(rng.next_u64()),
            1 => rng.gen_range(-4.0..4.0),
            _ => SPECIALS[rng.gen_range(0..SPECIALS.len())],
        })
        .collect()
}

/// Bit patterns, with every NaN as one canonical NaN. Rust leaves the
/// sign and payload of a NaN that host arithmetic produces unspecified,
/// and LLVM may commute a host `+` or `*`, which picks the other
/// operand's NaN; so two compilations of one precise op may differ on
/// a NaN's bits, but never on whether the result is NaN.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter()
        .map(|x| {
            if x.is_nan() {
                f64::NAN.to_bits()
            } else {
                x.to_bits()
            }
        })
        .collect()
}

/// Asserts that the two contexts counted the same ops.
fn same_record(what: &str, lanes: &FpCtx, scalar: &FpCtx) {
    assert_eq!(lanes.counts(), scalar.counts(), "{what}: OpCounts");
    assert_eq!(lanes.int_ops(), scalar.int_ops(), "{what}: int ops");
    assert_eq!(lanes.mem_ops(), scalar.mem_ops(), "{what}: mem ops");
}

#[test]
fn slice_ops_equal_a_loop_of_the_scalar_op() {
    let mut rng = StdRng::seed_from_u64(0x1a9e5);
    for (name, cfg) in configs() {
        for n in [0, 1, 7, 33, LANE_BLOCK + 1] {
            // Two operand draws per length.
            for draw in 0..2 {
                let a = operands(&mut rng, n);
                let b = operands(&mut rng, n);
                let c = operands(&mut rng, n);
                let what = |op: &str| format!("{op} under {name}, n = {n}, draw {draw}");
                let mut out = vec![0.0; n];

                type Binary = (
                    &'static str,
                    fn(&mut FpCtx, &[f64], &[f64], &mut [f64]),
                    fn(&mut FpCtx, f64, f64) -> f64,
                );
                let binary: [Binary; 3] = [
                    ("add64", FpCtx::add64_lanes, FpCtx::add64),
                    ("sub64", FpCtx::sub64_lanes, FpCtx::sub64),
                    ("mul64", FpCtx::mul64_lanes, FpCtx::mul64),
                ];
                for (op, lanes_op, scalar_op) in binary {
                    let (mut l, mut s) = (FpCtx::new(cfg), FpCtx::new(cfg));
                    lanes_op(&mut l, &a, &b, &mut out);
                    let want: Vec<f64> = (0..n).map(|k| scalar_op(&mut s, a[k], b[k])).collect();
                    assert_eq!(bits(&out), bits(&want), "{}", what(op));
                    same_record(&what(op), &l, &s);
                }

                let (mut l, mut s) = (FpCtx::new(cfg), FpCtx::new(cfg));
                l.fma64_lanes(&a, &b, &c, &mut out);
                let want: Vec<f64> = (0..n).map(|k| s.fma64(a[k], b[k], c[k])).collect();
                assert_eq!(bits(&out), bits(&want), "{}", what("fma64"));
                same_record(&what("fma64"), &l, &s);

                let (mut l, mut s) = (FpCtx::new(cfg), FpCtx::new(cfg));
                l.rcp64_lanes(&a, &mut out);
                let want: Vec<f64> = a.iter().map(|&x| s.rcp64(x)).collect();
                assert_eq!(bits(&out), bits(&want), "{}", what("rcp64"));
                same_record(&what("rcp64"), &l, &s);

                // The fold, from a special and from an ordinary start,
                // and over moderate operands alone, whose sum a special
                // operand cannot mask: a reordered sum shows there.
                let ma: Vec<f64> = (0..n).map(|_| rng.gen_range(-4.0..4.0)).collect();
                let mb: Vec<f64> = (0..n).map(|_| rng.gen_range(-4.0..4.0)).collect();
                let acc0 = c.first().copied().unwrap_or(-0.0);
                for (a, b, acc0) in [(&a, &b, acc0), (&a, &b, 0.25), (&ma, &mb, 0.25)] {
                    let (mut l, mut s) = (FpCtx::new(cfg), FpCtx::new(cfg));
                    let got = l.fma64_fold(a, b, acc0);
                    let want = (0..n).fold(acc0, |acc, k| s.fma64(a[k], b[k], acc));
                    assert_eq!(bits(&[got]), bits(&[want]), "{}", what("fma64_fold"));
                    same_record(&what("fma64_fold"), &l, &s);
                }
            }
        }
    }
}

#[test]
fn fold_is_ordered() {
    // Under a precise adder, summing 1e16 + 1 + 1 in order loses both
    // ones; any other order keeps them.
    let mut c = FpCtx::new(IhwConfig::precise());
    let got = c.fma64_fold(&[1e16, 1.0, 1.0], &[1.0; 3], 0.0);
    assert_eq!(got, 1e16);
    let got = c.fma64_fold(&[1.0, 1.0, 1e16], &[1.0; 3], 0.0);
    assert_eq!(got, 1e16 + 2.0);
}

#[test]
fn slice_ops_append_to_the_existing_counts_and_trace() {
    let cfg = IhwConfig::all_imprecise();
    let (mut l, mut s) = (FpCtx::new(cfg), FpCtx::new(cfg));
    for c in [&mut l, &mut s] {
        let _ = c.add64(1.0, 2.0);
        c.int_op(2);
        c.mem_op(1);
    }
    let a = [1.5, 3.0, -2.0];
    let mut out = [0.0; 3];
    l.rcp64_lanes(&a, &mut out);
    for &x in &a {
        let _ = s.rcp64(x);
    }
    same_record("rcp64 after scalar ops", &l, &s);
}

#[test]
#[should_panic(expected = "mul64_lanes: operand 1 has 2 lanes, out has 3")]
fn mismatched_lane_lengths_panic() {
    let mut c = FpCtx::new(IhwConfig::precise());
    c.mul64_lanes(&[1.0; 3], &[1.0; 2], &mut [0.0; 3]);
}

#[test]
#[should_panic(expected = "fma64_fold: operand slices differ in length")]
fn mismatched_fold_lengths_panic() {
    let mut c = FpCtx::new(IhwConfig::precise());
    let _ = c.fma64_fold(&[1.0; 3], &[1.0; 4], 0.0);
}
