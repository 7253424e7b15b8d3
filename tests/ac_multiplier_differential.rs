//! Differential tests of the accuracy-configurable and bit-truncation
//! multipliers' word-width datapaths against the bodies they replace.
//!
//! `AcMulConfig::mul32` runs the whole Figure 7 datapath in 32-bit words
//! and `mul64` in 64-bit words, computing the full path's Mitchell term
//! through the `MA >> F` identity documented on `mitchell_term32`. The
//! oracle below is the original generic `u64` formulation: flush
//! subnormals, decode and encode through `Format`, take
//! `mitchell_mul(fa, fb) >> F` from the 128-bit Figure 6 unit, and resolve
//! specials in priority order (NaN, then Inf, then zero).
//!
//! The intuitive bit-truncation multiplier `TruncatedMul` shares the same
//! word shape (a straight-line normal datapath finished by the Table 1
//! special-operand stage): `mul32` in 32-bit words with a 64-bit product,
//! `mul_bits`/`mul64` in 64-bit words with a 128-bit product. Its oracle
//! is the original `classify`-matching `u64` body, which rounds each
//! significand, renormalises the rounding carry, and forms the product in
//! `u128` for every format.
//!
//! Every check compares raw bit patterns, so NaN payloads and signed
//! zeros count.

use imprecise_gpgpu::core::ac_multiplier::{
    mitchell_term32, mitchell_term64, AcMulConfig, MulPath,
};
use imprecise_gpgpu::core::format::{flush_subnormal, Format, RoundedClass};
use imprecise_gpgpu::core::mitchell::mitchell_mul;
use imprecise_gpgpu::core::truncated::TruncatedMul;

const PATHS: [MulPath; 2] = [MulPath::Log, MulPath::Full];

// ---------------------------------------------------------------------
// Oracle: the generic u64 datapath over the 128-bit Mitchell unit.
// ---------------------------------------------------------------------

fn oracle_bits(cfg: AcMulConfig, fmt: Format, a: u64, b: u64) -> u64 {
    let a = flush_subnormal(fmt, a);
    let b = flush_subnormal(fmt, b);
    let f = fmt.frac_bits;
    let emax = fmt.exp_max();
    let ea = (a >> f) & emax;
    let eb = (b >> f) & emax;
    let fra = a & fmt.frac_mask();
    let frb = b & fmt.frac_mask();
    let sign = ((a ^ b) >> (fmt.exp_bits + f)) & 1;
    let a_nan = ea == emax && fra != 0;
    let b_nan = eb == emax && frb != 0;
    let a_inf = ea == emax && fra == 0;
    let b_inf = eb == emax && frb == 0;
    let a_zero = ea == 0;
    let b_zero = eb == 0;

    let exp = ea as i64 + eb as i64 - 2 * fmt.bias();
    let t = cfg.truncation.min(f);
    let keep_mask = fmt.frac_mask() & !((1u64 << t) - 1);
    let fa = fra & keep_mask;
    let fb = frb & keep_mask;
    let normal = match cfg.path {
        MulPath::Log => {
            let sum = fa + fb;
            fmt.encode_normal(sign, exp + (sum >> f) as i64, sum & fmt.frac_mask())
        }
        MulPath::Full => {
            let ma_term = (mitchell_mul(fa, fb) >> f) as u64;
            let mut mant = fmt.hidden_bit() + fa + fb + ma_term;
            let shift = ((63 - i64::from(mant.leading_zeros())) - f as i64).max(0);
            mant >>= shift;
            fmt.encode_normal(sign, exp + shift, mant - fmt.hidden_bit())
        }
    };

    if a_nan || b_nan || (a_inf && b_zero) || (a_zero && b_inf) {
        fmt.nan()
    } else if a_inf || b_inf {
        fmt.infinity(sign)
    } else if a_zero || b_zero {
        fmt.zero(sign)
    } else {
        normal
    }
}

fn check32(cfg: AcMulConfig, a: u32, b: u32) {
    let got = cfg.mul32(f32::from_bits(a), f32::from_bits(b)).to_bits();
    let want = oracle_bits(cfg, Format::SINGLE, a as u64, b as u64) as u32;
    assert_eq!(
        got, want,
        "mul32 {cfg:?}: {a:#010x} x {b:#010x} gave {got:#010x}, oracle {want:#010x}"
    );
}

fn check64(cfg: AcMulConfig, a: u64, b: u64) {
    let got = cfg.mul64(f64::from_bits(a), f64::from_bits(b)).to_bits();
    let want = oracle_bits(cfg, Format::DOUBLE, a, b);
    assert_eq!(
        got, want,
        "mul64 {cfg:?}: {a:#018x} x {b:#018x} gave {got:#018x}, oracle {want:#018x}"
    );
}

// ---------------------------------------------------------------------
// Oracle: the original `TruncatedMul` body (u128 product, every format).
// ---------------------------------------------------------------------

fn oracle_truncated(truncation: u32, fmt: Format, a: u64, b: u64) -> u64 {
    let a = flush_subnormal(fmt, a);
    let b = flush_subnormal(fmt, b);
    let pa = fmt.decompose(a);
    let pb = fmt.decompose(b);
    let sign = pa.sign ^ pb.sign;
    match (fmt.classify(&pa), fmt.classify(&pb)) {
        (RoundedClass::Nan, _) | (_, RoundedClass::Nan) => fmt.nan(),
        (RoundedClass::Infinite, RoundedClass::Zero)
        | (RoundedClass::Zero, RoundedClass::Infinite) => fmt.nan(),
        (RoundedClass::Infinite, _) | (_, RoundedClass::Infinite) => fmt.infinity(sign),
        (RoundedClass::Zero, _) | (_, RoundedClass::Zero) => fmt.zero(sign),
        (RoundedClass::Normal, RoundedClass::Normal) => {
            let f = fmt.frac_bits;
            let t = truncation.min(f);
            let round = |m: u64| {
                if t == 0 {
                    return m;
                }
                ((m + (1u64 << (t - 1))) >> t) << t
            };
            let renorm = |m: u64| {
                let c = (m >> (f + 1)) & 1;
                (m >> c, c as i64)
            };
            let (ma, ea) = renorm(round(fmt.significand(&pa)));
            let (mb, eb) = renorm(round(fmt.significand(&pb)));
            let exp = fmt.unbiased_exp(&pa) + fmt.unbiased_exp(&pb) + ea + eb;
            let p = (ma as u128) * (mb as u128);
            let cin = (p >> (2 * f + 1)) as u32 & 1;
            let (p, exp) = (p >> cin, exp + i64::from(cin));
            let frac = ((p >> f) as u64) & fmt.frac_mask();
            fmt.encode_normal(sign, exp, frac)
        }
    }
}

/// `a × b` through every `TruncatedMul` entry point that serves `fmt`.
fn check_truncated(t: u32, fmt: Format, a: u64, b: u64) {
    let tm = TruncatedMul::new(t);
    let want = oracle_truncated(t, fmt, a, b);
    let ctx = || format!("TruncatedMul({t}) {fmt:?}: {a:#x} x {b:#x}");
    assert_eq!(tm.mul_bits(fmt, a, b), want, "mul_bits {}", ctx());
    if fmt == Format::SINGLE {
        let got = tm.mul32(f32::from_bits(a as u32), f32::from_bits(b as u32));
        assert_eq!(u64::from(got.to_bits()), want, "mul32 {}", ctx());
    }
    if fmt == Format::DOUBLE {
        let got = tm.mul64(f64::from_bits(a), f64::from_bits(b));
        assert_eq!(got.to_bits(), want, "mul64 {}", ctx());
    }
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Special encodings of `fmt`: ±0, ±Inf, quiet/signalling/negative NaNs,
/// the smallest and largest subnormals, and the min/max normals.
fn specials(fmt: Format) -> Vec<u64> {
    let s = 1u64 << (fmt.exp_bits + fmt.frac_bits);
    let inf = fmt.exp_max() << fmt.frac_bits;
    let min_normal = 1u64 << fmt.frac_bits;
    let max_normal = inf - 1;
    let mut v = vec![
        0,
        inf,
        fmt.nan(),
        inf | 1,
        inf | fmt.frac_mask(),
        1,
        fmt.frac_mask(),
        min_normal,
        min_normal | fmt.frac_mask(),
        max_normal,
        max_normal & !fmt.frac_mask(),
        fmt.bias() as u64 * min_normal, // 1.0
    ];
    v.extend(v.clone().into_iter().map(|x| x | s));
    v
}

/// A seeded bit pattern of `fmt`: uniform bits, values whose exponents
/// keep most products normal, subnormals, or a special encoding.
fn pattern(fmt: Format, specials: &[u64], st: &mut u64) -> u64 {
    let r = splitmix(st);
    let sign = (r >> 63) << (fmt.exp_bits + fmt.frac_bits);
    let frac = (r >> 1) & fmt.frac_mask();
    match r % 16 {
        0..=3 => r & (((1u64 << (fmt.total_bits() - 1)) << 1).wrapping_sub(1)),
        4..=11 => {
            // Exponent within ±bias/2 of 1.0.
            let span = fmt.bias() as u64;
            let e = fmt.bias() as u64 - span / 2 + (splitmix(st) % span);
            sign | (e << fmt.frac_bits) | frac
        }
        12..=13 => sign | frac,
        _ => specials[(splitmix(st) % specials.len() as u64) as usize],
    }
}

/// Exponent fields whose pairwise sums cover normal products, overflow to
/// infinity, underflow to zero, and the carries across both edges.
fn exponent_fields(fmt: Format) -> Vec<u64> {
    let bias = fmt.bias() as u64;
    let emax = fmt.exp_max();
    vec![
        1,
        2,
        bias / 2,
        bias - 1,
        bias,
        bias + 1,
        emax - 3,
        emax - 2,
        emax - 1,
    ]
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

/// `MA(a, b) >> F == mitchell_term(F, a, b)` for every `a, b < 2^12`, at
/// both word widths.
#[test]
fn ma_term_identity_exhaustive_12_bits() {
    const F: u32 = 12;
    for a in 0..1u64 << F {
        for b in 0..1u64 << F {
            let want = (mitchell_mul(a, b) >> F) as u64;
            assert_eq!(mitchell_term64(F, a, b), want, "u64 a={a} b={b}");
            assert_eq!(
                mitchell_term32(F, a as u32, b as u32) as u64,
                want,
                "u32 a={a} b={b}"
            );
        }
    }
}

/// The identity at the widths the multiplier uses, on seeded fractions
/// of every leading-one position.
#[test]
fn ma_term_identity_single_and_double_widths() {
    let mut st = 0x5EED_0001;
    for f in [23u32, 52] {
        for _ in 0..200_000 {
            let (r, s) = (splitmix(&mut st), splitmix(&mut st));
            let a = (r & ((1 << f) - 1)) >> (r >> 58);
            let b = (s & ((1 << f) - 1)) >> (s >> 58);
            let want = (mitchell_mul(a, b) >> f) as u64;
            assert_eq!(mitchell_term64(f, a, b), want, "F={f} a={a} b={b}");
            if f == 23 {
                assert_eq!(mitchell_term32(f, a as u32, b as u32) as u64, want);
            }
        }
    }
}

/// Every kept-fraction pair of a 4-bit kept fraction (t = 19 single,
/// t = 48 double), over exponent pairs that stay normal, overflow and
/// underflow, with seeded garbage in the truncated bits and both signs.
#[test]
fn exhaustive_kept_fractions_headline_truncation() {
    let mut st = 0x5EED_0002;
    for (fmt, t) in [(Format::SINGLE, 19u32), (Format::DOUBLE, 48)] {
        let sign = 1u64 << (fmt.exp_bits + fmt.frac_bits);
        let low = (1u64 << t) - 1;
        let exps = exponent_fields(fmt);
        for path in PATHS {
            let cfg = AcMulConfig::new(path, t);
            for ka in 0..16u64 {
                for kb in 0..16u64 {
                    for &ea in &exps {
                        for &eb in &exps {
                            let a = (ea << fmt.frac_bits) | (ka << t) | (splitmix(&mut st) & low);
                            let b = (eb << fmt.frac_bits) | (kb << t) | (splitmix(&mut st) & low);
                            for (a, b) in [(a, b), (a | sign, b), (a, b | sign)] {
                                if fmt == Format::SINGLE {
                                    check32(cfg, a as u32, b as u32);
                                } else {
                                    check64(cfg, a, b);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Every exponent field pair `(ea, eb)` in 0..=255² on both paths at
/// every truncation 0..=24 (24 clamps to 23), fractions {0, 1, all ones,
/// seeded} on the first operand against a rotation of the set on the
/// second, in both operand orders and with seeded signs. Covers every
/// overflow and underflow edge of both paths' exponent increments and
/// every pair that touches a subnormal, zero, infinity or NaN field.
#[test]
fn mul32_every_exponent_pair_every_truncation() {
    let sign = 1u32 << 31;
    let mut st = 0x5EED_0003;
    for t in 0..=24u32 {
        for path in PATHS {
            let cfg = AcMulConfig::new(path, t);
            for ea in 0..=255u32 {
                for eb in 0..=255u32 {
                    let seeded = splitmix(&mut st);
                    let fracs = [0, 1, (1 << 23) - 1, seeded as u32 >> 9];
                    for (i, &fa) in fracs.iter().enumerate() {
                        let fb = fracs[(i + eb as usize) % 4];
                        let signs = seeded >> (32 + 2 * i);
                        let a = (ea << 23) | fa | (sign * (signs & 1) as u32);
                        let b = (eb << 23) | fb | (sign * ((signs >> 1) & 1) as u32);
                        check32(cfg, a, b);
                        check32(cfg, b, a);
                    }
                }
            }
        }
    }
}

/// Every special encoding against every other, on both paths at several
/// truncations.
#[test]
fn specials_against_specials() {
    for t in [0u32, 19, 23, 48, 52] {
        for path in PATHS {
            let cfg = AcMulConfig::new(path, t);
            let s32 = specials(Format::SINGLE);
            for &a in &s32 {
                for &b in &s32 {
                    check32(cfg, a as u32, b as u32);
                }
            }
            let s64 = specials(Format::DOUBLE);
            for &a in &s64 {
                for &b in &s64 {
                    check64(cfg, a, b);
                }
            }
        }
    }
}

/// 2^20 seeded bit patterns per truncation 0..=23 and path, single.
#[test]
fn seeded_patterns_every_truncation_single() {
    let sp = specials(Format::SINGLE);
    for t in 0..=23u32 {
        for path in PATHS {
            let cfg = AcMulConfig::new(path, t);
            let mut st = 0x5EED_3200 ^ ((t as u64) << 8) ^ path as u64;
            for _ in 0..1 << 20 {
                let a = pattern(Format::SINGLE, &sp, &mut st) as u32;
                let b = pattern(Format::SINGLE, &sp, &mut st) as u32;
                check32(cfg, a, b);
            }
        }
    }
}

/// 2^20 seeded bit patterns per truncation 0..=52 and path, double.
#[test]
fn seeded_patterns_every_truncation_double() {
    let sp = specials(Format::DOUBLE);
    for t in 0..=52u32 {
        for path in PATHS {
            let cfg = AcMulConfig::new(path, t);
            let mut st = 0x5EED_6400 ^ ((t as u64) << 8) ^ path as u64;
            for _ in 0..1 << 20 {
                let a = pattern(Format::DOUBLE, &sp, &mut st);
                let b = pattern(Format::DOUBLE, &sp, &mut st);
                check64(cfg, a, b);
            }
        }
    }
}

/// `TruncatedMul` at every truncation 0..=24 (24 clamps to 23) over every
/// single precision exponent field pair `(ea, eb)` in 0..=255², fractions
/// {0, 1, all ones, seeded} on the first operand against a rotation of
/// the set on the second, in both operand orders and with seeded signs.
/// Covers the rounding carry of an all-ones fraction, every overflow and
/// underflow edge, and every pair that touches a zero, subnormal,
/// infinity or NaN field.
#[test]
fn truncated_mul32_every_exponent_pair_every_truncation() {
    let sign = 1u32 << 31;
    let mut st = 0x5EED_7001;
    for t in 0..=24u32 {
        for ea in 0..=255u32 {
            for eb in 0..=255u32 {
                let seeded = splitmix(&mut st);
                let fracs = [0, 1, (1 << 23) - 1, seeded as u32 >> 9];
                for (i, &fa) in fracs.iter().enumerate() {
                    let fb = fracs[(i + eb as usize) % 4];
                    let signs = seeded >> (32 + 2 * i);
                    let a = (ea << 23) | fa | (sign * (signs & 1) as u32);
                    let b = (eb << 23) | fb | (sign * ((signs >> 1) & 1) as u32);
                    check_truncated(t, Format::SINGLE, a.into(), b.into());
                    check_truncated(t, Format::SINGLE, b.into(), a.into());
                }
            }
        }
    }
}

/// `TruncatedMul`: every special encoding against every other, and 2^16
/// seeded bit patterns per truncation, in single, double and binary16
/// precision, at every truncation up to the fraction width plus one.
#[test]
fn truncated_mul_specials_and_seeded_patterns() {
    for fmt in [Format::SINGLE, Format::DOUBLE, Format::HALF] {
        let sp = specials(fmt);
        for t in 0..=fmt.frac_bits + 1 {
            for &a in &sp {
                for &b in &sp {
                    check_truncated(t, fmt, a, b);
                }
            }
            let mut st = 0x5EED_7100 ^ (u64::from(t) << 8) ^ u64::from(fmt.frac_bits);
            for _ in 0..1 << 16 {
                let a = pattern(fmt, &sp, &mut st);
                let b = pattern(fmt, &sp, &mut st);
                check_truncated(t, fmt, a, b);
            }
        }
    }
}
