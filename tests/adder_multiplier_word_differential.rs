//! Differential tests of the threshold adder's and the Table 1
//! multiplier's word-width datapaths against the bodies they replace.
//!
//! `add_word32`/`mul_word32` run single precision in 32-bit words and
//! `add_word64`/`mul_word64` run any format up to double precision in
//! 64-bit words; `iadd32`, `isub32`, `imul32` and `ifma32` call the
//! 32-bit words and the `Format`-taking `imprecise_*_bits` entry points
//! the 64-bit ones. The oracles below are the original `Format`-generic
//! `u64` bodies: flush subnormals through `flush_subnormal`, run the
//! normal × normal datapath, encode through `Format::encode_normal`, and
//! layer the special cases on top in reverse priority order. Every check
//! compares raw bit patterns, so NaN payloads and signed zeros count.

use imprecise_gpgpu::core::adder::{
    add_word32, add_word64, iadd32, iadd64, imprecise_add_bits, imprecise_sub_bits, isub32, isub64,
    TH_RANGE,
};
use imprecise_gpgpu::core::fma::{ifma32, ifma64};
use imprecise_gpgpu::core::format::{flush_subnormal, Format};
use imprecise_gpgpu::core::multiplier::{
    imprecise_mul_bits, imul32, imul64, mul_word32, mul_word64,
};

const FORMATS: [Format; 3] = [Format::HALF, Format::SINGLE, Format::DOUBLE];

// ---------------------------------------------------------------------
// Oracles: the generic u64 bodies over `Format`.
// ---------------------------------------------------------------------

fn sel(cond: bool, t: u64, f: u64) -> u64 {
    if cond {
        t
    } else {
        f
    }
}

fn oracle_add(fmt: Format, a: u64, b: u64, th: u32) -> u64 {
    assert!(TH_RANGE.contains(&th));
    let a = flush_subnormal(fmt, a);
    let b = flush_subnormal(fmt, b);
    let frac_bits = fmt.frac_bits;
    let emax = fmt.exp_max();
    let sign_shift = fmt.exp_bits + frac_bits;
    let ea = (a >> frac_bits) & emax;
    let eb = (b >> frac_bits) & emax;
    let fa = a & fmt.frac_mask();
    let fb = b & fmt.frac_mask();
    let same_sign = (a >> sign_shift) == (b >> sign_shift);
    let a_nan = ea == emax && fa != 0;
    let b_nan = eb == emax && fb != 0;
    let a_inf = ea == emax && fa == 0;
    let b_inf = eb == emax && fb == 0;
    let a_zero = ea == 0;
    let b_zero = eb == 0;

    let mut r = oracle_add_normals(fmt, a, b, th);
    r = sel(b_zero && !a_zero, a, r);
    r = sel(a_zero && !b_zero, b, r);
    r = sel(a_zero && b_zero, sel(same_sign, a, fmt.zero(0)), r);
    r = sel(b_inf && !a_inf, b, r);
    r = sel(a_inf && !b_inf, a, r);
    r = sel(a_inf && b_inf, sel(same_sign, a, fmt.nan()), r);
    sel(a_nan || b_nan, fmt.nan(), r)
}

fn oracle_add_normals(fmt: Format, a: u64, b: u64, th: u32) -> u64 {
    let frac_bits = fmt.frac_bits;
    let sign_shift = fmt.exp_bits + frac_bits;
    let mag_mask = (1u64 << sign_shift) - 1;
    let swap = (a & mag_mask) < (b & mag_mask);
    let (big_bits, small_bits) = if swap { (b, a) } else { (a, b) };
    let e_big = (big_bits >> frac_bits) & fmt.exp_max();
    let e_small = (small_bits >> frac_bits) & fmt.exp_max();
    let sign = big_bits >> sign_shift;

    let d = (e_big - e_small) as u32;
    let hidden = fmt.hidden_bit();
    let m_big = hidden | (big_bits & fmt.frac_mask());
    let mut m_small = (hidden | (small_bits & fmt.frac_mask())) >> d.min(63);
    if th < frac_bits {
        let dropped = frac_bits - th;
        m_small = (m_small >> dropped) << dropped;
    }
    let exp = e_big as i64 - fmt.bias();

    let sum = m_big + m_small;
    let carry = (sum >> (frac_bits + 1)) & 1;
    let add_res = fmt.encode_normal(sign, exp + carry as i64, (sum >> carry) & fmt.frac_mask());

    let diff = m_big - m_small;
    let lead = 63 - i64::from((diff | 1).leading_zeros());
    let shift = (frac_bits as i64 - lead).max(0);
    let mant = diff << shift;
    let sub_res = sel(
        diff == 0,
        fmt.zero(0),
        fmt.encode_normal(sign, exp - shift, mant & fmt.frac_mask()),
    );

    let effective_sub = ((big_bits ^ small_bits) >> sign_shift) == 1;
    let r = sel(effective_sub, sub_res, add_res);
    sel(d >= th, big_bits, r)
}

fn oracle_mul(fmt: Format, a: u64, b: u64) -> u64 {
    let a = flush_subnormal(fmt, a);
    let b = flush_subnormal(fmt, b);
    let frac_bits = fmt.frac_bits;
    let emax = fmt.exp_max();
    let ea = (a >> frac_bits) & emax;
    let eb = (b >> frac_bits) & emax;
    let fa = a & fmt.frac_mask();
    let fb = b & fmt.frac_mask();
    let sign = ((a ^ b) >> (fmt.exp_bits + frac_bits)) & 1;
    let a_nan = ea == emax && fa != 0;
    let b_nan = eb == emax && fb != 0;
    let a_inf = ea == emax && fa == 0;
    let b_inf = eb == emax && fb == 0;
    let a_zero = ea == 0;
    let b_zero = eb == 0;

    let exp = ea as i64 + eb as i64 - 2 * fmt.bias();
    let sum = fa + fb;
    let cin = sum >> frac_bits;
    let frac = ((sum + (cin << frac_bits)) >> cin) & fmt.frac_mask();
    let normal = fmt.encode_normal(sign, exp + cin as i64, frac);

    let mut r = normal;
    r = sel(a_zero || b_zero, fmt.zero(sign), r);
    r = sel(a_inf || b_inf, fmt.infinity(sign), r);
    r = sel((a_inf && b_zero) || (a_zero && b_inf), fmt.nan(), r);
    sel(a_nan || b_nan, fmt.nan(), r)
}

// ---------------------------------------------------------------------
// Checks: every entry point that reaches a word body, against the oracle.
// ---------------------------------------------------------------------

fn sign_bit(fmt: Format) -> u64 {
    1u64 << (fmt.exp_bits + fmt.frac_bits)
}

/// `a + b` and `a - b` at `th` through every adder entry point that
/// serves `fmt`.
fn check_add(fmt: Format, a: u64, b: u64, th: u32) {
    let (e, f) = (fmt.exp_bits, fmt.frac_bits);
    let want_add = oracle_add(fmt, a, b, th);
    let want_sub = oracle_add(fmt, a, b ^ sign_bit(fmt), th);
    let ctx = || format!("{fmt:?} th={th} a={a:#x} b={b:#x}");
    assert_eq!(add_word64(e, f, a, b, th), want_add, "add_word64 {}", ctx());
    assert_eq!(imprecise_add_bits(fmt, a, b, th), want_add, "add {}", ctx());
    assert_eq!(imprecise_sub_bits(fmt, a, b, th), want_sub, "sub {}", ctx());
    if fmt == Format::SINGLE {
        let (x, y) = (f32::from_bits(a as u32), f32::from_bits(b as u32));
        let got = add_word32(e, f, a as u32, b as u32, th);
        assert_eq!(u64::from(got), want_add, "add_word32 {}", ctx());
        assert_eq!(
            u64::from(iadd32(x, y, th).to_bits()),
            want_add,
            "iadd32 {}",
            ctx()
        );
        assert_eq!(
            u64::from(isub32(x, y, th).to_bits()),
            want_sub,
            "isub32 {}",
            ctx()
        );
    }
    if fmt == Format::DOUBLE {
        let (x, y) = (f64::from_bits(a), f64::from_bits(b));
        assert_eq!(iadd64(x, y, th).to_bits(), want_add, "iadd64 {}", ctx());
        assert_eq!(isub64(x, y, th).to_bits(), want_sub, "isub64 {}", ctx());
    }
}

/// `a × b` through every multiplier entry point that serves `fmt`.
fn check_mul(fmt: Format, a: u64, b: u64) {
    let (e, f) = (fmt.exp_bits, fmt.frac_bits);
    let want = oracle_mul(fmt, a, b);
    let ctx = || format!("{fmt:?} a={a:#x} b={b:#x}");
    assert_eq!(mul_word64(e, f, a, b), want, "mul_word64 {}", ctx());
    assert_eq!(imprecise_mul_bits(fmt, a, b), want, "mul {}", ctx());
    if fmt == Format::SINGLE {
        let got = mul_word32(e, f, a as u32, b as u32);
        assert_eq!(u64::from(got), want, "mul_word32 {}", ctx());
        let (x, y) = (f32::from_bits(a as u32), f32::from_bits(b as u32));
        assert_eq!(u64::from(imul32(x, y).to_bits()), want, "imul32 {}", ctx());
    }
    if fmt == Format::DOUBLE {
        let got = imul64(f64::from_bits(a), f64::from_bits(b)).to_bits();
        assert_eq!(got, want, "imul64 {}", ctx());
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

/// Special encodings of `fmt`, both signs: zero, infinity, quiet and
/// signalling NaNs, the smallest and largest subnormals, the min/max
/// normals and 1.0.
fn specials(fmt: Format) -> Vec<u64> {
    let inf = fmt.exp_max() << fmt.frac_bits;
    let min_normal = fmt.hidden_bit();
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
        fmt.bias() as u64 * min_normal,
    ];
    v.extend(v.clone().into_iter().map(|x| x | sign_bit(fmt)));
    v
}

/// A seeded fraction, often structured: uniform bits, zero, all ones, a
/// single bit, or a copy of `other` (exact cancellation at d = 0) or
/// `other` with its low bits perturbed (near cancellation).
fn fraction(fmt: Format, other: u64, st: &mut u64) -> u64 {
    let r = splitmix(st);
    let mask = fmt.frac_mask();
    match r % 8 {
        0 => 0,
        1 => mask,
        2 => 1 << ((r >> 8) % u64::from(fmt.frac_bits)),
        3 => other,
        4 => other ^ ((r >> 8) & 0xff & mask),
        _ => (r >> 8) & mask,
    }
}

/// A seeded bit pattern of `fmt`: uniform bits, values whose exponents
/// stay near 1.0, subnormals, or a special encoding.
fn pattern(fmt: Format, specials: &[u64], st: &mut u64) -> u64 {
    let r = splitmix(st);
    let sign = (r >> 63) * sign_bit(fmt);
    let frac = (r >> 1) & fmt.frac_mask();
    match r % 16 {
        0..=3 => r & ((sign_bit(fmt) << 1).wrapping_sub(1)),
        4..=11 => {
            let span = (fmt.bias() as u64).min(40);
            let e = fmt.bias() as u64 - span / 2 + (splitmix(st) % span);
            sign | (e << fmt.frac_bits) | frac
        }
        12..=13 => sign | frac,
        _ => specials[(splitmix(st) % specials.len() as u64) as usize],
    }
}

/// Exponent fields whose pairwise combinations cover normal results,
/// overflow to infinity, underflow to zero, and the carries and
/// normalisation shifts across both edges.
fn exponent_fields(fmt: Format) -> Vec<u64> {
    let bias = fmt.bias() as u64;
    let emax = fmt.exp_max();
    vec![
        1,
        2,
        3,
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
// Adder
// ---------------------------------------------------------------------

/// Every exponent difference 0..=30 against every TH 1..=27, with seeded
/// fractions, both operand orders and every sign pairing (the sub checks
/// flip the second sign).
#[test]
fn adder_every_exponent_difference_and_th() {
    let mut st = 0x5EED_A001;
    for fmt in FORMATS {
        let base = fmt.bias() as u64;
        for d in 0..=30u64 {
            for th in TH_RANGE {
                for _ in 0..24 {
                    let fb = (splitmix(&mut st) >> 4) & fmt.frac_mask();
                    let fa = fraction(fmt, fb, &mut st);
                    // Keep both exponents normal even for binary16.
                    let ea = (base + d / 2).min(fmt.exp_max() - 1);
                    let eb = ea.saturating_sub(d).max(1);
                    let a = (ea << fmt.frac_bits) | fa;
                    let b = (eb << fmt.frac_bits) | fb;
                    let neg = splitmix(&mut st) & 1 == 1;
                    let a = if neg { a | sign_bit(fmt) } else { a };
                    check_add(fmt, a, b, th);
                    check_add(fmt, b, a, th);
                }
            }
        }
    }
}

/// Every special encoding against every other at every TH.
#[test]
fn adder_specials_against_specials() {
    for fmt in FORMATS {
        let sp = specials(fmt);
        for th in TH_RANGE {
            for &a in &sp {
                for &b in &sp {
                    check_add(fmt, a, b, th);
                }
            }
        }
    }
}

/// Exponent pairs at both ends of the range: carries out of the largest
/// binade (overflow to infinity) and normalisation shifts below the
/// smallest (underflow to zero), with seeded fractions.
#[test]
fn adder_encode_overflow_and_underflow_edges() {
    let mut st = 0x5EED_A002;
    for fmt in FORMATS {
        let exps = exponent_fields(fmt);
        for th in TH_RANGE {
            for &ea in &exps {
                for &eb in &exps {
                    for _ in 0..4 {
                        let fb = (splitmix(&mut st) >> 4) & fmt.frac_mask();
                        let fa = fraction(fmt, fb, &mut st);
                        let a = (ea << fmt.frac_bits) | fa;
                        let b = (eb << fmt.frac_bits) | fb;
                        check_add(fmt, a, b, th);
                        check_add(fmt, a | sign_bit(fmt), b, th);
                    }
                }
            }
        }
    }
}

/// Seeded bit patterns (uniform, near 1.0, subnormal, special) at every
/// TH, in every format.
#[test]
fn adder_seeded_patterns_every_th() {
    for fmt in FORMATS {
        let sp = specials(fmt);
        for th in TH_RANGE {
            let mut st = 0x5EED_A100 ^ (u64::from(th) << 8) ^ u64::from(fmt.frac_bits);
            for _ in 0..1 << 13 {
                let a = pattern(fmt, &sp, &mut st);
                let b = pattern(fmt, &sp, &mut st);
                check_add(fmt, a, b, th);
            }
        }
    }
}

/// Every single precision exponent-field pair `(ea, eb)` in `0..=255`
/// at every TH, with each fraction of {0, 1, all ones, seeded} on the
/// first operand, paired with a rotation of the same set on the second
/// (the rotation steps with `eb`, so every exponent difference up to 252
/// meets all 16 fraction pairs), in both operand orders and with seeded
/// signs (the sub check flips the second sign). Covers every exponent difference
/// against every TH cut-off, including the `th >= 24` gaps where the
/// shifter, not TH, drops the smaller operand, and every pair that
/// touches a subnormal, zero, infinity or NaN field.
#[test]
fn adder32_every_exponent_pair_at_every_th() {
    let fmt = Format::SINGLE;
    let sign = sign_bit(fmt) as u32;
    let mut st = 0x5EED_A003;
    for th in TH_RANGE {
        for ea in 0..=255u32 {
            for eb in 0..=255u32 {
                let seeded = splitmix(&mut st);
                let fracs = [0, 1, fmt.frac_mask() as u32, seeded as u32 >> 9];
                for (i, &fa) in fracs.iter().enumerate() {
                    let fb = fracs[(i + eb as usize) % 4];
                    let signs = seeded >> (32 + 2 * i);
                    let a = (ea << 23) | fa | (sign * (signs & 1) as u32);
                    let b = (eb << 23) | fb | (sign * ((signs >> 1) & 1) as u32);
                    for (x, y) in [(a, b), (b, a)] {
                        let want_add = oracle_add(fmt, x.into(), y.into(), th);
                        let want_sub = oracle_add(fmt, x.into(), (y ^ sign).into(), th);
                        let got_add = add_word32(8, 23, x, y, th);
                        let (fx, fy) = (f32::from_bits(x), f32::from_bits(y));
                        let got_sub = isub32(fx, fy, th).to_bits();
                        let ctx = || format!("th={th} a={x:#010x} b={y:#010x}");
                        assert_eq!(u64::from(got_add), want_add, "add_word32 {}", ctx());
                        assert_eq!(u64::from(got_sub), want_sub, "isub32 {}", ctx());
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Multiplier
// ---------------------------------------------------------------------

/// Every special encoding against every other.
#[test]
fn multiplier_specials_against_specials() {
    for fmt in FORMATS {
        let sp = specials(fmt);
        for &a in &sp {
            for &b in &sp {
                check_mul(fmt, a, b);
            }
        }
    }
}

/// Every exponent field pair `(ea, eb)` in 0..=255², fractions
/// {0, 1, all ones, seeded} on the first operand against a rotation of
/// the set on the second (the rotation steps with `eb`, so every exponent
/// pair class meets all 16 fraction pairs), in both operand orders and
/// with seeded signs. Covers every overflow and underflow edge, with and
/// without the `Ma + Mb ≥ 1` carry, and every pair that touches a
/// subnormal, zero, infinity or NaN field.
#[test]
fn multiplier32_every_exponent_pair() {
    let fmt = Format::SINGLE;
    let sign = sign_bit(fmt) as u32;
    let mut st = 0x5EED_B003;
    for ea in 0..=255u32 {
        for eb in 0..=255u32 {
            let seeded = splitmix(&mut st);
            let fracs = [0, 1, fmt.frac_mask() as u32, seeded as u32 >> 9];
            for (i, &fa) in fracs.iter().enumerate() {
                let fb = fracs[(i + eb as usize) % 4];
                let signs = seeded >> (32 + 2 * i);
                let a = (ea << 23) | fa | (sign * (signs & 1) as u32);
                let b = (eb << 23) | fb | (sign * ((signs >> 1) & 1) as u32);
                for (x, y) in [(a, b), (b, a)] {
                    let want = oracle_mul(fmt, x.into(), y.into());
                    let got = imul32(f32::from_bits(x), f32::from_bits(y)).to_bits();
                    assert_eq!(u64::from(got), want, "imul32 a={x:#010x} b={y:#010x}");
                }
            }
        }
    }
}

/// Exponent pairs that stay normal, overflow, underflow, or cross either
/// edge on the `Ma + Mb ≥ 1` carry, with seeded fractions.
#[test]
fn multiplier_encode_overflow_and_underflow_edges() {
    let mut st = 0x5EED_B001;
    for fmt in FORMATS {
        let exps = exponent_fields(fmt);
        for &ea in &exps {
            for &eb in &exps {
                for _ in 0..64 {
                    let fb = (splitmix(&mut st) >> 4) & fmt.frac_mask();
                    let fa = fraction(fmt, fmt.frac_mask() - fb, &mut st);
                    let a = (ea << fmt.frac_bits) | fa;
                    let b = (eb << fmt.frac_bits) | fb;
                    check_mul(fmt, a, b);
                    check_mul(fmt, a | sign_bit(fmt), b);
                }
            }
        }
    }
}

/// 2^24 seeded single precision pairs, plus 2^20 binary16 and 2^20
/// double precision pairs.
#[test]
fn multiplier_seeded_patterns() {
    for (fmt, log2_n) in [
        (Format::SINGLE, 24),
        (Format::HALF, 20),
        (Format::DOUBLE, 20),
    ] {
        let sp = specials(fmt);
        let mut st = 0x5EED_B100 ^ u64::from(fmt.frac_bits);
        for _ in 0..1u64 << log2_n {
            let a = pattern(fmt, &sp, &mut st);
            let b = pattern(fmt, &sp, &mut st);
            check_mul(fmt, a, b);
        }
    }
}

// ---------------------------------------------------------------------
// FMA
// ---------------------------------------------------------------------

/// `ifma32`/`ifma64` compose the word bodies exactly as the oracles
/// compose (`add(mul(a, b), c)`), at every TH.
#[test]
fn fma_composes_the_word_bodies() {
    for fmt in [Format::SINGLE, Format::DOUBLE] {
        let sp = specials(fmt);
        for th in TH_RANGE {
            let mut st = 0x5EED_C100 ^ (u64::from(th) << 8) ^ u64::from(fmt.frac_bits);
            for _ in 0..1 << 11 {
                let a = pattern(fmt, &sp, &mut st);
                let b = pattern(fmt, &sp, &mut st);
                let c = pattern(fmt, &sp, &mut st);
                let want = oracle_add(fmt, oracle_mul(fmt, a, b), c, th);
                let got = if fmt == Format::SINGLE {
                    let [x, y, z] = [a, b, c].map(|v| f32::from_bits(v as u32));
                    u64::from(ifma32(x, y, z, th).to_bits())
                } else {
                    let [x, y, z] = [a, b, c].map(f64::from_bits);
                    ifma64(x, y, z, th).to_bits()
                };
                assert_eq!(got, want, "{fmt:?} th={th} {a:#x}·{b:#x}+{c:#x}");
            }
        }
    }
}

/// The TH range assert survives the word bodies, with its message.
#[test]
#[should_panic(expected = "TH must lie in [1, 27], got 28")]
fn word_adder_rejects_th_out_of_range() {
    let _ = add_word32(8, 23, 0x3f80_0000, 0x3f80_0000, 28);
}
