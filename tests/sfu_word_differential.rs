//! Differential tests of the single-precision SFU bodies against the
//! `Format`-generic bodies they replace.
//!
//! `ircp32`, `irsqrt32`, `isqrt32`, `ilog2_32`, `iexp2_32` and `idiv32`
//! run branch-free single-precision bodies: the generic body's `f64`
//! expression and truncating encode on every lane, then one
//! special-operand select. The oracles are the `imprecise_*_bits` bodies
//! at `Format::SINGLE`, which still serve double precision and every
//! `Format`-taking caller. Every check compares raw bit patterns, so NaN
//! payloads and signed zeros count.
//!
//! The `#[ignore]`d `*_every_input` tests sweep all 2^32 inputs of each
//! unary unit; run them in release mode
//! (`cargo test --release --test sfu_word_differential -- --ignored`).

use imprecise_gpgpu::core::format::Format;
use imprecise_gpgpu::core::sfu::{
    idiv32, iexp2_32, ilog2_32, imprecise_div_bits, imprecise_exp2_bits, imprecise_log2_bits,
    imprecise_rcp_bits, imprecise_rsqrt_bits, imprecise_sqrt_bits, ircp32, irsqrt32, isqrt32,
};

/// A unary single-precision unit and its generic oracle.
type Unary = (&'static str, fn(f32) -> f32, fn(Format, u64) -> u64);

const RCP: Unary = ("ircp32", ircp32, imprecise_rcp_bits);
const RSQRT: Unary = ("irsqrt32", irsqrt32, imprecise_rsqrt_bits);
const SQRT: Unary = ("isqrt32", isqrt32, imprecise_sqrt_bits);
const LOG2: Unary = ("ilog2_32", ilog2_32, imprecise_log2_bits);
const EXP2: Unary = ("iexp2_32", iexp2_32, imprecise_exp2_bits);

fn check_unary((name, unit, oracle): Unary, x: u32) {
    let got = unit(f32::from_bits(x)).to_bits();
    let want = oracle(Format::SINGLE, u64::from(x)) as u32;
    assert_eq!(
        got, want,
        "{name}({x:#010x}) gave {got:#010x}, oracle {want:#010x}"
    );
}

fn check_div(a: u32, b: u32) {
    let got = idiv32(f32::from_bits(a), f32::from_bits(b)).to_bits();
    let want = imprecise_div_bits(Format::SINGLE, u64::from(a), u64::from(b)) as u32;
    assert_eq!(
        got, want,
        "idiv32({a:#010x}, {b:#010x}) gave {got:#010x}, oracle {want:#010x}"
    );
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every fraction at an odd (`2^-1`) and an even (`2^0`) exponent: for
/// rcp, rsqrt and sqrt the result depends only on the fraction and the
/// exponent's parity away from the encode's edges, so these 2^24 cases
/// and [`unary_every_exponent_field`] exhaust them. log2 adds the
/// exponent itself and exp2 the whole value, so for those two this is a
/// sample; the ignored sweeps cover them.
fn unary_every_fraction_and_parity(unit: Unary) {
    for frac in 0..1u32 << 23 {
        for e in [126u32, 127] {
            check_unary(unit, (e << 23) | frac);
        }
    }
}

/// Every exponent field, edges and specials included, with 3·2^12
/// fractions each (every value of the top 12 fraction bits over seeded
/// low bits, the 2^12 smallest fractions and the 2^12 largest), in both
/// signs.
fn unary_every_exponent_field(unit: Unary) {
    let mut st = 0x5EED_5F00;
    for e in 0..=255u32 {
        for k in 0..1u32 << 12 {
            let low = splitmix(&mut st) as u32 & 0x7ff;
            for frac in [(k << 11) | low, k, (1 << 23) - 1 - k] {
                let x = (e << 23) | frac;
                check_unary(unit, x);
                check_unary(unit, x | 1 << 31);
            }
        }
    }
}

#[test]
fn ircp32_every_fraction_and_parity() {
    unary_every_fraction_and_parity(RCP);
}

#[test]
fn irsqrt32_every_fraction_and_parity() {
    unary_every_fraction_and_parity(RSQRT);
}

#[test]
fn isqrt32_every_fraction_and_parity() {
    unary_every_fraction_and_parity(SQRT);
}

#[test]
fn ilog2_32_every_fraction_and_parity() {
    unary_every_fraction_and_parity(LOG2);
}

#[test]
fn iexp2_32_every_fraction_and_parity() {
    unary_every_fraction_and_parity(EXP2);
}

#[test]
fn unary_sfus_every_exponent_field() {
    for unit in [RCP, RSQRT, SQRT, LOG2, EXP2] {
        unary_every_exponent_field(unit);
    }
}

/// Every exponent field pair `(ea, eb)` in 0..=255², fractions
/// {0, 1, all ones, seeded} on the dividend against a rotation of the
/// set on the divisor, in both operand orders and with seeded signs:
/// every overflow and underflow edge of `ea - eb - 1` and every special
/// pairing.
#[test]
fn idiv32_every_exponent_pair() {
    let sign = 1u32 << 31;
    let mut st = 0x5EED_D100;
    for ea in 0..=255u32 {
        for eb in 0..=255u32 {
            let seeded = splitmix(&mut st);
            let fracs = [0, 1, (1 << 23) - 1, seeded as u32 >> 9];
            for (i, &fa) in fracs.iter().enumerate() {
                let fb = fracs[(i + eb as usize) % 4];
                let signs = seeded >> (32 + 2 * i);
                let a = (ea << 23) | fa | (sign * (signs & 1) as u32);
                let b = (eb << 23) | fb | (sign * ((signs >> 1) & 1) as u32);
                check_div(a, b);
                check_div(b, a);
            }
        }
    }
}

/// 2^24 seeded pairs: uniform bits, values near 1.0, subnormals and
/// specials on either side.
#[test]
fn idiv32_seeded_pairs() {
    let mut st = 0x5EED_D200;
    let pattern = |st: &mut u64| -> u32 {
        let r = splitmix(st);
        let sign = (r >> 63) as u32 * (1 << 31);
        let frac = (r >> 1) as u32 & ((1 << 23) - 1);
        match r % 16 {
            0..=5 => r as u32,
            6..=12 => sign | ((107 + (r >> 32) as u32 % 40) << 23) | frac,
            13 => sign | frac,
            // A zero, subnormal, infinity or NaN.
            _ => {
                let exp = if (r >> 40) & 1 == 1 { 255 << 23 } else { 0 };
                let frac = if (r >> 41) & 1 == 1 { frac } else { 0 };
                sign | exp | frac
            }
        }
    };
    for _ in 0..1u32 << 24 {
        let a = pattern(&mut st);
        let b = pattern(&mut st);
        check_div(a, b);
    }
}

/// All 2^32 inputs of `unit`, on two threads.
fn unary_every_input(unit: Unary) {
    std::thread::scope(|s| {
        for half in 0..2u64 {
            s.spawn(move || {
                for x in (half << 31)..((half + 1) << 31) {
                    check_unary(unit, x as u32);
                }
            });
        }
    });
}

#[test]
#[ignore = "2^32 inputs: run in release mode"]
fn ircp32_every_input() {
    unary_every_input(RCP);
}

#[test]
#[ignore = "2^32 inputs: run in release mode"]
fn irsqrt32_every_input() {
    unary_every_input(RSQRT);
}

#[test]
#[ignore = "2^32 inputs: run in release mode"]
fn isqrt32_every_input() {
    unary_every_input(SQRT);
}

/// Includes the 2^31 − 2^24 positive normals, whose results depend on
/// the exponent as well as the fraction.
#[test]
#[ignore = "2^32 inputs: run in release mode"]
fn ilog2_32_every_input() {
    unary_every_input(LOG2);
}

#[test]
#[ignore = "2^32 inputs: run in release mode"]
fn iexp2_32_every_input() {
    unary_every_input(EXP2);
}
