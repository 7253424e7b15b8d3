//! Golden-value regression tests: the published numbers this
//! reproduction anchors on must never drift.

use imprecise_gpgpu::core::config::FpOp;
use imprecise_gpgpu::core::prelude::*;
use imprecise_gpgpu::power::{power_reduction, Precision, SynthesisLibrary};

#[test]
fn table2_normalized_metrics_are_the_published_values() {
    let lib = SynthesisLibrary::cmos45();
    let golden = [
        (FpOp::Add, 0.31, 0.74, 0.39),
        (FpOp::Mul, 0.040, 0.218, 0.103),
        (FpOp::Div, 0.84, 0.85, 0.64),
        (FpOp::Rcp, 0.20, 0.34, 0.25),
        (FpOp::Rsqrt, 0.061, 0.109, 0.087),
        (FpOp::Sqrt, 1.16, 0.33, 1.04),
        (FpOp::Log2, 0.30, 0.79, 0.36),
        (FpOp::Fma, 0.08, 0.70, 0.14),
    ];
    for (op, p, l, a) in golden {
        let n = lib.normalized(op);
        assert!((n.power - p).abs() < 1e-12, "{op} power drifted");
        assert!((n.latency - l).abs() < 1e-12, "{op} latency drifted");
        assert!((n.area - a).abs() < 1e-12, "{op} area drifted");
    }
}

#[test]
fn headline_power_reductions_are_anchored() {
    // 26× (single, log path tr19) and 49× (double, log path tr48).
    let s = power_reduction(
        &MulUnit::AcMul(AcMulConfig::new(MulPath::Log, 19)),
        Precision::Single,
    );
    assert!((s - 26.0).abs() < 1e-9, "single headline drifted: {s}");
    let d = power_reduction(
        &MulUnit::AcMul(AcMulConfig::new(MulPath::Log, 48)),
        Precision::Double,
    );
    assert!((d - 49.0).abs() < 1e-9, "double headline drifted: {d}");
    // 25× for the Table 1 unit.
    let t1 = power_reduction(&MulUnit::Imprecise, Precision::Single);
    assert!((t1 - 25.0).abs() < 1e-9, "Table 1 unit drifted: {t1}");
}

#[test]
fn canonical_unit_outputs_are_bit_stable() {
    // Characteristic bit patterns of each unit on fixed inputs — any
    // change to the datapaths must be deliberate.
    assert_eq!(imul32(1.5, 1.5).to_bits(), 2.0f32.to_bits());
    assert_eq!(iadd32(1024.0, 1.0, 8).to_bits(), 1024.0f32.to_bits());
    assert_eq!(ircp32(2.0).to_bits(), 0x3ef0_e560, "ircp32(2.0) pattern");
    assert_eq!(isqrt32(2.0).to_bits(), 0x3fbe_0275, "isqrt32(2.0) pattern");
    assert_eq!(
        AcMulConfig::new(MulPath::Full, 0).mul32(1.3, 1.7).to_bits(),
        0x400c_cccc,
        "full path pattern"
    );
    assert_eq!(
        AcMulConfig::new(MulPath::Log, 19).mul32(1.3, 1.7).to_bits(),
        0x3ff8_0000,
        "log path tr19 pattern"
    );
}

#[test]
fn table1_epsilon_bounds_are_anchored() {
    use imprecise_gpgpu::core::bounds;
    assert_eq!(bounds::IFPMUL_MAX_ERROR, 0.25);
    assert!((bounds::AC_FULL_PATH_MAX_ERROR - 1.0 / 49.0).abs() < 1e-15);
    assert!((bounds::AC_LOG_PATH_MAX_ERROR - 1.0 / 9.0).abs() < 1e-15);
    assert!((bounds::adder_add_bound(8) - 1.0 / 129.0).abs() < 1e-15);
}

/// FNV-1a (64-bit) over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn fig19_quick_output_is_pinned() {
    // Figure 19 at Quick scale: the 11-config HotSpot MAE/WED table and
    // the lp_tr19 heat map. Any drift in the HotSpot kernel, the
    // multipliers or the rendering moves this digest.
    let (table, map) = ihw_bench::experiments::apps::fig19(ihw_bench::Scale::Quick);
    let rendered = format!("{}\n{map}", table.render());
    assert_eq!(
        fnv1a(rendered.as_bytes()),
        0x9ec8_79a9_2d8b_4517,
        "fig19 output:\n{rendered}"
    );
}
