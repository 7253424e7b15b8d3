//! Integration tests for the future-work extension features, exercised
//! through the facade crate: half precision, the dual-mode multiplier,
//! segmented Mitchell, DVFS composition, the kernel IR + assembler, and
//! the new workloads.

use imprecise_gpgpu::core::config::IhwConfig;
use imprecise_gpgpu::core::prelude::*;
use imprecise_gpgpu::sim::asm::assemble;
use imprecise_gpgpu::sim::dvfs::{combined_power_factor, DvfsPoint};
use imprecise_gpgpu::sim::isa::WarpInterpreter;
use imprecise_gpgpu::sim::tuner::{tune_sites, QualityConstraint};
use imprecise_gpgpu::sim::KernelLaunch;
use imprecise_gpgpu::workloads::{backprop, cfd, jpeg, kmeans};

#[test]
fn half_precision_pipeline() {
    // f16 storage, imprecise compute, f32 verification — the mobile-GPU
    // deployment shape.
    let xs: Vec<F16> = (1..100).map(|i| F16::from_f32(i as f32 * 0.37)).collect();
    for pair in xs.windows(2) {
        let p = imprecise_gpgpu::core::half::imul16(pair[0], pair[1]).to_f32() as f64;
        let exact = pair[0].to_f32() as f64 * pair[1].to_f32() as f64;
        assert!((p - exact).abs() / exact <= 0.25 + 5e-3, "{p} vs {exact}");
    }
}

#[test]
fn dual_mode_and_site_tuning_compose() {
    let unit = DualModeMul::new(AcMulConfig::new(MulPath::Log, 12));
    // Tuning a synthetic 3-site app where site 0 is critical.
    let outcome = tune_sites(
        3,
        |mask| {
            let x = 1.37f32;
            let mode = |on: bool| {
                if on {
                    MulMode::Imprecise
                } else {
                    MulMode::Precise
                }
            };
            let y0 = unit.mul32(x, x, mode(mask[0]));
            let critical_err = ((y0 - x * x).abs() / (x * x)) as f64;
            1.0 - critical_err * 50.0 - mask[1..].iter().filter(|&&m| m).count() as f64 * 0.01
        },
        QualityConstraint::AtLeast(0.9),
    );
    assert!(!outcome.enabled[0], "critical site stays precise");
    assert!(
        outcome.enabled[1] && outcome.enabled[2],
        "tolerant sites go imprecise"
    );
}

#[test]
fn segmented_mitchell_in_design_space() {
    // Plain Mitchell's worst case: both fractions at 0.5 (3·2^k operands).
    let a = 3u64 << 19;
    let b = (3u64 << 19) + 1;
    let exact = (a as u128 * b as u128) as f64;
    let e_plain = (exact - mitchell_mul(a, b) as f64).abs() / exact;
    let e_seg = (exact - SegmentedMitchell::new(16).mul(a, b) as f64).abs() / exact;
    assert!(e_plain > 0.10, "worst-case input for plain MA: {e_plain}");
    assert!(e_seg < e_plain / 3.0, "{e_seg} ≪ {e_plain}");
    // And across the design space.
    assert!(SegmentedMitchell::new(16).measured_max_error() < 1.0 / 9.0 / 4.0);
}

#[test]
fn dvfs_composes_with_table5_savings() {
    let hotspot_savings = 0.32;
    let point = DvfsPoint::scaled(0.9, 0.85);
    let combined = combined_power_factor(hotspot_savings, point, 0.8);
    let ihw_only = combined_power_factor(hotspot_savings, DvfsPoint::NOMINAL, 0.8);
    assert!(combined < ihw_only);
    assert!(combined < 0.6, "more than 40% total saving: {combined}");
}

#[test]
fn assembler_to_power_pipeline() {
    let prog = assemble(
        "pythagoras",
        "
        ld r0, b0[tid]
        ld r1, b1[tid]
        fmul r2, r0, r0
        ffma r2, r1, r1, r2
        sqrt r2, r2
        st b2[tid], r2
        ",
    )
    .expect("assembles");
    let n = 256u32;
    let mut bufs = vec![
        vec![3.0f32; n as usize],
        vec![4.0f32; n as usize],
        vec![0.0f32; n as usize],
    ];
    let mut interp = WarpInterpreter::new(IhwConfig::all_imprecise());
    interp.launch(&prog, n, &mut bufs).expect("runs");
    // 3-4-5 triangle under imprecise mul+sqrt stays in the unit bounds.
    for &v in &bufs[2] {
        assert!((v as f64 - 5.0).abs() / 5.0 < 0.35, "{v}");
    }
    let kernel = KernelLaunch::new(interp.ctx().mix().clone());
    let stats = imprecise_gpgpu::sim::Simulator::new(imprecise_gpgpu::sim::GpuConfig::gtx480())
        .simulate(&kernel);
    assert!(stats.cycles > 0);
}

#[test]
fn new_workloads_run_under_both_datapaths() {
    let (kp, _) = kmeans::run_with_config(&kmeans::KmeansParams::default(), IhwConfig::precise());
    let (ki, _) =
        kmeans::run_with_config(&kmeans::KmeansParams::default(), IhwConfig::all_imprecise());
    assert!(ki.agreement_with(&kp) > 0.85);

    let params = jpeg::JpegParams::default();
    let (jp, _, _) = jpeg::run_with_config(&params, IhwConfig::precise());
    let (ji, _, _) = jpeg::run_with_config(&params, IhwConfig::all_imprecise());
    assert!(jpeg::psnr_8bit(&jp, &ji) > 15.0);

    let bp = backprop::BackpropParams {
        epochs: 20,
        ..Default::default()
    };
    let (b, ctx) = backprop::run_with_config(&bp, IhwConfig::precise());
    assert!(b.accuracy > 0.6);
    assert!(ctx.counts().get(imprecise_gpgpu::core::config::FpOp::Exp2) > 0);

    let cf = cfd::CfdParams {
        size: 12,
        steps: 20,
        ..cfd::CfdParams::default()
    };
    let (c, _) = cfd::run_with_config(&cf, IhwConfig::precise());
    assert!(c.speed().iter().all(|s| s.is_finite()));
}

#[test]
fn exp2_unit_reaches_the_whole_stack() {
    // iexp2 participates in the estimator like any other SFU op.
    use imprecise_gpgpu::power::{OpCounts, PowerShares, SystemPowerModel};
    let counts: OpCounts = [(imprecise_gpgpu::core::config::FpOp::Exp2, 500_000u64)]
        .into_iter()
        .collect();
    let est = SystemPowerModel::new().estimate(
        &counts,
        &IhwConfig::all_imprecise(),
        PowerShares::new(0.1, 0.2),
    );
    assert!(est.sfu_improvement > 0.5, "{}", est.sfu_improvement);
    assert_eq!(est.fpu_improvement, 0.0, "no FPU ops in the mix");
}
