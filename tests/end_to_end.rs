//! End-to-end pipeline tests: workload → functional simulation with IHW
//! dispatch → performance counters → SIMT timing → GPUWattch-style power
//! breakdown → Figure 12 system savings estimate.

use imprecise_gpgpu::core::config::IhwConfig;
use imprecise_gpgpu::power::SystemPowerModel;
use imprecise_gpgpu::sim::{GpuConfig, KernelLaunch, Simulator, WattchModel};
use imprecise_gpgpu::workloads::{cp, hotspot, raytrace, srad};

#[test]
fn hotspot_full_pipeline_matches_paper_band() {
    let params = hotspot::HotspotParams {
        rows: 48,
        cols: 48,
        steps: 16,
        seed: 9,
    };
    let (_, ctx) = hotspot::run_with_config(&params, IhwConfig::precise());
    let kernel = KernelLaunch::new(ctx.mix().clone());
    let stats = Simulator::new(GpuConfig::gtx480()).simulate(&kernel);
    assert!(stats.cycles > 0);
    let breakdown = WattchModel::gtx480().breakdown(&kernel.mix, &stats);
    // Figure 2: HotSpot's FPU+SFU share around 35%.
    let arith = breakdown.arithmetic_share();
    assert!((0.25..=0.50).contains(&arith), "arith share {arith}");

    let est = SystemPowerModel::new().estimate(
        ctx.counts(),
        &IhwConfig::all_imprecise(),
        breakdown.shares(),
    );
    // Table 5: HotSpot ≈32% holistic, ≈91% arithmetic savings.
    assert!(
        (0.20..=0.42).contains(&est.system_savings),
        "system savings {}",
        est.system_savings
    );
    assert!(
        est.arithmetic_savings > 0.7,
        "arith savings {}",
        est.arithmetic_savings
    );
}

#[test]
fn every_gpu_workload_produces_nonempty_counters() {
    let cfg = IhwConfig::precise();
    let (_, h) = hotspot::run_with_config(
        &hotspot::HotspotParams {
            rows: 16,
            cols: 16,
            steps: 4,
            seed: 1,
        },
        cfg,
    );
    let (_, _, s) = srad::run_with_config(
        &srad::SradParams {
            size: 24,
            iterations: 4,
            ..srad::SradParams::default()
        },
        cfg,
    );
    let (_, r) = raytrace::render_with_config(
        &raytrace::RayParams {
            size: 16,
            max_depth: 2,
        },
        cfg,
    );
    let (_, c) = cp::run_with_config(
        &cp::CpParams {
            size: 12,
            atoms: 16,
            seed: 1,
        },
        cfg,
    );
    for (name, ctx) in [("hotspot", &h), ("srad", &s), ("ray", &r), ("cp", &c)] {
        assert!(ctx.counts().total() > 100, "{name} too few FP ops");
        assert!(ctx.counts().fpu_total() > 0, "{name} no FPU ops");
        assert!(ctx.counts().sfu_total() > 0, "{name} no SFU ops");
        assert!(ctx.mem_ops() > 0, "{name} no memory ops");
    }
}

#[test]
fn savings_increase_with_more_imprecise_units() {
    let params = hotspot::HotspotParams {
        rows: 24,
        cols: 24,
        steps: 6,
        seed: 3,
    };
    let (_, ctx) = hotspot::run_with_config(&params, IhwConfig::precise());
    let kernel = KernelLaunch::new(ctx.mix().clone());
    let stats = Simulator::new(GpuConfig::gtx480()).simulate(&kernel);
    let shares = WattchModel::gtx480()
        .breakdown(&kernel.mix, &stats)
        .shares();
    let model = SystemPowerModel::new();

    let none = model.estimate(ctx.counts(), &IhwConfig::precise(), shares);
    let adder_only = model.estimate(
        ctx.counts(),
        &IhwConfig::precise().with_add(imprecise_gpgpu::core::config::AddUnit::Imprecise { th: 8 }),
        shares,
    );
    let all = model.estimate(ctx.counts(), &IhwConfig::all_imprecise(), shares);
    assert_eq!(none.system_savings, 0.0);
    assert!(adder_only.system_savings > 0.0);
    assert!(all.system_savings > adder_only.system_savings);
}

#[test]
fn imprecise_mode_changes_output_but_not_op_counts() {
    // The knob changes arithmetic, not control flow: counters must match
    // between precise and imprecise runs of the same workload.
    let params = hotspot::HotspotParams {
        rows: 16,
        cols: 16,
        steps: 4,
        seed: 5,
    };
    let (p_out, p_ctx) = hotspot::run_with_config(&params, IhwConfig::precise());
    let (i_out, i_ctx) = hotspot::run_with_config(&params, IhwConfig::all_imprecise());
    assert_eq!(p_ctx.counts().total(), i_ctx.counts().total());
    assert_eq!(p_ctx.mem_ops(), i_ctx.mem_ops());
    assert_ne!(p_out.temps, i_out.temps, "imprecision must be observable");
}

#[test]
fn gpu_time_scales_with_workload_size() {
    let small = hotspot::HotspotParams {
        rows: 16,
        cols: 16,
        steps: 4,
        seed: 1,
    };
    let large = hotspot::HotspotParams {
        rows: 32,
        cols: 32,
        steps: 8,
        seed: 1,
    };
    let sim = Simulator::new(GpuConfig::gtx480());
    let (_, sc) = hotspot::run_with_config(&small, IhwConfig::precise());
    let (_, lc) = hotspot::run_with_config(&large, IhwConfig::precise());
    let ts = sim.simulate(&KernelLaunch::new(sc.mix().clone()));
    let tl = sim.simulate(&KernelLaunch::new(lc.mix().clone()));
    assert!(
        tl.cycles > ts.cycles * 4,
        "8x work: {} vs {}",
        tl.cycles,
        ts.cycles
    );
}
