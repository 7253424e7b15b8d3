//! End-to-end power-quality tradeoff study on HotSpot: functional
//! simulation, SIMT timing, GPUWattch-style breakdown, and the Figure 12
//! system-level savings estimate for several datapath configurations.
//!
//! ```text
//! cargo run --release --example hotspot_tradeoff
//! ```

use imprecise_gpgpu::core::config::{AddUnit, IhwConfig, MulUnit};
use imprecise_gpgpu::core::prelude::{AcMulConfig, MulPath};
use imprecise_gpgpu::power::SystemPowerModel;
use imprecise_gpgpu::quality::metrics::{mae, wed};
use imprecise_gpgpu::sim::{GpuConfig, KernelLaunch, Simulator, WattchModel};
use imprecise_gpgpu::workloads::hotspot;

fn main() {
    let params = hotspot::HotspotParams {
        rows: 64,
        cols: 64,
        steps: 24,
        seed: 7,
    };

    // Reference run: functional output + counters + power breakdown.
    let (reference, ctx) = hotspot::run_with_config(&params, IhwConfig::precise());
    let kernel = KernelLaunch::new(ctx.mix().clone());
    let stats = Simulator::new(GpuConfig::gtx480()).simulate(&kernel);
    let breakdown = WattchModel::gtx480().breakdown(&kernel.mix, &stats);
    println!(
        "baseline GPU power: {:.1} W (FPU {:.1}%, SFU {:.1}%)",
        breakdown.total_w(),
        breakdown.fpu_share() * 100.0,
        breakdown.sfu_share() * 100.0
    );
    println!(
        "kernel: {} cycles, {:.1} µs, bottleneck {:?}\n",
        stats.cycles, stats.time_us, stats.bottleneck
    );

    let configs: Vec<(&str, IhwConfig)> = vec![
        (
            "imprecise adder only (TH=8)",
            IhwConfig::precise().with_add(AddUnit::Imprecise { th: 8 }),
        ),
        (
            "AC multiplier (log, tr19)",
            IhwConfig::precise().with_mul(MulUnit::AcMul(AcMulConfig::new(MulPath::Log, 19))),
        ),
        ("all IHW units", IhwConfig::all_imprecise()),
    ];

    let model = SystemPowerModel::new();
    println!(
        "{:<30} {:>10} {:>10} {:>12} {:>12}",
        "configuration", "MAE (K)", "WED (K)", "arith sav", "system sav"
    );
    for (name, cfg) in configs {
        let (out, run_ctx) = hotspot::run_with_config(&params, cfg);
        let est = model.estimate(run_ctx.counts(), &cfg, breakdown.shares());
        println!(
            "{:<30} {:>10.4} {:>10.4} {:>11.1}% {:>11.1}%",
            name,
            mae(&reference.temps, &out.temps),
            wed(&reference.temps, &out.temps),
            est.arithmetic_savings * 100.0,
            est.system_savings * 100.0,
        );
    }
}
