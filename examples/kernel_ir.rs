//! Write a GPU kernel in the text IR, execute it functionally on the
//! SIMT interpreter under precise and imprecise datapaths, and run the
//! full timing + power pipeline on the measured instruction mix.
//!
//! ```text
//! cargo run --release --example kernel_ir
//! ```

use imprecise_gpgpu::core::config::IhwConfig;
use imprecise_gpgpu::sim::asm::assemble;
use imprecise_gpgpu::sim::isa::WarpInterpreter;
use imprecise_gpgpu::sim::{GpuConfig, KernelLaunch, Simulator, WattchModel};

const KERNEL: &str = "
    # Gravitational-style kernel: out[i] = q / (x[i]^2 + y[i]^2)
    ld    r0, b0[tid]        # x
    ld    r1, b1[tid]        # y
    fmul  r2, r0, r0
    ffma  r2, r1, r1, r2     # r2 = x^2 + y^2
    rcp   r2, r2
    movi  r3, 2.5            # charge
    fmul  r2, r2, r3
    st    b2[tid], r2
";

fn main() {
    let prog = assemble("potential", KERNEL).expect("kernel assembles");
    println!(
        "assembled '{}' with {} instructions",
        prog.name(),
        prog.instrs().len()
    );

    let n = 1024u32;
    let x: Vec<f32> = (0..n).map(|i| 0.5 + i as f32 * 0.01).collect();
    let y: Vec<f32> = (0..n).map(|i| 1.0 + i as f32 * 0.02).collect();

    let mut precise_bufs = vec![x.clone(), y.clone(), vec![0.0f32; n as usize]];
    let mut precise = WarpInterpreter::new(IhwConfig::precise());
    precise
        .launch(&prog, n, &mut precise_bufs)
        .expect("precise run");

    let mut imprecise_bufs = vec![x, y, vec![0.0f32; n as usize]];
    let mut imprecise = WarpInterpreter::new(IhwConfig::all_imprecise());
    imprecise
        .launch(&prog, n, &mut imprecise_bufs)
        .expect("imprecise run");

    let mae = imprecise_bufs[2]
        .iter()
        .zip(&precise_bufs[2])
        .map(|(a, b)| (a - b).abs() as f64)
        .sum::<f64>()
        / n as f64;
    println!("mean absolute output error (imprecise vs precise): {mae:.6}");

    let kernel = KernelLaunch::new(precise.ctx().mix().clone());
    println!(
        "counters: {} fp ops ({} SFU), {} loads/stores",
        kernel.mix.fp.total(),
        kernel.mix.fp.sfu_total(),
        kernel.mix.mem_ops
    );
    let stats = Simulator::new(GpuConfig::gtx480()).simulate(&kernel);
    let breakdown = WattchModel::gtx480().breakdown(&kernel.mix, &stats);
    println!(
        "timing: {} cycles ({:.2} µs), bottleneck {:?}",
        stats.cycles, stats.time_us, stats.bottleneck
    );
    println!(
        "power: {:.1} W total, FPU+SFU share {:.1}%",
        breakdown.total_w(),
        breakdown.arithmetic_share() * 100.0
    );
}
