//! GPU system-level experiments: Figure 2, Figures 15–18 and Table 5.

use crate::runner::{self, cache};
use crate::table::Table;
use crate::Scale;
use gpu_sim::dispatch::FpCtx;
use gpu_sim::simt::{GpuConfig, KernelLaunch, Simulator};
use gpu_sim::wattch::{PowerBreakdown, WattchModel};
use ihw_core::config::IhwConfig;
use ihw_power::system::{PowerShares, SystemPowerModel};
use ihw_quality::metrics::{mae, mse, wed};
use ihw_quality::ssim;
use ihw_quality::GrayImage;
use ihw_workloads::{
    art, backprop, cfd, cp, hotspot, hotspot3d, jpeg, kmeans, md, raytrace, sphinx, srad,
};
use std::sync::Arc;

/// The GPU benchmarks of Figure 2 / Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuBenchmark {
    /// Rodinia HotSpot.
    Hotspot,
    /// Rodinia SRAD.
    Srad,
    /// ISPASS RayTracing.
    Ray,
    /// Coulomb potential.
    Cp,
    /// Rodinia KMeans.
    Kmeans,
    /// JPEG decompression (the Figure 5 example).
    Jpeg,
    /// Rodinia Backprop (neural-network training).
    Backprop,
    /// Lattice-Boltzmann CFD (lid-driven cavity).
    Cfd,
    /// Rodinia HotSpot3D (stacked-die thermal simulation).
    Hotspot3d,
}

impl GpuBenchmark {
    /// All GPU benchmarks.
    pub const ALL: [GpuBenchmark; 9] = [
        GpuBenchmark::Hotspot,
        GpuBenchmark::Srad,
        GpuBenchmark::Ray,
        GpuBenchmark::Cp,
        GpuBenchmark::Kmeans,
        GpuBenchmark::Jpeg,
        GpuBenchmark::Backprop,
        GpuBenchmark::Cfd,
        GpuBenchmark::Hotspot3d,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            GpuBenchmark::Hotspot => "HotSpot",
            GpuBenchmark::Srad => "SRAD",
            GpuBenchmark::Ray => "RayTracing",
            GpuBenchmark::Cp => "CP",
            GpuBenchmark::Kmeans => "KMeans",
            GpuBenchmark::Jpeg => "JPEG",
            GpuBenchmark::Backprop => "Backprop",
            GpuBenchmark::Cfd => "CFD",
            GpuBenchmark::Hotspot3d => "HotSpot3D",
        }
    }

    /// Runs the benchmark under `cfg`, returning the kernel launch
    /// descriptor (with the measured counters inside).
    ///
    /// The underlying workload execution goes through the process-wide
    /// [run cache](crate::runner::cache), so repeated requests for the
    /// same (benchmark, params, config) triple — e.g. the precise
    /// baseline that `fig2`, `table5`, `fig15` and the sensitivity
    /// extension all need — execute once.
    pub fn run(self, scale: Scale, cfg: IhwConfig) -> KernelLaunch {
        match self {
            GpuBenchmark::Hotspot => {
                let params = params_hotspot(scale);
                hotspot::kernel_launch(&params, &hotspot_cached(&params, cfg).1)
            }
            GpuBenchmark::Srad => {
                let params = params_srad(scale);
                srad::kernel_launch(&params, &srad_cached(&params, cfg).2)
            }
            GpuBenchmark::Ray => {
                let params = params_ray(scale);
                raytrace::kernel_launch(&params, &ray_cached(&params, cfg).1)
            }
            GpuBenchmark::Cp => {
                let params = params_cp(scale);
                cp::kernel_launch(&params, &cp_cached(&params, cfg).1)
            }
            GpuBenchmark::Kmeans => {
                let params = match scale {
                    Scale::Quick => kmeans::KmeansParams::default(),
                    Scale::Paper => kmeans::KmeansParams::paper(),
                };
                kmeans::kernel_launch(&params, &kmeans_cached(&params, cfg).1)
            }
            GpuBenchmark::Jpeg => {
                let params = match scale {
                    Scale::Quick => jpeg::JpegParams::default(),
                    Scale::Paper => jpeg::JpegParams {
                        size: 256,
                        ..jpeg::JpegParams::default()
                    },
                };
                jpeg::kernel_launch(&params, &jpeg_cached(&params, cfg).2)
            }
            GpuBenchmark::Backprop => {
                let params = match scale {
                    Scale::Quick => backprop::BackpropParams {
                        epochs: 20,
                        ..backprop::BackpropParams::default()
                    },
                    Scale::Paper => backprop::BackpropParams::default(),
                };
                backprop::kernel_launch(&params, &backprop_cached(&params, cfg).1)
            }
            GpuBenchmark::Cfd => {
                let params = match scale {
                    Scale::Quick => cfd::CfdParams::default(),
                    Scale::Paper => cfd::CfdParams::paper(),
                };
                cfd::kernel_launch(&params, &cfd_cached(&params, cfg).1)
            }
            GpuBenchmark::Hotspot3d => {
                let params = match scale {
                    Scale::Quick => hotspot3d::Hotspot3dParams::default(),
                    Scale::Paper => hotspot3d::Hotspot3dParams::paper(),
                };
                hotspot3d::kernel_launch(&params, &hotspot3d_cached(&params, cfg).1)
            }
        }
    }
}

/// Routes one workload execution through the process-wide run cache.
///
/// The key covers the benchmark name, the full `Debug` rendering of the
/// params struct and of the [`IhwConfig`], so two call sites share a
/// result exactly when they request the same deterministic execution.
fn cached<T, F>(
    bench: &str,
    params: &impl std::fmt::Debug,
    cfg: &impl std::fmt::Debug,
    f: F,
) -> Arc<T>
where
    T: Send + Sync + 'static,
    F: FnOnce() -> T,
{
    cache::global().get_or_compute(&cache::run_key(bench, params, cfg), f)
}

/// Cached [`hotspot::run_with_config`].
pub(crate) fn hotspot_cached(
    params: &hotspot::HotspotParams,
    cfg: IhwConfig,
) -> Arc<(hotspot::HotspotOutput, FpCtx)> {
    cached("hotspot", params, &cfg, || {
        hotspot::run_with_config(params, cfg)
    })
}

/// Cached [`srad::run_with_config`].
pub(crate) fn srad_cached(
    params: &srad::SradParams,
    cfg: IhwConfig,
) -> Arc<(srad::SradOutput, srad::SradScene, FpCtx)> {
    cached("srad", params, &cfg, || srad::run_with_config(params, cfg))
}

/// Cached [`raytrace::render_with_config`].
pub(crate) fn ray_cached(params: &raytrace::RayParams, cfg: IhwConfig) -> Arc<(GrayImage, FpCtx)> {
    cached("raytrace", params, &cfg, || {
        raytrace::render_with_config(params, cfg)
    })
}

/// Cached [`cp::run_with_config`].
pub(crate) fn cp_cached(params: &cp::CpParams, cfg: IhwConfig) -> Arc<(cp::CpOutput, FpCtx)> {
    cached("cp", params, &cfg, || cp::run_with_config(params, cfg))
}

/// Cached [`kmeans::run_with_config`].
pub(crate) fn kmeans_cached(
    params: &kmeans::KmeansParams,
    cfg: IhwConfig,
) -> Arc<(kmeans::KmeansOutput, FpCtx)> {
    cached("kmeans", params, &cfg, || {
        kmeans::run_with_config(params, cfg)
    })
}

/// Cached [`jpeg::run_with_config`].
pub(crate) fn jpeg_cached(
    params: &jpeg::JpegParams,
    cfg: IhwConfig,
) -> Arc<(GrayImage, GrayImage, FpCtx)> {
    cached("jpeg", params, &cfg, || jpeg::run_with_config(params, cfg))
}

/// Cached [`backprop::run_with_config`].
pub(crate) fn backprop_cached(
    params: &backprop::BackpropParams,
    cfg: IhwConfig,
) -> Arc<(backprop::BackpropOutput, FpCtx)> {
    cached("backprop", params, &cfg, || {
        backprop::run_with_config(params, cfg)
    })
}

/// Cached [`cfd::run_with_config`].
pub(crate) fn cfd_cached(params: &cfd::CfdParams, cfg: IhwConfig) -> Arc<(cfd::CfdOutput, FpCtx)> {
    cached("cfd", params, &cfg, || cfd::run_with_config(params, cfg))
}

/// Cached [`hotspot3d::run_with_config`].
pub(crate) fn hotspot3d_cached(
    params: &hotspot3d::Hotspot3dParams,
    cfg: IhwConfig,
) -> Arc<(hotspot3d::Hotspot3dOutput, FpCtx)> {
    cached("hotspot3d", params, &cfg, || {
        hotspot3d::run_with_config(params, cfg)
    })
}

/// Cached [`art::run_with_config`].
pub(crate) fn art_cached(params: &art::ArtParams, cfg: IhwConfig) -> Arc<(art::ArtOutput, FpCtx)> {
    cached("art", params, &cfg, || art::run_with_config(params, cfg))
}

/// Cached [`md::run_with_config`].
pub(crate) fn md_cached(params: &md::MdParams, cfg: IhwConfig) -> Arc<(md::MdOutput, FpCtx)> {
    cached("md", params, &cfg, || md::run_with_config(params, cfg))
}

/// Cached [`sphinx::run_with_config`].
pub(crate) fn sphinx_cached(
    params: &sphinx::SphinxParams,
    cfg: IhwConfig,
) -> Arc<(sphinx::SphinxOutput, FpCtx)> {
    cached("sphinx", params, &cfg, || {
        sphinx::run_with_config(params, cfg)
    })
}

fn params_hotspot(scale: Scale) -> hotspot::HotspotParams {
    match scale {
        Scale::Quick => hotspot::HotspotParams::default(),
        Scale::Paper => hotspot::HotspotParams::paper(),
    }
}

fn params_srad(scale: Scale) -> srad::SradParams {
    match scale {
        Scale::Quick => srad::SradParams::default(),
        Scale::Paper => srad::SradParams::paper(),
    }
}

fn params_ray(scale: Scale) -> raytrace::RayParams {
    match scale {
        Scale::Quick => raytrace::RayParams {
            size: 48,
            max_depth: 3,
        },
        Scale::Paper => raytrace::RayParams::paper(),
    }
}

fn params_cp(scale: Scale) -> cp::CpParams {
    match scale {
        Scale::Quick => cp::CpParams::default(),
        Scale::Paper => cp::CpParams::paper(),
    }
}

/// Computes the GPUWattch-style power breakdown of a benchmark's precise
/// run (one bar group of Figure 2). Memoized per (benchmark, scale): the
/// timing simulation and the Wattch evaluation run once even though
/// every `estimate_savings` call needs the breakdown.
pub fn power_breakdown(bench: GpuBenchmark, scale: Scale) -> PowerBreakdown {
    *cached(
        "power_breakdown",
        &(bench, scale),
        &IhwConfig::precise(),
        || {
            let kernel = bench.run(scale, IhwConfig::precise());
            let stats = Simulator::new(GpuConfig::gtx480()).simulate(&kernel);
            WattchModel::gtx480().breakdown(&kernel.mix, &stats)
        },
    )
}

/// Figure 2: per-benchmark component power shares.
pub fn fig2(scale: Scale) -> Table {
    let mut t = Table::new([
        "benchmark",
        "FPU %",
        "SFU %",
        "FPU+SFU %",
        "ALU %",
        "RF %",
        "MEM %",
        "other %",
    ]);
    let breakdowns = runner::sweep(GpuBenchmark::ALL.to_vec(), move |bench| {
        power_breakdown(bench, scale)
    });
    let mut arith_sum = 0.0;
    for (bench, b) in GpuBenchmark::ALL.into_iter().zip(breakdowns) {
        arith_sum += b.arithmetic_share();
        t.row([
            bench.name().to_string(),
            format!("{:.1}", b.fpu_share() * 100.0),
            format!("{:.1}", b.sfu_share() * 100.0),
            format!("{:.1}", b.arithmetic_share() * 100.0),
            format!("{:.1}", b.alu_share() * 100.0),
            format!("{:.1}", b.rf_w / b.total_w() * 100.0),
            format!("{:.1}", b.mem_w / b.total_w() * 100.0),
            format!("{:.1}", b.background_w / b.total_w() * 100.0),
        ]);
    }
    t.row([
        "average (FPU+SFU)".to_string(),
        String::new(),
        String::new(),
        format!("{:.1}", arith_sum / GpuBenchmark::ALL.len() as f64 * 100.0),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
    ]);
    t
}

/// One Table 5 row: holistic and arithmetic power savings for a
/// benchmark under a configuration.
#[derive(Debug, Clone)]
pub struct SavingsRow {
    /// Row label (e.g. `"RAY(rcp,add,sqrt)"`).
    pub label: String,
    /// Holistic (system-level) power savings fraction.
    pub holistic: f64,
    /// Combined FPU+SFU (arithmetic) power savings fraction.
    pub arithmetic: f64,
}

/// Estimates the Table 5 savings pair for one benchmark + configuration.
pub fn estimate_savings(
    bench: GpuBenchmark,
    scale: Scale,
    cfg: IhwConfig,
    label: &str,
) -> SavingsRow {
    let breakdown = power_breakdown(bench, scale);
    let shares: PowerShares = breakdown.shares();
    let kernel = bench.run(scale, cfg);
    let est = SystemPowerModel::new().estimate(&kernel.mix.fp, &cfg, shares);
    SavingsRow {
        label: label.to_string(),
        holistic: est.system_savings,
        arithmetic: est.arithmetic_savings,
    }
}

/// Table 5: system-level power savings for the compute-intensive GPU
/// applications under their paper configurations. The five rows are
/// independent sweep points; the three RAY rows share one cached
/// precise baseline (breakdown + kernel counters).
pub fn table5(scale: Scale) -> Vec<SavingsRow> {
    let points: Vec<(GpuBenchmark, IhwConfig, &str)> = vec![
        (GpuBenchmark::Hotspot, IhwConfig::all_imprecise(), "Hotspot"),
        (GpuBenchmark::Srad, IhwConfig::all_imprecise(), "SRAD"),
        (
            GpuBenchmark::Ray,
            IhwConfig::ray_basic(),
            "RAY(rcp,add,sqrt)",
        ),
        (
            GpuBenchmark::Ray,
            IhwConfig::ray_with_rsqrt(),
            "RAY(rcp,add,sqrt,rsqrt)",
        ),
        (
            GpuBenchmark::Ray,
            IhwConfig::ray_with_ac_mul(0),
            "RAY(rcp,add,sqrt,fpmul_fp*)",
        ),
    ];
    runner::sweep(points, move |(bench, cfg, label)| {
        estimate_savings(bench, scale, cfg, label)
    })
}

/// Renders Table 5.
pub fn table5_table(rows: &[SavingsRow]) -> Table {
    let mut t = Table::new([
        "application",
        "holistic power savings",
        "arith. power savings",
    ]);
    for r in rows {
        t.row([
            r.label.clone(),
            format!("{:.2}%", r.holistic * 100.0),
            format!("{:.2}%", r.arithmetic * 100.0),
        ]);
    }
    t
}

/// Figure 15: HotSpot functional simulation, precise vs. imprecise.
pub fn fig15(scale: Scale) -> (Table, String) {
    let params = params_hotspot(scale);
    let precise_run = hotspot_cached(&params, IhwConfig::precise());
    let imprecise_run = hotspot_cached(&params, IhwConfig::all_imprecise());
    let (precise, imprecise) = (&precise_run.0, &imprecise_run.0);
    let row = estimate_savings(
        GpuBenchmark::Hotspot,
        scale,
        IhwConfig::all_imprecise(),
        "Hotspot",
    );
    let mut t = Table::new(["metric", "value"]);
    t.row([
        "MAE (K)".to_string(),
        format!("{:.4}", mae(&precise.temps, &imprecise.temps)),
    ]);
    t.row([
        "MSE (K^2)".to_string(),
        format!("{:.5}", mse(&precise.temps, &imprecise.temps)),
    ]);
    t.row([
        "WED (K)".to_string(),
        format!("{:.4}", wed(&precise.temps, &imprecise.temps)),
    ]);
    t.row([
        "system power savings".to_string(),
        format!("{:.2}%", row.holistic * 100.0),
    ]);
    t.row([
        "arith power savings".to_string(),
        format!("{:.2}%", row.arithmetic * 100.0),
    ]);
    let maps = format!(
        "precise map:\n{}\nimprecise map:\n{}",
        ascii_heatmap(&precise.temps, precise.cols),
        ascii_heatmap(&imprecise.temps, imprecise.cols)
    );
    (t, maps)
}

/// Figure 16: SRAD precise vs. imprecise Pratt figure of merit.
pub fn fig16(scale: Scale) -> Table {
    let params = params_srad(scale);
    // `run_with_config` synthesizes the same deterministic scene both
    // times, so the precise run is shared with Table 5 via the cache.
    let p_run = srad_cached(&params, IhwConfig::precise());
    let i_run = srad_cached(&params, IhwConfig::all_imprecise());
    let row = estimate_savings(
        GpuBenchmark::Srad,
        scale,
        IhwConfig::all_imprecise(),
        "SRAD",
    );
    let mut t = Table::new(["metric", "precise", "imprecise"]);
    t.row([
        "Pratt FOM".to_string(),
        format!("{:.3}", srad::evaluate_fom(&p_run.0, &p_run.1)),
        format!("{:.3}", srad::evaluate_fom(&i_run.0, &i_run.1)),
    ]);
    t.row([
        "system power savings".to_string(),
        "-".into(),
        format!("{:.2}%", row.holistic * 100.0),
    ]);
    t
}

/// Figures 17–18: RayTracing SSIM and savings per configuration.
pub fn fig17_18(scale: Scale) -> Table {
    let params = params_ray(scale);
    let reference = ray_cached(&params, IhwConfig::precise());
    let configs: Vec<(&str, IhwConfig)> = vec![
        ("precise", IhwConfig::precise()),
        ("rcp,add,sqrt (17b)", IhwConfig::ray_basic()),
        ("rcp,add,sqrt,rsqrt (17c)", IhwConfig::ray_with_rsqrt()),
        (
            "rcp,add,sqrt,ifpmul (18a)",
            IhwConfig::ray_basic().with_mul(ihw_core::config::MulUnit::Imprecise),
        ),
        (
            "rcp,add,sqrt,fpmul_fp tr0 (18b)",
            IhwConfig::ray_with_ac_mul(0),
        ),
        (
            "rcp,add,sqrt,fpmul_fp tr15 (18c)",
            IhwConfig::ray_with_ac_mul(15),
        ),
    ];
    let mut t = Table::new(["configuration", "SSIM", "holistic savings", "arith savings"]);
    let rows = runner::sweep(configs, |(label, cfg)| {
        let run = ray_cached(&params, cfg);
        let s = ssim(&reference.0, &run.0, 1.0);
        let row = estimate_savings(GpuBenchmark::Ray, scale, cfg, label);
        [
            label.to_string(),
            format!("{:.3}", s),
            format!("{:.2}%", row.holistic * 100.0),
            format!("{:.2}%", row.arithmetic * 100.0),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t
}

/// Writes the image artefacts of Figures 15–18 as PGM files into `dir`.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writes.
pub fn write_image_artifacts(scale: Scale, dir: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    // Figure 15: precise and imprecise heat maps (cached runs shared
    // with `fig15`/`table5`).
    let hp = params_hotspot(scale);
    let p_run = hotspot_cached(&hp, IhwConfig::precise());
    let i_run = hotspot_cached(&hp, IhwConfig::all_imprecise());
    let (p, i) = (&p_run.0, &i_run.0);
    GrayImage::from_vec(p.cols, p.rows, p.temps.clone())
        .write_pgm(dir.join("fig15_hotspot_precise.pgm"))?;
    GrayImage::from_vec(i.cols, i.rows, i.temps.clone())
        .write_pgm(dir.join("fig15_hotspot_imprecise.pgm"))?;
    // Figure 16: SRAD input / precise / imprecise.
    let sp = params_srad(scale);
    let sp_run = srad_cached(&sp, IhwConfig::precise());
    let si_run = srad_cached(&sp, IhwConfig::all_imprecise());
    sp_run.1.noisy.write_pgm(dir.join("fig16_srad_input.pgm"))?;
    sp_run
        .0
        .image
        .write_pgm(dir.join("fig16_srad_precise.pgm"))?;
    si_run
        .0
        .image
        .write_pgm(dir.join("fig16_srad_imprecise.pgm"))?;
    // Figures 17–18: renders per configuration.
    let rp = params_ray(scale);
    let configs: [(&str, IhwConfig); 5] = [
        ("fig17a_precise", IhwConfig::precise()),
        ("fig17b_basic", IhwConfig::ray_basic()),
        ("fig17c_rsqrt", IhwConfig::ray_with_rsqrt()),
        (
            "fig18a_table1_mul",
            IhwConfig::ray_basic().with_mul(ihw_core::config::MulUnit::Imprecise),
        ),
        ("fig18b_ac_mul", IhwConfig::ray_with_ac_mul(0)),
    ];
    for (name, cfg) in configs {
        ray_cached(&rp, cfg)
            .0
            .write_pgm(dir.join(format!("{name}.pgm")))?;
    }
    Ok(())
}

/// Renders a scalar field as a coarse ASCII heat map.
pub fn ascii_heatmap(values: &[f64], cols: usize) -> String {
    let rows = values.len() / cols;
    let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    let ramp = b" .:-=+*#%@";
    let step_y = (rows / 24).max(1);
    let step_x = (cols / 48).max(1);
    let mut out = String::new();
    for y in (0..rows).step_by(step_y) {
        for x in (0..cols).step_by(step_x) {
            let v = (values[y * cols + x] - lo) / span;
            out.push(ramp[((v * 9.99) as usize).min(9)] as char);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_shares_in_band() {
        let t = fig2(Scale::Quick);
        assert_eq!(t.len(), GpuBenchmark::ALL.len() + 1);
    }

    #[test]
    fn table5_orderings() {
        let rows = table5(Scale::Quick);
        assert_eq!(rows.len(), 5);
        let get = |label: &str| {
            rows.iter()
                .find(|r| r.label.starts_with(label))
                .expect("row present")
        };
        let hotspot = get("Hotspot");
        let ray_basic = get("RAY(rcp,add,sqrt)");
        let ray_rsqrt = get("RAY(rcp,add,sqrt,rsqrt)");
        let ray_mul = get("RAY(rcp,add,sqrt,fpmul");
        // Paper orderings: HotSpot saves the most; adding units to RAY
        // monotonically increases savings.
        assert!(hotspot.holistic > ray_basic.holistic);
        assert!(ray_rsqrt.holistic >= ray_basic.holistic);
        assert!(ray_mul.holistic >= ray_rsqrt.holistic * 0.9);
        // All-imprecise arithmetic savings approach the paper's ≈90%.
        assert!(
            hotspot.arithmetic > 0.5,
            "hotspot arith {}",
            hotspot.arithmetic
        );
        // Magnitudes in the paper's band (Table 5: 10–32% holistic).
        assert!(hotspot.holistic > 0.10 && hotspot.holistic < 0.45);
    }

    #[test]
    fn image_artifacts_written() {
        let dir = std::env::temp_dir().join("ihw_bench_images_test");
        let _ = std::fs::remove_dir_all(&dir);
        write_image_artifacts(Scale::Quick, &dir).expect("writes");
        let entries: Vec<_> = std::fs::read_dir(&dir).expect("dir").collect();
        assert_eq!(entries.len(), 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ascii_heatmap_renders() {
        let v: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let s = ascii_heatmap(&v, 8);
        assert!(s.contains('@'));
        assert!(s.contains(' ') || s.contains('.'));
    }
}
