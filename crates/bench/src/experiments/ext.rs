//! Extension experiments beyond the paper's published artefacts,
//! following its future-work directions (Chapter 6): the Figure 5
//! motivating example rebuilt end-to-end, IHW + DVFS composition, the
//! segmented Mitchell design-space sweep, and dual-mode per-site tuning.

use crate::experiments::system::jpeg_cached;
use crate::runner;
use crate::table::Table;
use gpu_sim::dvfs::{combined_power_factor, DvfsPoint};
use gpu_sim::tuner::{tune_sites, QualityConstraint};
use ihw_core::config::{AddUnit, IhwConfig};
use ihw_core::dual_mode::DUAL_MODE_OVERHEAD;
use ihw_core::segmented::SegmentedMitchell;
use ihw_workloads::jpeg::{self, JpegParams};

/// Figure 5 rebuilt: JPEG decompression with the imprecise adder —
/// quality loss and adder energy savings.
pub fn fig5() -> Table {
    let params = JpegParams::default();
    let reference_run = jpeg_cached(&params, IhwConfig::precise());
    let configs: [(&str, IhwConfig); 3] = [
        ("precise", IhwConfig::precise()),
        (
            "imprecise adder (TH=8)",
            IhwConfig::precise().with_add(AddUnit::Imprecise { th: 8 }),
        ),
        ("all IHW units", IhwConfig::all_imprecise()),
    ];
    let lib = ihw_power::library::SynthesisLibrary::cmos45();
    let adder_edp_saving = 1.0 - lib.normalized(ihw_core::config::FpOp::Add).edp;
    let mut t = Table::new([
        "configuration",
        "PSNR vs precise decode (dB)",
        "PSNR vs scene (dB)",
        "adder EDP saving",
    ]);
    let rows = runner::sweep(configs.to_vec(), |(name, cfg)| {
        let run = jpeg_cached(&params, cfg);
        let edp = if cfg.is_op_imprecise(ihw_core::config::FpOp::Add) {
            format!("{:.0}%", adder_edp_saving * 100.0)
        } else {
            "-".to_string()
        };
        let (reference, scene) = (&reference_run.0, &reference_run.1);
        [
            name.to_string(),
            format!("{:.1}", jpeg::psnr_8bit(reference, &run.0)),
            format!("{:.1}", jpeg::psnr_8bit(scene, &run.0)),
            edp,
        ]
    });
    for row in rows {
        t.row(row);
    }
    t
}

/// IHW + DVFS composition on HotSpot's published savings: the Chapter 6
/// claim that the techniques stack.
pub fn dvfs_composition() -> Table {
    let ihw_savings = 0.32; // HotSpot, Table 5
    let dynamic_share = 0.8;
    let points = [
        ("nominal", DvfsPoint::NOMINAL),
        ("V·0.95 f·0.90", DvfsPoint::scaled(0.95, 0.90)),
        ("V·0.90 f·0.85", DvfsPoint::scaled(0.90, 0.85)),
        ("V·0.85 f·0.75", DvfsPoint::scaled(0.85, 0.75)),
    ];
    let mut t = Table::new([
        "DVFS point",
        "DVFS alone",
        "IHW alone",
        "IHW + DVFS",
        "runtime cost",
    ]);
    for (name, p) in points {
        let dvfs_only = 1.0 - combined_power_factor(0.0, p, dynamic_share);
        let ihw_only = 1.0 - combined_power_factor(ihw_savings, DvfsPoint::NOMINAL, dynamic_share);
        let both = 1.0 - combined_power_factor(ihw_savings, p, dynamic_share);
        t.row([
            name.to_string(),
            format!("{:.1}%", dvfs_only * 100.0),
            format!("{:.1}%", ihw_only * 100.0),
            format!("{:.1}%", both * 100.0),
            format!("{:.2}x", p.runtime_factor()),
        ]);
    }
    t
}

/// Segmented-Mitchell design-space sweep: max error vs segment count.
pub fn segmented_sweep() -> Table {
    let mut t = Table::new([
        "segments",
        "measured max error %",
        "vs plain Mitchell (11.11%)",
    ]);
    let rows = runner::sweep(vec![1u32, 2, 4, 8, 16, 32], |segments| {
        let e = SegmentedMitchell::new(segments).measured_max_error();
        [
            segments.to_string(),
            format!("{:.2}", e * 100.0),
            format!("{:.1}x tighter", 1.0 / 9.0 / e),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t
}

/// Dual-mode per-site tuning on the ray tracer: which multiplication
/// sites can run imprecise while SSIM stays above the constraint, and
/// the blended multiplier power that falls out.
pub fn dual_mode_ray() -> Table {
    use ihw_quality::ssim;
    use ihw_workloads::raytrace::{render_sited, MulSite, RayParams};

    // Greedy per-site tuning is inherently sequential (each step depends
    // on the previous accept/reject decision), so this experiment stays
    // serial internally; the runner parallelizes it against the *other*
    // experiments at the `repro` level.
    let params = RayParams {
        size: 32,
        max_depth: 3,
    };
    let reference = render_sited(&params, &[false; MulSite::COUNT]);
    let outcome = tune_sites(
        MulSite::COUNT,
        |mask| {
            let mut m = [false; MulSite::COUNT];
            m.copy_from_slice(mask);
            let img = render_sited(&params, &m);
            ssim(&reference, &img, 1.0)
        },
        QualityConstraint::AtLeast(0.7),
    );
    let mut t = Table::new(["site", "imprecise?"]);
    for (site, &on) in MulSite::ALL.iter().zip(&outcome.enabled) {
        t.row([
            site.name().to_string(),
            if on { "yes".into() } else { "no".to_string() },
        ]);
    }
    let imprecise_rel = 0.040; // Table 2 multiplier ratio
    let blended = outcome.imprecise_fraction() * (imprecise_rel + DUAL_MODE_OVERHEAD)
        + (1.0 - outcome.imprecise_fraction()) * (1.0 + DUAL_MODE_OVERHEAD);
    t.row([
        format!("SSIM {:.3}, mul power vs DWIP", outcome.quality),
        format!("{:.2}x ({} evals)", blended, outcome.evaluations),
    ]);
    t
}

/// Sensitivity analysis: the DWIP absolutes that the thesis does not
/// publish (everything except the FP multiplier) are engineering
/// estimates — sweep the adder and SFU estimates over 0.5–2× and show the
/// HotSpot system-level conclusion barely moves.
pub fn sensitivity() -> Table {
    use crate::experiments::system::{power_breakdown, GpuBenchmark};
    use crate::Scale;
    use ihw_core::config::FpOp;
    use ihw_power::library::SynthesisLibrary;
    use ihw_power::system::SystemPowerModel;

    // The breakdown and the imprecise kernel both come from the run
    // cache — shared with `table5`, `fig2` and `fig15`.
    let breakdown = power_breakdown(GpuBenchmark::Hotspot, Scale::Quick);
    let shares = breakdown.shares();
    let kernel = GpuBenchmark::Hotspot.run(Scale::Quick, IhwConfig::all_imprecise());
    let mut t = Table::new(["scaled unit", "x0.5", "x1.0", "x2.0"]);
    let rows = runner::sweep(vec![FpOp::Add, FpOp::Rcp, FpOp::Mul], move |op| {
        let mut cells = vec![format!("{op} DWIP power")];
        for factor in [0.5, 1.0, 2.0] {
            let lib = SynthesisLibrary::cmos45().with_unit_power_scaled(op, factor);
            let est = SystemPowerModel::new().with_library(lib).estimate(
                &kernel.mix.fp,
                &IhwConfig::all_imprecise(),
                shares,
            );
            cells.push(format!("{:.1}%", est.system_savings * 100.0));
        }
        cells
    });
    for row in rows {
        t.row(row);
    }
    t
}

/// Multi-seed robustness study: quality metrics of the all-IHW
/// configuration across several synthetic-input seeds, with 95%
/// confidence intervals — checking the paper's single-input results are
/// not input-specific.
pub fn seeds() -> Table {
    use ihw_quality::metrics::mae;
    use ihw_quality::Summary;
    use ihw_workloads::{cp, hotspot, kmeans};

    use crate::experiments::system::{cp_cached, hotspot_cached, kmeans_cached};

    let seeds: [u64; 5] = [11, 23, 47, 91, 137];

    // Every (benchmark, seed) pair is an independent sweep point; the
    // precise and imprecise runs inside each point go through the cache.
    let hotspot_maes = runner::sweep(seeds.to_vec(), |seed| {
        let params = hotspot::HotspotParams {
            rows: 32,
            cols: 32,
            steps: 10,
            seed,
        };
        let p = hotspot_cached(&params, IhwConfig::precise());
        let i = hotspot_cached(&params, IhwConfig::all_imprecise());
        mae(&p.0.temps, &i.0.temps)
    });
    let cp_maes = runner::sweep(seeds.to_vec(), |seed| {
        let params = cp::CpParams {
            size: 16,
            atoms: 48,
            seed,
        };
        let p = cp_cached(&params, IhwConfig::precise());
        let i = cp_cached(&params, IhwConfig::all_imprecise());
        mae(&p.0.potential, &i.0.potential)
    });
    let kmeans_agreements = runner::sweep(seeds.to_vec(), |seed| {
        let params = kmeans::KmeansParams {
            seed,
            ..kmeans::KmeansParams::default()
        };
        let p = kmeans_cached(&params, IhwConfig::precise());
        let i = kmeans_cached(&params, IhwConfig::all_imprecise());
        i.0.agreement_with(&p.0)
    });

    let mut t = Table::new(["benchmark", "metric", "mean ± 95% CI", "min", "max"]);
    for (name, metric, samples) in [
        ("HotSpot", "MAE (K)", &hotspot_maes),
        ("CP", "MAE", &cp_maes),
        ("KMeans", "assignment agreement", &kmeans_agreements),
    ] {
        let s = Summary::of(samples);
        t.row([
            name.to_string(),
            metric.into(),
            s.display(),
            format!("{:.4}", s.min),
            format!("{:.4}", s.max),
        ]);
    }
    t
}

/// Error-tolerance taxonomy of the full workload suite — the application
/// side of Figure 4's IHW taxonomy: for each benchmark, the normalized
/// quality degradation under the all-IHW datapath, and the resulting
/// tolerance class.
pub fn tolerance() -> Table {
    use crate::experiments::system::{
        art_cached, backprop_cached, cfd_cached, cp_cached, hotspot_cached, jpeg_cached,
        kmeans_cached, md_cached, ray_cached, sphinx_cached, srad_cached,
    };
    use ihw_quality::metrics::mae;
    use ihw_quality::ssim;
    use ihw_workloads::{
        art, backprop, cfd, cp, hotspot, jpeg, kmeans, md, raytrace, sphinx, srad,
    };

    // Each job: (name, metric label, normalized degradation in [0, ∞)
    // where ≲0.05 is negligible and ≳1 is failure). The eleven workloads
    // are independent sweep points; precise references that other
    // experiments also use (CP, JPEG, KMeans, the CPU suite) come out of
    // the run cache.
    type Row = (&'static str, &'static str, f64);
    let points: Vec<Box<dyn FnOnce() -> Row + Send>> = vec![
        Box::new(|| {
            let p = hotspot::HotspotParams {
                rows: 32,
                cols: 32,
                steps: 10,
                seed: 3,
            };
            let a = hotspot_cached(&p, IhwConfig::precise());
            let b = hotspot_cached(&p, IhwConfig::all_imprecise());
            let mean = a.0.temps.iter().sum::<f64>() / a.0.temps.len() as f64;
            (
                "HotSpot",
                "MAE / mean temp",
                mae(&a.0.temps, &b.0.temps) / mean * 30.0,
            )
        }),
        Box::new(|| {
            let p = srad::SradParams {
                size: 32,
                iterations: 10,
                ..srad::SradParams::default()
            };
            let a = srad_cached(&p, IhwConfig::precise());
            let b = srad_cached(&p, IhwConfig::all_imprecise());
            let f1 = srad::evaluate_fom(&a.0, &a.1);
            let f2 = srad::evaluate_fom(&b.0, &b.1);
            ("SRAD", "ΔPratt FOM", (f1 - f2).abs() / f1.max(1e-9))
        }),
        Box::new(|| {
            let p = raytrace::RayParams {
                size: 32,
                max_depth: 3,
            };
            let a = ray_cached(&p, IhwConfig::precise());
            let b = ray_cached(&p, IhwConfig::all_imprecise());
            ("RayTracing", "1 − SSIM", 1.0 - ssim(&a.0, &b.0, 1.0))
        }),
        Box::new(|| {
            let p = cp::CpParams::default();
            let a = cp_cached(&p, IhwConfig::precise());
            let b = cp_cached(&p, IhwConfig::all_imprecise());
            let scale =
                a.0.potential
                    .iter()
                    .map(|v| v.abs())
                    .fold(0.0, f64::max)
                    .max(1e-9);
            (
                "CP",
                "MAE / peak |V|",
                mae(&a.0.potential, &b.0.potential) / scale,
            )
        }),
        Box::new(|| {
            let p = kmeans::KmeansParams::default();
            let a = kmeans_cached(&p, IhwConfig::precise());
            let b = kmeans_cached(&p, IhwConfig::all_imprecise());
            ("KMeans", "1 − agreement", 1.0 - b.0.agreement_with(&a.0))
        }),
        Box::new(|| {
            let p = jpeg::JpegParams::default();
            let a = jpeg_cached(&p, IhwConfig::precise());
            let b = jpeg_cached(&p, IhwConfig::all_imprecise());
            // 30 dB ≈ acceptable: normalize so 30 dB → ~0.5.
            let psnr = jpeg::psnr_8bit(&a.0, &b.0);
            ("JPEG", "PSNR shortfall", ((45.0 - psnr) / 30.0).max(0.0))
        }),
        Box::new(|| {
            let p = backprop::BackpropParams {
                epochs: 20,
                ..Default::default()
            };
            let a = backprop_cached(&p, IhwConfig::precise());
            let b = backprop_cached(&p, IhwConfig::all_imprecise());
            (
                "Backprop",
                "Δaccuracy",
                (a.0.accuracy - b.0.accuracy).max(0.0),
            )
        }),
        Box::new(|| {
            let p = cfd::CfdParams {
                size: 16,
                steps: 30,
                ..cfd::CfdParams::default()
            };
            let a = cfd_cached(&p, IhwConfig::precise());
            let b = cfd_cached(&p, IhwConfig::all_imprecise());
            let peak = a.0.speed().iter().cloned().fold(0.0, f64::max).max(1e-9);
            (
                "CFD",
                "MAE / peak speed",
                mae(&a.0.speed(), &b.0.speed()) / peak,
            )
        }),
        Box::new(|| {
            let p = art::ArtParams::default();
            let a = art_cached(&p, IhwConfig::precise());
            let b = art_cached(&p, IhwConfig::all_imprecise());
            (
                "179.art",
                "Δvigilance",
                (a.0.vigilance - b.0.vigilance).abs(),
            )
        }),
        Box::new(|| {
            let p = md::MdParams {
                particles: 27,
                steps: 40,
                ..md::MdParams::default()
            };
            let a = md_cached(&p, IhwConfig::precise());
            let b = md_cached(&p, IhwConfig::all_imprecise());
            // Normalize against SPEC's 1.25% acceptance band.
            (
                "435.gromacs",
                "err% / 1.25%",
                b.0.error_pct_vs(&a.0) / md::SPEC_TOLERANCE_PCT,
            )
        }),
        Box::new(|| {
            let p = sphinx::SphinxParams::default();
            let a = sphinx_cached(&p, IhwConfig::precise());
            let b = sphinx_cached(&p, IhwConfig::all_imprecise());
            let miss = (a.0.correct as f64 - b.0.correct as f64).max(0.0) / p.words as f64;
            ("482.sphinx3", "missed words", miss)
        }),
    ];
    let rows = runner::sweep(points, |point| point());

    let mut t = Table::new(["benchmark", "metric", "degradation", "tolerance class"]);
    for (name, metric, d) in rows {
        let class = if d < 0.08 {
            "fully tolerant"
        } else if d < 0.6 {
            "partially tolerant"
        } else {
            "not tolerant (needs precise/dual-mode units)"
        };
        t.row([
            name.to_string(),
            metric.into(),
            format!("{d:.3}"),
            class.into(),
        ]);
    }
    t
}

/// Accuracy-configurable adder design space: the (TH, truncation) grid
/// with measured max addition error and the extended power model — the
/// "more structural parameters" knob of Chapter 6 applied to the adder.
pub fn ac_adder_space() -> Table {
    use ihw_core::ac_adder::AcAdder;
    let mut t = Table::new(["TH", "trunc", "max add error %", "relative power"]);
    let grid = vec![
        (27u32, 0u32),
        (8, 0),
        (8, 15),
        (8, 19),
        (4, 0),
        (4, 12),
        (2, 0),
        (1, 18),
    ];
    let rows = runner::sweep(grid, |(th, tr)| {
        let adder = AcAdder::new(th, tr).expect("valid configuration");
        let mut worst = 0.0f64;
        for p in ihw_qmc::Halton::<2>::new().take(30_000) {
            let a = (0.5 + p[0]) as f32;
            let b = (0.5 + p[1] * 200.0) as f32;
            let exact = a as f64 + b as f64;
            worst = worst.max(((adder.add32(a, b) as f64 - exact) / exact).abs());
        }
        [
            th.to_string(),
            tr.to_string(),
            format!("{:.3}", worst * 100.0),
            format!("{:.3}", adder.relative_power(23)),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_rows() {
        let t = fig5();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn dvfs_table_monotone() {
        let t = dvfs_composition();
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn segmented_sweep_rows() {
        assert_eq!(segmented_sweep().len(), 6);
    }

    #[test]
    fn sensitivity_conclusion_stable() {
        let t = sensitivity();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn ac_adder_space_rows() {
        assert_eq!(ac_adder_space().len(), 8);
    }

    #[test]
    fn tolerance_taxonomy_classes() {
        let t = tolerance();
        assert_eq!(t.len(), 11);
        let rendered = t.render();
        assert!(rendered.contains("fully tolerant"));
        assert!(rendered.contains("not tolerant"));
    }

    #[test]
    fn seeds_table_rows() {
        assert_eq!(seeds().len(), 3);
    }

    #[test]
    fn dual_mode_ray_runs() {
        let t = dual_mode_ray();
        assert!(t.len() >= 2);
    }
}
