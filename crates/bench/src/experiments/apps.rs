//! Application-level studies of the accuracy-configurable multiplier
//! (§5.3.2): Table 6, Figures 19–21 and Table 7.

use crate::experiments::system::{
    art_cached, ascii_heatmap, cp_cached, hotspot_cached, md_cached, ray_cached, sphinx_cached,
};
use crate::runner;
use crate::table::Table;
use crate::Scale;
use gpu_sim::dispatch::FpCtx;
use ihw_core::ac_multiplier::{AcMulConfig, MulPath};
use ihw_core::config::{FpOp, IhwConfig, MulUnit};
use ihw_core::truncated::TruncatedMul;
use ihw_power::library::Precision;
use ihw_power::mul_power::power_reduction;
use ihw_quality::metrics::{mae, wed};
use ihw_workloads::{art, cp, hotspot, md, raytrace, sphinx};

/// A multiplier configuration under study (the x-axis of the §5.3.2
/// sweeps): the paper's `bt_N` / `fp_trN` / `lp_trN` naming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MulConfig {
    /// Intuitive bit truncation of `N` bits (`bt_N`).
    Bt(u32),
    /// Full path with `N` truncated bits (`fp_trN`).
    Fp(u32),
    /// Log path with `N` truncated bits (`lp_trN`).
    Lp(u32),
}

impl MulConfig {
    /// The paper-style label.
    pub fn label(self) -> String {
        match self {
            MulConfig::Bt(n) => format!("bt_{n}"),
            MulConfig::Fp(n) => format!("fp_tr{n}"),
            MulConfig::Lp(n) => format!("lp_tr{n}"),
        }
    }

    /// The multiplier unit it denotes.
    pub fn unit(self) -> MulUnit {
        match self {
            MulConfig::Bt(n) => MulUnit::Truncated(TruncatedMul::new(n)),
            MulConfig::Fp(n) => MulUnit::AcMul(AcMulConfig::new(MulPath::Full, n)),
            MulConfig::Lp(n) => MulUnit::AcMul(AcMulConfig::new(MulPath::Log, n)),
        }
    }

    /// Datapath configuration with only the multiplier replaced.
    pub fn config(self) -> IhwConfig {
        IhwConfig::precise().with_mul(self.unit())
    }

    /// Power reduction of this configuration at the given precision.
    pub fn power_reduction(self, precision: Precision) -> f64 {
        power_reduction(&self.unit(), precision)
    }
}

/// Table 6: summary of the CPU and GPU benchmarks studied with the
/// accuracy-configurable multiplier — dynamic FP multiplication counts,
/// precision, quality metric and domain.
pub fn table6(scale: Scale) -> Table {
    let mut t = Table::new([
        "benchmark",
        "single precision muls",
        "double precision muls",
        "quality metric",
        "application domain",
    ]);
    // GPU benchmarks (single precision).
    let hp = match scale {
        Scale::Quick => hotspot::HotspotParams::default(),
        Scale::Paper => hotspot::HotspotParams::paper(),
    };
    let run = hotspot_cached(&hp, IhwConfig::precise());
    t.row([
        "Hotspot".to_string(),
        format!("{}", mul_count(&run.1)),
        "0".into(),
        "MAE, WED".into(),
        "Physics simulation".into(),
    ]);
    let run = cp_cached(&cp::CpParams::default(), IhwConfig::precise());
    let precise_pct = run.1.precise_mul_ops() as f64 / run.1.counts().get(FpOp::Mul) as f64 * 100.0;
    t.row([
        "CP".to_string(),
        format!("{} ({:.0}% kept precise)", mul_count(&run.1), precise_pct),
        "0".into(),
        "MAE, WED".into(),
        "Ion placement".into(),
    ]);
    let run = ray_cached(&raytrace::RayParams::default(), IhwConfig::precise());
    let mul_frac = mul_count(&run.1) as f64 / run.1.counts().total() as f64 * 100.0;
    t.row([
        "RayTracing".to_string(),
        format!("{} ({:.0}% of ops)", mul_count(&run.1), mul_frac),
        "0".into(),
        "SSIM".into(),
        "3D Graphics".into(),
    ]);
    // CPU benchmarks (double precision).
    let run = art_cached(&art::ArtParams::default(), IhwConfig::precise());
    t.row([
        "179.art".to_string(),
        "0".into(),
        format!("{}", mul_count(&run.1)),
        "Vigilance".into(),
        "Neural Network".into(),
    ]);
    let run = md_cached(&md::MdParams::default(), IhwConfig::precise());
    t.row([
        "435.gromacs".to_string(),
        "0".into(),
        format!("{}", mul_count(&run.1)),
        "Err%".into(),
        "Molecular Dynamics".into(),
    ]);
    let run = sphinx_cached(&sphinx::SphinxParams::default(), IhwConfig::precise());
    t.row([
        "482.sphinx".to_string(),
        "0".into(),
        format!("{}", mul_count(&run.1)),
        "Accuracy".into(),
        "Voice Recognition".into(),
    ]);
    t
}

fn mul_count(ctx: &FpCtx) -> u64 {
    ctx.counts().get(FpOp::Mul) + ctx.counts().get(FpOp::Fma)
}

/// Figure 19: HotSpot power–quality trade-off of the AC multiplier vs.
/// intuitive truncation, plus the worst-case heat maps.
pub fn fig19(scale: Scale) -> (Table, String) {
    let params = match scale {
        Scale::Quick => hotspot::HotspotParams::default(),
        Scale::Paper => hotspot::HotspotParams::paper(),
    };
    let reference = hotspot_cached(&params, IhwConfig::precise());
    let configs = [
        MulConfig::Lp(0),
        MulConfig::Lp(8),
        MulConfig::Lp(15),
        MulConfig::Lp(19),
        MulConfig::Fp(0),
        MulConfig::Fp(15),
        MulConfig::Fp(19),
        MulConfig::Bt(8),
        MulConfig::Bt(16),
        MulConfig::Bt(19),
        MulConfig::Bt(22),
    ];
    let mut t = Table::new(["config", "MAE (K)", "WED (K)", "power reduction"]);
    let mut worst_map = String::new();
    let rows = runner::sweep(configs.to_vec(), |c| {
        let run = hotspot_cached(&params, c.config());
        let out = &run.0;
        let e = mae(&reference.0.temps, &out.temps);
        let w = wed(&reference.0.temps, &out.temps);
        let cells = [
            c.label(),
            format!("{:.3}", e),
            format!("{:.3}", w),
            format!("{:.1}x", c.power_reduction(Precision::Single)),
        ];
        let map = (c == MulConfig::Lp(19)).then(|| {
            format!(
                "lp_tr19 (26x) heat map:\n{}",
                ascii_heatmap(&out.temps, out.cols)
            )
        });
        (cells, map)
    });
    for (cells, map) in rows {
        t.row(cells);
        if let Some(map) = map {
            worst_map = map;
        }
    }
    (t, worst_map)
}

/// Figure 20: CP power–quality trade-off across configurations.
pub fn fig20(scale: Scale) -> Table {
    let params = match scale {
        Scale::Quick => cp::CpParams::default(),
        Scale::Paper => cp::CpParams::paper(),
    };
    // `run_with_config` synthesizes the same deterministic atoms each
    // time, so routing through the cache preserves the serial results
    // while sharing the precise reference with Table 6.
    let reference = cp_cached(&params, IhwConfig::precise());
    let configs = [
        MulConfig::Lp(0),
        MulConfig::Lp(12),
        MulConfig::Lp(19),
        MulConfig::Fp(0),
        MulConfig::Fp(12),
        MulConfig::Fp(19),
        MulConfig::Bt(12),
        MulConfig::Bt(19),
        MulConfig::Bt(21),
    ];
    let mut t = Table::new(["config", "MAE", "power reduction"]);
    let rows = runner::sweep(configs.to_vec(), |c| {
        let run = cp_cached(&params, c.config());
        [
            c.label(),
            format!("{:.5}", mae(&reference.0.potential, &run.0.potential)),
            format!("{:.1}x", c.power_reduction(Precision::Single)),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t
}

/// Figure 21(a): 179.art vigilance across configurations.
pub fn fig21_art(scale: Scale) -> Table {
    let params = match scale {
        Scale::Quick => art::ArtParams::default(),
        Scale::Paper => art::ArtParams {
            image_size: 64,
            ..art::ArtParams::default()
        },
    };
    let reference = art_cached(&params, IhwConfig::precise());
    let configs = [
        MulConfig::Fp(0),
        MulConfig::Fp(32),
        MulConfig::Fp(44),
        MulConfig::Fp(48),
        MulConfig::Lp(44),
        MulConfig::Lp(48),
        MulConfig::Bt(40),
        MulConfig::Bt(44),
        MulConfig::Bt(48),
    ];
    let mut t = Table::new([
        "config",
        "vigilance",
        "category ok",
        "power reduction (64b)",
    ]);
    t.row([
        "precise".to_string(),
        format!("{:.4}", reference.0.vigilance),
        "yes".into(),
        "1.0x".into(),
    ]);
    let rows = runner::sweep(configs.to_vec(), |c| {
        let run = art_cached(&params, c.config());
        [
            c.label(),
            format!("{:.4}", run.0.vigilance),
            if run.0.category == reference.0.category {
                "yes".into()
            } else {
                "NO".to_string()
            },
            format!("{:.1}x", c.power_reduction(Precision::Double)),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t
}

/// Figure 21(b): 435.gromacs output error percentage across
/// configurations (SPEC tolerance 1.25%).
pub fn fig21_gromacs(scale: Scale) -> Table {
    let params = match scale {
        Scale::Quick => md::MdParams::default(),
        Scale::Paper => md::MdParams::paper(),
    };
    let reference = md_cached(&params, IhwConfig::precise());
    let configs = [
        MulConfig::Fp(0),
        MulConfig::Fp(32),
        MulConfig::Fp(44),
        MulConfig::Lp(0),
        MulConfig::Lp(44),
        MulConfig::Bt(32),
        MulConfig::Bt(44),
        MulConfig::Bt(48),
    ];
    let mut t = Table::new(["config", "err %", "within 1.25%", "power reduction (64b)"]);
    let rows = runner::sweep(configs.to_vec(), |c| {
        let run = md_cached(&params, c.config());
        let e = run.0.error_pct_vs(&reference.0);
        [
            c.label(),
            format!("{:.3}", e),
            if e <= md::SPEC_TOLERANCE_PCT {
                "yes".into()
            } else {
                "no".to_string()
            },
            format!("{:.1}x", c.power_reduction(Precision::Double)),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t
}

/// Table 7: 482.sphinx3 words correctly recognized per configuration.
pub fn table7(scale: Scale) -> Table {
    let params = match scale {
        Scale::Quick => sphinx::SphinxParams::default(),
        Scale::Paper => sphinx::SphinxParams::paper(),
    };
    // The deterministic vocabulary/utterances are re-synthesized inside
    // `run_with_config`; each of the 18 configurations is one cached
    // sweep point.
    let run_cfg = { move |cfg: IhwConfig| sphinx_cached(&params, cfg).0.correct };
    let total = params.words;
    let mut t = Table::new([
        "config", "accuracy", "config", "accuracy", "config", "accuracy",
    ]);
    let rows = runner::sweep(vec![44u32, 45, 46, 47, 48, 49], move |tr| {
        let bt = run_cfg(MulConfig::Bt(tr).config());
        let fp = run_cfg(MulConfig::Fp(tr).config());
        let lp = run_cfg(MulConfig::Lp(tr).config());
        [
            format!("bt_{tr}"),
            format!("{bt}/{total}"),
            format!("fp_tr{tr}"),
            format!("{fp}/{total}"),
            format!("lp_tr{tr}"),
            format!("{lp}/{total}"),
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
    fn mul_config_labels() {
        assert_eq!(MulConfig::Bt(44).label(), "bt_44");
        assert_eq!(MulConfig::Fp(0).label(), "fp_tr0");
        assert_eq!(MulConfig::Lp(19).label(), "lp_tr19");
    }

    #[test]
    fn power_orderings() {
        // Log path is the cheapest, truncation the most expensive, at any
        // shared truncation level.
        for tr in [0u32, 19] {
            let lp = MulConfig::Lp(tr).power_reduction(Precision::Single);
            let fp = MulConfig::Fp(tr).power_reduction(Precision::Single);
            let bt = MulConfig::Bt(tr).power_reduction(Precision::Single);
            assert!(lp > fp, "tr={tr}");
            assert!(fp > bt || tr == 0, "tr={tr}: fp {fp} vs bt {bt}");
        }
    }

    #[test]
    fn table6_has_six_benchmarks() {
        assert_eq!(table6(Scale::Quick).len(), 6);
    }

    #[test]
    fn table7_shape() {
        let t = table7(Scale::Quick);
        assert_eq!(t.len(), 6);
    }
}
