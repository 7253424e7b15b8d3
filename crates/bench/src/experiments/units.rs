//! Unit-level experiments: Tables 1–4 and Figures 8, 9, 13, 14.

use crate::table::Table;
use crate::Scale;
use ihw_core::ac_multiplier::{AcMulConfig, MulPath};
use ihw_core::bounds;
use ihw_core::config::{FpOp, IhwConfig, MulUnit};
use ihw_core::sfu::{idiv32, ilog2_32, ircp32, irsqrt32, isqrt32};
use ihw_core::truncated::TruncatedMul;
use ihw_error::{characterize, label, ErrorPmf};
use ihw_power::library::{Precision, SynthesisLibrary};
use ihw_power::mul_power::power_reduction;

/// Table 1: the imprecise function set with measured vs. theoretical
/// maximum error over each function's reduced range.
pub fn table1() -> Table {
    let mut t = Table::new([
        "function",
        "imprecise form",
        "range",
        "eps_max (theory)",
        "eps_max (measured)",
    ]);
    let sweep = |f: &dyn Fn(f32) -> f32, exact: &dyn Fn(f64) -> f64, lo: f64, hi: f64| -> f64 {
        let mut worst = 0.0f64;
        for i in 0..200_000u32 {
            let x = lo + (hi - lo) * (i as f64 + 0.5) / 200_000.0;
            let approx = f(x as f32) as f64;
            let e = exact(x as f32 as f64);
            if e != 0.0 {
                worst = worst.max(((approx - e) / e).abs());
            }
        }
        worst
    };
    let rcp = sweep(&ircp32, &|x| 1.0 / x, 0.5, 1.0);
    t.row([
        "y = 1/x".to_string(),
        "2.823 - 1.882x".into(),
        "[0.5, 1)".into(),
        format!("{:.2}%", bounds::RCP_MAX_ERROR * 100.0),
        format!("{:.2}%", rcp * 100.0),
    ]);
    let rsq = sweep(&irsqrt32, &|x| 1.0 / x.sqrt(), 0.5, 1.0);
    t.row([
        "y = 1/sqrt(x)".to_string(),
        "2.08 - 1.1911x".into(),
        "[0.5, 1)".into(),
        format!("{:.2}%", bounds::RSQRT_MAX_ERROR * 100.0),
        format!("{:.2}%", rsq * 100.0),
    ]);
    let sq = sweep(&isqrt32, &|x| x.sqrt(), 0.25, 1.0);
    t.row([
        "y = sqrt(x)".to_string(),
        "x(2.08 - 1.1911x)".into(),
        "[0.25, 1)".into(),
        format!("{:.2}%", bounds::SQRT_MAX_ERROR * 100.0),
        format!("{:.2}%", sq * 100.0),
    ]);
    let lg = sweep(&ilog2_32, &|x| x.log2(), 1.0, 2.0);
    t.row([
        "y = log2(x)".to_string(),
        "exp + 0.9846x - 0.9196".into(),
        "[1, 2)".into(),
        "unbounded".into(),
        format!("{:.2}% (rel, near x=1)", lg * 100.0),
    ]);
    // Division: 2-D sweep.
    let mut div_worst = 0.0f64;
    for i in 0..400u32 {
        for j in 0..400u32 {
            let a = 1.0 + i as f32 / 400.0;
            let b = 0.5 + 0.4999 * j as f32 / 400.0;
            let approx = idiv32(a, b) as f64;
            let e = a as f64 / b as f64;
            div_worst = div_worst.max(((approx - e) / e).abs());
        }
    }
    t.row([
        "y = a/b".to_string(),
        "a(2.823 - 1.882b)".into(),
        "b in [0.5, 1)".into(),
        format!("{:.2}%", bounds::DIV_MAX_ERROR * 100.0),
        format!("{:.2}%", div_worst * 100.0),
    ]);
    // Multiplier: 2-D sweep over mantissa space.
    let mut mul_worst = 0.0f64;
    for i in 0..400u32 {
        for j in 0..400u32 {
            let a = 1.0 + i as f32 / 400.0 * 0.9999;
            let b = 1.0 + j as f32 / 400.0 * 0.9999;
            let approx = ihw_core::multiplier::imul32(a, b) as f64;
            let e = a as f64 * b as f64;
            mul_worst = mul_worst.max(((approx - e) / e).abs());
        }
    }
    t.row([
        "y = a*b".to_string(),
        "(1+Ma)(1+Mb) ~ 1+Ma+Mb".into(),
        "N/A".into(),
        format!("{:.0}%", bounds::IFPMUL_MAX_ERROR * 100.0),
        format!("{:.2}%", mul_worst * 100.0),
    ]);
    t.row([
        "y = a+-b".to_string(),
        "structural parameter TH".into(),
        "TH in [1, 27]".into(),
        "unbounded (sub), <0.78% @TH=8 (add)".into(),
        format!("{:.3}% add bound @TH=8", bounds::adder_add_bound(8) * 100.0),
    ]);
    t.row([
        "y = a*b +- c".to_string(),
        "imprecise x and +-".into(),
        "N/A".into(),
        "unbounded".into(),
        "composition".into(),
    ]);
    t
}

/// Table 2 / Figure 13: normalized non-functional metrics of the 32-bit
/// IHW components against DWIPs.
pub fn table2() -> Table {
    let lib = SynthesisLibrary::cmos45();
    let mut t = Table::new(["function", "power", "latency", "area", "energy", "EDP"]);
    for op in [
        FpOp::Add,
        FpOp::Mul,
        FpOp::Div,
        FpOp::Rcp,
        FpOp::Sqrt,
        FpOp::Log2,
        FpOp::Fma,
        FpOp::Rsqrt,
    ] {
        let n = lib.normalized(op);
        t.row([
            op.mnemonic().to_string(),
            format!("{:.3}", n.power),
            format!("{:.3}", n.latency),
            format!("{:.3}", n.area),
            format!("{:.3}", n.energy),
            format!("{:.3}", n.edp),
        ]);
    }
    t
}

/// Figure 13: the same data as Table 2 rendered as ASCII bars.
pub fn fig13() -> String {
    let lib = SynthesisLibrary::cmos45();
    let mut out = String::new();
    out.push_str("Normalized non-functional metrics (IHW / DWIP, lower is better)\n");
    for op in FpOp::ALL {
        let n = lib.normalized(op);
        out.push_str(&format!("{:>7}:", op.mnemonic()));
        for (label, v) in [
            ("P", n.power),
            ("L", n.latency),
            ("A", n.area),
            ("E", n.energy),
            ("EDP", n.edp),
        ] {
            let bar = "#".repeat((v * 20.0).round() as usize);
            out.push_str(&format!("  {label}={v:.3} {bar}"));
        }
        out.push('\n');
    }
    out
}

/// Table 3: the 25-bit integer adder vs. the 24-bit integer multiplier.
pub fn table3() -> Table {
    let add = SynthesisLibrary::int_adder25();
    let mul = SynthesisLibrary::int_mult24();
    let mut t = Table::new(["function", "power (mW)", "latency (ns)"]);
    t.row([
        "25bit Add".to_string(),
        format!("{:.2}", add.power_mw),
        format!("{:.2}", add.latency_ns),
    ]);
    t.row([
        "24bit Mult".to_string(),
        format!("{:.2}", mul.power_mw),
        format!("{:.2}", mul.latency_ns),
    ]);
    t.row([
        "ratio".to_string(),
        format!("{:.1}x", mul.power_mw / add.power_mw),
        format!("{:.1}x", mul.latency_ns / add.latency_ns),
    ]);
    t
}

/// Table 4: non-functional metrics of the accuracy-configurable FP
/// multiplier against the DesignWare baselines.
pub fn table4() -> Table {
    let mut t = Table::new(["configuration", "power (mW)", "latency (ns)", "area (um^2)"]);
    let entries: [(&str, ihw_power::metrics::UnitMetrics); 6] = [
        (
            "DW_fp_mult_32",
            SynthesisLibrary::dw_fp_mult(Precision::Single),
        ),
        (
            "ifpmul32* (same latency)",
            SynthesisLibrary::ac_mult_same_latency(Precision::Single),
        ),
        (
            "ifpmul32o (min latency)",
            SynthesisLibrary::ac_mult_min_latency(Precision::Single),
        ),
        (
            "DW_fp_mult_64",
            SynthesisLibrary::dw_fp_mult(Precision::Double),
        ),
        (
            "ifpmul64* (same latency)",
            SynthesisLibrary::ac_mult_same_latency(Precision::Double),
        ),
        (
            "ifpmul64o (min latency)",
            SynthesisLibrary::ac_mult_min_latency(Precision::Double),
        ),
    ];
    for (name, m) in entries {
        t.row([
            name.to_string(),
            format!("{:.2}", m.power_mw),
            format!("{:.1}", m.latency_ns),
            format!("{:.1}", m.area_um2),
        ]);
    }
    t
}

/// Figure 4: the IHW taxonomy — each characterized unit classified by
/// error frequency (error rate) and error magnitude (mean error %), into
/// the paper's FSM / FLM / ISM / ILM quadrants.
pub fn fig4(scale: Scale) -> Table {
    let mut t = Table::new(["unit", "error rate %", "mean error %", "taxonomy quadrant"]);
    for (op, cfg) in figure8_units() {
        let pmf = characterize(op, &cfg, scale.char_samples() / 10);
        let frequent = pmf.error_rate() > 0.5;
        // "Large" magnitude: the bulk of errors above 1%.
        let large_mass: f64 = pmf.iter().filter(|&(b, _)| b > 0).map(|(_, p)| p).sum();
        let large = large_mass > pmf.error_rate() / 2.0;
        let quadrant = match (frequent, large) {
            (true, false) => "FSM (frequent, small magnitude)",
            (true, true) => "FLM (frequent, large magnitude)",
            (false, false) => "ISM (infrequent, small magnitude)",
            (false, true) => "ILM (infrequent, large magnitude)",
        };
        t.row([
            label(op, &cfg),
            format!("{:.1}", pmf.error_rate() * 100.0),
            format!("{:.3}", pmf.mean_error_pct()),
            quadrant.to_string(),
        ]);
    }
    t
}

/// The Figure 8 unit set: every Table 1 op but the `iexp2` extension,
/// under [`IhwConfig::all_imprecise`] (`TH = 8`).
fn figure8_units() -> Vec<(FpOp, IhwConfig)> {
    FpOp::ALL
        .into_iter()
        .filter(|&op| op != FpOp::Exp2)
        .map(|op| (op, IhwConfig::all_imprecise()))
        .collect()
}

/// The Figure 9 configuration set: both datapaths of the AC multiplier
/// at the truncation levels the paper plots.
fn figure9_units() -> Vec<(FpOp, IhwConfig)> {
    let mut units = Vec::new();
    for t in [0, 8, 17, 18, 19] {
        for path in [MulPath::Log, MulPath::Full] {
            let ac = MulUnit::AcMul(AcMulConfig::new(path, t));
            units.push((FpOp::Mul, IhwConfig::precise().with_mul(ac)));
        }
    }
    units
}

/// Characterizes each `(op, config)` pair under its label.
fn characterize_all(units: Vec<(FpOp, IhwConfig)>, samples: u64) -> Vec<(String, ErrorPmf)> {
    units
        .into_iter()
        .map(|(op, cfg)| (label(op, &cfg), characterize(op, &cfg, samples)))
        .collect()
}

/// Figure 8: error characterization PMFs for all proposed 32-bit IHW
/// units under quasi-Monte Carlo inputs.
pub fn fig8(scale: Scale) -> Vec<(String, ErrorPmf)> {
    characterize_all(figure8_units(), scale.char_samples())
}

/// Figure 9: error characterization of the accuracy-configurable
/// multiplier across paths and truncation levels.
pub fn fig9(scale: Scale) -> Vec<(String, ErrorPmf)> {
    characterize_all(figure9_units(), scale.char_samples())
}

/// One point of the Figure 14 trade-off curves.
#[derive(Debug, Clone)]
pub struct TradeoffPoint {
    /// Configuration label.
    pub label: String,
    /// Truncated bits.
    pub truncation: u32,
    /// Maximum observed error percentage.
    pub max_error_pct: f64,
    /// Power reduction factor vs. the DWIP multiplier.
    pub power_reduction: f64,
}

/// Figure 14: power–quality trade-off of the accuracy-configurable FP
/// multiplier vs. intuitive bit truncation, single precision (a) and
/// double precision (b).
pub fn fig14(scale: Scale, precision: Precision) -> Vec<TradeoffPoint> {
    let samples = scale.char_samples() / 10;
    let frac_bits = match precision {
        Precision::Single => 23u32,
        Precision::Double => 52,
    };
    let truncs: Vec<u32> = match precision {
        Precision::Single => vec![0, 4, 8, 12, 15, 17, 19, 21, 23],
        Precision::Double => vec![0, 8, 16, 24, 32, 40, 44, 48, 52],
    };
    let mut points = Vec::new();
    for &tr in &truncs {
        for path in [MulPath::Log, MulPath::Full] {
            let cfg = AcMulConfig::new(path, tr);
            let max_err = measure_mul_max_err(
                &|a, b| match precision {
                    Precision::Single => cfg.mul32(a as f32, b as f32) as f64,
                    Precision::Double => cfg.mul64(a, b),
                },
                samples,
            );
            let unit = MulUnit::AcMul(cfg);
            points.push(TradeoffPoint {
                label: format!("{} path", if path == MulPath::Log { "Log" } else { "Full" }),
                truncation: tr,
                max_error_pct: max_err * 100.0,
                power_reduction: power_reduction(&unit, precision),
            });
        }
        // Intuitive bit truncation baseline (skip truncations beyond the
        // format's fraction width).
        if tr <= frac_bits {
            let tm = TruncatedMul::new(tr);
            let max_err = measure_mul_max_err(
                &|a, b| match precision {
                    Precision::Single => tm.mul32(a as f32, b as f32) as f64,
                    Precision::Double => tm.mul64(a, b),
                },
                samples,
            );
            points.push(TradeoffPoint {
                label: "Bit truncation".into(),
                truncation: tr,
                max_error_pct: max_err * 100.0,
                power_reduction: power_reduction(&MulUnit::Truncated(tm), precision),
            });
        }
    }
    points
}

/// Maximum relative error of a multiplier over the mantissa square
/// `[1,2) × [1,2)` with a low-discrepancy sweep.
fn measure_mul_max_err(mul: &dyn Fn(f64, f64) -> f64, samples: u64) -> f64 {
    let mut worst = 0.0f64;
    for p in ihw_qmc::Halton::<2>::new().take(samples as usize) {
        let a = 1.0 + p[0];
        let b = 1.0 + p[1];
        let approx = mul(a, b);
        let exact = a * b;
        worst = worst.max(((approx - exact) / exact).abs());
    }
    worst
}

/// Renders Figure 14 data as a table.
pub fn fig14_table(points: &[TradeoffPoint]) -> Table {
    let mut t = Table::new(["config", "trunc bits", "max error %", "power reduction"]);
    for p in points {
        t.row([
            p.label.clone(),
            p.truncation.to_string(),
            format!("{:.2}", p.max_error_pct),
            format!("{:.1}x", p.power_reduction),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_measured_within_theory() {
        let t = table1();
        assert_eq!(t.len(), 8, "eight Table 1 rows");
    }

    #[test]
    fn table2_has_all_units() {
        assert_eq!(table2().len(), 8);
    }

    #[test]
    fn figure_sets_have_expected_sizes() {
        assert_eq!(figure8_units().len(), 8);
        let fig9: Vec<String> = figure9_units()
            .iter()
            .map(|(op, cfg)| label(*op, cfg))
            .collect();
        assert_eq!(fig9.len(), 10);
        assert_eq!(fig9[..2], ["Log Path Tr0", "Full Path Tr0"]);
    }

    #[test]
    fn table3_and_4_shapes() {
        assert_eq!(table3().len(), 3);
        assert_eq!(table4().len(), 6);
    }

    #[test]
    fn fig14_shape_single() {
        let pts = fig14(Scale::Quick, Precision::Single);
        // At tr=19 the log path must dominate the truncation baseline on
        // power while staying at comparable error (the paper's headline).
        let log19 = pts
            .iter()
            .find(|p| p.label == "Log path" && p.truncation == 19)
            .expect("log tr19 present");
        let bt21 = pts
            .iter()
            .find(|p| p.label == "Bit truncation" && p.truncation == 21)
            .expect("bt tr21 present");
        assert!(
            log19.power_reduction > 20.0,
            "log19 {}x",
            log19.power_reduction
        );
        assert!(bt21.power_reduction < 5.0, "bt21 {}x", bt21.power_reduction);
        assert!(log19.max_error_pct < 25.0);
    }

    #[test]
    fn fig4_quadrants() {
        let t = fig4(Scale::Quick);
        assert_eq!(t.len(), 8);
        let rendered = t.render();
        // §4.2: the adder and log2 are FSM; the multiplier is FLM.
        assert!(rendered.contains("FSM"));
        assert!(rendered.contains("FLM"));
    }

    #[test]
    fn fig8_pmfs_nonempty() {
        let pmfs = fig8(Scale::Quick);
        assert_eq!(pmfs.len(), 8);
        for (label, pmf) in &pmfs {
            assert!(pmf.total() > 0, "{label} empty");
        }
    }
}
