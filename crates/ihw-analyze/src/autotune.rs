//! The static-bound-driven precision autotuner and the `repro autotune`
//! CLI (`ihw-autotune/1` schema).
//!
//! For each kernel the tuner searches the whole-kernel [`IhwConfig`]
//! space — the adder TH ladder, every multiplier variant, the per-opcode
//! SFU modes — with a branch-and-bound walk pruned by the analyzer:
//!
//! 1. **Level pruning.** A knob level whose single-unit relaxation bound
//!    (everything else precise) is finite and already above the target
//!    can never appear in an admissible config — the static bound is
//!    monotone nondecreasing in the per-unit error vector — so the level
//!    is dropped before the search starts.
//! 2. **Subtree pruning.** A partial assignment (chosen units relaxed,
//!    the rest precise) is itself a valid config whose bound lower-bounds
//!    every descendant; a finite bound above the target cuts the whole
//!    subtree. A partial assignment that is already ⊤ stops refining too:
//!    every descendant is ⊤, and the search keeps only the *minimal*
//!    unbounded configs as measured-fallback candidates.
//! 3. **Scoring.** Every statically admissible config is scored with
//!    `ihw-power`'s absolute energy/EDP model
//!    ([`ihw_power::system::SystemPowerModel::energy`]); static per-thread
//!    op counts come from the kernel IR (`Ffma` counts as one mul + one
//!    add, matching both the analyzer and the functional dispatch).
//! 4. **Measured fallback.** Configs the analyzer can only bound as ⊤
//!    are handed — cheapest first — to the Figure 10 loop
//!    ([`gpu_sim::tuner::tune`]) with a QMC-measured error evaluate; the
//!    first one under the target joins the front with
//!    `evidence: "measured"` and the ⊤ provenance flag.
//!
//! The result is a deterministic Pareto front (energy vs. guaranteed
//! bound): points sorted by (energy, bound, render), equal-bound configs
//! deduped to the cheapest, byte-identical `--json` across runs.
//!
//! `repro autotune` takes `--target REL_ERR` (default 0.1%) and
//! `--threads N` besides kernel names; its common gate flags and exit
//! status are those of [`ihw_lint::gate`] (rule A008,
//! `autotune-baseline.txt`).

use crate::interp::{analyze_program, AnalysisSettings};
use crate::sensitivity::{self, Relaxation};
use crate::stock_kernel_names;
use gpu_sim::isa::{Instr, Program};
use gpu_sim::tuner::{tune, QualityConstraint};
use ihw_core::config::{FpOp, IhwConfig};
use ihw_lint::diag::{findings_fields, Finding};
use ihw_lint::gate::{self, value, Audit, Tally};
use ihw_lint::json::{obj, Json};
use ihw_power::system::{OpCounts, SystemPowerModel};
use std::collections::BTreeMap;

/// Schema tag of the autotune JSON document.
pub const SCHEMA: &str = "ihw-autotune/1";

/// Default quality target: 0.1% relative error.
pub const DEFAULT_TARGET: f64 = 1e-3;

/// Cap on QMC-measured fallback evaluations per kernel, so a large ⊤
/// frontier cannot turn the static search into a measurement campaign.
pub const MEASURED_CAP: usize = 8;

/// Tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct AutotuneSettings {
    /// Maximum tolerated relative error any emitted config may promise.
    pub target: f64,
    /// Launch shape and input range of the underlying analysis.
    pub analysis: AnalysisSettings,
}

impl Default for AutotuneSettings {
    /// 0.1% target over the default analysis settings.
    fn default() -> Self {
        AutotuneSettings {
            target: DEFAULT_TARGET,
            analysis: AnalysisSettings::default(),
        }
    }
}

/// Provenance of a Pareto point's error bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evidence {
    /// The bound is a sound static guarantee from the abstract
    /// interpreter.
    Static,
    /// The static bound was ⊤; the reported error is QMC-measured and
    /// carries no guarantee.
    Measured,
}

impl Evidence {
    /// The JSON rendering (`"static"` / `"measured"`).
    pub fn label(self) -> &'static str {
        match self {
            Evidence::Static => "static",
            Evidence::Measured => "measured",
        }
    }
}

/// One point of the energy-vs-bound Pareto front.
#[derive(Debug, Clone)]
pub struct ParetoPoint {
    /// The configuration.
    pub config: IhwConfig,
    /// Canonical compact rendering of the configuration.
    pub render: String,
    /// Relative-error bound: static guarantee, or measured worst error
    /// for [`Evidence::Measured`] points.
    pub bound: f64,
    /// Where the bound comes from.
    pub evidence: Evidence,
    /// True when the static analysis could only bound this config as ⊤.
    pub top_static_bound: bool,
    /// Absolute arithmetic energy (pJ) of one launch.
    pub energy_pj: f64,
    /// Energy-delay product (pJ·ns).
    pub edp: f64,
    /// Energy saving relative to the fully precise config (`1 − E/E₀`).
    pub savings: f64,
}

/// The autotune result for one kernel.
#[derive(Debug, Clone)]
pub struct KernelAutotune {
    /// Kernel name.
    pub kernel: String,
    /// Distinct configs the abstract interpreter evaluated.
    pub explored: usize,
    /// Knob levels and search subtrees cut by the analyzer bounds.
    pub pruned: usize,
    /// QMC fallback evaluations performed (⊤-bound configs only).
    pub measured: usize,
    /// The deterministic Pareto front, energy ascending.
    pub pareto: Vec<ParetoPoint>,
    /// The full analyzer-pruned candidate sequence (admissible and
    /// minimal-⊤ configs), energy ascending — i.e. most aggressive
    /// first, the order [`gpu_sim::tuner::tune`] expects.
    pub candidates: Vec<IhwConfig>,
}

/// Canonical compact rendering of a config: `precise`, or `+`-joined
/// unit parts (`add:th=8+mul:trunc(11)+rsqrt:ihw`), deterministic in
/// unit order.
pub fn render_config(cfg: &IhwConfig) -> String {
    if !cfg.any_imprecise() {
        return "precise".to_string();
    }
    let mut parts = Vec::new();
    if let ihw_core::config::AddUnit::Imprecise { th } = cfg.add {
        parts.push(format!("add:{}", Relaxation::Adder { th }.render()));
    }
    if cfg.mul != ihw_core::config::MulUnit::Precise {
        parts.push(format!("mul:{}", Relaxation::Mul(cfg.mul).render()));
    }
    for (name, mode) in [
        ("div", cfg.div),
        ("rcp", cfg.rcp),
        ("rsqrt", cfg.rsqrt),
        ("sqrt", cfg.sqrt),
        ("log2", cfg.log2),
        ("exp2", cfg.exp2),
    ] {
        if mode.is_imprecise() {
            parts.push(format!("{name}:ihw"));
        }
    }
    parts.join("+")
}

/// Static per-thread op counts of a kernel, scaled by the launch width.
/// `Ffma` decomposes into one mul + one add — the same composition the
/// abstract interpreter and the functional dispatch (`IhwConfig::fma32`)
/// use, so the energy model sees the actual units exercised.
pub fn op_counts(prog: &Program, threads: u32) -> OpCounts {
    let mut counts = OpCounts::new();
    let n = threads as u64;
    for instr in prog.instrs() {
        match *instr {
            Instr::Fadd(..) | Instr::Fsub(..) => counts.record(FpOp::Add, n),
            Instr::Fmul(..) => counts.record(FpOp::Mul, n),
            Instr::Ffma(..) => {
                counts.record(FpOp::Mul, n);
                counts.record(FpOp::Add, n);
            }
            Instr::Fdiv(..) => counts.record(FpOp::Div, n),
            Instr::Rcp(..) => counts.record(FpOp::Rcp, n),
            Instr::Rsqrt(..) => counts.record(FpOp::Rsqrt, n),
            Instr::Sqrt(..) => counts.record(FpOp::Sqrt, n),
            Instr::Log2(..) => counts.record(FpOp::Log2, n),
            Instr::Movi(..)
            | Instr::Tid(..)
            | Instr::Fmax(..)
            | Instr::Sel(..)
            | Instr::Ld(..)
            | Instr::St(..) => {}
        }
    }
    counts
}

/// Unit classes the kernel exercises, in the fixed search-dimension
/// order (`Exp2` has no IR instruction, so it never forms a dimension
/// and stays precise in every emitted config).
fn dims_of(prog: &Program) -> Vec<FpOp> {
    let classes: std::collections::BTreeSet<FpOp> = sensitivity::site_classes(prog)
        .into_iter()
        .map(|(_, c)| c)
        .collect();
    [
        FpOp::Add,
        FpOp::Mul,
        FpOp::Div,
        FpOp::Rcp,
        FpOp::Rsqrt,
        FpOp::Sqrt,
        FpOp::Log2,
    ]
    .into_iter()
    .filter(|c| classes.contains(c))
    .collect()
}

/// Memoized bound evaluator over whole configs.
struct Search<'a> {
    prog: &'a Program,
    s: AnalysisSettings,
    target: f64,
    memo: BTreeMap<IhwConfig, f64>,
    pruned: usize,
    admissible: Vec<(IhwConfig, f64)>,
    top: Vec<IhwConfig>,
}

impl Search<'_> {
    /// Worst output bound of `cfg`, memoized.
    fn eval(&mut self, cfg: &IhwConfig) -> f64 {
        if let Some(&b) = self.memo.get(cfg) {
            return b;
        }
        let a = analyze_program(self.prog, cfg, "autotune", &self.s);
        let worst = a.outputs.iter().map(|o| o.bound).fold(0.0, f64::max);
        self.memo.insert(*cfg, worst);
        worst
    }

    /// Depth-first branch and bound. `cfg` carries the levels chosen for
    /// `dims[..depth]`, with every remaining dim precise — which is both
    /// a valid leaf and, by monotonicity of the bound in the per-unit
    /// error vector, a sound lower bound on every descendant.
    fn dfs(
        &mut self,
        dims: &[FpOp],
        levels: &[Vec<Option<Relaxation>>],
        depth: usize,
        cfg: IhwConfig,
    ) {
        let bound = self.eval(&cfg);
        if bound.is_infinite() {
            // Every descendant is ⊤ too; keep only this minimal ⊤ config
            // as a measured-fallback candidate.
            self.top.push(cfg);
            self.pruned += 1;
            return;
        }
        if bound > self.target {
            // Monotonicity: no descendant can come back under the target.
            self.pruned += 1;
            return;
        }
        if depth == dims.len() {
            self.admissible.push((cfg, bound));
            return;
        }
        for level in &levels[depth] {
            let child = match level {
                None => cfg,
                Some(r) => r.apply(&cfg),
            };
            self.dfs(dims, levels, depth + 1, child);
        }
    }
}

/// Runs the autotuner for one kernel.
pub fn autotune_kernel(prog: &Program, settings: &AutotuneSettings) -> KernelAutotune {
    let dims = dims_of(prog);
    let mut search = Search {
        prog,
        s: settings.analysis,
        target: settings.target,
        memo: BTreeMap::new(),
        pruned: 0,
        admissible: Vec::new(),
        top: Vec::new(),
    };

    // Level pruning: drop any knob level whose single-unit relaxation is
    // already (finitely) over the target; keep ⊤ levels — they feed the
    // measured fallback.
    let precise = IhwConfig::precise();
    let levels: Vec<Vec<Option<Relaxation>>> = dims
        .iter()
        .map(|&class| {
            let mut ls: Vec<Option<Relaxation>> = vec![None];
            for r in sensitivity::class_sweep(class) {
                let b = search.eval(&r.apply(&precise));
                if b.is_finite() && b > settings.target {
                    search.pruned += 1;
                } else {
                    ls.push(Some(r));
                }
            }
            ls
        })
        .collect();

    search.dfs(&dims, &levels, 0, precise);

    let model = SystemPowerModel::new();
    let counts = op_counts(prog, settings.analysis.threads);
    let e_precise = model.energy(&counts, &precise).energy_pj;
    let energy_of = |cfg: &IhwConfig| model.energy(&counts, cfg);

    let mut points: Vec<ParetoPoint> = search
        .admissible
        .iter()
        .map(|&(cfg, bound)| {
            let e = energy_of(&cfg);
            ParetoPoint {
                config: cfg,
                render: render_config(&cfg),
                bound,
                evidence: Evidence::Static,
                top_static_bound: false,
                energy_pj: e.energy_pj,
                edp: e.edp,
                savings: if e_precise > 0.0 {
                    1.0 - e.energy_pj / e_precise
                } else {
                    0.0
                },
            }
        })
        .collect();

    // Measured fallback: hand the minimal-⊤ configs, cheapest first, to
    // the Figure 10 loop with a QMC-measured error evaluate.
    let mut top = search.top.clone();
    top.sort_by(|a, b| {
        energy_of(a)
            .energy_pj
            .total_cmp(&energy_of(b).energy_pj)
            .then_with(|| render_config(a).cmp(&render_config(b)))
    });
    top.dedup();
    let s = settings.analysis;
    let outcome = tune(
        top.iter().copied().take(MEASURED_CAP),
        |cfg| match crate::empirical::measure(prog, cfg, s.threads, s.input_lo, s.input_hi) {
            Ok(errs) => errs.iter().map(|e| e.max_rel).fold(0.0, f64::max),
            Err(_) => f64::INFINITY,
        },
        QualityConstraint::AtMost(settings.target),
    );
    let measured = outcome.iterations();
    if let Some(cfg) = outcome.selected {
        let quality = outcome
            .history
            .last()
            .map(|step| step.quality)
            .unwrap_or(f64::INFINITY);
        let e = energy_of(&cfg);
        points.push(ParetoPoint {
            config: cfg,
            render: render_config(&cfg),
            bound: quality,
            evidence: Evidence::Measured,
            top_static_bound: true,
            energy_pj: e.energy_pj,
            edp: e.edp,
            savings: if e_precise > 0.0 {
                1.0 - e.energy_pj / e_precise
            } else {
                0.0
            },
        });
    }

    // Deterministic Pareto sweep: sort by (energy, bound, render), keep
    // strict bound improvements — equal-bound configs collapse to the
    // cheapest automatically.
    points.sort_by(|a, b| {
        a.energy_pj
            .total_cmp(&b.energy_pj)
            .then(a.bound.total_cmp(&b.bound))
            .then_with(|| a.render.cmp(&b.render))
    });
    let mut pareto: Vec<ParetoPoint> = Vec::new();
    let mut best = f64::INFINITY;
    for p in points {
        if p.bound < best {
            best = p.bound;
            pareto.push(p);
        }
    }

    // The shared Figure 10 candidate sequence: everything the analyzer
    // admitted (or left at minimal-⊤), most aggressive first.
    let mut candidates: Vec<IhwConfig> = search
        .admissible
        .iter()
        .map(|&(cfg, _)| cfg)
        .chain(top.iter().copied())
        .collect();
    candidates.sort_by(|a, b| {
        energy_of(a)
            .energy_pj
            .total_cmp(&energy_of(b).energy_pj)
            .then_with(|| render_config(a).cmp(&render_config(b)))
    });
    candidates.dedup();

    KernelAutotune {
        kernel: prog.name().to_string(),
        explored: search.memo.len(),
        pruned: search.pruned,
        measured,
        pareto,
        candidates,
    }
}

/// The analyzer-pruned candidate sequence for one kernel, energy
/// ascending (most aggressive first) — the sequence to feed
/// [`gpu_sim::tuner::tune`] so the Figure 10 loop and the static search
/// share one path.
pub fn candidates(prog: &Program, settings: &AutotuneSettings) -> Vec<IhwConfig> {
    autotune_kernel(prog, settings).candidates
}

/// Runs the autotuner over every stock kernel. When `filter` is
/// non-empty only kernels whose name is listed are kept.
pub fn autotune_stock(settings: &AutotuneSettings, filter: &[String]) -> Vec<KernelAutotune> {
    crate::stock_kernels()
        .into_iter()
        .filter(|p| filter.is_empty() || filter.iter().any(|k| k == p.name()))
        .map(|prog| autotune_kernel(&prog, settings))
        .collect()
}

/// Renders the combined autotune document: the per-kernel Pareto fronts
/// plus the A008 findings, under the `ihw-autotune/1` schema, through
/// the workspace's one JSON writer.
pub fn to_json(
    results: &[KernelAutotune],
    findings: &[Finding],
    settings: &AutotuneSettings,
) -> String {
    let kernels = results
        .iter()
        .map(|r| {
            let pareto = r
                .pareto
                .iter()
                .map(|p| {
                    obj([
                        ("config", p.render.as_str().into()),
                        ("bound", p.bound.into()),
                        ("evidence", p.evidence.label().into()),
                        ("top_static_bound", p.top_static_bound.into()),
                        ("energy_pj", p.energy_pj.into()),
                        ("edp", p.edp.into()),
                        ("savings", p.savings.into()),
                    ])
                })
                .collect();
            obj([
                ("kernel", r.kernel.as_str().into()),
                ("explored", r.explored.into()),
                ("pruned", r.pruned.into()),
                ("measured", r.measured.into()),
                ("pareto", Json::Arr(pareto)),
            ])
        })
        .collect();
    let head = [
        ("schema", SCHEMA.into()),
        ("target", settings.target.into()),
        ("threads", settings.analysis.threads.into()),
        ("kernels", Json::Arr(kernels)),
    ];
    obj(head.into_iter().chain(findings_fields(findings))).render()
}

fn fmt_bound(b: f64) -> String {
    if b.is_infinite() {
        "unbounded".to_string()
    } else {
        format!("{:.4}%", b * 100.0)
    }
}

/// The autotune gate's own parts: the per-kernel Pareto fronts and the
/// summary line.
struct Autotune {
    settings: AutotuneSettings,
    results: Vec<KernelAutotune>,
}

impl Audit for Autotune {
    const BASELINE_FILE: &'static str = "autotune-baseline.txt";
    const BASELINE_HEADER: &'static str =
        "# ihw-autotune baseline — grandfathered A008 findings (one fingerprint per line).\n\
         # Regenerate with `cargo run -p ihw-bench --bin repro -- autotune --write-baseline`;\n\
         # the CI gate fails only on findings NOT listed here. Keep this file empty:\n\
         # an over-provisioned-precision site is a tuning opportunity, not an error —\n\
         # relax the unit (or tighten the target) instead of baselining the finding.\n";

    fn to_json(&self, findings: &[Finding]) -> String {
        to_json(&self.results, findings, &self.settings)
    }

    fn print_table(&self) {
        for r in &self.results {
            println!(
                "{}: target {:e}, {} explored, {} pruned, {} measured, \
                 {} Pareto point(s)",
                r.kernel,
                self.settings.target,
                r.explored,
                r.pruned,
                r.measured,
                r.pareto.len()
            );
            println!(
                "  {:>12} {:>9} {:>12} {:>9} {:<9} config",
                "energy_pj", "savings", "bound", "top?", "evidence"
            );
            for p in &r.pareto {
                println!(
                    "  {:>12.2} {:>8.1}% {:>12} {:>9} {:<9} {}",
                    p.energy_pj,
                    p.savings * 100.0,
                    fmt_bound(p.bound),
                    if p.top_static_bound { "yes" } else { "no" },
                    p.evidence.label(),
                    p.render
                );
            }
        }
    }

    fn summary(&self, t: &Tally) -> String {
        format!(
            "ihw-autotune: {} kernel(s), {} A008 finding(s), {} new, {} baselined",
            self.results.len(),
            t.total,
            t.new,
            t.baselined()
        )
    }
}

/// Runs the autotune CLI over `args` (everything after `autotune`);
/// returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let mut settings = AutotuneSettings::default();
    let usage = format!(
        "usage: repro autotune [--target REL_ERR] [--threads N] [--json] \
         [--json-out FILE] [--baseline FILE] [--write-baseline] [KERNELS...]\n\
         kernels: {}",
        stock_kernel_names().join(" ")
    );
    let vocabulary = stock_kernel_names();
    let parsed = gate::parse(
        args,
        &usage,
        Some(&vocabulary),
        &["--target", "--threads"],
        |flag, v| {
            if flag == "--target" {
                let ok = |t: &f64| *t > 0.0 && t.is_finite();
                settings.target = value(flag, v, "a positive relative error", ok)?;
            } else {
                settings.analysis.threads = value(flag, v, "a positive integer", |n| *n > 0)?;
            }
            Ok(())
        },
    );
    let flags = match parsed {
        Ok(flags) => flags,
        Err(code) => return code,
    };

    let results = autotune_stock(&settings, &flags.names);
    let findings = sensitivity::collect_findings(settings.target, &settings.analysis, &flags.names);
    gate::run(&flags, &Autotune { settings, results }, findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::programs;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn saxpy_front_is_nontrivial_at_the_default_target() {
        let r = autotune_kernel(&programs::saxpy(2.0), &AutotuneSettings::default());
        assert!(r.pareto.len() >= 2, "got {} point(s)", r.pareto.len());
        assert!(
            r.pareto.iter().any(|p| p.config.any_imprecise()),
            "at least one non-precise config must be admissible"
        );
        assert!(r.pareto.iter().any(|p| !p.config.any_imprecise()));
        for p in &r.pareto {
            assert!(p.bound <= DEFAULT_TARGET, "{}: {}", p.render, p.bound);
        }
        // Energy ascending, bound strictly decreasing.
        for w in r.pareto.windows(2) {
            assert!(w[0].energy_pj <= w[1].energy_pj);
            assert!(w[0].bound > w[1].bound);
        }
        assert!(r.pruned > 0, "the TH/truncation ladders must be pruned");
    }

    #[test]
    fn dot_partial_front_is_nontrivial_at_the_default_target() {
        let r = autotune_kernel(&programs::dot_partial(4), &AutotuneSettings::default());
        assert!(r.pareto.len() >= 2);
        assert!(r.pareto.iter().any(|p| p.config.any_imprecise()));
    }

    #[test]
    fn autotune_is_deterministic() {
        let settings = AutotuneSettings::default();
        let a = autotune_stock(&settings, &s(&["saxpy", "dot_partial"]));
        let b = autotune_stock(&settings, &s(&["saxpy", "dot_partial"]));
        let fa = sensitivity::collect_findings(settings.target, &settings.analysis, &[]);
        let fb = sensitivity::collect_findings(settings.target, &settings.analysis, &[]);
        assert_eq!(to_json(&a, &fa, &settings), to_json(&b, &fb, &settings));
    }

    #[test]
    fn candidates_are_energy_ascending_and_deduped() {
        let settings = AutotuneSettings::default();
        let prog = programs::saxpy(2.0);
        let cands = candidates(&prog, &settings);
        assert!(!cands.is_empty());
        let model = SystemPowerModel::new();
        let counts = op_counts(&prog, settings.analysis.threads);
        let energies: Vec<f64> = cands
            .iter()
            .map(|c| model.energy(&counts, c).energy_pj)
            .collect();
        for w in energies.windows(2) {
            assert!(w[0] <= w[1], "most aggressive (cheapest) first");
        }
        let mut uniq = cands.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), cands.len(), "no duplicate candidates");
    }

    #[test]
    fn render_config_is_canonical() {
        assert_eq!(render_config(&IhwConfig::precise()), "precise");
        let c = IhwConfig::precise()
            .with_add(ihw_core::config::AddUnit::Imprecise { th: 8 })
            .with_mul(ihw_core::config::MulUnit::Imprecise);
        assert_eq!(render_config(&c), "add:th=8+mul:ihw");
        let r = render_config(&IhwConfig::ray_with_ac_mul(19));
        assert!(r.contains("mul:ac(full,19)"), "{r}");
    }

    #[test]
    fn op_counts_decompose_ffma() {
        let counts = op_counts(&programs::saxpy(2.0), 64);
        assert_eq!(counts.get(FpOp::Mul), 64);
        assert_eq!(counts.get(FpOp::Add), 64);
        assert_eq!(counts.get(FpOp::Fma), 0);
        let d = op_counts(&programs::distance(), 10);
        assert_eq!(d.get(FpOp::Mul), 20, "Fmul + Ffma's mul stage");
        assert_eq!(d.get(FpOp::Sqrt), 10);
    }

    #[test]
    fn usage_errors_exit_2() {
        assert_eq!(run(&s(&["--bogus"])), 2);
        assert_eq!(run(&s(&["--target"])), 2);
        assert_eq!(run(&s(&["--target", "nope"])), 2);
        assert_eq!(run(&s(&["--target", "-1"])), 2);
        assert_eq!(run(&s(&["--threads", "0"])), 2);
        assert_eq!(run(&s(&["no_such_kernel"])), 2);
    }

    #[test]
    fn help_exits_0() {
        assert_eq!(run(&s(&["--help"])), 0);
    }

    #[test]
    fn stock_autotune_is_clean_against_empty_baseline() {
        assert_eq!(run(&s(&["--baseline", "/nonexistent", "saxpy"])), 0);
    }

    #[test]
    fn json_document_shape() {
        let settings = AutotuneSettings::default();
        let results = autotune_stock(&settings, &s(&["saxpy"]));
        let findings =
            sensitivity::collect_findings(settings.target, &settings.analysis, &s(&["saxpy"]));
        let json = to_json(&results, &findings, &settings);
        assert!(json.contains("\"schema\": \"ihw-autotune/1\""));
        assert!(json.contains("\"target\": 0.001"));
        assert!(json.contains("\"kernel\": \"saxpy\""));
        assert!(json.contains("\"evidence\": \"static\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
