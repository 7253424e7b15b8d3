//! Convergence certification for iterative kernels: per-launch
//! error-transfer summaries, static contraction bounds, and the
//! `repro converge` gate (`ihw-converge/1` JSON schema, rule **A010**,
//! `converge-baseline.txt` grandfather file).
//!
//! A kernel that declares a feedback binding
//! ([`gpu_sim::isa::Program::with_feedback`]) is an *iteration body*:
//! the buffer it stores this launch is re-bound as an input of the next
//! launch. Seeding the affine pass ([`crate::affine::SeedSpec`]) with a
//! per-element incoming error `h` on the feedback input and reading the
//! classified error mass back off the stores yields a **launch
//! summary**
//!
//! ```text
//!     e_out ≤ ρ·e_in + c        (valid for every e_in ≤ h)
//! ```
//!
//! in the ∞-norm, where `ρ` is the worst per-store input-classed error
//! mass divided by `h` and `c` the worst store's additive injection
//! (rounding + imprecise-unit noise, independent of `e_in`). The
//! summary is a *linear majorant* of the true transfer: every
//! input-classed coefficient scales at most linearly when the incoming
//! error shrinks below `h` (the κ-splits in [`crate::affine`] put the
//! quadratic `e_in²`-terms on the input side, and `e² ≤ e·h` for
//! `e ≤ h`), so a single extraction bounds the whole trajectory.
//!
//! **If `ρ < 1`** the iteration error contracts toward the *noise
//! floor* `e★ = c/(1−ρ)` — the summary's fixed point — and the closed
//! form
//!
//! ```text
//!     e_k − e★ ≤ ρ^k (e_0 − e★)
//! ```
//!
//! gives a certified iteration count `N(ε)` for any target `ε > e★`,
//! which [`crate::autotune::op_counts`] and
//! [`ihw_power::system::SystemPowerModel::energy`] turn into certified
//! **net energy per solved problem** — the paper's end-to-end question
//! ("does the cheap adder still pay once the solver needs more
//! sweeps?") answered statically. A certificate additionally requires
//! the ideal update to be a self-map of the input box (so the fixpoint
//! the bound contracts to actually lies in the analyzed range) and a
//! `ρ < 1` summary under [`ihw_core::config::IhwConfig::precise`] (the
//! fixpoint-existence witness: the ideal iteration itself converges).
//!
//! **If `ρ ≥ 1`** (or the extraction degrades) imprecision may grow
//! faster than the iteration contracts and the pair is flagged
//! **A010 `imprecision-divergence-risk`**. Pairs listed in
//! [`EXPECTED_DIVERGENT`] — the repo's documented resilience table,
//! re-measured by `tests/convergence_soundness.rs` — are advisory in
//! the sense of [`ihw_lint::gate`]: reported, never baselined, never
//! gating, like A009 in `repro analyze`.
//!
//! `repro converge` takes `--tol EPS` (default [`DEFAULT_TOL`]) and
//! `--threads N` besides solver kernel names; the common gate flags
//! and exit status are those of [`ihw_lint::gate`].

use crate::affine::SeedSpec;
use crate::domain::Interval;
use crate::interp::AnalysisSettings;
use gpu_sim::isa::{Instr, Program};
use ihw_core::config::{AddUnit, IhwConfig};
use ihw_lint::diag::{findings_fields, Finding, Rule};
use ihw_lint::gate::{self, value, Audit, Tally};
use ihw_lint::json::{obj, Json};
use ihw_power::system::SystemPowerModel;

/// Schema tag of the converge JSON document.
pub const SCHEMA: &str = "ihw-converge/1";

/// Default convergence target `ε` for `N(ε)` (`repro converge --tol`).
pub const DEFAULT_TOL: f64 = 1e-6;

/// Relative slack allowed when checking that the ideal update maps the
/// input box into itself. Absorbs f32 constant rounding — e.g. the
/// `Movi(1/3)` in `jacobi_sweep` makes the ideal hull reach
/// `3·(1/3 + 2⁻²⁵) > 1` even though the real-arithmetic update is an
/// exact self-map of `[0.5, 1]`.
pub const SELF_MAP_SLACK: f64 = 1e-5;

/// Maximum `h` re-extraction rounds before giving up on a finite noise
/// floor (each round grows `h` to `1.05·e★`, so divergence here means
/// the floor chases its own magnitude-dependent error terms).
const MAX_H_ROUNDS: usize = 8;

/// Growth headroom applied when re-extracting at the discovered floor.
const H_GROWTH: f64 = 1.05;

/// Kernel × config pairs *documented* (EXPERIMENTS.md §convergence) to
/// lose certification: the config's per-op error defeats the
/// iteration's mathematical contraction. `tests/convergence_soundness.rs`
/// measures each pair and asserts it really fails to reach the default
/// tolerance, so this table cannot drift from reality. A010 findings
/// for listed pairs are advisory (reported, never gating), exactly like
/// A009 in `repro analyze`; an *unlisted* A010 is a regression and
/// fails the gate.
pub const EXPECTED_DIVERGENT: &[(&str, &str)] = &[
    ("jacobi_sweep", "all_imprecise"),
    ("jacobi_sweep", "ray_ac_mul_t19"),
    ("jacobi_sweep", "add_th2"),
    ("heat_stencil", "all_imprecise"),
    ("heat_stencil", "ray_ac_mul_t19"),
    ("heat_stencil", "add_th2"),
];

/// True when `kernel` under `config` is a documented divergence
/// ([`EXPECTED_DIVERGENT`]).
pub fn is_expected_divergent(kernel: &str, config: &str) -> bool {
    EXPECTED_DIVERGENT
        .iter()
        .any(|&(k, c)| k == kernel && c == config)
}

/// The converge sweep's configuration axis: every stock config plus an
/// adder-only pair — `add_th8` (the paper's recommended threshold,
/// expected to certify everywhere) and `add_th2` (deliberately past the
/// cliff, the gate's guaranteed-divergent specimen).
pub fn converge_configs() -> Vec<(&'static str, IhwConfig)> {
    let mut configs = crate::stock_configs();
    configs.push((
        "add_th8",
        IhwConfig::precise().with_add(AddUnit::Imprecise { th: 8 }),
    ));
    configs.push((
        "add_th2",
        IhwConfig::precise().with_add(AddUnit::Imprecise { th: 2 }),
    ));
    configs
}

/// One launch's error-transfer summary `e_out ≤ ρ·e_in + c` (∞-norm
/// over the feedback buffer's stores), valid for every `e_in ≤ h`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchSummary {
    /// Contraction factor: worst per-store input-classed mass over `h`.
    pub rho: f64,
    /// Additive injection: worst per-store plain error mass.
    pub c: f64,
    /// Incoming-error bound the summary was extracted at.
    pub h: f64,
    /// Hull of the stored *ideal* values (self-map check).
    pub ideal: Interval,
}

/// A convergence certificate for one kernel × config pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// Certified contraction factor (`< 1`).
    pub rho: f64,
    /// Certified per-iteration additive error injection.
    pub c: f64,
    /// Noise floor `e★ = c/(1−ρ)`: no iteration count beats this.
    pub floor: f64,
    /// Worst-case initial ∞-error (the input box width).
    pub e0: f64,
    /// Effective target `max(tol, 2·e★)` the counts below certify.
    pub tol_eff: f64,
    /// Certified iteration count from `e_k − e★ ≤ ρ^k (e_0 − e★)`.
    pub n_iters: u64,
    /// The looser textbook form `⌈log((1−ρ)ε/c)/log ρ⌉`, reported for
    /// comparison (equal to [`Certificate::n_iters`] when `c = 0`).
    pub n_iters_paper: u64,
    /// Static per-launch energy under this config (pJ).
    pub energy_per_iter_pj: f64,
    /// Certified net energy per solved problem: per-launch × `n_iters`.
    pub energy_pj: f64,
    /// Certified net latency per solved problem (ns).
    pub delay_ns: f64,
}

/// Outcome of certifying one kernel × config pair.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// `ρ < 1` with a valid self-map and precise-config witness.
    Certified(Certificate),
    /// `ρ ≥ 1`, a failed precondition, or a degraded extraction —
    /// the static analysis cannot rule out divergence (rule A010).
    DivergenceRisk {
        /// Extracted contraction factor (`NaN` when no summary exists).
        rho: f64,
        /// Extracted additive injection (`NaN` when no summary exists).
        c: f64,
        /// Human-readable cause, embedded in the A010 message.
        reason: String,
    },
}

/// One row of the converge sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelConvergence {
    /// Kernel name ([`gpu_sim::isa::Program::name`]).
    pub kernel: String,
    /// Stock config label the pair was analyzed under.
    pub config: String,
    /// The feedback *output* buffer the summary ranges over.
    pub buffer: usize,
    /// Diagnostic line of the kernel's first store to that buffer.
    pub line: u32,
    /// Certification outcome.
    pub verdict: Verdict,
}

/// Extracts the launch summary of `prog` under `cfg` at incoming error
/// bound `h`, without the fixed-point search ([`summarize`] wraps it).
fn extract_summary(
    prog: &Program,
    cfg: &IhwConfig,
    label: &str,
    s: &AnalysisSettings,
    h: f64,
) -> Result<LaunchSummary, String> {
    let fb = prog
        .feedback()
        .ok_or_else(|| "kernel declares no feedback binding".to_owned())?;
    let seed = SeedSpec { buffer: fb.to, h };
    let (aff, _) = crate::interp::seeded_pass(prog, cfg, label, s, seed);
    if aff.degraded() {
        return Err("affine domain degraded to intervals under the seed".to_owned());
    }
    let rows = aff
        .store_transfers(fb.from)
        .ok_or_else(|| format!("a store to b{} lost its error enclosure", fb.from))?;
    if rows.is_empty() {
        return Err(format!(
            "kernel never stores to feedback buffer b{}",
            fb.from
        ));
    }
    let rho = rows.iter().map(|r| r.in_sum).fold(0.0, f64::max) / h;
    let c = rows.iter().map(|r| r.c_sum).fold(0.0, f64::max);
    let ideal = rows
        .iter()
        .map(|r| r.ideal)
        .reduce(|a, b| Interval::new(a.lo.min(b.lo), a.hi.max(b.hi)))
        .expect("rows is non-empty");
    Ok(LaunchSummary { rho, c, h, ideal })
}

/// Extracts the launch summary at a caller-chosen incoming error bound
/// `h`, with no fixed-point search. Public for the composition property
/// gate (`tests/convergence_soundness.rs`), which re-extracts at each
/// step's shrinking bound to prove that composing one fixed summary `k`
/// times is never tighter than `k` per-step re-analyses.
pub fn summary_at(
    prog: &Program,
    cfg: &IhwConfig,
    label: &str,
    s: &AnalysisSettings,
    h: f64,
) -> Result<LaunchSummary, String> {
    extract_summary(prog, cfg, label, s, h)
}

/// Extracts a *self-consistent* launch summary: starts at
/// `h = input_hi − input_lo` (no iterate can be further from the
/// fixpoint than the box is wide) and, whenever the implied noise floor
/// `e★ = c/(1−ρ)` exceeds `h`, re-extracts at `1.05·e★` so the summary
/// stays valid over the whole error trajectory (`ρ` and `c` depend on
/// the operand magnitudes, which include the error mass itself).
/// Returns the first summary with `ρ ≥ 1` unchanged — the caller turns
/// it into an A010 verdict.
pub fn summarize(
    prog: &Program,
    cfg: &IhwConfig,
    label: &str,
    s: &AnalysisSettings,
) -> Result<LaunchSummary, String> {
    let mut h = (s.input_hi - s.input_lo).max(f64::MIN_POSITIVE);
    for _ in 0..MAX_H_ROUNDS {
        let summary = extract_summary(prog, cfg, label, s, h)?;
        if summary.rho >= 1.0 {
            return Ok(summary);
        }
        let floor = summary.c / (1.0 - summary.rho);
        if floor <= h {
            return Ok(summary);
        }
        h = H_GROWTH * floor;
    }
    Err(format!(
        "noise floor did not stabilize within {MAX_H_ROUNDS} re-extractions"
    ))
}

/// Diagnostic line of the first store to `buf` (1-based assembler line
/// when available, instruction index otherwise — the racecheck
/// convention).
fn store_line(prog: &Program, buf: usize) -> u32 {
    prog.instrs()
        .iter()
        .position(|i| matches!(i, Instr::St(b, _, _) if *b == buf))
        .map(|idx| prog.source_line(idx).unwrap_or(idx as u32))
        .unwrap_or(0)
}

/// Certified iteration count to reach `tol_eff` from worst-case start
/// `e0`, given summary `(rho, c)` with floor `e★ < tol_eff`.
fn iters_to(rho: f64, floor: f64, e0: f64, tol_eff: f64) -> u64 {
    if e0 <= tol_eff {
        return 0;
    }
    if rho <= 0.0 {
        return 1;
    }
    let k = ((tol_eff - floor) / (e0 - floor)).ln() / rho.ln();
    k.ceil().max(1.0) as u64
}

/// The textbook closed form `⌈log((1−ρ)ε/c)/log ρ⌉`, evaluated at the
/// *requested* target: it drops the `e_0` dependence and degenerates to
/// `0` whenever `ε` sits above the noise floor `c/(1−ρ)` (its `ρ^k`
/// term measures decay relative to the floor, not to `e_0`). Reported
/// in the JSON for comparison, never gated on — the binding count is
/// [`iters_to`] at the effective tolerance.
fn iters_paper_form(rho: f64, c: f64, e0: f64, tol: f64) -> u64 {
    if c <= 0.0 {
        return iters_to(rho, 0.0, e0, tol);
    }
    let r = (1.0 - rho) * tol / c;
    if r >= 1.0 {
        0
    } else {
        (r.ln() / rho.ln()).ceil().max(1.0) as u64
    }
}

/// Certifies one kernel × config pair: summary extraction, the self-map
/// and precise-witness preconditions, `ρ < 1`, then the `N(ε)` and
/// energy closed forms. `tol` is the requested target; the certificate
/// reports the effective `max(tol, 2·e★)` it can actually promise.
pub fn certify(
    prog: &Program,
    config: &str,
    cfg: &IhwConfig,
    s: &AnalysisSettings,
    tol: f64,
) -> KernelConvergence {
    let buffer = prog.feedback().map(|fb| fb.from).unwrap_or(usize::MAX);
    let line = store_line(prog, buffer);
    let row = |verdict| KernelConvergence {
        kernel: prog.name().to_owned(),
        config: config.to_owned(),
        buffer,
        line,
        verdict,
    };
    let risk = |rho, c, reason: String| row(Verdict::DivergenceRisk { rho, c, reason });

    let summary = match summarize(prog, cfg, config, s) {
        Ok(sum) => sum,
        Err(reason) => return risk(f64::NAN, f64::NAN, reason),
    };
    if summary.rho >= 1.0 {
        return risk(
            summary.rho,
            summary.c,
            format!(
                "per-iteration error transfer ρ = {:.4} ≥ 1: imprecision grows \
                 at least as fast as the iteration contracts",
                summary.rho
            ),
        );
    }

    // Precondition 1: the ideal update maps the input box into itself
    // (up to f32 constant rounding), so the fixpoint the summary
    // contracts to lies inside the analyzed range.
    let span = s.input_hi - s.input_lo;
    let slack = SELF_MAP_SLACK * span.max(s.input_hi.abs()).max(s.input_lo.abs());
    if summary.ideal.lo < s.input_lo - slack || summary.ideal.hi > s.input_hi + slack {
        return risk(
            summary.rho,
            summary.c,
            format!(
                "ideal update is not a self-map of [{}, {}]: output hull \
                 [{:.6}, {:.6}] escapes the analyzed box",
                s.input_lo, s.input_hi, summary.ideal.lo, summary.ideal.hi
            ),
        );
    }

    // Precondition 2: fixpoint-existence witness — the *ideal*
    // iteration converges. ρ under the precise config upper-bounds the
    // ideal linear transport (input mass rides the same adds/muls the
    // ideal values do), so ρ_precise < 1 certifies the ideal map is a
    // contraction on the box.
    let precise = IhwConfig::precise();
    match summarize(prog, &precise, "precise", s) {
        Ok(witness) if witness.rho < 1.0 => {}
        Ok(witness) => {
            return risk(
                summary.rho,
                summary.c,
                format!(
                    "no fixpoint witness: even the precise config has \
                     ρ = {:.4} ≥ 1 (the ideal iteration may not converge)",
                    witness.rho
                ),
            );
        }
        Err(reason) => return risk(summary.rho, summary.c, format!("precise witness: {reason}")),
    }

    let floor = summary.c / (1.0 - summary.rho);
    let e0 = span;

    // Precondition 3: the noise floor must leave room to converge
    // *into*. A `ρ < 1` summary whose floor rivals the input box
    // certifies nothing — the iterate is "within tolerance" before the
    // first sweep only because the tolerance collapsed to the data
    // range. Imprecision dominates: that is a divergence risk, not a
    // certificate.
    if 2.0 * floor >= e0 {
        return risk(
            summary.rho,
            summary.c,
            format!(
                "noise floor e★ = {:.3e} rivals the worst-case initial error \
                 {:.3e}: iterating certifies no improvement over the input",
                floor, e0
            ),
        );
    }

    let tol_eff = tol.max(2.0 * floor);
    let n_iters = iters_to(summary.rho, floor, e0, tol_eff);
    let n_iters_paper = iters_paper_form(summary.rho, summary.c, e0, tol);
    let counts = crate::autotune::op_counts(prog, s.threads);
    let est = SystemPowerModel::new().energy(&counts, cfg);
    row(Verdict::Certified(Certificate {
        rho: summary.rho,
        c: summary.c,
        floor,
        e0,
        tol_eff,
        n_iters,
        n_iters_paper,
        energy_per_iter_pj: est.energy_pj,
        energy_pj: est.energy_pj * n_iters as f64,
        delay_ns: est.delay_ns * n_iters as f64,
    }))
}

/// Runs the full converge sweep: every solver kernel
/// ([`crate::solver_kernels`]) × every [`converge_configs`] entry. When
/// `filter` is non-empty only the named kernels are analyzed.
pub fn converge_stock(s: &AnalysisSettings, tol: f64, filter: &[String]) -> Vec<KernelConvergence> {
    let mut rows = Vec::new();
    for prog in crate::solver_kernels() {
        if !filter.is_empty() && !filter.iter().any(|k| k == prog.name()) {
            continue;
        }
        for (label, cfg) in converge_configs() {
            rows.push(certify(&prog, label, &cfg, s, tol));
        }
    }
    rows
}

/// Maps divergence-risk rows onto A010 [`Finding`]s. The fingerprint
/// embeds the config label and feedback buffer
/// (`A010|{kernel}.s|{config}|b{buffer}`), so baselines survive
/// instruction reordering.
pub fn findings_for(rows: &[KernelConvergence]) -> Vec<Finding> {
    rows.iter()
        .filter_map(|r| {
            let Verdict::DivergenceRisk { rho, c, reason } = &r.verdict else {
                return None;
            };
            let bound = if rho.is_finite() {
                format!("e_out ≤ {rho:.4}·e_in + {c:.3e}")
            } else {
                "no launch summary".to_owned()
            };
            Some(Finding {
                rule: Rule::ImprecisionDivergenceRisk,
                path: format!("{}.s", r.kernel),
                line: r.line,
                function: Some(format!("{}|b{}", r.config, r.buffer)),
                message: format!(
                    "iterative kernel `{}` under config `{}` is not certified \
                     to converge ({bound}): {reason}",
                    r.kernel, r.config
                ),
                new: true,
            })
        })
        .collect()
}

/// Formats a value for the human table: short scientific for tiny
/// magnitudes, fixed otherwise, `-` for non-finite.
fn fmt_val(v: f64) -> String {
    if !v.is_finite() {
        "-".to_owned()
    } else if v != 0.0 && v.abs() < 1e-3 {
        format!("{v:.2e}")
    } else {
        format!("{v:.4}")
    }
}

/// Renders the full `ihw-converge/1` document: schema tag, the
/// requested tolerance, one object per sweep row, and the A010 findings
/// in the shared [`findings_fields`] shape.
pub fn to_json(rows: &[KernelConvergence], findings: &[Finding], tol: f64) -> String {
    let rows = rows
        .iter()
        .map(|r| {
            let mut fields: Vec<(&str, Json)> = vec![
                ("kernel", r.kernel.as_str().into()),
                ("config", r.config.as_str().into()),
                ("buffer", r.buffer.into()),
            ];
            match &r.verdict {
                Verdict::Certified(cert) => fields.extend([
                    ("certified", true.into()),
                    ("rho", cert.rho.into()),
                    ("c", cert.c.into()),
                    ("floor", cert.floor.into()),
                    ("e0", cert.e0.into()),
                    ("tol_eff", cert.tol_eff.into()),
                    ("n_iters", cert.n_iters.into()),
                    ("n_iters_paper_form", cert.n_iters_paper.into()),
                    ("energy_per_iter_pj", cert.energy_per_iter_pj.into()),
                    ("energy_pj", cert.energy_pj.into()),
                    ("delay_ns", cert.delay_ns.into()),
                    ("reason", Json::Null),
                ]),
                Verdict::DivergenceRisk { rho, c, reason } => fields.extend([
                    ("certified", false.into()),
                    ("rho", (*rho).into()),
                    ("c", (*c).into()),
                    (
                        "expected",
                        is_expected_divergent(&r.kernel, &r.config).into(),
                    ),
                    ("reason", reason.as_str().into()),
                ]),
            }
            obj(fields)
        })
        .collect();
    let head = [
        ("schema", SCHEMA.into()),
        ("tol", tol.into()),
        ("rows", Json::Arr(rows)),
    ];
    obj(head.into_iter().chain(findings_fields(findings))).render()
}

/// The converge gate's own parts: the certificate table, the summary
/// line and the [`EXPECTED_DIVERGENT`] advisory predicate.
struct Converge {
    tol: f64,
    rows: Vec<KernelConvergence>,
}

impl Audit for Converge {
    const BASELINE_FILE: &'static str = "converge-baseline.txt";
    const BASELINE_HEADER: &'static str =
        "# ihw-converge baseline — grandfathered findings (one fingerprint per line).\n\
         # Regenerate with `cargo run -p ihw-bench --bin repro -- converge --write-baseline`;\n\
         # the CI gate fails only on findings NOT listed here. Keep this file empty:\n\
         # divergence under a deliberately aggressive config belongs in\n\
         # `EXPECTED_DIVERGENT` (with measured evidence in the soundness gate),\n\
         # not in a baseline.\n";

    /// An A010 on a documented divergence (fingerprint
    /// `A010|{kernel}.s|{config}|b{buffer}`).
    fn is_advisory(&self, f: &Finding) -> bool {
        let kernel = f.path.strip_suffix(".s").unwrap_or(&f.path);
        let config = f.function.as_deref().and_then(|fun| fun.split('|').next());
        config.is_some_and(|config| is_expected_divergent(kernel, config))
    }

    fn to_json(&self, findings: &[Finding]) -> String {
        to_json(&self.rows, findings, self.tol)
    }

    fn print_table(&self) {
        println!(
            "{:<13} {:<15} {:>4} {:>8} {:>9} {:>9} {:>7} {:>13}  verdict",
            "kernel", "config", "buf", "rho", "floor", "tol_eff", "N(eps)", "energy/solve"
        );
        for r in &self.rows {
            match &r.verdict {
                Verdict::Certified(cert) => println!(
                    "{:<13} {:<15} {:>4} {:>8} {:>9} {:>9} {:>7} {:>10} pJ  CERTIFIED",
                    r.kernel,
                    r.config,
                    format!("b{}", r.buffer),
                    fmt_val(cert.rho),
                    fmt_val(cert.floor),
                    fmt_val(cert.tol_eff),
                    cert.n_iters,
                    fmt_val(cert.energy_pj),
                ),
                Verdict::DivergenceRisk { rho, .. } => {
                    let tag = if is_expected_divergent(&r.kernel, &r.config) {
                        " (expected)"
                    } else {
                        ""
                    };
                    println!(
                        "{:<13} {:<15} {:>4} {:>8} {:>9} {:>9} {:>7} {:>13}  A010 divergence risk{tag}",
                        r.kernel,
                        r.config,
                        format!("b{}", r.buffer),
                        fmt_val(*rho),
                        "-",
                        "-",
                        "-",
                        "-",
                    );
                }
            }
        }
    }

    fn summary(&self, t: &Tally) -> String {
        let certified = self
            .rows
            .iter()
            .filter(|r| matches!(r.verdict, Verdict::Certified(_)))
            .count();
        format!(
            "ihw-converge: {} pair(s), {} certified, {} divergence risk(s), {} gating",
            self.rows.len(),
            certified,
            self.rows.len() - certified,
            t.gating
        )
    }
}

/// Runs the converge CLI over `args` (everything after `converge`);
/// returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let mut tol = DEFAULT_TOL;
    let mut settings = AnalysisSettings::default();
    let names = crate::solver_kernel_names();
    let usage = format!(
        "usage: repro converge [--json] [--json-out FILE] [--baseline FILE] \
         [--write-baseline] [--tol EPS] [--threads N] [KERNELS...]\n\
         kernels: {}",
        names.join(" ")
    );
    let parsed = gate::parse(
        args,
        &usage,
        Some(&names),
        &["--tol", "--threads"],
        |flag, v| {
            if flag == "--tol" {
                tol = value(flag, v, "a positive number", |t: &f64| {
                    *t > 0.0 && t.is_finite()
                })?;
            } else {
                settings.threads = value(flag, v, "a positive integer", |n| *n > 0)?;
            }
            Ok(())
        },
    );
    let flags = match parsed {
        Ok(flags) => flags,
        Err(code) => return code,
    };

    let rows = converge_stock(&settings, tol, &flags.names);
    let findings = findings_for(&rows);
    gate::run(&flags, &Converge { tol, rows }, findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::programs;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    fn settings() -> AnalysisSettings {
        AnalysisSettings::default()
    }

    #[test]
    fn precise_config_certifies_both_solvers() {
        for prog in [programs::jacobi_sweep(), programs::heat_stencil()] {
            let row = certify(
                &prog,
                "precise",
                &IhwConfig::precise(),
                &settings(),
                DEFAULT_TOL,
            );
            let Verdict::Certified(cert) = &row.verdict else {
                panic!(
                    "{} should certify under precise: {:?}",
                    row.kernel, row.verdict
                );
            };
            assert!(cert.rho < 1.0, "{} rho = {}", row.kernel, cert.rho);
            assert!(cert.floor < 1e-4, "{} floor = {}", row.kernel, cert.floor);
            assert!(cert.n_iters > 0 && cert.n_iters < 10_000);
            assert!(cert.energy_pj > 0.0);
            assert!(cert.energy_pj >= cert.energy_per_iter_pj);
        }
    }

    #[test]
    fn jacobi_rho_tracks_the_math_factor() {
        // The ideal Jacobi sweep averages three inputs: ρ_math = 2/3.
        // The precise-config summary may only add rounding slack.
        let row = certify(
            &programs::jacobi_sweep(),
            "precise",
            &IhwConfig::precise(),
            &settings(),
            DEFAULT_TOL,
        );
        let Verdict::Certified(cert) = row.verdict else {
            panic!("expected certificate");
        };
        assert!(
            cert.rho >= 2.0 / 3.0,
            "rho = {} below math factor",
            cert.rho
        );
        assert!(cert.rho < 0.68, "rho = {} too slack", cert.rho);
    }

    #[test]
    fn add_th8_certifies_and_add_th2_flags_a010() {
        let th8 = IhwConfig::precise().with_add(AddUnit::Imprecise { th: 8 });
        let th2 = IhwConfig::precise().with_add(AddUnit::Imprecise { th: 2 });
        for prog in [programs::jacobi_sweep(), programs::heat_stencil()] {
            let ok = certify(&prog, "add_th8", &th8, &settings(), DEFAULT_TOL);
            assert!(
                matches!(ok.verdict, Verdict::Certified(_)),
                "{} under add_th8: {:?}",
                ok.kernel,
                ok.verdict
            );
            let bad = certify(&prog, "add_th2", &th2, &settings(), DEFAULT_TOL);
            let Verdict::DivergenceRisk { rho, .. } = bad.verdict else {
                panic!("{} under add_th2 must be A010", bad.kernel);
            };
            assert!(rho >= 1.0, "{} th2 rho = {rho}", bad.kernel);
        }
    }

    #[test]
    fn imprecision_never_shrinks_rho() {
        // Monotonicity: every imprecise config's ρ dominates precise ρ.
        let s = settings();
        for prog in [programs::jacobi_sweep(), programs::heat_stencil()] {
            let base =
                summarize(&prog, &IhwConfig::precise(), "precise", &s).expect("precise summary");
            for (label, cfg) in converge_configs() {
                let sum = summarize(&prog, &cfg, label, &s).expect("summary");
                assert!(
                    sum.rho >= base.rho - 1e-12,
                    "{} {label}: rho {} < precise {}",
                    prog.name(),
                    sum.rho,
                    base.rho
                );
            }
        }
    }

    #[test]
    fn certified_counts_reach_the_target_in_exact_arithmetic() {
        // Iterating the summary recurrence e ← ρe + c for N(ε) steps
        // from e0 must land at or below ε (the closed form is an upper
        // bound on its own recurrence).
        for (label, cfg) in converge_configs() {
            let row = certify(
                &programs::jacobi_sweep(),
                label,
                &cfg,
                &settings(),
                DEFAULT_TOL,
            );
            let Verdict::Certified(cert) = row.verdict else {
                continue;
            };
            let mut e = cert.e0;
            for _ in 0..cert.n_iters {
                e = cert.rho * e + cert.c;
            }
            assert!(
                e <= cert.tol_eff * (1.0 + 1e-9),
                "{label}: recurrence lands at {e} > {}",
                cert.tol_eff
            );
        }
    }

    #[test]
    fn expected_divergent_table_matches_the_sweep() {
        // Every sweep row diverges iff it is listed (or is a th2 pair):
        // the source-of-truth table cannot drift from the analysis.
        let rows = converge_stock(&settings(), DEFAULT_TOL, &[]);
        for r in &rows {
            let diverges = matches!(r.verdict, Verdict::DivergenceRisk { .. });
            assert_eq!(
                diverges,
                is_expected_divergent(&r.kernel, &r.config),
                "{} × {} — sweep says diverges={diverges}, table disagrees",
                r.kernel,
                r.config
            );
        }
    }

    #[test]
    fn non_iterative_kernel_reports_missing_feedback() {
        let row = certify(
            &programs::saxpy(2.0),
            "precise",
            &IhwConfig::precise(),
            &settings(),
            DEFAULT_TOL,
        );
        let Verdict::DivergenceRisk { rho, reason, .. } = row.verdict else {
            panic!("saxpy has no feedback binding");
        };
        assert!(rho.is_nan());
        assert!(reason.contains("feedback"), "{reason}");
    }

    #[test]
    fn findings_use_a010_with_config_scoped_fingerprints() {
        let rows = converge_stock(&settings(), DEFAULT_TOL, &[]);
        let findings = findings_for(&rows);
        assert!(!findings.is_empty(), "sweep must include divergent pairs");
        for f in &findings {
            assert_eq!(f.rule.code(), "A010");
            assert!(f.fingerprint().starts_with("A010|"));
            assert!(f.function.as_deref().unwrap_or("").contains("|b"));
        }
    }

    #[test]
    fn json_document_uses_converge_schema() {
        let rows = converge_stock(&settings(), DEFAULT_TOL, &[]);
        let findings = findings_for(&rows);
        let doc = to_json(&rows, &findings, DEFAULT_TOL);
        assert!(doc.contains("\"schema\": \"ihw-converge/1\""));
        assert!(doc.contains("\"rows\""));
        assert!(doc.contains("\"certified\": true"));
        assert!(doc.contains("\"certified\": false"));
        assert!(!doc.contains("NaN") && !doc.contains("inf"));
    }

    #[test]
    fn stock_converge_is_clean_against_empty_baseline() {
        let empty = std::env::temp_dir().join(format!(
            "ihw-converge-empty-baseline-{}.txt",
            std::process::id()
        ));
        std::fs::write(&empty, "").unwrap();
        let code = run(&s(&["--baseline", empty.to_str().unwrap()]));
        let _ = std::fs::remove_file(empty);
        assert_eq!(code, 0, "expected divergences must not gate");
    }

    #[test]
    fn write_baseline_keeps_only_the_header() {
        // Every stock A010 is a documented divergence, so advisory: none
        // is grandfathered.
        let path = std::env::temp_dir().join(format!(
            "ihw-converge-written-baseline-{}.txt",
            std::process::id()
        ));
        let args = ["--write-baseline", "--baseline", path.to_str().unwrap()];
        assert_eq!(run(&s(&args)), 0);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            <Converge as Audit>::BASELINE_HEADER
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn usage_errors_exit_2() {
        assert_eq!(run(&s(&["--frobnicate"])), 2);
        assert_eq!(run(&s(&["no_such_kernel"])), 2);
        assert_eq!(run(&s(&["--tol", "-1"])), 2);
        assert_eq!(run(&s(&["--tol"])), 2);
    }

    #[test]
    fn help_exits_0() {
        assert_eq!(run(&s(&["--help"])), 0);
    }
}
