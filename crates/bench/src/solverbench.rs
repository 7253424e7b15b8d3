//! `repro converge --bench` — the config-vs-iterations-vs-energy sweep
//! behind `BENCH_solvers.json` (schema `ihw-solverbench/1`).
//!
//! For every solver kernel × converge config this pairs the **static**
//! convergence certificate (`ihw_analyze::contraction::certify`: ρ,
//! noise floor, `N(ε)`, certified energy per solved problem) with a
//! **measured** trajectory (`ihw_workloads::solvers::run_solver`:
//! sweeps actually needed, final error, RMSE), so the record shows both
//! sides of the paper's trade-off at once — a cheap config that needs
//! more sweeps may still lose on net energy, and the certificate says
//! so *before* running anything.
//!
//! The CLI exits non-zero if any certified pair measures *worse* than
//! its certificate (more sweeps than `N(ε)` or a final error above the
//! effective tolerance) — the same soundness contract
//! `tests/convergence_soundness.rs` enforces, re-checked on the
//! benchmark's own instances.

use ihw_analyze::contraction::{converge_configs, DEFAULT_TOL};
use ihw_analyze::interp::AnalysisSettings;
use ihw_analyze::{certify, ConvergeVerdict};
use ihw_lint::gate;
use ihw_lint::json::{obj, Json};
use ihw_workloads::solvers::{problem_for, SolverParams, SolverRun};

/// Schema tag of the solver benchmark record.
pub const SCHEMA: &str = "ihw-solverbench/1";

/// Default output filename at the invocation directory (committed at
/// the workspace root next to `BENCH_kernel_throughput.json`).
pub const BENCH_FILE: &str = "BENCH_solvers.json";

/// One kernel × config row of the sweep.
#[derive(Debug, Clone)]
pub struct SolverBenchRow {
    /// Kernel name.
    pub kernel: String,
    /// Converge config label.
    pub config: String,
    /// Static outcome for the pair.
    pub verdict: ConvergeVerdict,
    /// Measured trajectory (against the certificate's effective
    /// tolerance when certified, against [`DEFAULT_TOL`] otherwise).
    pub run: SolverRun,
    /// Tolerance the measured run targeted.
    pub measured_tol: f64,
}

impl SolverBenchRow {
    /// True when the measurement contradicts the certificate: a
    /// certified pair that needed more sweeps than `N(ε)` or never
    /// reached the effective tolerance. Divergent pairs never fail —
    /// their plateau is the expected observation.
    pub fn violates_certificate(&self) -> bool {
        let ConvergeVerdict::Certified(cert) = &self.verdict else {
            return false;
        };
        match self.run.iterations_to_tol {
            Some(n) => n as u64 > cert.n_iters,
            None => true,
        }
    }
}

/// Runs the full sweep at the given instance size.
pub fn sweep(interior: usize, max_iters: usize) -> Vec<SolverBenchRow> {
    let settings = AnalysisSettings::default();
    let mut rows = Vec::new();
    for kernel in ihw_analyze::solver_kernel_names() {
        for (label, cfg) in converge_configs() {
            let base = SolverParams {
                interior,
                max_iters,
                ..SolverParams::default()
            };
            let problem = problem_for(kernel, &base).expect("solver kernel has a problem");
            let row = certify(&problem.program, label, &cfg, &settings, DEFAULT_TOL);
            let measured_tol = match &row.verdict {
                ConvergeVerdict::Certified(cert) => cert.tol_eff,
                ConvergeVerdict::DivergenceRisk { .. } => DEFAULT_TOL,
            };
            let params = SolverParams {
                tol: measured_tol,
                ..base
            };
            let run = ihw_workloads::solvers::run_solver(&problem, cfg, &params);
            rows.push(SolverBenchRow {
                kernel: kernel.to_string(),
                config: label.to_string(),
                verdict: row.verdict,
                run,
                measured_tol,
            });
        }
    }
    rows
}

/// Renders the sweep as the `ihw-solverbench/1` JSON record.
pub fn to_json(rows: &[SolverBenchRow], interior: usize) -> String {
    let rows = rows
        .iter()
        .map(|r| {
            let mut fields: Vec<(&str, Json)> = vec![
                ("kernel", r.kernel.as_str().into()),
                ("config", r.config.as_str().into()),
            ];
            match &r.verdict {
                ConvergeVerdict::Certified(c) => fields.extend([
                    ("certified", true.into()),
                    ("rho", c.rho.into()),
                    ("floor", c.floor.into()),
                    ("tol_eff", c.tol_eff.into()),
                    ("n_iters", c.n_iters.into()),
                    ("energy_pj", c.energy_pj.into()),
                    ("energy_per_iter_pj", c.energy_per_iter_pj.into()),
                ]),
                ConvergeVerdict::DivergenceRisk { rho, .. } => {
                    fields.extend([("certified", false.into()), ("rho", (*rho).into())])
                }
            }
            fields.extend([
                ("measured_tol", r.measured_tol.into()),
                ("measured_iters", r.run.iterations_to_tol.into()),
                ("measured_final_err", r.run.final_err.into()),
                ("measured_rmse", r.run.rmse.into()),
            ]);
            obj(fields)
        })
        .collect();
    obj([
        ("schema", SCHEMA.into()),
        ("interior", interior.into()),
        ("tol", DEFAULT_TOL.into()),
        ("rows", Json::Arr(rows)),
    ])
    .render()
}

/// CLI for `repro converge --bench`: runs the sweep, prints the table,
/// writes the JSON record. Exit codes: 0 on success, 1 when a measured
/// trajectory violates its certificate, 2 on usage errors.
pub fn run_cli(args: &[String]) -> i32 {
    let mut interior = SolverParams::default().interior;
    let mut max_iters = SolverParams::default().max_iters;
    let mut out_path = std::path::PathBuf::from(BENCH_FILE);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bench" => {}
            "--interior" | "--max-iters" | "--out" => {
                let Some(value) = it.next() else {
                    eprintln!("{arg} expects a value");
                    return 2;
                };
                // Out-of-range sizes are rejected, never clamped.
                let parsed = match arg.as_str() {
                    "--interior" => {
                        gate::value(arg, value, "an integer of at least 2", |v| *v >= 2)
                            .map(|v| interior = v)
                    }
                    "--max-iters" => gate::value(arg, value, "a positive integer", |v| *v >= 1)
                        .map(|v| max_iters = v),
                    _ => {
                        out_path = std::path::PathBuf::from(value);
                        Ok(())
                    }
                };
                if let Err(msg) = parsed {
                    eprintln!("{msg}");
                    return 2;
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro converge --bench [--interior N] [--max-iters N] [--out FILE]"
                );
                return 0;
            }
            other => {
                eprintln!("unknown argument {other}");
                return 2;
            }
        }
    }

    let rows = sweep(interior, max_iters);
    println!(
        "{:<13} {:<15} {:>9} {:>8} {:>8} {:>10} {:>12} {:>13}",
        "kernel", "config", "certified", "N(eps)", "iters", "final-err", "rmse", "energy/solve"
    );
    for r in &rows {
        let (cert, n_static, energy) = match &r.verdict {
            ConvergeVerdict::Certified(c) => (
                "yes",
                c.n_iters.to_string(),
                format!("{:.3e} pJ", c.energy_pj),
            ),
            ConvergeVerdict::DivergenceRisk { .. } => ("A010", "-".into(), "-".into()),
        };
        println!(
            "{:<13} {:<15} {:>9} {:>8} {:>8} {:>10.2e} {:>12.2e} {:>13}",
            r.kernel,
            r.config,
            cert,
            n_static,
            r.run
                .iterations_to_tol
                .map(|n| n.to_string())
                .unwrap_or_else(|| "-".into()),
            r.run.final_err,
            r.run.rmse,
            energy,
        );
    }
    let violations: Vec<&SolverBenchRow> =
        rows.iter().filter(|r| r.violates_certificate()).collect();
    for v in &violations {
        eprintln!(
            "CERTIFICATE VIOLATION: {} × {} measured {:?} sweeps against certified bound",
            v.kernel, v.config, v.run.iterations_to_tol
        );
    }
    if let Err(e) = std::fs::write(&out_path, to_json(&rows, interior)) {
        eprintln!("cannot write {}: {e}", out_path.display());
        return 2;
    }
    println!("solver benchmark written to {}", out_path.display());
    if violations.is_empty() {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_pairs_static_and_measured_soundly() {
        let rows = sweep(32, 2000);
        assert_eq!(
            rows.len(),
            ihw_analyze::solver_kernel_names().len() * converge_configs().len()
        );
        for r in &rows {
            assert!(
                !r.violates_certificate(),
                "{} × {}: measured {:?} vs certificate {:?}",
                r.kernel,
                r.config,
                r.run.iterations_to_tol,
                r.verdict
            );
        }
        // At least one certified and one divergent pair keep the sweep
        // informative.
        assert!(rows
            .iter()
            .any(|r| matches!(r.verdict, ConvergeVerdict::Certified(_))));
        assert!(rows
            .iter()
            .any(|r| matches!(r.verdict, ConvergeVerdict::DivergenceRisk { .. })));
    }

    #[test]
    fn json_record_carries_the_solverbench_schema() {
        let rows = sweep(16, 500);
        let doc = to_json(&rows, 16);
        assert!(doc.contains("\"schema\": \"ihw-solverbench/1\""));
        assert!(!doc.contains("NaN") && !doc.contains("inf"));
    }

    #[test]
    fn usage_errors_exit_2() {
        let s = |v: &[&str]| -> Vec<String> { v.iter().map(|x| x.to_string()).collect() };
        assert_eq!(run_cli(&s(&["--interior"])), 2);
        assert_eq!(run_cli(&s(&["--interior", "zero"])), 2);
        assert_eq!(run_cli(&s(&["bogus"])), 2);
        // Out-of-range sizes are rejected, not clamped.
        assert_eq!(run_cli(&s(&["--interior", "1"])), 2);
        assert_eq!(run_cli(&s(&["--interior", "0"])), 2);
        assert_eq!(run_cli(&s(&["--max-iters", "0"])), 2);
    }
}
