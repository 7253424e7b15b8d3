//! Command-line front end, mounted as the `analyze` subcommand of the
//! `repro` binary (`cargo run -p ihw-bench --bin repro -- analyze`).
//!
//! ```text
//! repro analyze                       # analyze stock kernels × configs
//! repro analyze --max-rel-err 0.25    # tighten the A001 budget to 25%
//! repro analyze --threads N           # launch size of the measured column
//! repro analyze --domain interval     # report one domain only
//! repro analyze saxpy distance        # restrict to named kernels
//! repro analyze two_sum               # EFT kernels, on demand
//! ```
//!
//! The common gate flags and the exit status are those of
//! [`ihw_lint::gate`] (schema `ihw-analyze/2`, `analyze-baseline.txt`).
//! The **A009** `cancellation-recovered` diagnostic is advisory.

use crate::interp::{AnalysisSettings, DomainMode, KernelAnalysis};
use crate::report;
use crate::{analyze_stock, eft_kernel_names, solver_kernel_names, stock_kernel_names};
use ihw_lint::diag::{Finding, Rule};
use ihw_lint::gate::{self, value, Audit, Tally};

/// Stock + EFT kernel names, the CLI's full positional vocabulary.
fn known_kernel_names() -> Vec<&'static str> {
    let mut names = stock_kernel_names();
    names.extend(solver_kernel_names());
    names.extend(eft_kernel_names());
    names
}

/// The analyzer gate's own parts: the static-vs-measured table and its
/// summary line.
struct Analyze {
    settings: AnalysisSettings,
    analyses: Vec<KernelAnalysis>,
}

impl Audit for Analyze {
    const BASELINE_FILE: &'static str = "analyze-baseline.txt";
    const BASELINE_HEADER: &'static str =
        "# ihw-analyze baseline — grandfathered findings (one fingerprint per line).\n\
         # Regenerate with `cargo run -p ihw-bench --bin repro -- analyze --write-baseline`;\n\
         # the CI gate fails only on findings NOT listed here. Keep this file empty:\n\
         # restructure kernels or tighten configs instead of baselining bounds.\n";

    /// A009 is good news about compensated algorithms, not a defect.
    fn is_advisory(&self, f: &Finding) -> bool {
        f.rule == Rule::CancellationRecovered
    }

    fn to_json(&self, findings: &[Finding]) -> String {
        report::to_json(findings)
    }

    fn print_table(&self) {
        let settings = &self.settings;
        println!(
            "{:<16} {:<16} {:>6} {:>12} {:>10} {:>12}",
            "kernel", "config", "output", "static", "domain", "measured"
        );
        for a in &self.analyses {
            let measured = crate::empirical::measure(
                &crate::stock_kernels()
                    .into_iter()
                    .chain(crate::solver_kernels())
                    .chain(crate::eft_kernels())
                    .find(|p| p.name() == a.kernel)
                    .expect("analyzed kernels are stock, solver or eft"),
                &crate::stock_configs()
                    .iter()
                    .find(|(l, _)| *l == a.config)
                    .expect("stock config")
                    .1,
                settings.threads,
                settings.input_lo,
                settings.input_hi,
            );
            for out in &a.outputs {
                let obs = measured
                    .as_ref()
                    .ok()
                    .and_then(|ms| ms.iter().find(|m| m.buffer == out.buffer))
                    .map_or("n/a".to_string(), |m| report::fmt_bound(m.max_rel));
                println!(
                    "{:<16} {:<16} {:>6} {:>12} {:>10} {:>12}",
                    a.kernel,
                    a.config,
                    format!("b{}", out.buffer),
                    report::fmt_bound(out.bound),
                    out.domain.label(),
                    obs
                );
            }
        }
    }

    fn summary(&self, t: &Tally) -> String {
        let outputs: usize = self.analyses.iter().map(|a| a.outputs.len()).sum();
        format!(
            "ihw-analyze: {} kernel×config pair(s), {} output bound(s), \
             {} finding(s), {} new, {} baselined",
            self.analyses.len(),
            outputs,
            t.total,
            t.new,
            t.baselined()
        )
    }
}

/// Runs the analyzer CLI over `args` (everything after `analyze`);
/// returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let mut settings = AnalysisSettings::default();
    let usage = format!(
        "usage: repro analyze [--json] [--json-out FILE] [--baseline FILE] \
         [--write-baseline] [--max-rel-err X] [--threads N] \
         [--domain interval|affine|both] [KERNELS...]\n\
         stock kernels: {}\n\
         solver kernels: {}\n\
         eft kernels (on demand): {}",
        stock_kernel_names().join(" "),
        solver_kernel_names().join(" "),
        eft_kernel_names().join(" ")
    );
    let extra = ["--max-rel-err", "--threads", "--domain"];
    let parsed = gate::parse(
        args,
        &usage,
        Some(&known_kernel_names()),
        &extra,
        |flag, v| {
            match flag {
                "--max-rel-err" => {
                    settings.max_rel_err = value(flag, v, "a non-negative number", |x| *x >= 0.0)?;
                }
                "--threads" => {
                    settings.threads = value(flag, v, "a positive integer", |n| *n >= 1)?
                }
                _ => {
                    settings.domain = DomainMode::parse(v).ok_or_else(|| {
                        format!("--domain expects interval, affine or both, got '{v}'")
                    })?;
                }
            }
            Ok(())
        },
    );
    let flags = match parsed {
        Ok(flags) => flags,
        Err(code) => return code,
    };

    let analyses = analyze_stock(&settings, &flags.names);
    let findings = report::collect_findings(&analyses, &settings);
    gate::run(&flags, &Analyze { settings, analyses }, findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn usage_errors_exit_2() {
        assert_eq!(run(&s(&["--bogus"])), 2);
        assert_eq!(run(&s(&["--max-rel-err"])), 2);
        assert_eq!(run(&s(&["--max-rel-err", "-1"])), 2);
        assert_eq!(run(&s(&["--threads", "0"])), 2);
        assert_eq!(run(&s(&["no_such_kernel"])), 2);
        assert_eq!(run(&s(&["--domain"])), 2);
        assert_eq!(run(&s(&["--domain", "zonotope"])), 2);
    }

    #[test]
    fn domain_flag_selects_the_reported_domain() {
        // Interval-only reporting reproduces the pre-affine behaviour on
        // the stock kernels: clean against the empty baseline.
        assert_eq!(run(&s(&["--domain", "interval"])), 0);
        assert_eq!(run(&s(&["--domain", "both"])), 0);
    }

    #[test]
    fn eft_kernels_are_analyzable_by_name_and_a009_never_gates() {
        // two_sum's correction chain is ⊤ in the interval domain under
        // every config; the affine domain recovers it, so the run emits
        // only advisory A009 findings — exit 0 even with no baseline.
        assert_eq!(run(&s(&["two_sum", "--baseline", "/nonexistent"])), 0);
        // Interval-only on the same kernel reports genuine A002s.
        assert_eq!(
            run(&s(&[
                "two_sum",
                "--domain",
                "interval",
                "--baseline",
                "/nonexistent"
            ])),
            1
        );
    }

    #[test]
    fn help_exits_0() {
        assert_eq!(run(&s(&["--help"])), 0);
    }

    #[test]
    fn stock_analysis_is_clean_against_empty_baseline() {
        // Default budget: stock kernels stay below 100% on every stock
        // config, so with the shipped (empty) baseline nothing is new.
        assert_eq!(run(&s(&[])), 0);
    }

    #[test]
    fn tight_budget_yields_findings() {
        assert_eq!(
            run(&s(&[
                "--max-rel-err",
                "0.001",
                "--baseline",
                "/nonexistent"
            ])),
            1
        );
    }

    #[test]
    fn tight_budget_passes_against_the_baseline_it_writes() {
        let dir = std::env::temp_dir().join(format!("ihw-analyze-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let bl = dir.join("analyze-baseline.txt");
        let bl = bl.to_str().unwrap();
        let tight = ["--max-rel-err", "0.001", "--baseline", bl];
        assert_eq!(run(&s(&tight)), 1, "no baseline yet");
        assert_eq!(run(&s(&[&tight[..], &["--write-baseline"]].concat())), 0);
        assert!(std::fs::read_to_string(bl).unwrap().contains("A001|"));
        assert_eq!(run(&s(&tight)), 0, "every finding grandfathered");
        let _ = std::fs::remove_dir_all(dir);
    }
}
