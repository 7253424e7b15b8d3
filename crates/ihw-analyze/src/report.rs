//! Mapping analysis results onto the shared `ihw-lint` diagnostic
//! machinery: rules A001–A003 and A009 and the `ihw-analyze/2` JSON
//! schema.

use crate::interp::{AnalysisSettings, KernelAnalysis};
use ihw_lint::diag::{to_json_with_schema, Finding, Rule};

/// Schema tag of the analyzer's JSON document. `/2` extends `/1` with
/// the advisory **A009** `cancellation-recovered` rule contributed by
/// the affine relational domain; the document shape is unchanged.
pub const SCHEMA: &str = "ihw-analyze/2";

/// Formats a bound for humans: percent when finite, `unbounded` at ⊤.
pub fn fmt_bound(bound: f64) -> String {
    if bound.is_infinite() {
        "unbounded".to_string()
    } else {
        format!("{:.2}%", bound * 100.0)
    }
}

/// Converts one kernel×config analysis into lint findings.
///
/// * **A001** — an output's static bound exceeds the budget (and the
///   excess is not attributable to cancellation);
/// * **A002** — an output bound is ⊤ *because of* imprecise-subtraction
///   cancellation (§4.1.1 case d);
/// * **A003** — an imprecise-derived value steers a `Sel` predicate
///   (the IR's control construct; addresses are static operands today,
///   so `Sel` is the complete taint sink set);
/// * **A009** — cancellation *recovered*: the interval domain alone
///   reports the output ⊤ but the affine relational domain proves the
///   cancelling terms correlated and the reported bound is finite.
///   Advisory — [`crate::cli::run`] never gates its exit code on it.
///
/// A002 and A009 are mutually exclusive per output (`cancelled` means
/// the *reported* bound is still ⊤; `recovered` means it is finite).
/// A recovered output whose finite bound still exceeds the budget also
/// gets its A001.
///
/// Fingerprints embed the config label and the output buffer / site, so
/// baselines survive line drift exactly as `ihw-lint`'s do.
pub fn findings_for(analysis: &KernelAnalysis, settings: &AnalysisSettings) -> Vec<Finding> {
    let path = format!("{}.s", analysis.kernel);
    let mut findings = Vec::new();
    for out in &analysis.outputs {
        let line = if out.line > 0 {
            out.line
        } else {
            out.instr as u32
        };
        if out.cancelled {
            findings.push(Finding {
                rule: Rule::UnboundedCancellation,
                path: path.clone(),
                line,
                function: Some(format!("{}|b{}", analysis.config, out.buffer)),
                message: format!(
                    "catastrophic cancellation can reach output buffer {} \
                     (overlapping operands of an imprecise subtraction; taint: {})",
                    out.buffer, out.taint
                ),
                new: true,
            });
        } else if out.recovered {
            findings.push(Finding {
                rule: Rule::CancellationRecovered,
                path: path.clone(),
                line,
                function: Some(format!("{}|b{}", analysis.config, out.buffer)),
                message: format!(
                    "cancellation recovered for output buffer {}: interval domain \
                     reports unbounded, affine relational domain proves {} \
                     (taint: {})",
                    out.buffer,
                    fmt_bound(out.bound),
                    out.taint
                ),
                new: true,
            });
        }
        if !out.cancelled && out.bound > settings.max_rel_err {
            findings.push(Finding {
                rule: Rule::OutputBound,
                path: path.clone(),
                line,
                function: Some(format!("{}|b{}", analysis.config, out.buffer)),
                message: format!(
                    "static error bound {} for output buffer {} exceeds budget {} \
                     (taint: {})",
                    fmt_bound(out.bound),
                    out.buffer,
                    fmt_bound(settings.max_rel_err),
                    out.taint
                ),
                new: true,
            });
        }
    }
    for site in &analysis.taint_sites {
        let line = if site.line > 0 {
            site.line
        } else {
            site.instr as u32
        };
        findings.push(Finding {
            rule: Rule::ImprecisionTaint,
            path: path.clone(),
            line,
            function: Some(format!("{}|sel#{}", analysis.config, site.instr)),
            message: format!(
                "imprecise-derived value ({}) steers a select predicate; \
                 the paper applies IHW to the FP datapath only",
                site.taint
            ),
            new: true,
        });
    }
    findings
}

/// Flattens many analyses into one deterministically ordered finding
/// list (path, line, rule, then fingerprint context).
pub fn collect_findings(analyses: &[KernelAnalysis], settings: &AnalysisSettings) -> Vec<Finding> {
    let mut findings: Vec<Finding> = analyses
        .iter()
        .flat_map(|a| findings_for(a, settings))
        .collect();
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.function).cmp(&(&b.path, b.line, b.rule, &b.function))
    });
    findings
}

/// Renders findings as the `ihw-analyze/2` JSON document (same shape as
/// `ihw-lint/1`, different schema tag).
pub fn to_json(findings: &[Finding]) -> String {
    to_json_with_schema(findings, SCHEMA)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::analyze_program;
    use gpu_sim::isa::{AddrMode, Instr, Program, Reg};
    use gpu_sim::programs;
    use ihw_core::config::IhwConfig;

    fn tight_settings() -> AnalysisSettings {
        AnalysisSettings {
            max_rel_err: 0.01,
            ..AnalysisSettings::default()
        }
    }

    #[test]
    fn a001_fires_when_budget_exceeded() {
        let a = analyze_program(
            &programs::saxpy(2.0),
            &IhwConfig::all_imprecise(),
            "all_imprecise",
            &tight_settings(),
        );
        let fs = findings_for(&a, &tight_settings());
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, Rule::OutputBound);
        assert_eq!(fs[0].path, "saxpy.s");
        assert!(fs[0].message.contains("exceeds budget 1.00%"));
        assert!(fs[0].message.contains("ifpmul"));
        // Default budget (100%) keeps the stock kernel clean.
        let defaults = AnalysisSettings::default();
        let a = analyze_program(
            &programs::saxpy(2.0),
            &IhwConfig::all_imprecise(),
            "all_imprecise",
            &defaults,
        );
        assert!(findings_for(&a, &defaults).is_empty());
    }

    #[test]
    fn a002_fires_on_cancellation_and_wins_over_a001() {
        let prog = Program::new(
            "cancel",
            2,
            vec![
                Instr::Ld(Reg(0), 0, AddrMode::Tid),
                Instr::Ld(Reg(1), 1, AddrMode::Tid),
                Instr::Fsub(Reg(0), Reg(0), Reg(1)),
                Instr::St(2, AddrMode::Tid, Reg(0)),
            ],
        )
        .expect("valid");
        let s = AnalysisSettings::default();
        let a = analyze_program(&prog, &IhwConfig::all_imprecise(), "all_imprecise", &s);
        let fs = findings_for(&a, &s);
        assert_eq!(fs.len(), 1, "one diagnostic per output, not two");
        assert_eq!(fs[0].rule, Rule::UnboundedCancellation);
        assert!(fs[0].message.contains("buffer 2"));
    }

    #[test]
    fn a009_fires_when_the_affine_domain_recovers_cancellation() {
        use crate::interp::DomainMode;
        let s = AnalysisSettings::default();
        let a = analyze_program(
            &programs::two_sum(),
            &IhwConfig::all_imprecise(),
            "all_imprecise",
            &s,
        );
        let fs = findings_for(&a, &s);
        assert_eq!(fs.len(), 1, "exactly the advisory recovery diagnostic");
        assert_eq!(fs[0].rule, Rule::CancellationRecovered);
        assert!(fs[0].message.contains("interval domain reports unbounded"));
        assert!(
            fs[0].message.contains("affine relational domain proves"),
            "{}",
            fs[0].message
        );
        // With the affine pass ignored the same output is a plain A002:
        // the recovery diagnostic is strictly the relational domain's.
        let interval_only = AnalysisSettings {
            domain: DomainMode::Interval,
            ..AnalysisSettings::default()
        };
        let a = analyze_program(
            &programs::two_sum(),
            &IhwConfig::all_imprecise(),
            "all_imprecise",
            &interval_only,
        );
        let fs = findings_for(&a, &interval_only);
        assert!(fs.iter().any(|f| f.rule == Rule::UnboundedCancellation));
        assert!(fs.iter().all(|f| f.rule != Rule::CancellationRecovered));
    }

    #[test]
    fn a003_fires_on_tainted_select() {
        let prog = Program::new(
            "steer",
            3,
            vec![
                Instr::Ld(Reg(0), 0, AddrMode::Tid),
                Instr::Fmul(Reg(1), Reg(0), Reg(0)),
                Instr::Sel(Reg(2), Reg(1), Reg(0), Reg(0)),
                Instr::St(1, AddrMode::Tid, Reg(2)),
            ],
        )
        .expect("valid");
        let s = AnalysisSettings::default();
        let a = analyze_program(&prog, &IhwConfig::all_imprecise(), "all_imprecise", &s);
        let fs = findings_for(&a, &s);
        assert!(fs.iter().any(|f| f.rule == Rule::ImprecisionTaint));
        let taint = fs
            .iter()
            .find(|f| f.rule == Rule::ImprecisionTaint)
            .expect("present");
        assert!(taint.message.contains("ifpmul"));
        assert_eq!(
            taint.function.as_deref(),
            Some("all_imprecise|sel#2"),
            "fingerprint context pins config and site"
        );
    }

    #[test]
    fn assembled_kernels_report_source_lines() {
        let src = "# cancellation fixture\nld r0, b0[tid]\nld r1, b1[tid]\nfsub r0, r0, r1\nst b2[tid], r0\n";
        let prog = gpu_sim::asm::assemble("cancel", src).expect("assembles");
        let s = AnalysisSettings::default();
        let a = analyze_program(&prog, &IhwConfig::all_imprecise(), "all_imprecise", &s);
        let fs = findings_for(&a, &s);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].path, "cancel.s");
        assert_eq!(fs[0].line, 5, "diagnostic points at the st source line");
        assert_eq!(fs[0].render().split(':').next(), Some("cancel.s"));
    }

    #[test]
    fn json_document_uses_analyze_schema() {
        let a = analyze_program(
            &programs::saxpy(2.0),
            &IhwConfig::all_imprecise(),
            "all_imprecise",
            &tight_settings(),
        );
        let json = to_json(&collect_findings(&[a], &tight_settings()));
        assert!(json.contains("\"schema\": \"ihw-analyze/2\""));
        assert!(json.contains("\"code\": \"A001\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn fmt_bound_renders_infinity() {
        assert_eq!(fmt_bound(f64::INFINITY), "unbounded");
        assert_eq!(fmt_bound(0.25), "25.00%");
    }
}
