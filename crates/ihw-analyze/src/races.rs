//! Racecheck verdicts through the shared diagnostic machinery: rules
//! A004–A007, the `ihw-racecheck/1` JSON schema, the
//! `racecheck-baseline.txt` grandfather file and the `repro racecheck`
//! subcommand.
//!
//! The analysis itself lives in [`gpu_sim::deps`] (re-exported via
//! [`crate::deps`]); this module maps a [`RaceReport`] onto
//! [`Finding`]s, honours a kernel's allow markers
//! ([`Program::is_allowed`]), and fronts the whole thing with a CLI
//! whose common flags and exit status are those of [`ihw_lint::gate`]:
//!
//! ```text
//! repro racecheck                     # verdict table over stock kernels
//! repro racecheck saxpy distance      # restrict to named kernels
//! ```

use crate::deps::{racecheck, DepKind, RaceReport, Verdict};
use crate::stock_kernel_names;
use gpu_sim::isa::Program;

/// Kernels the racecheck gate sweeps: the stock set plus the iterative
/// solver kernels (which must also be race-free for their launch-level
/// feedback semantics to make sense).
fn racecheck_kernel_names() -> Vec<&'static str> {
    let mut names = stock_kernel_names();
    names.extend(crate::solver_kernel_names());
    names
}
use ihw_lint::diag::{to_json_with_schema, Finding, Rule};
use ihw_lint::gate::{self, Audit, Tally};

/// Schema tag of the racecheck JSON document.
pub const SCHEMA: &str = "ihw-racecheck/1";

/// One kernel's racecheck result, paired with the program it analyzed
/// (needed for source lines and allow markers).
#[derive(Debug, Clone)]
pub struct KernelRace {
    /// The analyzed program.
    pub program: Program,
    /// Its race-analysis report.
    pub report: RaceReport,
}

/// Runs the race analysis over every stock kernel. When `filter` is
/// non-empty only kernels whose name is listed are kept.
pub fn racecheck_stock(filter: &[String]) -> Vec<KernelRace> {
    crate::stock_kernels()
        .into_iter()
        .chain(crate::solver_kernels())
        .filter(|p| filter.is_empty() || filter.iter().any(|k| k == p.name()))
        .map(|program| KernelRace {
            report: racecheck(&program),
            program,
        })
        .collect()
}

/// Diagnostic location of instruction `idx`: the 1-based source line
/// when the program came from the assembler, the instruction index
/// otherwise (the same convention as `report.rs`).
fn line_of(prog: &Program, idx: usize) -> u32 {
    prog.source_line(idx).unwrap_or(idx as u32)
}

/// Converts one kernel's race report into lint findings:
///
/// * **A004** — a proven cross-tid write-write conflict;
/// * **A005** — a load can observe an earlier tid's store (the kernel
///   is only defined under the sequential-tid order);
/// * **A006** — a statically out-of-bounds access (negative index for
///   thread 0 on every launch);
/// * **A007** — register hygiene: uninitialized-register reads and
///   dead stores.
///
/// Sites the kernel explicitly allows (`# ihw-racecheck: allow(A00x)
/// reason=...`, or [`Program::with_allow`]) are suppressed — for the
/// pairwise rules, a marker on either endpoint suppresses the pair.
/// Fingerprints embed the buffer/register and instruction indices so
/// baselines survive source-line drift.
pub fn findings_for(race: &KernelRace) -> Vec<Finding> {
    let prog = &race.program;
    let path = format!("{}.s", prog.name());
    let mut findings = Vec::new();
    for dep in &race.report.dependences {
        match dep.kind {
            DepKind::WriteWrite { first, second } => {
                let code = Rule::WriteWriteConflict.code();
                if prog.is_allowed(first, code) || prog.is_allowed(second, code) {
                    continue;
                }
                let detail = if first == second {
                    format!(
                        "the broadcast store at {} races with itself",
                        prog.locate(first)
                    )
                } else {
                    format!(
                        "stores at {} and {} overlap across threads",
                        prog.locate(first),
                        prog.locate(second)
                    )
                };
                findings.push(Finding {
                    rule: Rule::WriteWriteConflict,
                    path: path.clone(),
                    line: line_of(prog, second),
                    function: Some(format!("b{}|ww#{first}-{second}", dep.buffer)),
                    message: format!(
                        "two threads can write the same element of buffer {}: {detail}",
                        dep.buffer
                    ),
                    new: true,
                });
            }
            DepKind::ReadWrite { read, write } => {
                let code = Rule::CarriedDependence.code();
                if prog.is_allowed(read, code) || prog.is_allowed(write, code) {
                    continue;
                }
                findings.push(Finding {
                    rule: Rule::CarriedDependence,
                    path: path.clone(),
                    line: line_of(prog, read),
                    function: Some(format!("b{}|rw#{read}-{write}", dep.buffer)),
                    message: format!(
                        "load at {} can observe an earlier thread's store at {} \
                         (buffer {}); the kernel is defined only under the \
                         sequential-tid order",
                        prog.locate(read),
                        prog.locate(write),
                        dep.buffer
                    ),
                    new: true,
                });
            }
        }
    }
    for oob in &race.report.oob {
        if prog.is_allowed(oob.instr, Rule::StaticOutOfBounds.code()) {
            continue;
        }
        findings.push(Finding {
            rule: Rule::StaticOutOfBounds,
            path: path.clone(),
            line: line_of(prog, oob.instr),
            function: Some(format!("b{}|oob#{}", oob.buffer, oob.instr)),
            message: format!(
                "buffer {} index tid{:+} is negative for thread 0 on every launch",
                oob.buffer, oob.index.offset
            ),
            new: true,
        });
    }
    let hygiene = Rule::RegisterHygiene.code();
    for site in &race.report.uninit_reads {
        if prog.is_allowed(site.instr, hygiene) {
            continue;
        }
        findings.push(Finding {
            rule: Rule::RegisterHygiene,
            path: path.clone(),
            line: line_of(prog, site.instr),
            function: Some(format!("r{}|uninit#{}", site.reg.0, site.instr)),
            message: format!(
                "register r{} is read at {} before any instruction writes it \
                 (reads the zero-initialised file)",
                site.reg.0,
                prog.locate(site.instr)
            ),
            new: true,
        });
    }
    for site in &race.report.dead_stores {
        if prog.is_allowed(site.instr, hygiene) {
            continue;
        }
        findings.push(Finding {
            rule: Rule::RegisterHygiene,
            path: path.clone(),
            line: line_of(prog, site.instr),
            function: Some(format!("r{}|dead#{}", site.reg.0, site.instr)),
            message: format!(
                "register r{} written at {} is never read before being \
                 overwritten or the program ending",
                site.reg.0,
                prog.locate(site.instr)
            ),
            new: true,
        });
    }
    findings
}

/// Flattens many kernel reports into one deterministically ordered
/// finding list (path, line, rule, then fingerprint context).
pub fn collect_findings(races: &[KernelRace]) -> Vec<Finding> {
    let mut findings: Vec<Finding> = races.iter().flat_map(findings_for).collect();
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.function).cmp(&(&b.path, b.line, b.rule, &b.function))
    });
    findings
}

/// Renders findings as the `ihw-racecheck/1` JSON document (same shape
/// as `ihw-lint/1`, different schema tag).
pub fn to_json(findings: &[Finding]) -> String {
    to_json_with_schema(findings, SCHEMA)
}

/// The racecheck gate's own parts: the verdict table and its summary
/// line.
struct Racecheck(Vec<KernelRace>);

impl Audit for Racecheck {
    const BASELINE_FILE: &'static str = "racecheck-baseline.txt";
    const BASELINE_HEADER: &'static str =
        "# ihw-racecheck baseline — grandfathered findings (one fingerprint per line).\n\
         # Regenerate with `cargo run -p ihw-bench --bin repro -- racecheck --write-baseline`;\n\
         # the CI gate fails only on findings NOT listed here. Keep this file empty:\n\
         # fix the kernel, or annotate intentional sites with\n\
         # `# ihw-racecheck: allow(A00x) reason=...` instead of baselining races.\n";

    fn to_json(&self, findings: &[Finding]) -> String {
        to_json(findings)
    }

    fn print_table(&self) {
        println!(
            "{:<12} {:<20} {:>6} {:>6} {:>6} {:>8} {:>9}",
            "kernel", "verdict", "deps", "oob", "uninit", "dead-st", "parallel?"
        );
        for r in &self.0 {
            let parallel = match r.report.verdict {
                Verdict::ThreadIndependent => "yes",
                Verdict::SequentialCarried | Verdict::Unknown => "no",
            };
            println!(
                "{:<12} {:<20} {:>6} {:>6} {:>6} {:>8} {:>9}",
                r.program.name(),
                r.report.verdict.label(),
                r.report.dependences.len(),
                r.report.oob.len(),
                r.report.uninit_reads.len(),
                r.report.dead_stores.len(),
                parallel
            );
        }
    }

    fn summary(&self, t: &Tally) -> String {
        let independent = self
            .0
            .iter()
            .filter(|r| r.report.verdict == Verdict::ThreadIndependent)
            .count();
        format!(
            "ihw-racecheck: {} kernel(s), {} thread-independent, \
             {} finding(s), {} new, {} baselined",
            self.0.len(),
            independent,
            t.total,
            t.new,
            t.baselined()
        )
    }
}

/// Runs the racecheck CLI over `args` (everything after `racecheck`);
/// returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let usage = format!(
        "usage: repro racecheck [--json] [--json-out FILE] [--baseline FILE] \
         [--write-baseline] [KERNELS...]\n\
         kernels: {}",
        racecheck_kernel_names().join(" ")
    );
    let vocabulary = racecheck_kernel_names();
    let flags = match gate::parse(args, &usage, Some(&vocabulary), &[], |_, _| Ok(())) {
        Ok(flags) => flags,
        Err(code) => return code,
    };
    let races = racecheck_stock(&flags.names);
    let findings = collect_findings(&races);
    gate::run(&flags, &Racecheck(races), findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::isa::{AddrMode, Instr, Reg};

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    fn kernel_race(prog: Program) -> KernelRace {
        KernelRace {
            report: racecheck(&prog),
            program: prog,
        }
    }

    #[test]
    fn a004_and_a005_fire_on_a_racy_kernel() {
        // Broadcast store (WW with itself) plus a backward read chain.
        let prog = Program::new(
            "racy",
            2,
            vec![
                Instr::Ld(Reg(0), 0, AddrMode::TidPlus(-1)),
                Instr::St(0, AddrMode::Tid, Reg(0)),
                Instr::Movi(Reg(1), 7.0),
                Instr::St(1, AddrMode::Abs(0), Reg(1)),
            ],
        )
        .expect("valid");
        let fs = findings_for(&kernel_race(prog));
        assert!(fs.iter().any(|f| f.rule == Rule::WriteWriteConflict));
        assert!(fs.iter().any(|f| f.rule == Rule::CarriedDependence));
        let ww = fs
            .iter()
            .find(|f| f.rule == Rule::WriteWriteConflict)
            .expect("present");
        assert!(ww.message.contains("races with itself"));
        assert_eq!(ww.function.as_deref(), Some("b1|ww#3-3"));
    }

    #[test]
    fn a006_and_a007_fire_and_allow_markers_suppress() {
        let prog = Program::new(
            "sloppy",
            3,
            vec![
                Instr::Fadd(Reg(0), Reg(1), Reg(1)),         // uninit r1, dead r0
                Instr::Ld(Reg(0), 0, AddrMode::TidPlus(-2)), // static OOB
                Instr::St(1, AddrMode::Tid, Reg(0)),
            ],
        )
        .expect("valid");
        let fs = findings_for(&kernel_race(prog.clone()));
        assert!(fs.iter().any(|f| f.rule == Rule::StaticOutOfBounds));
        assert!(
            fs.iter()
                .filter(|f| f.rule == Rule::RegisterHygiene)
                .count()
                >= 2,
            "uninit read and dead store both flagged"
        );
        // Allow markers suppress exactly the annotated sites.
        let allowed = prog
            .with_allow(0, "A007", "fixture exercises the zero-initialised file")
            .with_allow(1, "A006", "fixture exercises the OOB rule");
        let fs = findings_for(&kernel_race(allowed));
        assert!(!fs.iter().any(|f| f.rule == Rule::StaticOutOfBounds));
        assert!(!fs.iter().any(
            |f| f.rule == Rule::RegisterHygiene && f.function.as_deref() == Some("r1|uninit#0")
        ));
    }

    #[test]
    fn stock_kernels_produce_no_findings() {
        let races = racecheck_stock(&[]);
        assert_eq!(
            races.len(),
            crate::stock_kernels().len() + crate::solver_kernels().len()
        );
        assert!(collect_findings(&races).is_empty());
        assert!(races
            .iter()
            .all(|r| r.report.verdict == Verdict::ThreadIndependent));
    }

    #[test]
    fn filter_restricts_kernels() {
        let races = racecheck_stock(&s(&["distance"]));
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].program.name(), "distance");
    }

    #[test]
    fn json_document_uses_racecheck_schema() {
        let json = to_json(&collect_findings(&racecheck_stock(&[])));
        assert!(json.contains("\"schema\": \"ihw-racecheck/1\""));
        assert!(json.contains("\"total\": 0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn usage_errors_exit_2() {
        assert_eq!(run(&s(&["--bogus"])), 2);
        assert_eq!(run(&s(&["--json-out"])), 2);
        assert_eq!(run(&s(&["no_such_kernel"])), 2);
    }

    #[test]
    fn help_exits_0() {
        assert_eq!(run(&s(&["--help"])), 0);
    }

    #[test]
    fn stock_racecheck_is_clean_against_empty_baseline() {
        assert_eq!(run(&s(&[])), 0);
        assert_eq!(run(&s(&["--baseline", "/nonexistent"])), 0);
    }
}
