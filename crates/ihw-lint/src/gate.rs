//! The baseline gate shared by `ihw-lint` and the `repro analyze`,
//! `racecheck`, `autotune` and `converge` subcommands (DESIGN.md §7
//! states the contract). [`parse`] owns the common flags; [`run`] owns
//! the baseline write or load-and-apply, the finding lines, the
//! `--json-out` write and the exit code (0 clean, 1 on a new gating
//! finding, 2 on usage or IO errors). Each tool supplies the rest as an
//! [`Audit`].

use crate::baseline::Baseline;
use crate::diag::Finding;
use std::path::PathBuf;
use std::str::FromStr;

/// The common flags of one gate invocation.
#[derive(Debug, Default)]
pub struct Flags {
    /// `--json`: print the JSON document instead of the human report.
    pub json: bool,
    /// `--json-out FILE`: also write the JSON document to FILE.
    pub json_out: Option<PathBuf>,
    /// `--baseline FILE`; `None` is the tool's file at the workspace root.
    pub baseline: Option<PathBuf>,
    /// `--write-baseline`: grandfather the current findings and stop.
    pub write_baseline: bool,
    /// Positional arguments (kernel names, or file paths for `ihw-lint`).
    pub names: Vec<String>,
}

/// Parses `args`. Each flag in `extra` takes a value, handed to `set`,
/// which returns a message for a bad one; with a `vocabulary`, every
/// positional name must be in it. `Err` is the exit code to stop with:
/// 0 after printing `usage` for `--help`/`-h`, 2 on a usage error.
pub fn parse(
    args: &[String],
    usage: &str,
    vocabulary: Option<&[&str]>,
    extra: &[&str],
    mut set: impl FnMut(&str, &str) -> Result<(), String>,
) -> Result<Flags, i32> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => flags.json = true,
            "--write-baseline" => flags.write_baseline = true,
            "--help" | "-h" => {
                println!("{usage}");
                return Err(0);
            }
            flag if flag == "--json-out" || flag == "--baseline" || extra.contains(&flag) => {
                let Some(value) = it.next() else {
                    eprintln!("{flag} expects a value");
                    return Err(2);
                };
                match flag {
                    "--json-out" => flags.json_out = Some(PathBuf::from(value)),
                    "--baseline" => flags.baseline = Some(PathBuf::from(value)),
                    _ => set(flag, value).map_err(|msg| {
                        eprintln!("{msg}");
                        2
                    })?,
                }
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag}");
                return Err(2);
            }
            name => flags.names.push(name.to_string()),
        }
    }
    if let Some(known) = vocabulary {
        if let Some(k) = flags.names.iter().find(|k| !known.contains(&k.as_str())) {
            eprintln!("unknown kernel '{k}'. Available: {}", known.join(" "));
            return Err(2);
        }
    }
    Ok(flags)
}

/// Parses a flag's value, accepting it only when `ok` holds: out of
/// range is an error (`{flag} expects {expects}, got '{value}'`), never
/// clamped.
pub fn value<T: FromStr>(
    flag: &str,
    value: &str,
    expects: &str,
    ok: impl Fn(&T) -> bool,
) -> Result<T, String> {
    match value.parse::<T>() {
        Ok(v) if ok(&v) => Ok(v),
        _ => Err(format!("{flag} expects {expects}, got '{value}'")),
    }
}

/// Finding counts after the baseline is applied.
#[derive(Debug, Clone, Copy)]
pub struct Tally {
    /// Every finding.
    pub total: usize,
    /// Findings not in the baseline.
    pub new: usize,
    /// New findings that are not advisory: these fail the gate.
    pub gating: usize,
}

impl Tally {
    /// Findings the baseline grandfathers.
    pub fn baselined(&self) -> usize {
        self.total - self.new
    }
}

/// One audit tool's own parts of the gate.
pub trait Audit {
    /// Baseline file name at the workspace root.
    const BASELINE_FILE: &'static str;
    /// `#`-comment header of a written baseline.
    const BASELINE_HEADER: &'static str;

    /// True for a finding that is reported but never written to a
    /// baseline and never gates.
    fn is_advisory(&self, _finding: &Finding) -> bool {
        false
    }

    /// The tool's JSON document over the baseline-marked findings.
    fn to_json(&self, findings: &[Finding]) -> String;

    /// Prints the table that precedes the finding lines.
    fn print_table(&self) {}

    /// The report's closing summary line.
    fn summary(&self, tally: &Tally) -> String;
}

/// Runs the gate over `findings`; returns the exit code.
pub fn run<A: Audit>(flags: &Flags, audit: &A, mut findings: Vec<Finding>) -> i32 {
    let path = match &flags.baseline {
        Some(path) => path.clone(),
        None => crate::default_root().join(A::BASELINE_FILE),
    };
    let advisory: Vec<bool> = findings.iter().map(|f| audit.is_advisory(f)).collect();
    if flags.write_baseline {
        let kept: Vec<Finding> = findings
            .into_iter()
            .zip(&advisory)
            .filter_map(|(f, &adv)| (!adv).then_some(f))
            .collect();
        let text = Baseline::render_with_header(&kept, A::BASELINE_HEADER);
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("cannot write {}: {e}", path.display());
            return 2;
        }
        println!(
            "baseline written: {} finding(s) grandfathered to {}",
            kept.len(),
            path.display()
        );
        return 0;
    }
    let new = Baseline::load(&path).apply(&mut findings);
    let gating = (findings.iter().zip(&advisory))
        .filter(|(f, &adv)| f.new && !adv)
        .count();
    let tally = Tally {
        total: findings.len(),
        new,
        gating,
    };

    if flags.json {
        print!("{}", audit.to_json(&findings));
    } else {
        audit.print_table();
        for (f, &adv) in findings.iter().zip(&advisory) {
            let baselined = if f.new { "" } else { " (baselined)" };
            let advisory = if adv { " (advisory)" } else { "" };
            println!("{}{baselined}{advisory}", f.render());
        }
        println!("{}", audit.summary(&tally));
    }
    if let Some(out) = &flags.json_out {
        // The artifact's directory (say `target/`) may not exist yet.
        let dir = out.parent().filter(|d| !d.as_os_str().is_empty());
        let created = dir.map_or(Ok(()), std::fs::create_dir_all);
        if let Err(e) = created.and_then(|()| std::fs::write(out, audit.to_json(&findings))) {
            eprintln!("cannot write {}: {e}", out.display());
            return 2;
        }
        if !flags.json {
            println!("JSON diagnostics written to {}", out.display());
        }
    }
    i32::from(tally.gating > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Rule;

    /// A two-finding audit whose `advisory` function is advisory.
    struct Fake;

    impl Audit for Fake {
        const BASELINE_FILE: &'static str = "fake-baseline.txt";
        const BASELINE_HEADER: &'static str = "# fake baseline\n";

        fn is_advisory(&self, f: &Finding) -> bool {
            f.function.as_deref() == Some("advisory")
        }

        fn to_json(&self, findings: &[Finding]) -> String {
            crate::diag::to_json_with_schema(findings, "fake/1")
        }

        fn summary(&self, t: &Tally) -> String {
            format!("fake: {} {} {}", t.total, t.new, t.gating)
        }
    }

    fn finding(function: &str) -> Finding {
        Finding {
            rule: Rule::OutputBound,
            path: "k.s".into(),
            line: 1,
            function: Some(function.into()),
            message: "m".into(),
            new: true,
        }
    }

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    /// A fresh scratch directory for one test.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ihw-gate-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn flags(args: &[&str]) -> Flags {
        parse(&s(args), "usage", None, &[], |_, _| Ok(())).expect("valid flags")
    }

    #[test]
    fn write_baseline_then_gate_round_trips() {
        let dir = scratch("round-trip");
        let bl = dir.join("b.txt");
        let bl = bl.to_str().unwrap();
        assert_eq!(
            run(&flags(&["--baseline", bl]), &Fake, vec![finding("f")]),
            1
        );
        let write = flags(&["--write-baseline", "--baseline", bl]);
        assert_eq!(run(&write, &Fake, vec![finding("f")]), 0);
        assert_eq!(
            std::fs::read_to_string(bl).unwrap(),
            "# fake baseline\nA001|k.s|f\n"
        );
        assert_eq!(
            run(&flags(&["--baseline", bl]), &Fake, vec![finding("f")]),
            0
        );
        let fresh = vec![finding("f"), finding("g")];
        assert_eq!(run(&flags(&["--baseline", bl]), &Fake, fresh), 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn advisory_findings_are_neither_written_nor_gating() {
        let dir = scratch("advisory");
        let bl = dir.join("b.txt");
        let bl = bl.to_str().unwrap();
        let write = flags(&["--write-baseline", "--baseline", bl]);
        assert_eq!(run(&write, &Fake, vec![finding("advisory")]), 0);
        assert_eq!(std::fs::read_to_string(bl).unwrap(), "# fake baseline\n");
        assert_eq!(
            run(
                &flags(&["--baseline", bl]),
                &Fake,
                vec![finding("advisory")]
            ),
            0
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn json_out_writes_the_document_into_a_new_directory() {
        let dir = scratch("json-out");
        let out = dir.join("not/yet/there.json");
        let args = [
            "--baseline",
            "/nonexistent",
            "--json-out",
            out.to_str().unwrap(),
        ];
        assert_eq!(run(&flags(&args), &Fake, vec![finding("f")]), 1);
        let mut expected = vec![finding("f")];
        Baseline::default().apply(&mut expected);
        assert_eq!(
            std::fs::read_to_string(&out).unwrap(),
            Fake.to_json(&expected)
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn usage_errors_exit_2_and_help_exits_0() {
        let try_parse =
            |args: &[&str]| parse(&s(args), "usage", Some(&["k"]), &["--x"], |_, _| Ok(()));
        assert_eq!(try_parse(&["--baseline"]).unwrap_err(), 2);
        assert_eq!(try_parse(&["--x"]).unwrap_err(), 2);
        assert_eq!(try_parse(&["--bogus"]).unwrap_err(), 2);
        assert_eq!(try_parse(&["nope"]).unwrap_err(), 2);
        assert_eq!(try_parse(&["--help"]).unwrap_err(), 0);
        assert_eq!(
            try_parse(&["k", "--x", "1", "--json"]).unwrap().names,
            ["k"]
        );
    }

    #[test]
    fn bad_values_are_rejected_not_clamped() {
        let set =
            |flag: &str, v: &str| value::<u32>(flag, v, "a positive integer", |&n| n > 0).map(drop);
        let bad = parse(&s(&["--x", "0"]), "usage", None, &["--x"], set);
        assert_eq!(bad.unwrap_err(), 2);
        assert_eq!(
            value::<f64>("--y", "nan", "a number", |v| *v >= 0.0).unwrap_err(),
            "--y expects a number, got 'nan'"
        );
    }
}
