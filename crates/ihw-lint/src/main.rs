//! `ihw-lint` — CLI for the workspace bit-exactness & determinism
//! auditor.
//!
//! ```text
//! cargo run -p ihw-lint                       # audit the workspace
//! cargo run -p ihw-lint -- --root DIR         # audit another checkout
//! cargo run -p ihw-lint -- path/to/file.rs    # audit specific files
//! ```
//!
//! The common gate flags (`--json`, `--json-out`, `--baseline`,
//! `--write-baseline`) and the exit status are those of
//! [`ihw_lint::gate`]; the baseline is `lint-baseline.txt` under the
//! root.

#![forbid(unsafe_code)]

use ihw_lint::baseline::{BASELINE_FILE, BASELINE_HEADER};
use ihw_lint::diag::{self, Finding};
use ihw_lint::gate::{self, Audit, Tally};
use ihw_lint::{default_root, lint_file, lint_workspace};
use std::path::PathBuf;
use std::process::ExitCode;

/// The lint gate's own part: its summary line.
struct Lint;

impl Audit for Lint {
    const BASELINE_FILE: &'static str = BASELINE_FILE;
    const BASELINE_HEADER: &'static str = BASELINE_HEADER;

    fn to_json(&self, findings: &[Finding]) -> String {
        diag::to_json(findings)
    }

    fn summary(&self, t: &Tally) -> String {
        format!(
            "ihw-lint: {} finding(s), {} new, {} baselined",
            t.total,
            t.new,
            t.baselined()
        )
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let usage = "usage: ihw-lint [--json] [--json-out FILE] [--baseline FILE] \
                 [--root DIR] [--write-baseline] [FILES...]";
    let mut flags = match gate::parse(&args, usage, None, &["--root"], |_, dir| {
        root = Some(PathBuf::from(dir));
        Ok(())
    }) {
        Ok(flags) => flags,
        Err(code) => return ExitCode::from(code as u8),
    };

    let root = root.unwrap_or_else(default_root);
    flags
        .baseline
        .get_or_insert_with(|| root.join(BASELINE_FILE));
    let result = if flags.names.is_empty() {
        lint_workspace(&root)
    } else {
        let mut findings = Vec::new();
        for p in flags.names.iter().map(PathBuf::from) {
            match lint_file(&root, &p) {
                Ok(f) => findings.extend(f),
                Err(e) => {
                    eprintln!("cannot read {}: {e}", p.display());
                    return ExitCode::from(2);
                }
            }
        }
        // Explicit file lists arrive in argv order; sort so the report
        // (and any fingerprint diff) is independent of invocation order,
        // matching `lint_workspace`.
        findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
        Ok(findings)
    };
    match result {
        Ok(findings) => ExitCode::from(gate::run(&flags, &Lint, findings) as u8),
        Err(e) => {
            eprintln!("scan failed: {e}");
            ExitCode::from(2)
        }
    }
}
