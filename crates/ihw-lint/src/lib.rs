//! # ihw-lint — workspace bit-exactness & determinism auditor
//!
//! The value of this reproduction rests on two machine-checkable
//! guarantees: the unit models in `ihw-core` are *bit-exact* emulations
//! of the paper's VHDL/C++ functional models, and the repro harness
//! renders *byte-identical* output at any `--jobs` level. This crate
//! turns those conventions into enforced invariants — a static-analysis
//! pass over the whole workspace with five rules:
//!
//! * **L001** `float-arith` — native `f32`/`f64` arithmetic inside
//!   `ihw-core` datapath modules (the models must do bit manipulation,
//!   not IEEE math, unless annotated as an intentional approximation
//!   coefficient path);
//! * **L002** `hash-iter` — iteration over `HashMap`/`HashSet` anywhere
//!   (storage order is nondeterministic and leaks into report output);
//! * **L003** `wall-clock` — `Instant`/`SystemTime` outside
//!   `crates/bench/src/runner/report.rs` (results must never depend on
//!   time);
//! * **L004** `lossy-cast` — `as f32` casts in datapath modules (silent
//!   mantissa truncation);
//! * **L005** `missing-forbid` — crate roots without
//!   `#![forbid(unsafe_code)]`.
//!
//! Run it as `cargo run -p ihw-lint` (or `just lint`); `--json` emits a
//! stable machine-readable document (schema `ihw-lint/1`), rendered by
//! [`json`], the one JSON writer every `ihw-*` document uses. A checked-in
//! baseline (`lint-baseline.txt`) grandfathers findings so CI fails only
//! on *new* violations; after the initial triage the baseline is empty.
//! [`gate`] holds the flags, baseline policy and exit codes that the lint
//! shares with the `repro` audit subcommands.
//! See `DESIGN.md` §7 ("Invariants & the lint catalog") for the
//! allow-marker syntax and the baseline workflow.
//!
//! The analysis is a hand-rolled lexer pass (the offline container has
//! no `syn`), which is exactly enough structure for these rules: tokens
//! with comment/string/lifetime awareness, `fn` spans for marker
//! attachment, and `#[cfg(test)]` spans for the datapath exemptions.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;
pub mod diag;
pub mod gate;
pub mod json;
pub mod lexer;
pub mod rules;

use diag::Finding;
use std::path::{Path, PathBuf};

/// Directories never scanned (offline shims, build output, VCS,
/// seeded-violation fixtures).
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", "fixtures"];

/// Lints one file (workspace-relative path + contents).
pub fn lint_source(rel: &str, src: &str) -> Vec<Finding> {
    rules::analyze(rel, src)
}

/// Lints one on-disk file, deriving its workspace-relative path from
/// `root`. Files outside `root` are classified by any `treat-as`
/// directive they carry (falling back to the default scope).
pub fn lint_file(root: &Path, path: &Path) -> std::io::Result<Vec<Finding>> {
    let rel = path
        .strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/");
    let src = std::fs::read_to_string(path)?;
    Ok(rules::analyze(&rel, &src))
}

/// Collects every `.rs` file under `root` that the auditor scans, in a
/// deterministic (sorted) order.
pub fn collect_workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_str()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lints the whole workspace rooted at `root`, returning findings in
/// (path, line) order. Findings are born `new = true`; apply a
/// [`baseline::Baseline`] to partition them.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for path in collect_workspace_files(root)? {
        findings.extend(lint_file(root, &path)?);
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(findings)
}

/// Locates the workspace root from this crate's manifest directory
/// (`crates/ihw-lint` → two levels up).
pub fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_walk_skips_vendor_and_fixtures() {
        let root = default_root();
        let files = collect_workspace_files(&root).expect("walk");
        assert!(files.len() > 50, "found {} files", files.len());
        for f in &files {
            let s = f.to_string_lossy();
            assert!(!s.contains("/vendor/"), "vendor skipped: {s}");
            assert!(!s.contains("/target/"), "target skipped: {s}");
            assert!(!s.contains("/fixtures/"), "fixtures skipped: {s}");
        }
        assert!(files.iter().any(|f| f.ends_with("crates/core/src/sfu.rs")));
    }

    #[test]
    fn deterministic_ordering() {
        let root = default_root();
        let a = collect_workspace_files(&root).expect("walk");
        let b = collect_workspace_files(&root).expect("walk");
        assert_eq!(a, b);
    }
}
