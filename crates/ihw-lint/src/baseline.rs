//! Grandfathered-findings baseline.
//!
//! The checked-in baseline file (`lint-baseline.txt` at the workspace
//! root) lists fingerprints of known findings, one per line; the CI gate
//! fails only on findings *not* in the baseline, so pre-existing debt
//! never blocks an unrelated change while new violations always do.
//! After the initial triage the shipped baseline is empty — keep it that
//! way. [`crate::gate`] drives the write/load/apply cycle for every tool.

use crate::diag::Finding;
use std::collections::BTreeSet;
use std::path::Path;

/// Default baseline filename at the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.txt";

/// Header written at the top of a regenerated lint baseline.
pub const BASELINE_HEADER: &str =
    "# ihw-lint baseline — grandfathered findings (one fingerprint per line).\n\
     # Regenerate with `cargo run -p ihw-lint -- --write-baseline`; the CI gate\n\
     # fails only on findings NOT listed here. Keep this file empty: fix or\n\
     # annotate violations instead of baselining them whenever possible.\n";

/// A set of grandfathered finding fingerprints.
#[derive(Debug, Default)]
pub struct Baseline {
    entries: BTreeSet<String>,
}

impl Baseline {
    /// Parses baseline text: one fingerprint per line, `#` comments and
    /// blank lines ignored.
    pub fn parse(text: &str) -> Baseline {
        Baseline {
            entries: text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_owned)
                .collect(),
        }
    }

    /// Loads the baseline from a file; a missing file is an empty
    /// baseline.
    pub fn load(path: &Path) -> Baseline {
        match std::fs::read_to_string(path) {
            Ok(text) => Baseline::parse(&text),
            Err(_) => Baseline::default(),
        }
    }

    /// Number of grandfathered fingerprints.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no fingerprint is grandfathered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Marks each finding as new or baselined; returns the number of new
    /// findings.
    pub fn apply(&self, findings: &mut [Finding]) -> usize {
        let mut new = 0usize;
        for f in findings.iter_mut() {
            f.new = !self.entries.contains(&f.fingerprint());
            new += usize::from(f.new);
        }
        new
    }

    /// Renders the given findings as baseline-file text under a
    /// `#`-comment header. Shared by every gate (see [`crate::gate`]) so
    /// the tools never diverge on baseline syntax.
    pub fn render_with_header(findings: &[Finding], header: &str) -> String {
        let mut out = String::from(header);
        if !out.is_empty() && !out.ends_with('\n') {
            out.push('\n');
        }
        let set: BTreeSet<String> = findings.iter().map(Finding::fingerprint).collect();
        for fp in set {
            out.push_str(&fp);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Rule;

    fn finding(function: &str) -> Finding {
        Finding {
            rule: Rule::WallClock,
            path: "crates/x/src/lib.rs".into(),
            line: 3,
            function: Some(function.into()),
            message: "m".into(),
            new: true,
        }
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let b = Baseline::parse("# comment\n\nL003|crates/x/src/lib.rs|f\n");
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
    }

    #[test]
    fn apply_partitions_new_vs_grandfathered() {
        let b = Baseline::parse("L003|crates/x/src/lib.rs|old\n");
        let mut findings = vec![finding("old"), finding("fresh")];
        let new = b.apply(&mut findings);
        assert_eq!(new, 1);
        assert!(!findings[0].new, "grandfathered");
        assert!(findings[1].new, "not in baseline");
    }

    #[test]
    fn render_roundtrips_through_parse() {
        let findings = vec![finding("a"), finding("b"), finding("a")];
        let text = Baseline::render_with_header(&findings, BASELINE_HEADER);
        let b = Baseline::parse(&text);
        assert_eq!(b.len(), 2, "deduplicated");
        let mut fs = vec![finding("a"), finding("b")];
        assert_eq!(b.apply(&mut fs), 0);
    }

    #[test]
    fn custom_header_roundtrips() {
        let text = Baseline::render_with_header(&[finding("x")], "# custom tool baseline");
        assert!(text.starts_with("# custom tool baseline\n"));
        assert_eq!(Baseline::parse(&text).len(), 1);
    }

    #[test]
    fn missing_file_is_empty() {
        let b = Baseline::load(Path::new("/nonexistent/definitely/missing.txt"));
        assert!(b.is_empty());
    }
}
