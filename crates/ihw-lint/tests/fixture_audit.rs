//! Fixture-based acceptance tests: every rule fires on its seeded
//! violation file, annotated code is clean, and — the triage gate — the
//! real workspace audits clean against the checked-in baseline.

use ihw_lint::baseline::{Baseline, BASELINE_FILE};
use ihw_lint::diag::Rule;
use ihw_lint::{default_root, lint_file, lint_workspace};
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn fixture_codes(name: &str) -> Vec<String> {
    lint_file(&default_root(), &fixture(name))
        .expect("fixture readable")
        .iter()
        .map(|f| f.rule.code().to_owned())
        .collect()
}

#[test]
fn l001_fires_on_seeded_float_arith() {
    let findings = lint_file(&default_root(), &fixture("l001_float_arith.rs")).unwrap();
    let fns: Vec<&str> = findings
        .iter()
        .filter(|f| f.rule == Rule::FloatArith)
        .filter_map(|f| f.function.as_deref())
        .collect();
    assert_eq!(
        fns,
        vec!["linear", "transcendental"],
        "both float fns flagged, integer_only clean: {findings:?}"
    );
}

#[test]
fn l001_fires_on_a_float_path_call_before_the_operator() {
    let findings = lint_file(&default_root(), &fixture("l001_path_call_operand.rs")).unwrap();
    let fns: Vec<&str> = findings
        .iter()
        .filter(|f| f.rule == Rule::FloatArith)
        .filter_map(|f| f.function.as_deref())
        .collect();
    assert_eq!(
        fns,
        vec!["widened_sum"],
        "the f64:: path call is float evidence, the u32:: one is not: {findings:?}"
    );
}

#[test]
fn l002_fires_on_seeded_hash_iteration() {
    let codes = fixture_codes("l002_hash_iter.rs");
    assert_eq!(codes, vec!["L002"], "one finding, lookup not flagged");
}

#[test]
fn l003_fires_on_seeded_wall_clock() {
    let codes = fixture_codes("l003_wall_clock.rs");
    assert!(
        !codes.is_empty() && codes.iter().all(|c| c == "L003"),
        "Instant flagged, Duration not: {codes:?}"
    );
}

#[test]
fn l004_fires_on_seeded_lossy_cast() {
    let codes = fixture_codes("l004_lossy_cast.rs");
    assert_eq!(codes, vec!["L004"], "as f32 flagged, as u64 not");
}

#[test]
fn l005_fires_on_seeded_missing_forbid() {
    assert_eq!(fixture_codes("l005_missing_forbid.rs"), vec!["L005"]);
}

#[test]
fn annotated_fixture_is_clean() {
    assert!(
        fixture_codes("clean_annotated.rs").is_empty(),
        "allow markers with reasons suppress every finding"
    );
}

/// The acceptance criterion of the triage: the real workspace audits
/// clean against the checked-in baseline. This is the same gate
/// `scripts/ci.sh` runs via the CLI, enforced from the tier-1 suite.
#[test]
fn workspace_audits_clean_against_baseline() {
    let root = default_root();
    let mut findings = lint_workspace(&root).expect("workspace scan");
    let baseline = Baseline::load(&root.join(BASELINE_FILE));
    let new = baseline.apply(&mut findings);
    let fresh: Vec<String> = findings
        .iter()
        .filter(|f| f.new)
        .map(|f| f.render())
        .collect();
    assert_eq!(new, 0, "new lint findings:\n{}", fresh.join("\n"));
}
