//! Findings and their human/JSON renderings.
//!
//! The JSON document is schema-pinned (`"schema": "ihw-lint/1"` for the
//! lint auditor, `"ihw-analyze/2"` for the static error-bound analyzer,
//! see [`to_json_with_schema`]) and rendered by the workspace's one JSON
//! writer, [`crate::json`].
//!
//! The rule catalog carries four families with one shared diagnostic
//! pipeline: `L00x` source-level determinism rules emitted by this
//! crate's lexer pass, `A001`–`A003` and `A009` kernel-IR error-bound
//! rules emitted by `ihw-analyze`'s abstract interpreter, `A004`–`A007`
//! memory-dependence/race rules emitted by its racecheck pass
//! (`"ihw-racecheck/1"` JSON schema), the `A008`
//! precision-sensitivity rule emitted by its autotune pass
//! (`"ihw-autotune/1"` JSON schema), and the `A010` convergence rule
//! emitted by its contraction pass (`"ihw-converge/1"` JSON schema).

use crate::json::{obj, Json};

/// The catalog of rules, with stable codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// L001 — native float arithmetic inside `ihw-core` datapath modules.
    FloatArith,
    /// L002 — iteration over `HashMap`/`HashSet` (nondeterministic order).
    HashIter,
    /// L003 — wall-clock reads (`Instant`/`SystemTime`) outside the
    /// timing report module.
    WallClock,
    /// L004 — mantissa-losing numeric cast in `ihw-core` datapath code.
    LossyCast,
    /// L005 — crate root missing `#![forbid(unsafe_code)]`.
    MissingForbid,
    /// A001 — a kernel output's static relative-error bound exceeds the
    /// configured budget.
    OutputBound,
    /// A002 — catastrophic cancellation: an effective subtraction whose
    /// operand intervals overlap makes an output bound unbounded (⊤),
    /// §4.1.1 case (d).
    UnboundedCancellation,
    /// A003 — an imprecise-derived value reaches an address operand or
    /// control construct (the static form of the paper's "IHW for the FP
    /// datapath only" rule).
    ImprecisionTaint,
    /// A004 — two threads can write the same buffer element (cross-tid
    /// write-write conflict proven by the affine race analysis).
    WriteWriteConflict,
    /// A005 — a load can observe an earlier tid's store: the kernel is
    /// only defined under the sequential-tid order.
    CarriedDependence,
    /// A006 — a buffer access that is out of bounds for every launch
    /// (tid-relative index with a negative offset).
    StaticOutOfBounds,
    /// A007 — register hygiene: a read of a never-written register, or
    /// a register store that is never read.
    RegisterHygiene,
    /// A008 — over-provisioned precision: an instruction site whose
    /// maximal unit relaxation provably keeps every output bound under
    /// the quality target (emitted by `ihw-analyze`'s sensitivity pass,
    /// `"ihw-autotune/1"` JSON schema).
    OverProvisionedPrecision,
    /// A009 — cancellation recovered: the interval domain reports an
    /// output ⊤ from overlapping imprecise subtraction, but the affine
    /// relational domain proves the cancelling terms are correlated and
    /// recovers a finite bound. Advisory (never gates the exit code) —
    /// it marks compensated algorithms doing their job.
    CancellationRecovered,
    /// A010 — imprecision divergence risk: an iterative kernel's static
    /// per-launch error-transfer operator has ∞-norm contraction factor
    /// ρ ≥ 1 under the analyzed configuration (or no finite noise
    /// fixed point exists), so convergence cannot be certified — the
    /// imprecise units may amplify iteration error instead of letting
    /// it contract (emitted by `ihw-analyze`'s contraction pass,
    /// `"ihw-converge/1"` JSON schema).
    ImprecisionDivergenceRisk,
}

impl Rule {
    /// Stable diagnostic code (`L001`…`L005`, `A001`…`A003`).
    pub fn code(self) -> &'static str {
        match self {
            Rule::FloatArith => "L001",
            Rule::HashIter => "L002",
            Rule::WallClock => "L003",
            Rule::LossyCast => "L004",
            Rule::MissingForbid => "L005",
            Rule::OutputBound => "A001",
            Rule::UnboundedCancellation => "A002",
            Rule::ImprecisionTaint => "A003",
            Rule::WriteWriteConflict => "A004",
            Rule::CarriedDependence => "A005",
            Rule::StaticOutOfBounds => "A006",
            Rule::RegisterHygiene => "A007",
            Rule::OverProvisionedPrecision => "A008",
            Rule::CancellationRecovered => "A009",
            Rule::ImprecisionDivergenceRisk => "A010",
        }
    }

    /// Marker name accepted by `// ihw-lint: allow(<name>)` (and used as
    /// the machine-readable rule name in the JSON document).
    pub fn marker(self) -> &'static str {
        match self {
            Rule::FloatArith => "float-arith",
            Rule::HashIter => "hash-iter",
            Rule::WallClock => "wall-clock",
            Rule::LossyCast => "lossy-cast",
            Rule::MissingForbid => "missing-forbid",
            Rule::OutputBound => "output-bound",
            Rule::UnboundedCancellation => "unbounded-cancellation",
            Rule::ImprecisionTaint => "imprecision-taint",
            Rule::WriteWriteConflict => "write-write-conflict",
            Rule::CarriedDependence => "carried-dependence",
            Rule::StaticOutOfBounds => "static-out-of-bounds",
            Rule::RegisterHygiene => "register-hygiene",
            Rule::OverProvisionedPrecision => "over-provisioned-precision",
            Rule::CancellationRecovered => "cancellation-recovered",
            Rule::ImprecisionDivergenceRisk => "imprecision-divergence-risk",
        }
    }

    /// Parses a marker name back into the rule.
    pub fn from_marker(name: &str) -> Option<Rule> {
        Some(match name {
            "float-arith" => Rule::FloatArith,
            "hash-iter" => Rule::HashIter,
            "wall-clock" => Rule::WallClock,
            "lossy-cast" => Rule::LossyCast,
            "missing-forbid" => Rule::MissingForbid,
            "output-bound" => Rule::OutputBound,
            "unbounded-cancellation" => Rule::UnboundedCancellation,
            "imprecision-taint" => Rule::ImprecisionTaint,
            "write-write-conflict" => Rule::WriteWriteConflict,
            "carried-dependence" => Rule::CarriedDependence,
            "static-out-of-bounds" => Rule::StaticOutOfBounds,
            "register-hygiene" => Rule::RegisterHygiene,
            "over-provisioned-precision" => Rule::OverProvisionedPrecision,
            "cancellation-recovered" => Rule::CancellationRecovered,
            "imprecision-divergence-risk" => Rule::ImprecisionDivergenceRisk,
            _ => return None,
        })
    }

    /// Every rule, in code order.
    pub const ALL: [Rule; 15] = [
        Rule::FloatArith,
        Rule::HashIter,
        Rule::WallClock,
        Rule::LossyCast,
        Rule::MissingForbid,
        Rule::OutputBound,
        Rule::UnboundedCancellation,
        Rule::ImprecisionTaint,
        Rule::WriteWriteConflict,
        Rule::CarriedDependence,
        Rule::StaticOutOfBounds,
        Rule::RegisterHygiene,
        Rule::OverProvisionedPrecision,
        Rule::CancellationRecovered,
        Rule::ImprecisionDivergenceRisk,
    ];

    /// The source-level lint rules this crate's lexer pass emits.
    pub const LINT: [Rule; 5] = [
        Rule::FloatArith,
        Rule::HashIter,
        Rule::WallClock,
        Rule::LossyCast,
        Rule::MissingForbid,
    ];

    /// The kernel-IR analysis rules emitted by `ihw-analyze`.
    pub const ANALYZE: [Rule; 4] = [
        Rule::OutputBound,
        Rule::UnboundedCancellation,
        Rule::ImprecisionTaint,
        Rule::CancellationRecovered,
    ];

    /// The memory-dependence / race-analysis rules emitted by
    /// `ihw-analyze`'s racecheck pass.
    pub const RACECHECK: [Rule; 4] = [
        Rule::WriteWriteConflict,
        Rule::CarriedDependence,
        Rule::StaticOutOfBounds,
        Rule::RegisterHygiene,
    ];

    /// The precision-sensitivity rules emitted by `ihw-analyze`'s
    /// autotune pass.
    pub const AUTOTUNE: [Rule; 1] = [Rule::OverProvisionedPrecision];

    /// The convergence-certification rules emitted by `ihw-analyze`'s
    /// contraction pass.
    pub const CONVERGE: [Rule; 1] = [Rule::ImprecisionDivergenceRisk];
}

/// One diagnostic produced by the auditor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative path (`/`-separated) of the offending file.
    pub path: String,
    /// 1-based line of the first offending token.
    pub line: u32,
    /// Enclosing function, when the rule is function-granular.
    pub function: Option<String>,
    /// Human-readable description of the violation.
    pub message: String,
    /// True when the finding is not covered by the baseline file.
    pub new: bool,
}

impl Finding {
    /// Stable identity used for baseline matching: rule, path and
    /// enclosing function (so findings survive line drift). Findings
    /// outside any function fall back to the line number.
    pub fn fingerprint(&self) -> String {
        let ctx = self
            .function
            .clone()
            .unwrap_or_else(|| format!("line-{}", self.line));
        format!("{}|{}|{}", self.rule.code(), self.path, ctx)
    }

    /// One-line human rendering (`path:line: CODE [marker] message`).
    pub fn render(&self) -> String {
        let f = self
            .function
            .as_deref()
            .map(|f| format!(" (fn {f})"))
            .unwrap_or_default();
        format!(
            "{}:{}: {} [{}] {}{}",
            self.path,
            self.line,
            self.rule.code(),
            self.rule.marker(),
            self.message,
            f
        )
    }
}

/// Renders the full finding set as the `ihw-lint/1` JSON document.
pub fn to_json(findings: &[Finding]) -> String {
    to_json_with_schema(findings, "ihw-lint/1")
}

/// Renders the finding set as a schema-pinned JSON document. The lint
/// auditor passes `"ihw-lint/1"`; `ihw-analyze` reuses the exact same
/// document shape under `"ihw-analyze/2"` and `"ihw-racecheck/1"`.
pub fn to_json_with_schema(findings: &[Finding], schema: &str) -> String {
    obj(std::iter::once(("schema", schema.into())).chain(findings_fields(findings))).render()
}

/// The `total`, `new` and `findings` fields that close every
/// schema-pinned document, so documents embedding findings next to
/// their own fields keep one shape.
pub fn findings_fields(findings: &[Finding]) -> [(&'static str, Json); 3] {
    let new = findings.iter().filter(|f| f.new).count();
    [
        ("total", findings.len().into()),
        ("new", new.into()),
        (
            "findings",
            Json::Arr(findings.iter().map(finding_json_object).collect()),
        ),
    ]
}

/// One finding as a JSON object — the element shape of the
/// `"findings"` array of every schema-pinned document.
fn finding_json_object(f: &Finding) -> Json {
    obj([
        ("code", f.rule.code().into()),
        ("rule", f.rule.marker().into()),
        ("path", f.path.as_str().into()),
        ("line", f.line.into()),
        ("function", f.function.as_deref().into()),
        ("new", f.new.into()),
        ("message", f.message.as_str().into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Finding {
        Finding {
            rule: Rule::FloatArith,
            path: "crates/core/src/sfu.rs".into(),
            line: 78,
            function: Some("imprecise_rcp_bits".into()),
            message: "native float arithmetic".into(),
            new: true,
        }
    }

    #[test]
    fn codes_and_markers_roundtrip() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_marker(rule.marker()), Some(rule));
        }
        assert_eq!(Rule::from_marker("unknown"), None);
        assert_eq!(Rule::FloatArith.code(), "L001");
        assert_eq!(Rule::MissingForbid.code(), "L005");
        assert_eq!(Rule::OutputBound.code(), "A001");
        assert_eq!(Rule::UnboundedCancellation.code(), "A002");
        assert_eq!(Rule::ImprecisionTaint.code(), "A003");
        assert_eq!(Rule::WriteWriteConflict.code(), "A004");
        assert_eq!(Rule::CarriedDependence.code(), "A005");
        assert_eq!(Rule::StaticOutOfBounds.code(), "A006");
        assert_eq!(Rule::RegisterHygiene.code(), "A007");
        assert_eq!(Rule::OverProvisionedPrecision.code(), "A008");
        assert_eq!(Rule::CancellationRecovered.code(), "A009");
        assert_eq!(Rule::ImprecisionDivergenceRisk.code(), "A010");
        assert_eq!(
            Rule::ImprecisionDivergenceRisk.marker(),
            "imprecision-divergence-risk"
        );
        assert_eq!(
            Rule::LINT.len()
                + Rule::ANALYZE.len()
                + Rule::RACECHECK.len()
                + Rule::AUTOTUNE.len()
                + Rule::CONVERGE.len(),
            Rule::ALL.len()
        );
    }

    #[test]
    fn fingerprint_prefers_function_over_line() {
        let f = sample();
        assert_eq!(
            f.fingerprint(),
            "L001|crates/core/src/sfu.rs|imprecise_rcp_bits"
        );
        let mut g = f.clone();
        g.function = None;
        assert_eq!(g.fingerprint(), "L001|crates/core/src/sfu.rs|line-78");
    }

    #[test]
    fn json_document_shape() {
        let json = to_json(&[sample()]);
        assert!(json.contains("\"schema\": \"ihw-lint/1\""));
        assert!(json.contains("\"code\": \"L001\""));
        assert!(json.contains("\"function\": \"imprecise_rcp_bits\""));
        assert!(json.contains("\"new\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_schema_is_parameterizable() {
        let json = to_json_with_schema(&[sample()], "ihw-analyze/1");
        assert!(json.contains("\"schema\": \"ihw-analyze/1\""));
        assert!(!json.contains("ihw-lint/1"));
    }

    #[test]
    fn render_is_grep_friendly() {
        assert_eq!(
            sample().render(),
            "crates/core/src/sfu.rs:78: L001 [float-arith] native float arithmetic \
             (fn imprecise_rcp_bits)"
        );
    }
}
