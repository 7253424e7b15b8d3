//! Golden schema gate: every `ihw-*` JSON document must (a) parse as
//! strict JSON and (b) carry its exact schema tag at the top level.
//! Every emitter renders through the one writer in `ihw_lint::json`;
//! this test is the one place that catches a missing comma, an
//! unescaped quote, or a `NaN`/`inf` literal before a consumer does.
//!
//! Covered emitters and tags:
//!
//! | emitter                              | schema            |
//! |--------------------------------------|-------------------|
//! | `ihw_analyze::diag::to_json`         | `ihw-lint/1`      |
//! | `ihw_analyze::report::to_json`       | `ihw-analyze/2`   |
//! | `ihw_analyze::races::to_json`        | `ihw-racecheck/1` |
//! | `ihw_analyze::autotune::to_json`     | `ihw-autotune/1`  |
//! | `ihw_analyze::contraction::to_json`  | `ihw-converge/1`  |
//! | `ihw_bench::racebench` report        | `ihw-racebench/4` |
//! | `ihw_bench::solverbench::to_json`    | `ihw-solverbench/1` |
//! | `ihw_bench::runner::report` timings  | `ihw-bench-timings/1` |

use ihw_analyze::diag::{Finding, Rule};
use ihw_analyze::interp::AnalysisSettings;

// ---------------------------------------------------------------------
// Minimal strict JSON validator (the workspace has no JSON parser
// dependency). Returns the top-level object's string fields so tests can
// assert on the schema tag after a full parse, not via substring search
// alone.
// ---------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(doc: &'a str) -> Self {
        Parser {
            bytes: doc.as_bytes(),
            pos: 0,
        }
    }

    fn fail(&self, msg: &str) -> ! {
        let ctx_start = self.pos.saturating_sub(30);
        let ctx_end = (self.pos + 30).min(self.bytes.len());
        panic!(
            "invalid JSON at byte {}: {} (near {:?})",
            self.pos,
            msg,
            String::from_utf8_lossy(&self.bytes[ctx_start..ctx_end])
        );
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> u8 {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(&b) => b,
            None => self.fail("unexpected end of document"),
        }
    }

    fn expect(&mut self, b: u8) {
        if self.peek() != b {
            self.fail(&format!("expected {:?}", b as char));
        }
        self.pos += 1;
    }

    fn value(&mut self) {
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => {
                self.string();
            }
            b't' => self.literal("true"),
            b'f' => self.literal("false"),
            b'n' => self.literal("null"),
            b'-' | b'0'..=b'9' => self.number(),
            other => self.fail(&format!("unexpected value start {:?}", other as char)),
        }
    }

    fn literal(&mut self, word: &str) {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
        } else {
            self.fail(&format!("expected literal {word}"));
        }
    }

    fn number(&mut self) {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Parser| {
            let s = p.pos;
            while p.bytes.get(p.pos).is_some_and(u8::is_ascii_digit) {
                p.pos += 1;
            }
            p.pos > s
        };
        if !digits(self) {
            self.fail("number without integer digits");
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            if !digits(self) {
                self.fail("number without fraction digits");
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                self.fail("number without exponent digits");
            }
        }
        // A bare NaN/inf would already have failed the value dispatch;
        // this keeps the parsed span non-empty for completeness.
        assert!(self.pos > start);
    }

    fn string(&mut self) -> String {
        self.expect(b'"');
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => self.fail("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return out;
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b' | b'f') => out.push(' '),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .unwrap_or_else(|| self.fail("truncated \\u escape"));
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .unwrap_or_else(|| self.fail("bad \\u escape"));
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => self.fail("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => self.fail("raw control character in string"),
                Some(_) => {
                    let start = self.pos;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20)
                    {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn array(&mut self) {
        self.expect(b'[');
        if self.peek() == b']' {
            self.pos += 1;
            return;
        }
        loop {
            self.value();
            match self.peek() {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return;
                }
                _ => self.fail("expected ',' or ']' in array"),
            }
        }
    }

    fn object(&mut self) {
        self.expect(b'{');
        if self.peek() == b'}' {
            self.pos += 1;
            return;
        }
        loop {
            if self.peek() != b'"' {
                self.fail("object key must be a string");
            }
            self.string();
            self.expect(b':');
            self.value();
            match self.peek() {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return;
                }
                _ => self.fail("expected ',' or '}' in object"),
            }
        }
    }
}

/// Fully parses `doc` as strict JSON and returns the value of the
/// top-level `"schema"` field.
fn parse_and_schema(doc: &str) -> String {
    let mut p = Parser::new(doc);
    p.expect(b'{');
    let mut schema = None;
    if p.peek() != b'}' {
        loop {
            let key = p.string();
            p.expect(b':');
            if key == "schema" {
                schema = Some(p.string());
            } else {
                p.value();
            }
            match p.peek() {
                b',' => p.pos += 1,
                b'}' => {
                    p.pos += 1;
                    break;
                }
                _ => p.fail("expected ',' or '}' at top level"),
            }
        }
    } else {
        p.pos += 1;
    }
    p.skip_ws();
    assert!(
        p.pos == p.bytes.len(),
        "trailing garbage after top-level object at byte {}",
        p.pos
    );
    schema.expect("document has no top-level \"schema\" field")
}

fn assert_golden(doc: &str, tag: &str) {
    assert_eq!(
        parse_and_schema(doc),
        tag,
        "document does not carry its schema tag:\n{doc}"
    );
    assert!(
        !doc.contains("NaN") && !doc.contains("inf"),
        "non-JSON float literal leaked into the {tag} document"
    );
}

/// A finding whose text exercises the escaper: quotes, backslashes,
/// newlines and a control byte must all round-trip through
/// the findings array without corrupting the document.
fn hostile_finding() -> Finding {
    Finding {
        rule: Rule::ImprecisionDivergenceRisk,
        path: "kernels\\win\\jacobi \"v2\".s".to_string(),
        line: 7,
        function: Some("cfg|b\"1\"\ttabbed".to_string()),
        message: "rho >= 1 \"diverges\"\nsecond line \u{1}".to_string(),
        new: true,
    }
}

#[test]
fn lint_document_parses_with_its_schema_tag() {
    let doc = ihw_analyze::diag::to_json(&[hostile_finding()]);
    assert_golden(&doc, "ihw-lint/1");
    // Empty finding sets must stay valid too (the common CI-green case).
    assert_golden(&ihw_analyze::diag::to_json(&[]), "ihw-lint/1");
}

#[test]
fn analyze_document_parses_with_its_schema_tag() {
    let settings = AnalysisSettings::default();
    let analyses = ihw_analyze::analyze_stock(&settings, &[]);
    let findings = ihw_analyze::collect_findings(&analyses, &settings);
    assert_golden(&ihw_analyze::report::to_json(&findings), "ihw-analyze/2");
}

#[test]
fn racecheck_document_parses_with_its_schema_tag() {
    let races = ihw_analyze::racecheck_stock(&[]);
    let findings = ihw_analyze::races::collect_findings(&races);
    assert_golden(&ihw_analyze::races::to_json(&findings), "ihw-racecheck/1");
}

#[test]
fn autotune_document_parses_with_its_schema_tag() {
    let settings = ihw_analyze::AutotuneSettings::default();
    let mut results = ihw_analyze::autotune::autotune_stock(&settings, &["saxpy".to_string()]);
    assert!(!results.is_empty(), "saxpy must autotune");
    results[0].kernel = HOSTILE_NAME.to_string();
    let doc = ihw_analyze::autotune::to_json(&results, &[hostile_finding()], &settings);
    assert_golden(&doc, "ihw-autotune/1");
}

#[test]
fn converge_document_parses_with_its_schema_tag() {
    let settings = AnalysisSettings::default();
    let rows = ihw_analyze::converge_stock(&settings, 1e-6, &[]);
    let findings = ihw_analyze::contraction::findings_for(&rows);
    assert!(
        rows.iter()
            .any(|r| matches!(r.verdict, ihw_analyze::ConvergeVerdict::Certified(_))),
        "sweep must include certified rows so both JSON shapes are exercised"
    );
    assert!(!findings.is_empty(), "sweep must include divergent rows");
    let doc = ihw_analyze::contraction::to_json(&rows, &findings, 1e-6);
    assert_golden(&doc, "ihw-converge/1");
}

/// A kernel or config name that needs every escape the writer has.
const HOSTILE_NAME: &str = "k\"quoted\"\\back\nline";

#[test]
fn racebench_document_parses_with_its_schema_tag() {
    let mut report = ihw_bench::racebench::run_stock(32, 1);
    report.rows[0].kernel = HOSTILE_NAME.to_string();
    report.rows[0].config = HOSTILE_NAME.to_string();
    let doc = report.to_json();
    assert_golden(&doc, "ihw-racebench/4");
    assert!(doc.contains("k\\\"quoted\\\"\\\\back\\nline"));
}

#[test]
fn solverbench_document_parses_with_its_schema_tag() {
    let mut rows = ihw_bench::solverbench::sweep(16, 500);
    rows[0].kernel = HOSTILE_NAME.to_string();
    rows[0].config = HOSTILE_NAME.to_string();
    assert_golden(
        &ihw_bench::solverbench::to_json(&rows, 16),
        "ihw-solverbench/1",
    );
}

#[test]
fn timings_document_parses_with_its_schema_tag() {
    use ihw_bench::runner::report::{ExperimentTiming, TimingReport};
    let report = TimingReport {
        jobs: 2,
        total_seconds: f64::NAN,
        experiments: vec![
            ExperimentTiming {
                name: HOSTILE_NAME.to_string(),
                seconds: 0.25,
            },
            ExperimentTiming {
                name: "fig14".to_string(),
                seconds: f64::INFINITY,
            },
        ],
        cache_hits: 3,
        cache_misses: 9,
        cache_entries: 9,
    };
    assert_golden(&report.to_json(), "ihw-bench-timings/1");
    let empty = TimingReport {
        experiments: vec![],
        ..report
    };
    assert_golden(&empty.to_json(), "ihw-bench-timings/1");
}

#[test]
fn the_validator_itself_rejects_malformed_documents() {
    for bad in [
        "{\"schema\": \"x\",}",
        "{\"schema\": \"x\" \"extra\": 1}",
        "{\"schema\": \"x\", \"v\": NaN}",
        "{\"schema\": \"x\", \"v\": inf}",
        "{\"schema\": \"x\", \"s\": \"unterminated}",
        "{\"schema\": \"x\"} trailing",
        "{\"schema\": \"x\", \"a\": [1 2]}",
    ] {
        let caught = std::panic::catch_unwind(|| parse_and_schema(bad)).is_err();
        assert!(caught, "validator accepted malformed document: {bad}");
    }
}
