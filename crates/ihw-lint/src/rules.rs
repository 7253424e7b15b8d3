//! The rule engine: scope classification, allow markers, and the five
//! checks L001–L005.
//!
//! ## Rule catalog
//!
//! | Code | Marker | Checks |
//! |------|--------|--------|
//! | L001 | `float-arith` | native `f32`/`f64` arithmetic (operators with float evidence, transcendental/rounding method calls) inside `ihw-core` datapath modules |
//! | L002 | `hash-iter` | iteration over `HashMap`/`HashSet` (order is nondeterministic and would leak into experiment/report output) |
//! | L003 | `wall-clock` | `Instant`/`SystemTime` anywhere but `crates/bench/src/runner/report.rs` |
//! | L004 | `lossy-cast` | `as f32` casts in datapath modules (can silently drop mantissa bits) |
//! | L005 | `missing-forbid` | crate roots without `#![forbid(unsafe_code)]` |
//!
//! L001 and L004 are *function-granular*: one finding per offending
//! function, suppressed by a marker comment on or directly above the
//! function:
//!
//! ```text
//! // ihw-lint: allow(float-arith, lossy-cast) reason=frac <= 2^52 is exact in f64
//! fn encode(...) { ... }
//! ```
//!
//! A marker **must** carry a non-empty `reason=`; without one it is
//! ignored and the finding still fires. For findings outside any
//! function (e.g. a top-level `const` initializer), place the marker on
//! the offending line or the line directly above it. `#[cfg(test)]`
//! items are exempt from L001/L004 (tests compute exact references
//! natively by design) but not from L002/L003.
//!
//! Files can override their path-derived scope with a directive comment
//! (used by the lint's own fixtures): `// ihw-lint: treat-as=core-datapath`
//! (or `output`, `timing-exempt`, `crate-root`, `skip`).

use crate::diag::{Finding, Rule};
use crate::lexer::{lex, Comment, Lexed, Tok};
use std::collections::{BTreeMap, BTreeSet};

/// Which rule families apply to a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LintScope {
    /// L001 + L004 (datapath bit-exactness rules).
    pub datapath: bool,
    /// L002 (hash iteration order).
    pub hash_iter: bool,
    /// L003 (wall-clock reads).
    pub wall_clock: bool,
    /// L005 (crate-root hygiene).
    pub crate_root: bool,
}

impl LintScope {
    /// The default scope for ordinary workspace code.
    pub const DEFAULT: LintScope = LintScope {
        datapath: false,
        hash_iter: true,
        wall_clock: true,
        crate_root: false,
    };
}

/// `ihw-core` modules that model hardware datapaths bit-exactly; these
/// are the L001/L004 scope. `config.rs` (the precise-mode dispatcher is
/// native by definition) and `bounds.rs` (closed-form error formulas)
/// are deliberately excluded.
const DATAPATH_MODULES: &[&str] = &[
    "adder.rs",
    "ac_adder.rs",
    "multiplier.rs",
    "ac_multiplier.rs",
    "truncated.rs",
    "sfu.rs",
    "fma.rs",
    "mitchell.rs",
    "segmented.rs",
    "dual_mode.rs",
    "half.rs",
    "format.rs",
];

/// The one module allowed to read wall-clock time.
const WALL_CLOCK_SANCTUARY: &str = "crates/bench/src/runner/report.rs";

/// Float-typed method names whose *call* marks native float math. All
/// names are float-distinctive (no integer type shares them).
const FLOAT_METHODS: &[&str] = &[
    "sqrt",
    "cbrt",
    "powf",
    "powi",
    "exp",
    "exp2",
    "exp_m1",
    "ln",
    "ln_1p",
    "log",
    "log2",
    "log10",
    "sin",
    "cos",
    "tan",
    "asin",
    "acos",
    "atan",
    "atan2",
    "sinh",
    "cosh",
    "tanh",
    "recip",
    "floor",
    "ceil",
    "round",
    "trunc",
    "fract",
    "mul_add",
    "hypot",
    "to_degrees",
    "to_radians",
];

/// Methods that iterate a collection in storage order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "into_iter",
    "drain",
    "retain",
];

/// Derives the rule scope for a workspace-relative path (`/`-separated).
/// Returns `None` for files the auditor must skip.
pub fn scope_for_path(rel: &str) -> Option<LintScope> {
    if rel.starts_with("vendor/") || rel.starts_with("target/") || rel.contains("/fixtures/") {
        return None;
    }
    let mut scope = LintScope::DEFAULT;
    if let Some(module) = rel.strip_prefix("crates/core/src/") {
        scope.datapath = DATAPATH_MODULES.contains(&module);
    }
    if rel == WALL_CLOCK_SANCTUARY {
        scope.wall_clock = false;
    }
    let parts: Vec<&str> = rel.split('/').collect();
    let n = parts.len();
    let is_lib_or_main =
        n >= 2 && parts[n - 2] == "src" && (parts[n - 1] == "lib.rs" || parts[n - 1] == "main.rs");
    let is_bin = n >= 3 && parts[n - 3] == "src" && parts[n - 2] == "bin";
    scope.crate_root = is_lib_or_main || is_bin;
    Some(scope)
}

/// Applies a `treat-as=` directive (if any) on top of the path scope.
fn apply_directive(scope: Option<LintScope>, comments: &[Comment]) -> Option<LintScope> {
    let directive = comments.iter().find_map(|c| {
        let rest = c.text.split("ihw-lint:").nth(1)?.trim();
        rest.strip_prefix("treat-as=").map(str::trim)
    });
    match directive {
        Some("skip") => None,
        Some("core-datapath") => Some(LintScope {
            datapath: true,
            ..LintScope::DEFAULT
        }),
        Some("output") => Some(LintScope::DEFAULT),
        Some("timing-exempt") => Some(LintScope {
            wall_clock: false,
            ..LintScope::DEFAULT
        }),
        Some("crate-root") => Some(LintScope {
            crate_root: true,
            ..LintScope::DEFAULT
        }),
        _ => scope,
    }
}

/// Span of one `fn` item in the token stream.
#[derive(Debug)]
struct FnSpan {
    name: String,
    start_line: u32,
    end_line: u32,
    start_tok: usize,
    end_tok: usize,
}

/// An allow marker parsed from a comment.
#[derive(Debug)]
struct Marker {
    rules: Vec<Rule>,
    line: u32,
}

/// Parses `// ihw-lint: allow(a, b) reason=...` comments. Markers
/// without a non-empty reason are ignored (the finding still fires).
fn parse_markers(comments: &[Comment]) -> Vec<Marker> {
    let mut out = Vec::new();
    for c in comments {
        let Some(rest) = c.text.split("ihw-lint:").nth(1) else {
            continue;
        };
        let rest = rest.trim();
        let Some(after) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = after.find(')') else {
            continue;
        };
        let names = &after[..close];
        let tail = after[close + 1..].trim();
        let reason_ok = tail
            .strip_prefix("reason=")
            .is_some_and(|r| !r.trim().is_empty());
        if !reason_ok {
            continue;
        }
        let rules: Vec<Rule> = names
            .split(',')
            .filter_map(|n| Rule::from_marker(n.trim()))
            .collect();
        if !rules.is_empty() {
            out.push(Marker {
                rules,
                line: c.line,
            });
        }
    }
    out
}

/// Builds the `fn` spans of the file (nested functions included).
fn fn_spans(lexed: &Lexed) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    let mut stack: Vec<(String, u32, usize, u32)> = Vec::new(); // name, line, tok, depth
    let mut pending: Option<(String, u32, usize, u32)> = None; // name, line, tok, paren depth
    let mut depth = 0u32;
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        match &toks[i].tok {
            Tok::Ident(kw) if kw == "fn" => {
                if let Some(Tok::Ident(name)) = toks.get(i + 1).map(|t| &t.tok) {
                    pending = Some((name.clone(), toks[i].line, i, 0));
                }
            }
            Tok::Punct('(') => {
                if let Some(p) = pending.as_mut() {
                    p.3 += 1;
                }
            }
            Tok::Punct(')') => {
                if let Some(p) = pending.as_mut() {
                    p.3 = p.3.saturating_sub(1);
                }
            }
            Tok::Punct(';') if pending.as_ref().is_some_and(|p| p.3 == 0) => {
                pending = None; // trait method declaration without body
            }
            Tok::Punct('{') => {
                depth += 1;
                if let Some((name, line, tok, pd)) = pending.take() {
                    if pd == 0 {
                        stack.push((name, line, tok, depth));
                    } else {
                        pending = Some((name, line, tok, pd));
                    }
                }
            }
            Tok::Punct('}') => {
                if let Some(&(_, _, _, d)) = stack.last() {
                    if d == depth {
                        let (name, line, tok, _) = stack.pop().expect("non-empty");
                        spans.push(FnSpan {
                            name,
                            start_line: line,
                            end_line: toks[i].line,
                            start_tok: tok,
                            end_tok: i,
                        });
                    }
                }
                depth = depth.saturating_sub(1);
            }
            _ => {}
        }
    }
    spans
}

/// Token ranges of `#[cfg(test)]` items (exempt from L001/L004).
fn cfg_test_spans(lexed: &Lexed) -> Vec<(usize, usize)> {
    let toks = &lexed.tokens;
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i + 6 < toks.len() {
        let is_cfg_test = lexed.is_punct(i, '#')
            && lexed.is_punct(i + 1, '[')
            && lexed.ident(i + 2) == Some("cfg")
            && lexed.is_punct(i + 3, '(')
            && lexed.ident(i + 4) == Some("test")
            && lexed.is_punct(i + 5, ')')
            && lexed.is_punct(i + 6, ']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Find the guarded item's body: first `{` before any `;`.
        let mut j = i + 7;
        let mut depth = 0u32;
        let mut start = None;
        while j < toks.len() {
            match toks[j].tok {
                Tok::Punct('{') => {
                    if start.is_none() {
                        start = Some(j);
                        depth = 1;
                    } else {
                        depth += 1;
                    }
                }
                Tok::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    if start.is_some() && depth == 0 {
                        break;
                    }
                }
                Tok::Punct(';') if start.is_none() => break,
                _ => {}
            }
            j += 1;
        }
        if let Some(s) = start {
            spans.push((s, j));
            i = j;
        } else {
            i += 1;
        }
    }
    spans
}

/// The analysis state for one file.
struct FileCtx<'a> {
    rel: &'a str,
    scope: LintScope,
    lexed: &'a Lexed,
    spans: Vec<FnSpan>,
    test_spans: Vec<(usize, usize)>,
    /// Per-fn-span allowed rules (index into `spans`).
    allows: BTreeMap<usize, BTreeSet<Rule>>,
    /// All markers, for line-local suppression outside functions.
    markers: Vec<Marker>,
    findings: Vec<Finding>,
    /// Dedup: (rule, fn-span or line).
    seen: BTreeSet<String>,
}

impl FileCtx<'_> {
    fn innermost_fn(&self, tok: usize) -> Option<usize> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.start_tok <= tok && tok <= s.end_tok)
            .max_by_key(|(_, s)| s.start_tok)
            .map(|(i, _)| i)
    }

    fn in_cfg_test(&self, tok: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| s <= tok && tok <= e)
    }

    fn allowed(&self, fn_idx: Option<usize>, line: u32, rule: Rule) -> bool {
        if let Some(set) = fn_idx.and_then(|i| self.allows.get(&i)) {
            if set.contains(&rule) {
                return true;
            }
        }
        // Outside any fn, a marker on the line or directly above binds
        // to the item itself (top-level consts, use statements).
        fn_idx.is_none()
            && self
                .markers
                .iter()
                .any(|m| (m.line == line || m.line + 1 == line) && m.rules.contains(&rule))
    }

    /// Records a finding unless suppressed or already reported for the
    /// same (rule, context).
    fn report(&mut self, rule: Rule, tok: usize, message: String) {
        let fn_idx = self.innermost_fn(tok);
        let line = self.lexed.tokens[tok].line;
        if self.allowed(fn_idx, line, rule) {
            return;
        }
        let function = fn_idx.map(|i| self.spans[i].name.clone());
        let key = match (rule, &function) {
            // Datapath rules are function-granular; the rest per line.
            (Rule::FloatArith | Rule::LossyCast, Some(f)) => format!("{rule:?}|fn:{f}"),
            _ => format!("{rule:?}|line:{line}"),
        };
        if !self.seen.insert(key) {
            return;
        }
        self.findings.push(Finding {
            rule,
            path: self.rel.to_owned(),
            line,
            function,
            message,
            new: true,
        });
    }
}

/// Runs every applicable rule over one file.
pub fn analyze(rel: &str, src: &str) -> Vec<Finding> {
    let lexed = lex(src);
    let Some(scope) = apply_directive(scope_for_path(rel), &lexed.comments) else {
        return Vec::new();
    };
    let spans = fn_spans(&lexed);
    let markers = parse_markers(&lexed.comments);
    let mut allows: BTreeMap<usize, BTreeSet<Rule>> = BTreeMap::new();
    for m in &markers {
        // A marker inside a fn body binds to that fn; a marker above a
        // fn binds to the next fn that starts at or below its line.
        let target = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.start_line <= m.line && m.line <= s.end_line)
            .max_by_key(|(_, s)| s.start_line)
            .or_else(|| {
                spans
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.start_line >= m.line)
                    .min_by_key(|(_, s)| s.start_line)
            })
            .map(|(i, _)| i);
        if let Some(i) = target {
            allows.entry(i).or_default().extend(m.rules.iter().copied());
        }
    }
    let mut ctx = FileCtx {
        rel,
        scope,
        lexed: &lexed,
        test_spans: cfg_test_spans(&lexed),
        spans,
        allows,
        markers,
        findings: Vec::new(),
        seen: BTreeSet::new(),
    };
    if ctx.scope.datapath {
        check_float_arith(&mut ctx);
        check_lossy_cast(&mut ctx);
    }
    if ctx.scope.hash_iter {
        check_hash_iter(&mut ctx);
    }
    if ctx.scope.wall_clock {
        check_wall_clock(&mut ctx);
    }
    if ctx.scope.crate_root {
        check_missing_forbid(&mut ctx);
    }
    ctx.findings.sort_by_key(|f| (f.line, f.rule));
    ctx.findings
}

/// L001 — native float arithmetic in datapath code.
fn check_float_arith(ctx: &mut FileCtx<'_>) {
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        if ctx.in_cfg_test(i) {
            continue;
        }
        // Transcendental / rounding method calls: `.sqrt()`, `.exp2()`, …
        if ctx.lexed.is_punct(i, '.') {
            if let Some(m) = ctx.lexed.ident(i + 1) {
                if FLOAT_METHODS.contains(&m) && ctx.lexed.is_punct(i + 2, '(') {
                    ctx.report(
                        Rule::FloatArith,
                        i,
                        format!("native float call `.{m}()` in a bit-exact datapath module"),
                    );
                    continue;
                }
            }
        }
        // Arithmetic operators with float evidence on either side.
        let Tok::Punct(op) = toks[i].tok else {
            continue;
        };
        if !matches!(op, '+' | '-' | '*' | '/') {
            continue;
        }
        // Binary position: something value-like must precede the operator.
        let prev_valuelike = i > 0
            && matches!(
                toks[i - 1].tok,
                Tok::Ident(_) | Tok::IntLit | Tok::FloatLit | Tok::Punct(')') | Tok::Punct(']')
            );
        if !prev_valuelike {
            continue;
        }
        let prev_float =
            is_float_evidence(&toks[i - 1].tok) || float_path_call_ends_at(ctx.lexed, i - 1);
        // Skip a compound-assignment `=` and a unary minus on the RHS.
        let mut k = i + 1;
        if ctx.lexed.is_punct(k, '=') {
            k += 1;
        }
        if ctx.lexed.is_punct(k, '-') {
            k += 1;
        }
        let next_float = toks.get(k).is_some_and(|t| is_float_evidence(&t.tok));
        if prev_float || next_float {
            ctx.report(
                Rule::FloatArith,
                i,
                format!("native float arithmetic `{op}` in a bit-exact datapath module"),
            );
        }
    }
}

/// Whether the `)` at `close` ends a call through an `f32`/`f64` path
/// (`f64::from(g(x))`, `f32::from_bits(b)`): walks back to the matching
/// `(` and reads the `f32 :: name` tokens before it.
fn float_path_call_ends_at(lexed: &Lexed, close: usize) -> bool {
    if !lexed.is_punct(close, ')') {
        return false;
    }
    let mut depth = 0usize;
    let mut open = close;
    loop {
        if lexed.is_punct(open, ')') {
            depth += 1;
        } else if lexed.is_punct(open, '(') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        if open == 0 {
            return false;
        }
        open -= 1;
    }
    open >= 4
        && lexed.ident(open - 1).is_some()
        && lexed.is_punct(open - 2, ':')
        && lexed.is_punct(open - 3, ':')
        && is_float_evidence(&lexed.tokens[open - 4].tok)
}

/// A float literal, or the `f32`/`f64` type name: as the operand before
/// an operator (`x as f64 + ..`) or the path that starts the operand
/// after it (`.. + f64::from(y)`, `.. * f32::from_bits(b)`), it marks
/// the operator as float arithmetic.
fn is_float_evidence(tok: &Tok) -> bool {
    match tok {
        Tok::FloatLit => true,
        Tok::Ident(s) => s == "f32" || s == "f64",
        _ => false,
    }
}

/// L004 — `as f32` casts in datapath code.
fn check_lossy_cast(ctx: &mut FileCtx<'_>) {
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        if ctx.in_cfg_test(i) {
            continue;
        }
        if ctx.lexed.ident(i) == Some("as") && ctx.lexed.ident(i + 1) == Some("f32") {
            // Require a value before `as` (excludes `use x as y` aliases,
            // which cannot alias the primitive type anyway).
            let prev_valuelike = i > 0
                && matches!(
                    toks[i - 1].tok,
                    Tok::Ident(_) | Tok::IntLit | Tok::FloatLit | Tok::Punct(')') | Tok::Punct(']')
                );
            if prev_valuelike {
                ctx.report(
                    Rule::LossyCast,
                    i,
                    "cast `as f32` can silently drop mantissa bits".to_owned(),
                );
            }
        }
    }
}

/// L002 — iteration over hash-ordered collections.
fn check_hash_iter(ctx: &mut FileCtx<'_>) {
    let toks = &ctx.lexed.tokens;
    // Pass 1: identifiers declared with a HashMap/HashSet type or
    // initialized from one (`x: HashMap<..>`, `m: Mutex<HashMap<..>>`,
    // `let y = HashMap::new()`).
    let mut hash_idents: BTreeSet<String> = BTreeSet::new();
    for i in 0..toks.len() {
        let Some(name) = ctx.lexed.ident(i) else {
            continue;
        };
        if name != "HashMap" && name != "HashSet" {
            continue;
        }
        if i >= 2 && ctx.lexed.is_punct(i - 1, '=') {
            if let Some(var) = ctx.lexed.ident(i - 2) {
                hash_idents.insert(var.to_owned());
                continue;
            }
        }
        // Walk back through wrapper-type tokens to the `name:` pattern.
        let mut j = i;
        while j >= 2 {
            j -= 1;
            match &toks[j].tok {
                Tok::Punct(':') => {
                    // Skip `::` path separators.
                    if ctx.lexed.is_punct(j - 1, ':') || ctx.lexed.is_punct(j + 1, ':') {
                        continue;
                    }
                    if let Some(var) = ctx.lexed.ident(j - 1) {
                        hash_idents.insert(var.to_owned());
                    }
                    break;
                }
                Tok::Punct('<') | Tok::Punct('&') | Tok::Ident(_) => continue,
                _ => break,
            }
        }
    }
    // Pass 2: iteration over those identifiers.
    for i in 0..toks.len() {
        if let Some(name) = ctx.lexed.ident(i) {
            if hash_idents.contains(name)
                && ctx.lexed.is_punct(i + 1, '.')
                && ctx
                    .lexed
                    .ident(i + 2)
                    .is_some_and(|m| ITER_METHODS.contains(&m))
                && ctx.lexed.is_punct(i + 3, '(')
            {
                let m = ctx.lexed.ident(i + 2).expect("checked");
                ctx.report(
                    Rule::HashIter,
                    i,
                    format!(
                        "`{name}.{m}()` iterates a hash-ordered collection; \
                         use BTreeMap/BTreeSet or sort explicitly"
                    ),
                );
            }
            if name == "for" {
                // `for <pat> in <expr> {`: flag hash idents in <expr>.
                let mut j = i + 1;
                let mut saw_in = false;
                while j < toks.len() && j < i + 64 {
                    match &toks[j].tok {
                        Tok::Ident(s) if s == "in" => saw_in = true,
                        Tok::Punct('{') if saw_in => break,
                        Tok::Punct(';') => break,
                        Tok::Ident(s) if saw_in && hash_idents.contains(s) => {
                            ctx.report(
                                Rule::HashIter,
                                j,
                                format!(
                                    "`for … in {s}` iterates a hash-ordered collection; \
                                     use BTreeMap/BTreeSet or sort explicitly"
                                ),
                            );
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
        }
    }
}

/// L003 — wall-clock reads outside the timing-report module.
fn check_wall_clock(ctx: &mut FileCtx<'_>) {
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        if let Some(name) = ctx.lexed.ident(i) {
            if name == "Instant" || name == "SystemTime" {
                ctx.report(
                    Rule::WallClock,
                    i,
                    format!(
                        "wall-clock type `{name}` outside {WALL_CLOCK_SANCTUARY}; \
                         results must not depend on time"
                    ),
                );
            }
        }
    }
}

/// L005 — crate root must carry `#![forbid(unsafe_code)]`.
fn check_missing_forbid(ctx: &mut FileCtx<'_>) {
    let toks = &ctx.lexed.tokens;
    let has = (0..toks.len()).any(|i| {
        ctx.lexed.ident(i) == Some("forbid")
            && ctx.lexed.is_punct(i + 1, '(')
            && ctx.lexed.ident(i + 2) == Some("unsafe_code")
    });
    if !has {
        ctx.findings.push(Finding {
            rule: Rule::MissingForbid,
            path: ctx.rel.to_owned(),
            line: 1,
            function: None,
            message: "crate root missing `#![forbid(unsafe_code)]`".to_owned(),
            new: true,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(rel: &str, src: &str) -> Vec<&'static str> {
        analyze(rel, src).iter().map(|f| f.rule.code()).collect()
    }

    const DATAPATH: &str = "crates/core/src/sfu.rs";

    #[test]
    fn scope_classification() {
        let core = scope_for_path("crates/core/src/adder.rs").unwrap();
        assert!(core.datapath && core.wall_clock && !core.crate_root);
        let cfg = scope_for_path("crates/core/src/config.rs").unwrap();
        assert!(!cfg.datapath, "config.rs precise mode is native by design");
        let report = scope_for_path("crates/bench/src/runner/report.rs").unwrap();
        assert!(!report.wall_clock, "the sanctioned Instant site");
        let root = scope_for_path("crates/qmc/src/lib.rs").unwrap();
        assert!(root.crate_root);
        let bin = scope_for_path("crates/bench/src/bin/repro.rs").unwrap();
        assert!(bin.crate_root);
        assert!(scope_for_path("vendor/rand/src/lib.rs").is_none());
        assert!(scope_for_path("crates/ihw-lint/tests/fixtures/x.rs").is_none());
    }

    #[test]
    fn l001_flags_float_ops_and_methods() {
        assert_eq!(
            codes(DATAPATH, "fn f(x: f64) -> f64 { 2.5 * x }"),
            vec!["L001"]
        );
        assert_eq!(
            codes(DATAPATH, "fn f(x: f64) -> f64 { x.sqrt() }"),
            vec!["L001"]
        );
        // Evidence through an `as f64` cast.
        assert_eq!(
            codes(DATAPATH, "fn f(x: u64) -> f64 { x as f64 / hidden() }"),
            vec!["L001"]
        );
        // Pure integer arithmetic is fine.
        assert!(codes(DATAPATH, "fn f(x: u64) -> u64 { (x >> 3) + 1 }").is_empty());
        // Comparisons against float literals are not arithmetic.
        assert!(codes(DATAPATH, "fn f(x: f64) -> bool { x > 0.5 }").is_empty());
    }

    #[test]
    fn l001_flags_float_paths_after_operators() {
        // An `f32`/`f64` path right after the operator, also behind a
        // unary minus, is float evidence.
        assert_eq!(
            codes(
                DATAPATH,
                "fn f(a: u32, b: u32) -> f64 { f64::from(a) + f64::from(b) }"
            ),
            vec!["L001"]
        );
        assert_eq!(
            codes(
                DATAPATH,
                "fn f(a: u32, b: u32) -> f32 { g(a) * f32::from_bits(b) }"
            ),
            vec!["L001"]
        );
        assert_eq!(
            codes(
                DATAPATH,
                "fn f(a: u32, b: u32) -> f32 { g(a) * -f32::from_bits(b) }"
            ),
            vec!["L001"]
        );
        assert_eq!(
            codes(
                DATAPATH,
                "fn f(mut x: f32, b: u32) -> f32 { x -= f32::from_bits(b); x }"
            ),
            vec!["L001"]
        );
        // A float-typed path that is not an operand of an operator is not
        // arithmetic, nor is an integer path after one.
        assert!(codes(DATAPATH, "fn f(a: u32) -> f32 { f32::from_bits(a) }").is_empty());
        assert!(codes(DATAPATH, "fn f(a: u32) -> u32 { g(a) + u32::from(a) }").is_empty());
    }

    #[test]
    fn l001_flags_float_path_calls_before_operators() {
        // The token before the operator is `)`: the call it closes is
        // float evidence when its path starts with `f32`/`f64`.
        assert_eq!(
            codes(DATAPATH, "fn f(x: u32) -> f64 { f64::from(g(x)) + (h(x)) }"),
            vec!["L001"]
        );
        assert_eq!(
            codes(DATAPATH, "fn f(b: u32) -> f32 { f32::from_bits(b) * g(b) }"),
            vec!["L001"]
        );
        assert!(codes(DATAPATH, "fn f(x: u32) -> u32 { u32::from(g(x)) + 1 }").is_empty());
        assert!(codes(DATAPATH, "fn f(x: u32) -> u32 { (g(x)) + 1 }").is_empty());
        assert!(codes(DATAPATH, "fn f(x: u32) -> u32 { x) + 1 }").is_empty());
    }

    #[test]
    fn l001_function_granular_and_marker_suppressed() {
        let src = "fn a() -> f64 { 1.0 + 2.0 * 3.0 }\n\
                   // ihw-lint: allow(float-arith) reason=linear approximation per Table 1\n\
                   fn b() -> f64 { 1.0 + 2.0 }\n";
        let f = analyze(DATAPATH, src);
        assert_eq!(f.len(), 1, "one finding per fn, marker suppresses b: {f:?}");
        assert_eq!(f[0].function.as_deref(), Some("a"));
    }

    #[test]
    fn marker_without_reason_is_ignored() {
        let src = "// ihw-lint: allow(float-arith)\nfn b() -> f64 { 1.0 + 2.0 }\n";
        assert_eq!(codes(DATAPATH, src), vec!["L001"]);
        let src = "// ihw-lint: allow(float-arith) reason=\nfn b() -> f64 { 1.0 + 2.0 }\n";
        assert_eq!(codes(DATAPATH, src), vec!["L001"]);
    }

    #[test]
    fn marker_inside_fn_body_binds_to_it() {
        let src = "fn b() -> f64 {\n    // ihw-lint: allow(float-arith) reason=curve fit\n    \
                   1.0 + 2.0\n}\n";
        assert!(codes(DATAPATH, src).is_empty());
    }

    #[test]
    fn line_local_marker_suppresses_top_level_findings() {
        let src = "pub const E: f64 = 1.0 / 9.0;\n";
        assert_eq!(codes(DATAPATH, src), vec!["L001"]);
        let src = "// ihw-lint: allow(float-arith) reason=compile-time closed form\n\
                   pub const E: f64 = 1.0 / 9.0;\n";
        assert!(codes(DATAPATH, src).is_empty());
    }

    #[test]
    fn cfg_test_exempt_from_datapath_rules() {
        let src = "#[cfg(test)]\nmod tests {\n    fn r(x: f64) -> f64 { x * 2.0 }\n}\n";
        assert!(codes(DATAPATH, src).is_empty());
    }

    #[test]
    fn l004_flags_narrowing_casts() {
        assert_eq!(
            codes(DATAPATH, "fn f(x: f64) -> f32 { x as f32 }"),
            vec!["L004"]
        );
        let src = "// ihw-lint: allow(lossy-cast) reason=frac is 10 bits, exact\n\
                   fn f(x: u32) -> f32 { x as f32 }\n";
        assert!(codes(DATAPATH, src).is_empty());
    }

    #[test]
    fn l002_flags_hash_iteration_not_lookup() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: HashMap<u32, u32>) -> u32 { *m.get(&1).unwrap() }\n";
        assert!(codes("crates/bench/src/table.rs", src).is_empty());
        let src = "use std::collections::HashMap;\n\
                   fn f(m: HashMap<u32, u32>) { for (k, v) in &m { println!(\"{k}{v}\"); } }\n";
        assert_eq!(codes("crates/bench/src/table.rs", src), vec!["L002"]);
        let src = "fn f() { let s: Mutex<HashMap<String, u32>> = make(); s.iter(); }\n";
        assert_eq!(codes("crates/bench/src/table.rs", src), vec!["L002"]);
        let src = "fn f() { let s = HashSet::new(); for x in s.drain() { go(x); } }\n";
        assert!(!codes("crates/bench/src/table.rs", src).is_empty());
    }

    #[test]
    fn l003_flags_wall_clock_everywhere_but_report() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        let f = analyze("crates/bench/src/bin/other.rs", src);
        assert!(f.iter().any(|f| f.rule == Rule::WallClock));
        assert!(analyze("crates/bench/src/runner/report.rs", src)
            .iter()
            .all(|f| f.rule != Rule::WallClock));
        // Duration is fine.
        let src = "use std::time::Duration;\nfn f() -> Duration { Duration::from_secs(1) }\n";
        assert!(analyze("crates/bench/src/lib.rs", src)
            .iter()
            .all(|f| f.rule != Rule::WallClock));
    }

    #[test]
    fn l005_checks_crate_roots_only() {
        let src = "pub mod x;\n";
        assert_eq!(codes("crates/qmc/src/lib.rs", src), vec!["L005"]);
        assert!(codes("crates/qmc/src/other.rs", src).is_empty());
        let src = "#![forbid(unsafe_code)]\npub mod x;\n";
        assert!(codes("crates/qmc/src/lib.rs", src).is_empty());
    }

    #[test]
    fn treat_as_directive_overrides_path_scope() {
        let src = "// ihw-lint: treat-as=core-datapath\nfn f() -> f64 { 1.0 + 2.0 }\n";
        assert_eq!(codes("somewhere/else.rs", src), vec!["L001"]);
        let src = "// ihw-lint: treat-as=skip\nuse std::time::Instant;\n";
        assert!(codes("crates/bench/src/lib.rs", src).is_empty());
        let src = "// ihw-lint: treat-as=crate-root\npub fn f() {}\n";
        assert_eq!(codes("anything.rs", src), vec!["L005"]);
    }
}
