//! The one JSON writer behind every `ihw-*` document.
//!
//! An emitter builds a [`Json`] value and calls [`Json::render`]. The
//! writer has one rule for each thing and no options:
//!
//! * strings escape `"`, `\`, `\n`, `\t`, `\r`, and other control
//!   characters as `\u00XX`;
//! * integers and bools are written plainly;
//! * a finite float is written with `{}` (shortest round-trip form, never
//!   an exponent); a NaN or an infinity is written as `null`;
//! * an array puts one element per line (an empty one renders as `[`,
//!   newline, indent, `]`); an object that directly holds an array puts
//!   one field per line; every other object renders on one line as
//!   `{ "k": v, "k": v }`; the document ends in a newline.
//!
//! The layout rule is what keeps one-line findings and rows greppable
//! while the document itself stays diffable line by line.

/// A JSON value, with object fields kept in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, written plainly.
    Int(i128),
    /// A float: `{}` when finite, `null` otherwise.
    Num(f64),
    /// A string, escaped on output.
    Str(String),
    /// An array, one element per line.
    Arr(Vec<Json>),
    /// An object, fields in the order given.
    Obj(Vec<(String, Json)>),
}

/// An object from `(key, value)` pairs, in order.
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

impl Json {
    /// Renders the value as a document: the layout rule above, then a
    /// final newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(x) if x.is_finite() => out.push_str(&x.to_string()),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 2);
                    item.write(out, indent + 2);
                }
                newline(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if fields.iter().any(|(_, v)| matches!(v, Json::Arr(_))) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 2);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 2);
                }
                newline(out, indent);
                out.push('}');
            }
            Json::Obj(fields) => {
                out.push_str("{ ");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent);
                }
                out.push_str(" }");
            }
        }
    }
}

fn newline(out: &mut String, indent: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', indent));
}

/// Writes `s` as a quoted, escaped JSON string literal.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<u32> for Json {
    fn from(i: u32) -> Self {
        Json::Int(i.into())
    }
}

impl From<u64> for Json {
    fn from(i: u64) -> Self {
        Json::Int(i.into())
    }
}

impl From<usize> for Json {
    fn from(i: usize) -> Self {
        Json::Int(i as i128)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Num(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quote_backslash_newline_and_control_bytes() {
        let doc = Json::from("a\"b\\c\nd\te\rf\u{1}g").render();
        assert_eq!(doc, "\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g\"\n");
    }

    #[test]
    fn non_finite_floats_become_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::from(x).render(), "null\n");
        }
        assert_eq!(Json::from(0.5).render(), "0.5\n");
        assert_eq!(Json::from(1e-3).render(), "0.001\n");
        assert_eq!(Json::from(Some(3u32)).render(), "3\n");
        assert_eq!(Json::from(None::<u32>).render(), "null\n");
    }

    #[test]
    fn empty_array_puts_its_bracket_on_the_next_line() {
        let doc = obj([("total", 0u32.into()), ("findings", Json::Arr(vec![]))]).render();
        assert_eq!(doc, "{\n  \"total\": 0,\n  \"findings\": [\n  ]\n}\n");
    }

    #[test]
    fn objects_holding_arrays_go_one_field_per_line() {
        let row = |k: &str, x: f64| obj([("kernel", k.into()), ("x", x.into())]);
        let kernel = obj([
            ("kernel", "saxpy".into()),
            ("pareto", Json::Arr(vec![row("a", 1.5), row("b", 2.0)])),
        ]);
        let doc = obj([
            ("schema", "s/1".into()),
            ("flag", true.into()),
            (
                "cache",
                obj([("hits", 3u64.into()), ("misses", 9u64.into())]),
            ),
            ("kernels", Json::Arr(vec![kernel])),
        ])
        .render();
        assert_eq!(
            doc,
            "{\n  \"schema\": \"s/1\",\n  \"flag\": true,\n  \
             \"cache\": { \"hits\": 3, \"misses\": 9 },\n  \"kernels\": [\n    {\n      \
             \"kernel\": \"saxpy\",\n      \"pareto\": [\n        \
             { \"kernel\": \"a\", \"x\": 1.5 },\n        { \"kernel\": \"b\", \"x\": 2 }\n      \
             ]\n    }\n  ]\n}\n"
        );
    }
}
