//! Minimal deterministic JSON: a value type, a writer, and a parser.
//!
//! The zero-dependency policy rules out `serde`, but the observability
//! layer needs machine-readable output (`FabricReport::to_json`,
//! `BENCH_fabric.json`, Chrome traces) that is **byte-identical across
//! runs** so perf baselines can be diffed. This module provides exactly
//! that:
//!
//! * [`Json`] — a value tree whose objects preserve insertion order, so
//!   render order is fixed by construction, never by hash state;
//! * [`Json::render`] — compact rendering with stable float formatting
//!   (Rust's shortest-roundtrip `Display`, deterministic on every
//!   platform) and full string escaping;
//! * [`parse`] — a strict recursive-descent parser, used by the bench
//!   schema validator and by tests that re-read emitted reports.

use std::fmt::Write as _;

/// A JSON value. Object member order is insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers are exact up to 2^53; counters above that
    /// render via [`Json::U64`]).
    Num(f64),
    /// A `u64` rendered exactly (JSON numbers, not strings).
    U64(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an object from `(key, Option<value>)` pairs, preserving
    /// order and *omitting* `None` members — the shared
    /// "omit-when-default" pattern for optional report blocks (histogram
    /// `saturated` flags, timeline blocks) so absent data never renders
    /// as a misleading default value.
    pub fn obj_sparse(pairs: impl IntoIterator<Item = (impl Into<String>, Option<Json>)>) -> Json {
        Json::Obj(
            pairs
                .into_iter()
                .filter_map(|(k, v)| v.map(|v| (k.into(), v)))
                .collect(),
        )
    }

    /// Builds an array.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up a member of an object (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::Num(f) if *f >= 0.0 && f.fract() == 0.0 && *f <= u64::MAX as f64 => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(f) => Some(*f),
            Json::U64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Compact, deterministic rendering (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Pretty rendering with two-space indentation (still deterministic).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(f) => write_f64(out, *f),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Writes a float deterministically. NaN/∞ are not valid JSON; they are
/// mapped to `null` rather than emitting an unparsable token.
fn write_f64(out: &mut String, f: f64) {
    if f.is_finite() {
        let _ = write!(out, "{f}");
        // `1.0f64` displays as "1": keep it a number, that's fine.
    } else {
        out.push_str("null");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse failure, with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (trailing whitespace allowed).
///
/// # Errors
///
/// [`ParseError`] on malformed input or trailing garbage.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters after document"));
    }
    Ok(value)
}

fn err(at: usize, msg: impl Into<String>) -> ParseError {
    ParseError {
        at,
        msg: msg.into(),
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), ParseError> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, format!("expected `{}`", c as char)))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, ParseError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(err(*pos, format!("expected `{lit}`")))
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    expect(b, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        pairs.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(err(*pos, "expected `,` or `}` in object")),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected `,` or `]` in array")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(b, pos, b'"')?;
    let mut s = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(s);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'b') => s.push('\u{8}'),
                    Some(b'f') => s.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        // Surrogates are rejected rather than paired; the
                        // writer never emits them.
                        let c = char::from_u32(code)
                            .ok_or_else(|| err(*pos, "invalid \\u code point"))?;
                        s.push(c);
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next `"` or `\` in one slice.
                // Both are ASCII, so the run ends on a character boundary
                // and validating it alone keeps the parse linear.
                let start = *pos;
                while !matches!(b.get(*pos), None | Some(b'"' | b'\\')) {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&b[start..*pos])
                    .map_err(|_| err(start, "invalid UTF-8"))?;
                s.push_str(run);
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ASCII digits");
    if text.is_empty() || text == "-" {
        return Err(err(start, "expected a value"));
    }
    // Exact u64 when possible, so counters round-trip bit-for-bit.
    if let Ok(v) = text.parse::<u64>() {
        return Ok(Json::U64(v));
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err(start, format!("bad number `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_compact_and_ordered() {
        let j = Json::obj([
            ("b", Json::U64(2)),
            ("a", Json::arr([Json::Bool(true), Json::Null])),
            ("s", Json::str("x\"y\n")),
        ]);
        assert_eq!(j.render(), r#"{"b":2,"a":[true,null],"s":"x\"y\n"}"#);
    }

    #[test]
    fn obj_sparse_omits_none_members() {
        let j = Json::obj_sparse([
            ("always", Some(Json::U64(1))),
            ("off", None),
            ("on", Some(Json::Bool(true))),
        ]);
        assert_eq!(j.render(), r#"{"always":1,"on":true}"#);
        assert!(j.get("off").is_none());
    }

    #[test]
    fn floats_render_deterministically() {
        let mut s = String::new();
        write_f64(&mut s, 0.1 + 0.2);
        assert_eq!(s, "0.30000000000000004");
        s.clear();
        write_f64(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }

    #[test]
    fn roundtrip_through_parser() {
        let j = Json::obj([
            ("cycles", Json::U64(u64::MAX)),
            ("util", Json::Num(0.1875)),
            ("names", Json::arr([Json::str("a b"), Json::str("π")])),
            ("nested", Json::obj([("empty", Json::Obj(vec![]))])),
        ]);
        let text = j.render();
        assert_eq!(parse(&text).unwrap(), j);
        // Pretty form parses back to the same tree.
        assert_eq!(parse(&j.render_pretty()).unwrap(), j);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    /// Characters that exercise every string path: plain ASCII, the
    /// two run terminators, named escapes, bare control characters and
    /// multi-byte UTF-8 of every width.
    const PALETTE: [char; 16] = [
        'a', 'Z', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{1}', '\u{1f}', 'é', 'π',
        '€', '𝄞',
    ];

    crate::props! {
        cases = 256;

        /// Render → parse is the identity on strings, and so is a
        /// hand-written encoding that spells random characters as `\u`
        /// escapes.
        fn strings_roundtrip_through_parser(g) {
            let s: String = g
                .vec(0usize..40, |g| PALETTE[g.gen_range(0usize..PALETTE.len())])
                .into_iter()
                .collect();
            let doc = Json::arr([Json::str(&s), Json::obj([(s.as_str(), Json::str(&s))])]);
            assert_eq!(parse(&doc.render()).unwrap(), doc, "{s:?}");

            let mut text = String::from("\"");
            for c in s.chars() {
                let spelled = (c as u32) < 0x10000 && g.gen_bool(0.5);
                match c {
                    _ if spelled => {
                        let _ = write!(text, "\\u{:04x}", c as u32);
                    }
                    '"' => text.push_str("\\\""),
                    '\\' => text.push_str("\\\\"),
                    c => text.push(c),
                }
            }
            text.push('"');
            assert_eq!(parse(&text).unwrap(), Json::str(&s), "{text:?}");
        }
    }

    #[test]
    fn u64_counters_roundtrip_exactly() {
        let big = (1u64 << 63) + 12345;
        let text = Json::U64(big).render();
        assert_eq!(parse(&text).unwrap().as_u64(), Some(big));
    }

    #[test]
    fn accessors() {
        let j = parse(r#"{"a": 3, "b": 1.5, "c": "s", "d": [1]}"#).unwrap();
        assert_eq!(j.get("a").unwrap().as_u64(), Some(3));
        assert_eq!(j.get("b").unwrap().as_f64(), Some(1.5));
        assert_eq!(j.get("c").unwrap().as_str(), Some("s"));
        assert_eq!(j.get("d").unwrap().as_arr().unwrap().len(), 1);
        assert!(j.get("zzz").is_none());
    }
}
