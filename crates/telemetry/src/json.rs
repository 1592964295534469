//! Minimal JSON encoding and the matching reader.
//!
//! The workspace has no registry access, so instead of `serde_json` the
//! exporters build JSON through these helpers. The encoder is
//! intentionally small: strings, finite numbers (non-finite floats encode
//! as `null`), booleans, and the object/array glue the sinks need. The
//! [`parse`] function is the matching reader: it produces a [`Json`] value
//! tree (object member order preserved) so the bench suite can load
//! records from `BENCH_history.jsonl` back without a JSON library. It runs
//! in time linear in the document; [`validate`] is the same reader with
//! the tree discarded.

use std::fmt::Write as _;

/// Maximum container nesting depth accepted by [`parse`] and [`validate`].
///
/// The reader is recursive, so without a cap an adversarial document of
/// a few hundred kilobytes of `[` would overflow the stack — an abort, not
/// a catchable panic. 96 levels is far beyond anything the workspace
/// emits (bench records nest 3 deep) while keeping worst-case stack use
/// trivially small.
pub const MAX_DEPTH: usize = 96;

/// Encodes a string as a JSON string literal (quoted, escaped).
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Encodes a float: finite values in shortest round-trip form, non-finite
/// as `null` (JSON has no Inf/NaN).
pub fn number(x: f64) -> String {
    if x.is_finite() {
        let mut s = format!("{x}");
        // `{}` on an integral f64 prints no decimal point; keep it — JSON
        // numbers do not distinguish. But `1e300` style stays as-is.
        if s == "-0" {
            s = "0".into();
        }
        s
    } else {
        "null".into()
    }
}

/// Encodes a [`crate::Value`] as a JSON value.
pub fn value(v: &crate::Value) -> String {
    match v {
        crate::Value::Bool(b) => b.to_string(),
        crate::Value::Int(i) => i.to_string(),
        crate::Value::UInt(u) => u.to_string(),
        crate::Value::Float(x) => number(*x),
        crate::Value::Str(s) => string(s),
    }
}

/// Joins pre-encoded `"key": value` members into an object literal.
pub fn object(members: &[(String, String)]) -> String {
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("{}:{v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Joins pre-encoded values into an array literal.
pub fn array(values: &[String]) -> String {
    format!("[{}]", values.join(","))
}

/// Validates that `text` is one well-formed JSON value (with optional
/// surrounding whitespace). Used by tests and the CI smoke check to assert
/// exporter output parses without shipping a JSON library.
pub fn validate(text: &str) -> Result<(), String> {
    parse(text).map(|_| ())
}

/// A parsed JSON value.
///
/// Object members keep their source order (our exporters emit sorted keys,
/// so re-encoding a parsed document reproduces the original bytes — the
/// property the bench suite's schema round-trip test pins).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also what non-finite numbers encode to).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; integers up to 2^53 are exact).
    Num(f64),
    /// A string with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, member order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up an object member by key (`None` for non-objects/missing).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, with `null` read as NaN (the encoder maps
    /// non-finite floats to `null`, so this inverts [`number`]).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as an unsigned integer, when it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => Some(*x as u64),
            _ => None,
        }
    }

    /// The string payload of a `Str` value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload of a `Bool` value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements of an `Arr` value.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members of an `Obj` value, in source order.
    pub fn members(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Parses one JSON document into a [`Json`] value.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let pos = skip_ws(bytes, 0);
    let (value, pos) = read_value(bytes, pos, MAX_DEPTH)?;
    let pos = skip_ws(bytes, pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn read_value(b: &[u8], pos: usize, depth: usize) -> Result<(Json, usize), String> {
    match b.get(pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == 0 => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"))
        }
        Some(b'{') => read_object(b, pos + 1, depth - 1),
        Some(b'[') => read_array(b, pos + 1, depth - 1),
        Some(b'"') => {
            let (s, p) = read_string(b, pos + 1)?;
            Ok((Json::Str(s), p))
        }
        Some(b't') => Ok((Json::Bool(true), parse_literal(b, pos, "true")?)),
        Some(b'f') => Ok((Json::Bool(false), parse_literal(b, pos, "false")?)),
        Some(b'n') => Ok((Json::Null, parse_literal(b, pos, "null")?)),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let end = parse_number(b, pos)?;
            let text = std::str::from_utf8(&b[pos..end]).map_err(|_| "non-utf8 number")?;
            let x: f64 = text
                .parse()
                .map_err(|e| format!("unparseable number {text:?}: {e}"))?;
            Ok((Json::Num(x), end))
        }
        Some(c) => Err(format!("unexpected byte {c:#x} at {pos}")),
    }
}

fn read_string(b: &[u8], mut pos: usize) -> Result<(String, usize), String> {
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote, backslash or control byte in
        // one slice: it ends on an ASCII byte, so on a char boundary.
        let end = b[pos..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
            .map_or(b.len(), |n| pos + n);
        out.push_str(std::str::from_utf8(&b[pos..end]).map_err(|_| "non-utf8 string")?);
        pos = end;
        match b.get(pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => return Ok((out, pos + 1)),
            Some(b'\\') => {
                match b.get(pos + 1) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        // Exactly four hex digits: `from_str_radix` alone
                        // would also take a leading `+`.
                        let code = b
                            .get(pos + 2..pos + 6)
                            .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                            .and_then(|hex| std::str::from_utf8(hex).ok())
                            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        // Surrogates are not emitted by our encoder; map
                        // them to U+FFFD rather than erroring.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        pos += 6;
                        continue;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                pos += 2;
            }
            Some(c) => return Err(format!("raw control byte {c:#x} in string at {pos}")),
        }
    }
}

fn read_object(b: &[u8], mut pos: usize, depth: usize) -> Result<(Json, usize), String> {
    let mut members = Vec::new();
    pos = skip_ws(b, pos);
    if b.get(pos) == Some(&b'}') {
        return Ok((Json::Obj(members), pos + 1));
    }
    loop {
        pos = skip_ws(b, pos);
        if b.get(pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        let (key, p) = read_string(b, pos + 1)?;
        pos = skip_ws(b, p);
        if b.get(pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        pos = skip_ws(b, pos + 1);
        let (value, p) = read_value(b, pos, depth)?;
        members.push((key, value));
        pos = skip_ws(b, p);
        match b.get(pos) {
            Some(b',') => pos += 1,
            Some(b'}') => return Ok((Json::Obj(members), pos + 1)),
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn read_array(b: &[u8], mut pos: usize, depth: usize) -> Result<(Json, usize), String> {
    let mut items = Vec::new();
    pos = skip_ws(b, pos);
    if b.get(pos) == Some(&b']') {
        return Ok((Json::Arr(items), pos + 1));
    }
    loop {
        pos = skip_ws(b, pos);
        let (value, p) = read_value(b, pos, depth)?;
        items.push(value);
        pos = skip_ws(b, p);
        match b.get(pos) {
            Some(b',') => pos += 1,
            Some(b']') => return Ok((Json::Arr(items), pos + 1)),
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn skip_ws(b: &[u8], mut pos: usize) -> usize {
    while pos < b.len() && matches!(b[pos], b' ' | b'\t' | b'\n' | b'\r') {
        pos += 1;
    }
    pos
}

fn parse_literal(b: &[u8], pos: usize, lit: &str) -> Result<usize, String> {
    if b[pos..].starts_with(lit.as_bytes()) {
        Ok(pos + lit.len())
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], mut pos: usize) -> Result<usize, String> {
    let start = pos;
    if b.get(pos) == Some(&b'-') {
        pos += 1;
    }
    let digits = |b: &[u8], mut p: usize| -> usize {
        while p < b.len() && b[p].is_ascii_digit() {
            p += 1;
        }
        p
    };
    let after_int = digits(b, pos);
    if after_int == pos {
        return Err(format!("number without digits at byte {start}"));
    }
    pos = after_int;
    if b.get(pos) == Some(&b'.') {
        let after_frac = digits(b, pos + 1);
        if after_frac == pos + 1 {
            return Err(format!("decimal point without digits at byte {pos}"));
        }
        pos = after_frac;
    }
    if matches!(b.get(pos), Some(b'e' | b'E')) {
        let mut p = pos + 1;
        if matches!(b.get(p), Some(b'+' | b'-')) {
            p += 1;
        }
        let after_exp = digits(b, p);
        if after_exp == p {
            return Err(format!("exponent without digits at byte {pos}"));
        }
        pos = after_exp;
    }
    Ok(pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_specials() {
        assert_eq!(string("a\"b"), r#""a\"b""#);
        assert_eq!(string("line\nbreak"), r#""line\nbreak""#);
        assert_eq!(string("back\\slash"), r#""back\\slash""#);
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn numbers_handle_non_finite() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(-0.0), "0");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(f64::NAN), "null");
    }

    #[test]
    fn object_and_array_compose() {
        let obj = object(&[
            ("a".into(), "1".into()),
            ("b".into(), array(&["true".into(), string("x")])),
        ]);
        assert_eq!(obj, r#"{"a":1,"b":[true,"x"]}"#);
        validate(&obj).unwrap();
    }

    #[test]
    fn validator_accepts_well_formed_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            r#"{"k":[1,2,{"n":null}],"s":"é\n"}"#,
            "  [1, 2]  ",
        ] {
            validate(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "01a",
            "\"unterminated",
            "{} trailing",
            "1.",
            "1e",
            "nul",
        ] {
            assert!(validate(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn parse_reads_back_what_the_encoder_writes() {
        let doc = object(&[
            ("name".into(), string("sweep")),
            ("count".into(), "3".into()),
            ("ratio".into(), number(1.25)),
            ("nan".into(), number(f64::NAN)),
            ("ok".into(), "true".into()),
            ("xs".into(), array(&["1".into(), "2.5".into()])),
        ]);
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("sweep"));
        assert_eq!(v.get("count").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("ratio").unwrap().as_f64(), Some(1.25));
        assert!(v.get("nan").unwrap().as_f64().unwrap().is_nan());
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        let xs = v.get("xs").unwrap().as_array().unwrap();
        assert_eq!(xs.len(), 2);
        assert_eq!(xs[1].as_f64(), Some(2.5));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parse_preserves_member_order() {
        let v = parse(r#"{"z":1,"a":2,"m":3}"#).unwrap();
        let keys: Vec<&str> = v
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["z", "a", "m"]);
    }

    #[test]
    fn parse_decodes_escapes_and_unicode() {
        let v = parse(r#""a\n\t\"\\ Aé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\"\\ Aé"));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "1e", "{} x", "\"oops"] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn parse_as_u64_rejects_fractions_and_negatives() {
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-2").unwrap().as_u64(), None);
        assert_eq!(parse("0").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn value_encoding_matches_variant() {
        assert_eq!(value(&crate::Value::Bool(true)), "true");
        assert_eq!(value(&crate::Value::Int(-3)), "-3");
        assert_eq!(value(&crate::Value::UInt(9)), "9");
        assert_eq!(value(&crate::Value::Float(0.25)), "0.25");
        assert_eq!(value(&crate::Value::Str("s".into())), "\"s\"");
    }
}
