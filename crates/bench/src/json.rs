//! Minimal JSON document model, writer and parser.
//!
//! The bench binaries emit machine-readable reports (`--json`, sweep
//! output) and read the golden corpus back for verification. The
//! workspace is built to compile with no external crates, so this module
//! provides the small subset of JSON the reports need: objects with
//! insertion-ordered keys, arrays, strings with full escaping, and
//! numbers that round-trip (`u64` exactly via [`Json::UInt`], `f64` via
//! Rust's shortest-representation formatter). [`Json::parse`] inverts
//! the writer: any document this module emits parses back to an equal
//! value (modulo non-finite floats, which serialize as `null`).
//!
//! ```
//! use bench_harness::json::Json;
//! let doc = Json::object([
//!     ("policy", Json::str("CoEfficient")),
//!     ("seeds", Json::array([Json::from(1u64), Json::from(2u64)])),
//! ]);
//! assert_eq!(doc.to_string(), r#"{"policy":"CoEfficient","seeds":[1,2]}"#);
//! ```

use std::fmt;

/// A JSON value. Object keys keep insertion order, so emitted documents
/// are stable across runs (a requirement for diffing sweep reports).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, emitted exactly (no float rounding at 2^53).
    UInt(u64),
    /// A float, emitted with Rust's shortest round-trip formatting.
    /// Non-finite values serialize as `null` (JSON has no NaN/Infinity).
    Float(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn array(values: impl IntoIterator<Item = Json>) -> Json {
        Json::Array(values.into_iter().collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::String(s.into())
    }

    /// Parses a JSON document (the inverse of the writer).
    ///
    /// Numbers without sign, fraction or exponent parse as [`Json::UInt`]
    /// (exact for the full `u64` range — fingerprints and seeds survive
    /// the round trip); everything else parses as [`Json::Float`].
    ///
    /// Arrays and objects may nest at most [`MAX_DEPTH`] levels deep, so
    /// hostile input fails with an error instead of exhausting the stack.
    /// An object may name a key once: [`get`](Self::get) reads the first
    /// of a repeated key, so a second one would pass unread.
    ///
    /// # Errors
    /// A [`JsonParseError`] with the byte offset of the first defect.
    pub fn parse(input: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// Member lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` (exact integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64` ([`Json::UInt`] widens; [`Json::Null`] reads as
    /// NaN, inverting the writer's NaN → `null` convention).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(v) => Some(*v),
            Json::UInt(v) => Some(*v as f64),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Array(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Object(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&"  ".repeat(indent + 1));
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            other => out.push_str(&other.to_string()),
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::String(v.to_owned())
    }
}

// Typed field access for the readers of recorded documents (the golden
// corpus and the cycles baseline): each names the key it failed on.

/// The value at `key`.
pub(crate) fn want<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

/// The unsigned integer at `key`.
pub(crate) fn want_u64(doc: &Json, key: &str) -> Result<u64, String> {
    want(doc, key)?
        .as_u64()
        .ok_or_else(|| format!("{key:?} is not an unsigned integer"))
}

/// The number at `key`.
pub(crate) fn want_f64(doc: &Json, key: &str) -> Result<f64, String> {
    want(doc, key)?
        .as_f64()
        .ok_or_else(|| format!("{key:?} is not a number"))
}

/// The string at `key`.
pub(crate) fn want_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    want(doc, key)?
        .as_str()
        .ok_or_else(|| format!("{key:?} is not a string"))
}

/// The array at `key`.
pub(crate) fn want_array<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    want(doc, key)?
        .as_array()
        .ok_or_else(|| format!("{key:?} is not an array"))
}

/// How many arrays and objects [`Json::parse`] accepts nested inside each
/// other. Every document the tools write nests under ten levels.
pub const MAX_DEPTH: usize = 128;

/// A parse failure: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What the parser expected or rejected.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::String),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("arrays and objects nest deeper than 128 levels"));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let at = self.pos;
            let key = self.string()?;
            if pairs.iter().any(|(earlier, _)| *earlier == key) {
                return Err(JsonParseError {
                    offset: at,
                    message: format!("duplicate key {key:?}"),
                });
            }
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain UTF-8 up to the next quote/escape.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let run = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?;
                out.push_str(run);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonParseError> {
        let c = self.peek().ok_or_else(|| self.err("truncated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: a second \uXXXX must follow.
                    if self.peek() != Some(b'\\') {
                        return Err(self.err("lone high surrogate"));
                    }
                    self.pos += 1;
                    if self.peek() != Some(b'u') {
                        return Err(self.err("lone high surrogate"));
                    }
                    self.pos += 1;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))?
            }
            _ => return Err(self.err("unknown escape character")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let d = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let nibble = match d {
                b'0'..=b'9' => u32::from(d - b'0'),
                b'a'..=b'f' => u32::from(d - b'a') + 10,
                b'A'..=b'F' => u32::from(d - b'A') + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            v = (v << 4) | nibble;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if text.is_empty() || text == "-" {
            return Err(self.err("malformed number"));
        }
        if !fractional && !text.starts_with('-') {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| JsonParseError {
                offset: start,
                message: "malformed number".into(),
            })
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::UInt(v) => write!(f, "{v}"),
            Json::Float(v) if v.is_finite() => {
                // Guarantee a float-typed literal: `1.0` rather than `1`,
                // and `1e15` rather than a digit run that reads back as
                // a `UInt`.
                if v.fract() != 0.0 {
                    write!(f, "{v}")
                } else if v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v:e}")
                }
            }
            Json::Float(_) => f.write_str("null"),
            Json::String(s) => {
                let mut out = String::new();
                write_escaped(&mut out, s);
                f.write_str(&out)
            }
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Object(pairs) => {
                f.write_str("{")?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut out = String::new();
                    write_escaped(&mut out, key);
                    write!(f, "{out}:{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_accessors_name_the_key_they_fail_on() {
        let doc = Json::parse(r#"{"n":-1,"s":1,"a":"x","f":"y"}"#).unwrap();
        assert_eq!(want(&doc, "gone").unwrap_err(), r#"missing key "gone""#);
        assert_eq!(
            want_u64(&doc, "n").unwrap_err(),
            r#""n" is not an unsigned integer"#
        );
        assert_eq!(want_f64(&doc, "f").unwrap_err(), r#""f" is not a number"#);
        assert_eq!(want_str(&doc, "s").unwrap_err(), r#""s" is not a string"#);
        assert_eq!(want_array(&doc, "a").unwrap_err(), r#""a" is not an array"#);
    }

    #[test]
    fn scalars_serialize() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::UInt(u64::MAX).to_string(), "18446744073709551615");
        assert_eq!(Json::Float(0.25).to_string(), "0.25");
        assert_eq!(Json::Float(3.0).to_string(), "3.0");
        assert_eq!(Json::Float(2e15).to_string(), "2e15");
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
        assert_eq!(Json::Float(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::str("a\"b\\c\nd").to_string(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::str("\u{1}").to_string(), "\"\\u0001\"");
    }

    #[test]
    fn nested_documents() {
        let doc = Json::object([
            ("name", Json::str("sweep")),
            ("cells", Json::array([Json::from(1u64), Json::Null])),
            ("nested", Json::object([("ok", Json::from(true))])),
        ]);
        assert_eq!(
            doc.to_string(),
            r#"{"name":"sweep","cells":[1,null],"nested":{"ok":true}}"#
        );
    }

    #[test]
    fn object_keys_keep_insertion_order() {
        let doc = Json::object([("z", Json::UInt(1)), ("a", Json::UInt(2))]);
        assert_eq!(doc.to_string(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn pretty_round_trips_structure() {
        let doc = Json::object([("xs", Json::array([Json::UInt(1), Json::UInt(2)]))]);
        let pretty = doc.pretty();
        assert!(pretty.contains("\"xs\": [\n"));
        assert!(pretty.ends_with('}'));
    }

    #[test]
    fn empty_containers_stay_compact_in_pretty() {
        let doc = Json::object([("a", Json::Array(vec![])), ("o", Json::Object(vec![]))]);
        assert_eq!(doc.pretty(), "{\n  \"a\": [],\n  \"o\": {}\n}");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let doc = Json::object([
            ("schema", Json::str("example-schema/1")),
            ("fingerprint", Json::str("00ffee0123456789")),
            ("seed", Json::UInt(u64::MAX)),
            ("ratio", Json::Float(0.125)),
            ("neg", Json::Float(-3.5)),
            ("whole", Json::Float(3.0)),
            ("flag", Json::Bool(false)),
            ("none", Json::Null),
            (
                "cells",
                Json::array([Json::UInt(1), Json::str("a\"b\\c\nd"), Json::Object(vec![])]),
            ),
        ]);
        for text in [doc.to_string(), doc.pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), doc, "failed on: {text}");
        }
    }

    #[test]
    fn parse_scalars_and_numbers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::UInt(u64::MAX),
            "u64::MAX must parse exactly, not via f64"
        );
        assert_eq!(Json::parse("-2").unwrap(), Json::Float(-2.0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::parse("2.5").unwrap(), Json::Float(2.5));
        // Beyond u64: falls back to float.
        assert_eq!(
            Json::parse("99999999999999999999").unwrap(),
            Json::Float(1e20)
        );
    }

    #[test]
    fn parse_string_escapes() {
        assert_eq!(
            Json::parse(r#""a\"b\\c\ndAé""#).unwrap(),
            Json::str("a\"b\\c\ndAé")
        );
        // Surrogate pair → astral char.
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::str("\u{1F600}"));
    }

    #[test]
    fn parse_rejects_defects() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\" 1}",
            "nan",
            "-",
            r#""\ud83d""#,
            r#""\q""#,
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"k\":".repeat(n) + "0" + &"}".repeat(n);
        assert!(Json::parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&objects(MAX_DEPTH)).is_ok());
        let err = Json::parse(&arrays(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH, "{err}");
        assert!(err.message.contains("128"), "{err}");
        assert!(Json::parse(&objects(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn accessors_navigate_documents() {
        let doc = Json::parse(r#"{"a":{"b":[1,2.5,"x",null]},"f":true}"#).unwrap();
        let b = doc.get("a").and_then(|a| a.get("b")).unwrap();
        let items = b.as_array().unwrap();
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1].as_f64(), Some(2.5));
        assert_eq!(items[2].as_str(), Some("x"));
        assert!(items[3].as_f64().unwrap().is_nan(), "null reads as NaN");
        assert_eq!(doc.get("f").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(items[0].as_str(), None);
    }
}
