//! Dependency-free JSON: a minimal value tree with a strict parser and a
//! canonical writer.
//!
//! Shared by the HTTP serving frontend (`/v1/generate` request bodies,
//! `/stats` serialization), its loopback client, and the `benchmark/`
//! package (results and traces) — all need exactly this much JSON and none
//! may pull in a dependency, so the implementation lives once, here, with
//! round-trip tests.
//!
//! The parser is written for untrusted network input: it enforces a
//! nesting-depth cap (no stack overflow on `[[[[…`), rejects trailing
//! garbage, and surfaces every failure as a positioned [`JsonError`]
//! instead of a panic.
//!
//! # Example
//!
//! ```
//! use sparseinfer::json::Json;
//!
//! let value = Json::parse(r#"{"prompt": [1, 2], "max_new": 8}"#).unwrap();
//! assert_eq!(value.get("max_new").and_then(Json::as_f64), Some(8.0));
//! let back = value.to_json();
//! assert_eq!(Json::parse(&back).unwrap(), value);
//! ```

use std::fmt;

/// Maximum nesting depth the parser accepts. Deep enough for any real
/// payload in this workspace; shallow enough that hostile `[[[[…` input
/// fails as data instead of overflowing the stack.
pub const MAX_DEPTH: usize = 64;

/// A JSON value.
///
/// Objects preserve insertion order (they are association lists, not
/// maps): serialization is deterministic and duplicate keys — illegal in
/// the payloads this workspace produces — resolve to the first occurrence
/// on [`get`](Self::get).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`; integers up to 2^53
    /// round-trip exactly).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, as an insertion-ordered association list.
    Object(Vec<(String, Json)>),
}

/// A positioned JSON parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses `input` as one complete JSON document (trailing whitespace
    /// allowed, trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// A positioned [`JsonError`] on any syntax violation, number
    /// overflow, bad escape, or nesting beyond [`MAX_DEPTH`].
    pub fn parse(input: &str) -> Result<Self, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Serializes the value as compact JSON. [`parse`](Self::parse) of the
    /// result reproduces the value exactly (modulo `f64` formatting of
    /// non-integer numbers, which round-trips through the shortest
    /// representation Rust prints).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(n) => write_number(*n, out),
            Json::String(s) => write_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Looks up a field of an object (first occurrence); `None` for other
    /// value kinds or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a [`Json::Number`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if this is a number that is
    /// one (no fractional part, within `u64` range) — the shape every
    /// count field in this workspace's payloads has.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is a [`Json::String`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is a [`Json::Array`].
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Writes `n` the way every record in this workspace expects: integers
/// without a fractional tail, everything else via Rust's shortest `f64`
/// formatting. Non-finite numbers have no JSON form and degrade to `null`.
fn write_number(n: f64, out: &mut String) {
    use fmt::Write;
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(s: &str, out: &mut String) {
    use fmt::Write;
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
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

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&first) {
                                // Surrogate pair: the low half must follow.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let second = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&second) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let code =
                                        0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00);
                                    char::from_u32(code)
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else {
                                char::from_u32(first)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                            // hex4 advanced past the digits already; the
                            // unconditional advance below is for the
                            // single-byte escapes, so compensate.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(_) => {
                    // Multi-byte UTF-8 is passed through verbatim: the
                    // input is a &str, so the bytes are valid by
                    // construction.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xc0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("input is valid UTF-8"),
                    );
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated unicode escape"))?;
        let text = std::str::from_utf8(slice).map_err(|_| self.err("invalid unicode escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let before = p.pos;
            while p.peek().is_some_and(|c| c.is_ascii_digit()) {
                p.pos += 1;
            }
            p.pos > before
        };
        if !digits(self) {
            return Err(self.err("expected digits in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(self.err("expected digits after decimal point"));
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(self.err("expected digits in exponent"));
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Number(n)),
            _ => Err(self.err("number out of range")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-17", "3.25", "1e3", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.to_json()).unwrap(), v, "{text}");
        }
        assert_eq!(Json::parse("1e3").unwrap(), Json::Number(1000.0));
    }

    #[test]
    fn nested_documents_round_trip() {
        let text = r#"{"bench":"serving","records":[{"name":"itl_p50","us_per_iter":155.202,"speedup_over_dense":null,"threads":1},{"name":"x","us_per_iter":1,"ok":true}],"tags":["a","b"]}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_json(), text);
        assert_eq!(Json::parse(&v.to_json()).unwrap(), v);
        let records = v.get("records").unwrap().as_array().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(
            records[0].get("name").and_then(Json::as_str),
            Some("itl_p50")
        );
        assert_eq!(
            records[0].get("us_per_iter").and_then(Json::as_f64),
            Some(155.202)
        );
        assert_eq!(records[0].get("speedup_over_dense"), Some(&Json::Null));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Json::String("line1\nline2\ttab \"quoted\" back\\slash \u{1}".to_string());
        let text = original.to_json();
        assert_eq!(Json::parse(&text).unwrap(), original);
        // Unicode escapes parse, including surrogate pairs.
        assert_eq!(
            Json::parse(r#""\u0041\ud83d\ude00""#).unwrap(),
            Json::String("A😀".to_string())
        );
        // Raw multi-byte UTF-8 passes through.
        assert_eq!(
            Json::parse("\"héllo\"").unwrap(),
            Json::String("héllo".to_string())
        );
    }

    #[test]
    fn object_lookup_is_first_occurrence_and_order_preserving() {
        let v = Json::parse(r#"{"b":1,"a":2,"b":3}"#).unwrap();
        assert_eq!(v.get("b").and_then(Json::as_f64), Some(1.0));
        assert_eq!(v.to_json(), r#"{"b":1,"a":2,"b":3}"#);
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn numbers_expose_integer_views() {
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("42.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::Number(f64::NAN).to_json(), "null");
    }

    #[test]
    fn malformed_documents_are_positioned_errors() {
        for text in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "01x",
            "1 2",
            "{\"a\" 1}",
            "\"\\q\"",
            "\"\\ud800\"",
            "1e999",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} must not parse");
        }
        let err = Json::parse("[1, 2, x]").unwrap_err();
        assert_eq!(err.offset, 7);
        assert!(err.to_string().contains("byte 7"));
    }

    #[test]
    fn hostile_nesting_fails_as_data_not_stack_overflow() {
        let deep = "[".repeat(MAX_DEPTH + 8) + &"]".repeat(MAX_DEPTH + 8);
        assert_eq!(Json::parse(&deep).unwrap_err().message, "nesting too deep");
        // …while legitimate nesting inside the cap still parses.
        let ok = "[".repeat(MAX_DEPTH / 2) + &"]".repeat(MAX_DEPTH / 2);
        assert!(Json::parse(&ok).is_ok());
    }
}
