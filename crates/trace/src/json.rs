//! A minimal JSON value with a strict parser and a compact writer (the
//! workspace builds offline with zero external dependencies, so it cannot
//! lean on `serde`).
//!
//! [`parse`] supports the full JSON grammar (objects, arrays, strings with
//! escape sequences including `\uXXXX`, numbers, booleans, null) and
//! rejects anything RFC 8259 does; it is not a streaming parser and is
//! meant for test-sized documents. [`Json`]'s `Display` writes the other
//! direction, and holds the workspace's one JSON string escaper: every
//! artifact that carries caller-chosen text (profile sets, heartbeat
//! lines) is built as a [`Json`] value and printed with it.

use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (keys may repeat).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// First value under `key` when this is an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements when this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string when this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number when this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Compact RFC 8259 text: no whitespace between tokens, object keys in
/// stored order, strings escaped. A finite number takes Rust's shortest
/// round-trip spelling, so `parse(&v.to_string()) == Ok(v)` and integers
/// stay exact up to 2^53; NaN and ±inf, which JSON cannot spell, are
/// written as `null`.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) if n.is_finite() => write!(f, "{n}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(pairs) => {
                f.write_char('{')?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_escaped(f, key)?;
                    write!(f, ":{value}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Writes `s` as a JSON string literal: quotes, backslashes and every
/// control character (U+0000–U+001F, which RFC 8259 forbids raw) are
/// escaped; everything else, non-ASCII included, is written as is.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if u32::from(c) < 0x20 => write!(f, "\\u{:04x}", u32::from(c))?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// A parse failure, with the byte offset where it occurred.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// Returns a [`JsonError`] locating the first syntax error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", byte as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{text}`")))
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
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
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for our traces;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(self.err(format!("bad escape `\\{}`", other as char))),
                    }
                }
                // RFC 8259 §7: U+0000–U+001F must be escaped inside a
                // string; Python's `json` rejects them raw too.
                Some(c) if c < 0x20 => {
                    return Err(self.err(format!("unescaped control character {c:#04x} in string")));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let ch = s.chars().next().ok_or_else(|| self.err("empty"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    /// RFC 8259 number grammar: `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`
    /// — leading zeros, bare dots and empty exponents are rejected, so the
    /// validator is no laxer than the viewers that consume our traces.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.digit_run();
        match int_digits {
            0 => return Err(self.err("number has no digits")),
            1 => {}
            _ if self.bytes[self.pos - int_digits] == b'0' => {
                return Err(self.err("number has a leading zero"));
            }
            _ => {}
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digit_run() == 0 {
                return Err(self.err("number has an empty fraction"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digit_run() == 0 {
                return Err(self.err("number has an empty exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number `{text}`")))
    }

    /// Consumes a run of ASCII digits, returning its length.
    fn digit_run(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(
            parse(r#""a\nbA\"""#).unwrap(),
            Json::Str("a\nbA\"".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{"traceEvents":[{"ph":"B","ts":1},{"ph":"E","ts":2}],"meta":null}"#;
        let v = parse(doc).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("B"));
        assert_eq!(events[1].get("ts").unwrap().as_f64(), Some(2.0));
        assert_eq!(v.get("meta"), Some(&Json::Null));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("'single'").is_err());
        let err = parse("[1, oops]").unwrap_err();
        assert!(err.to_string().contains("byte"), "{err}");
    }

    #[test]
    fn rejects_non_rfc_numbers() {
        assert!(parse("01").is_err(), "leading zero");
        assert!(parse("-01").is_err(), "negative leading zero");
        assert!(parse("1.").is_err(), "empty fraction");
        assert!(parse("1e").is_err(), "empty exponent");
        assert!(parse("1e+").is_err(), "signed empty exponent");
        assert!(parse("-").is_err(), "bare minus");
        assert_eq!(parse("0").unwrap(), Json::Num(0.0));
        assert_eq!(parse("0.5").unwrap(), Json::Num(0.5));
        assert_eq!(parse("10").unwrap(), Json::Num(10.0));
        assert_eq!(parse("-0.25e-2").unwrap(), Json::Num(-0.0025));
    }

    #[test]
    fn rejects_raw_control_characters_in_strings() {
        for raw in [
            "\"a\nb\"",
            "\"tab\there\"",
            "\"\u{1}\"",
            "{\"k\r\": 1}",
            "[\"\u{1f}\"]",
        ] {
            let err = parse(raw).unwrap_err();
            assert!(err.message.contains("control character"), "{raw:?}: {err}");
        }
        // The escaped forms are fine, and so is whitespace between tokens.
        assert_eq!(
            parse("[\n\t\"a\\nb\\t\\u0001\"\r\n]").unwrap(),
            Json::Arr(vec![Json::Str("a\nb\t\u{1}".to_string())])
        );
    }

    #[test]
    fn display_round_trips_through_the_parser() {
        let every_control: String = (0u8..0x20).map(char::from).collect();
        let hostile = [
            "",
            "plain",
            r#"he said "hi""#,
            r"back\slash\",
            every_control.as_str(),
            "héllo ✓ 日本 🦀",
        ];
        let mut values: Vec<Json> = hostile.iter().map(|s| Json::Str(s.to_string())).collect();
        for n in [
            0.0,
            -1.0,
            42.0,
            9_007_199_254_740_992.0, // 2^53
            -9_007_199_254_740_992.0,
            0.5,
            -0.0025,
            1.0 / 3.0,
            6.02e23,
            1e-300,
        ] {
            values.push(Json::Num(n));
        }
        values.extend([Json::Null, Json::Bool(true), Json::Bool(false)]);
        values.extend([Json::Arr(vec![]), Json::Obj(vec![])]);
        let nested = Json::Obj(vec![
            (every_control.clone(), Json::Arr(values.clone())),
            (
                "k\"ey".to_string(),
                Json::Arr(vec![Json::Obj(vec![]), Json::Arr(vec![Json::Arr(vec![])])]),
            ),
            ("dup".to_string(), Json::Num(1.0)),
            ("dup".to_string(), Json::Num(2.0)),
        ]);
        values.push(nested);
        for v in values {
            let text = v.to_string();
            assert_eq!(parse(&text), Ok(v), "{text}");
        }
        assert_eq!(
            Json::Num(9_007_199_254_740_992.0).to_string(),
            "9007199254740992"
        );
        assert_eq!(
            Json::Obj(vec![(
                "a".to_string(),
                Json::Arr(vec![Json::Num(1.5), Json::Null])
            )])
            .to_string(),
            r#"{"a":[1.5,null]}"#,
            "compact: no whitespace between tokens"
        );
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Num(n).to_string(), "null", "{n}");
        }
    }

    #[test]
    fn handles_unicode_and_empty_containers() {
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::Obj(vec![]));
        assert_eq!(
            parse("\"héllo ✓\"").unwrap(),
            Json::Str("héllo ✓".to_string())
        );
    }
}
