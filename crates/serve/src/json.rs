//! Minimal JSON for the wire protocol.
//!
//! The workspace builds offline (no serde), and the protocol needs only
//! a small, strict subset of JSON: objects with string keys, arrays,
//! strings, finite numbers, booleans, and null. This module provides a
//! [`Json`] value with an exact writer and a recursive-descent parser.
//!
//! # Number fidelity
//!
//! Scores cross the wire as JSON numbers. The writer prints `f64`s with
//! Rust's shortest-round-trip formatting, and every score is an `f32`
//! widened to `f64` (exact), so *value → text → value* is lossless:
//! a parsed score narrowed back to `f32` is **bit-identical** to the
//! score the server computed. NaN and infinities are not representable
//! in JSON and serialize as `null` (they cannot occur in cosine scores).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Nesting depth the parser accepts before rejecting the document —
/// far above anything the protocol produces, low enough that a hostile
/// `[[[[…` frame cannot blow the stack.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Objects keep their members in key order
/// (`BTreeMap`), which also makes encoding deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always finite).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member `key` of an object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// This value as a finite `f64`, if it is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a `u64`, if it is a non-negative integral number
    /// below 2^64.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // `u64::MAX as f64` rounds up to 2^64, so the bound is strict:
            // 2^64 itself would saturate to `u64::MAX` in the cast.
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// This value as a `usize`, if it is a non-negative integral number
    /// in range.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// This value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value's elements, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Serializes to compact JSON text (no whitespace, keys in order).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
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
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Convenience constructor for object literals.
pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null"); // unreachable for protocol values
    } else if n == 0.0 && n.is_sign_negative() {
        out.push_str("-0.0"); // the i64 fast path would drop the sign
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        // Integral values in the exactly-representable range print
        // without the trailing `.0` Rust's `{:?}` would add.
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n:?}"); // shortest round-trip decimal
    }
}

fn write_str(s: &str, out: &mut String) {
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

/// Where and why a parse failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What the parser expected or rejected.
    pub what: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document; trailing whitespace is allowed, trailing
/// content is an error. Input must be UTF-8.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &'static str) -> ParseError {
        ParseError { at: self.pos, what }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str, what: &'static str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.eat("null", "expected null").map(|()| Json::Null),
            Some(b't') => self.eat("true", "expected true").map(|()| Json::Bool(true)),
            Some(b'f') => self
                .eat("false", "expected false")
                .map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.pos += 1; // consume [
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected , or ] in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.pos += 1; // consume {
        let mut members = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected : after key"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.insert(key, value); // last duplicate key wins
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected , or } in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1; // consume opening quote
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes up to the next quote/escape.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The input is a &str, so slicing at these boundaries is
            // valid UTF-8 unless an escape/quote splits a code point —
            // which it cannot, both being ASCII.
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
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

    fn escape(&mut self) -> Result<char, ParseError> {
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
                    // Surrogate pair: a \uXXXX low half must follow.
                    self.eat("\\u", "expected low surrogate")?;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| self.err("invalid code point"))?
            }
            _ => return Err(self.err("unknown escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let n: f64 = text.parse().map_err(|_| ParseError {
            at: start,
            what: "invalid number",
        })?;
        if !n.is_finite() {
            return Err(ParseError {
                at: start,
                what: "number out of range",
            });
        }
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_every_value_kind() {
        let doc = r#"{"a":[1,2.5,-3e2],"b":"x\ny","c":true,"d":null,"e":{"f":false}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_num(), Some(-300.0));
        assert_eq!(parse(&v.encode()).unwrap(), v);
    }

    #[test]
    fn f32_scores_survive_the_wire_bit_for_bit() {
        for i in 0..5000u32 {
            let score = ((i as f32) * 0.001).sin(); // cosine-like values
            let text = Json::Num(score as f64).encode();
            let back = parse(&text).unwrap().as_num().unwrap() as f32;
            assert_eq!(score.to_bits(), back.to_bits(), "{text}");
        }
        // Exact endpoints the protocol actually emits.
        for score in [-1.0f32, -0.0, 0.0, 1.0] {
            let back = parse(&Json::Num(score as f64).encode())
                .unwrap()
                .as_num()
                .unwrap() as f32;
            assert_eq!(score.to_bits(), back.to_bits());
        }
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(5.0).encode(), "5");
        assert_eq!(Json::Num(-17.0).encode(), "-17");
        assert_eq!(Json::Num(0.5).encode(), "0.5");
    }

    #[test]
    fn escapes_and_unicode() {
        let s = "quote\" slash\\ tab\t newline\n nul\u{1} emoji🙂";
        let text = Json::Str(s.to_string()).encode();
        assert_eq!(parse(&text).unwrap().as_str(), Some(s));
        // Surrogate-pair escapes decode.
        assert_eq!(
            parse(r#""\ud83d\ude42""#).unwrap().as_str(),
            Some("🙂")
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "}", "[1,", "{\"a\"}", "{\"a\":}", "tru", "nul", "\"", "\"\\q\"",
            "1 2", "{\"a\":1}x", "[01e]", "\"\\ud800\"", "--1", "1e999",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn accessors_are_type_strict() {
        let v = parse(r#"{"n": 3, "neg": -1, "frac": 1.5, "s": "x"}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_usize(), Some(3));
        assert_eq!(v.get("neg").unwrap().as_u64(), None);
        assert_eq!(v.get("frac").unwrap().as_u64(), None);
        assert_eq!(v.get("s").unwrap().as_num(), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("n"), None);

        // 2^64 and above are out of `u64` range, not saturated to its max.
        let v = parse(
            r#"{"top": 18446744073709551615, "two64": 18446744073709551616, "big": 1e20,
                "exact": 9007199254740992, "below": 18446744073709549568}"#,
        )
        .unwrap();
        // 2^64 − 1 has no f64 form: the literal parses to 2^64.
        assert_eq!(v.get("top").unwrap().as_u64(), None);
        assert_eq!(v.get("two64").unwrap().as_u64(), None);
        assert_eq!(v.get("big").unwrap().as_u64(), None);
        assert_eq!(v.get("exact").unwrap().as_u64(), Some(1 << 53));
        // The largest f64 below 2^64.
        assert_eq!(v.get("below").unwrap().as_u64(), Some(u64::MAX - 2047));
    }
}
