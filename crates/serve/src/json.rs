//! One JSON codec for the wire protocol.
//!
//! The workspace builds offline (no serde), and the protocol needs only
//! a small, strict subset of JSON: objects with string keys, arrays,
//! strings, finite numbers, booleans, and null. This module is the one
//! codec for it, in three parts:
//!
//! * [`Writer`] streams a document into a `String`
//!   (`obj`/`key`/`arr`/`num`/`str`/`bool`/`null`). `write_num` and
//!   `write_str` are the only number and string formatters.
//! * [`Reader`] pulls a document out of a `&str`: object members, array
//!   elements, numbers, strings (borrowed unless they hold escapes),
//!   booleans and null, and [`skip`](Reader::skip) for a value nobody
//!   wants, which is still syntax-checked. It owns the one number
//!   scanner (RFC 8259's grammar, exactly) and the nesting limit.
//! * The [`Json`] tree sits on top of both: [`parse`] is
//!   [`Reader::value`] plus the trailing-content check, and
//!   [`Json::encode`] is a tree walk over a [`Writer`].
//!
//! The protocol's encoders and decoders use the writer and reader
//! directly, so no tree is built on the request path.
//!
//! # Number fidelity
//!
//! Scores cross the wire as JSON numbers. The writer prints `f64`s with
//! Rust's shortest-round-trip formatting, and every score is an `f32`
//! widened to `f64` (exact), so *value → text → value* is lossless:
//! a parsed score narrowed back to `f32` is **bit-identical** to the
//! score the server computed. NaN and infinities are not representable
//! in JSON and serialize as `null` (they cannot occur in cosine scores).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Nesting depth the parser accepts: a value inside 64 containers
/// parses, one inside 65 does not. Far above anything the protocol
/// produces, low enough that a hostile `[[[[…` frame cannot blow the
/// stack.
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
        self.as_num().and_then(as_u64)
    }

    /// This value as a `usize`, if it is a non-negative integral number
    /// in range.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_num().and_then(as_usize)
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
        self.write(&mut Writer::new(&mut out));
        out
    }

    fn write(&self, w: &mut Writer<'_>) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::Num(n) => w.num(*n),
            Json::Str(s) => w.str(s),
            Json::Arr(items) => w.arr(|w| items.iter().for_each(|item| item.write(w))),
            Json::Obj(members) => w.obj(|w| {
                for (k, v) in members {
                    v.write(w.key(k));
                }
            }),
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

/// `n` as a `u64`, if it is a non-negative integer below 2^64.
pub(crate) fn as_u64(n: f64) -> Option<u64> {
    // `u64::MAX as f64` rounds up to 2^64, so the bound is strict:
    // 2^64 itself would saturate to `u64::MAX` in the cast.
    (n >= 0.0 && n.fract() == 0.0 && n < u64::MAX as f64).then_some(n as u64)
}

/// `n` as a `usize`, if it is a non-negative integer in range.
pub(crate) fn as_usize(n: f64) -> Option<usize> {
    as_u64(n).and_then(|n| usize::try_from(n).ok())
}

/// Streams one compact JSON document into a `String`.
///
/// Containers take a closure that writes their contents; commas and
/// colons are placed for the caller. Object keys must be written in
/// ascending order (the order a [`Json::Obj`] prints in), which a debug
/// assertion in [`key`](Writer::key) checks, so a document streamed by
/// hand has the same bytes as the tree it describes.
pub struct Writer<'a> {
    out: &'a mut String,
    /// Whether the next member or element needs a comma before it.
    comma: bool,
    /// The last key written in the innermost open object.
    #[cfg(debug_assertions)]
    last_key: Option<String>,
}

impl<'a> Writer<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut String) -> Self {
        Writer {
            out,
            comma: false,
            #[cfg(debug_assertions)]
            last_key: None,
        }
    }

    fn sep(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    /// Writes an object member's key; the member's value comes next.
    pub fn key(&mut self, key: &str) -> &mut Self {
        #[cfg(debug_assertions)]
        {
            if let Some(last) = &self.last_key {
                debug_assert!(last.as_str() < key, "key `{key}` written after `{last}`");
            }
            self.last_key = Some(key.to_string());
        }
        self.sep();
        write_str(key, self.out);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes an object whose members `members` writes.
    pub fn obj(&mut self, members: impl FnOnce(&mut Self)) {
        self.sep();
        self.out.push('{');
        self.comma = false;
        #[cfg(debug_assertions)]
        let outer = self.last_key.take();
        members(self);
        #[cfg(debug_assertions)]
        {
            self.last_key = outer;
        }
        self.out.push('}');
        self.comma = true;
    }

    /// Writes an array whose elements `items` writes.
    pub fn arr(&mut self, items: impl FnOnce(&mut Self)) {
        self.sep();
        self.out.push('[');
        self.comma = false;
        items(self);
        self.out.push(']');
        self.comma = true;
    }

    /// Writes a number.
    pub fn num(&mut self, n: f64) {
        self.sep();
        write_num(n, self.out);
    }

    /// Writes a string.
    pub fn str(&mut self, s: &str) {
        self.sep();
        write_str(s, self.out);
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.sep();
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.sep();
        self.out.push_str("null");
    }
}

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null"); // unreachable for protocol values
    } else if n == 0.0 && n.is_sign_negative() {
        out.push_str("-0.0"); // the integer path would drop the sign
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        // Integral values in the exactly-representable range print
        // without the trailing `.0` Rust's `{:?}` would add.
        if n < 0.0 {
            out.push('-');
        }
        let (mut m, mut digits, mut at) = (n.abs() as u64, [0u8; 16], 16);
        loop {
            at -= 1;
            digits[at] = b'0' + (m % 10) as u8;
            m /= 10;
            if m == 0 {
                break;
            }
        }
        digits[at..].iter().for_each(|&d| out.push(d as char));
    } else {
        let _ = write!(out, "{n:?}"); // shortest round-trip decimal
    }
}

fn write_str(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut plain = 0; // start of the run not yet copied
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every byte escaped is ASCII, so `i` is a char boundary.
        out.push_str(&s[plain..i]);
        if escape.is_empty() {
            out.push_str("\\u00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        } else {
            out.push_str(escape);
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
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
    let mut r = Reader::new(text);
    let v = r.value()?;
    r.end()?;
    Ok(v)
}

/// The next value's first token: a scalar, read whole, or the opening
/// bracket of a container, not yet consumed.
enum Token<'a> {
    Obj,
    Arr,
    Str(Cow<'a, str>),
    Num(f64),
    Bool(bool),
    Null,
}

/// Pulls one JSON document out of a `&str`, value by value.
///
/// Each typed read ([`num`](Reader::num), [`str`](Reader::str),
/// [`bool`](Reader::bool), [`obj`](Reader::obj), [`arr`](Reader::arr))
/// consumes the next value whatever it is, and says whether it had the
/// asked-for type: a value of another type is skipped, syntax-checked
/// all the same, and reported as `None` (or `false`). Any syntax error
/// ends the read. Finish with [`end`](Reader::end), which rejects
/// trailing content.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers open around the next value.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, what: &'static str) -> ParseError {
        ParseError { at: self.pos, what }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Accepts trailing whitespace only: the document must be over.
    pub fn end(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing content after document"));
        }
        Ok(())
    }

    /// Reads the next value as a [`Json`] tree.
    pub fn value(&mut self) -> Result<Json, ParseError> {
        Ok(match self.token()? {
            Token::Obj => {
                let mut members = BTreeMap::new();
                self.members(|r, key| {
                    let value = r.value()?;
                    members.insert(key.into_owned(), value); // last duplicate key wins
                    Ok(())
                })?;
                Json::Obj(members)
            }
            Token::Arr => {
                let mut items = Vec::new();
                self.elements(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Json::Arr(items)
            }
            Token::Str(s) => Json::Str(s.into_owned()),
            Token::Num(n) => Json::Num(n),
            Token::Bool(b) => Json::Bool(b),
            Token::Null => Json::Null,
        })
    }

    /// Reads past the next value, checking its syntax.
    pub fn skip(&mut self) -> Result<(), ParseError> {
        let token = self.token()?;
        self.skip_rest(token)
    }

    /// Reads the next value: if it is an object, calls `member` with
    /// each key in document order, and `member` must read that key's
    /// value. `Ok(false)` means the value was not an object.
    pub fn obj(
        &mut self,
        member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), ParseError>,
    ) -> Result<bool, ParseError> {
        match self.token()? {
            Token::Obj => self.members(member).map(|()| true),
            other => self.skip_rest(other).map(|()| false),
        }
    }

    /// Reads the next value: if it is an array, calls `element` once per
    /// element, and `element` must read it. `Ok(false)` means the value
    /// was not an array.
    pub fn arr(
        &mut self,
        element: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<bool, ParseError> {
        match self.token()? {
            Token::Arr => self.elements(element).map(|()| true),
            other => self.skip_rest(other).map(|()| false),
        }
    }

    /// Reads the next value, `Some` if it is a number.
    pub fn num(&mut self) -> Result<Option<f64>, ParseError> {
        match self.token()? {
            Token::Num(n) => Ok(Some(n)),
            other => self.skip_rest(other).map(|()| None),
        }
    }

    /// Reads the next value, `Some` if it is a string.
    pub fn str(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        match self.token()? {
            Token::Str(s) => Ok(Some(s)),
            other => self.skip_rest(other).map(|()| None),
        }
    }

    /// Reads the next value, `Some` if it is `true` or `false`.
    pub fn bool(&mut self) -> Result<Option<bool>, ParseError> {
        match self.token()? {
            Token::Bool(b) => Ok(Some(b)),
            other => self.skip_rest(other).map(|()| None),
        }
    }

    /// Reads the next value, `true` if it is `null`.
    pub fn null(&mut self) -> Result<bool, ParseError> {
        match self.token()? {
            Token::Null => Ok(true),
            other => self.skip_rest(other).map(|()| false),
        }
    }

    fn token(&mut self) -> Result<Token<'a>, ParseError> {
        self.skip_ws();
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        Ok(match self.peek() {
            Some(b'{') => Token::Obj,
            Some(b'[') => Token::Arr,
            Some(b'"') => Token::Str(self.string()?),
            Some(b'-' | b'0'..=b'9') => Token::Num(self.number()?),
            Some(b'n') => self.literal("null", "expected null", Token::Null)?,
            Some(b't') => self.literal("true", "expected true", Token::Bool(true))?,
            Some(b'f') => self.literal("false", "expected false", Token::Bool(false))?,
            _ => return Err(self.err("expected a JSON value")),
        })
    }

    /// Finishes reading a value whose first token is `token`.
    fn skip_rest(&mut self, token: Token<'a>) -> Result<(), ParseError> {
        match token {
            Token::Obj => self.members(|r, _| r.skip()),
            Token::Arr => self.elements(|r| r.skip()),
            _ => Ok(()),
        }
    }

    fn literal(
        &mut self,
        lit: &str,
        what: &'static str,
        token: Token<'a>,
    ) -> Result<Token<'a>, ParseError> {
        if !self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            return Err(self.err(what));
        }
        self.pos += lit.len();
        Ok(token)
    }

    fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.pos += 1; // consume {
        self.depth += 1;
        self.skip_ws();
        if self.peek() != Some(b'}') {
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
                member(self, key)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => break,
                    _ => return Err(self.err("expected , or } in object")),
                }
            }
        }
        self.pos += 1; // consume }
        self.depth -= 1;
        Ok(())
    }

    fn elements(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.pos += 1; // consume [
        self.depth += 1;
        self.skip_ws();
        if self.peek() != Some(b']') {
            loop {
                element(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => break,
                    _ => return Err(self.err("expected , or ] in array")),
                }
            }
        }
        self.pos += 1; // consume ]
        self.depth -= 1;
        Ok(())
    }

    /// A string, borrowed from the input unless it holds escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.pos += 1; // consume opening quote
        let mut unescaped: Option<String> = None;
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The run ends at an ASCII byte or the end of the input, so
            // both ends are char boundaries.
            let run = &self.text[start..self.pos];
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match unescaped {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    let s = unescaped.get_or_insert_with(String::new);
                    s.push_str(run);
                    s.push(c);
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
                    if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                        return Err(self.err("expected low surrogate"));
                    }
                    self.pos += 2;
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

    /// The one number scanner: RFC 8259's grammar exactly (an optional
    /// minus, an integer part without leading zeros, an optional
    /// fraction and exponent with at least one digit each), read as the
    /// nearest `f64`.
    fn number(&mut self) -> Result<f64, ParseError> {
        let start = self.pos;
        let invalid = ParseError {
            at: start,
            what: "invalid number",
        };
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let int = self.digits();
        if int.is_empty() || (int.len() > 1 && int.starts_with('0')) {
            return Err(invalid);
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            integral = false;
            if self.digits().is_empty() {
                return Err(invalid);
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            integral = false;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits().is_empty() {
                return Err(invalid);
            }
        }
        if integral && int.len() <= 15 {
            // Below 10^15 < 2^53 the integer is exact as an `f64`, and
            // equal to what the decimal parser below would return.
            let m = int.bytes().fold(0u64, |m, d| m * 10 + u64::from(d - b'0')) as f64;
            return Ok(if negative { -m } else { m });
        }
        let n: f64 = self.text[start..self.pos].parse().map_err(|_| invalid)?;
        if !n.is_finite() {
            return Err(ParseError {
                at: start,
                what: "number out of range",
            });
        }
        Ok(n)
    }

    /// A run of ASCII digits, possibly empty.
    fn digits(&mut self) -> &'a str {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        &self.text[start..self.pos]
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
        assert_eq!(Json::Num(-8_999_999_999_999_999.0).encode(), "-8999999999999999");
        assert_eq!(Json::Num(9e15).encode(), "9000000000000000.0");
    }

    #[test]
    fn escapes_and_unicode() {
        let s = "quote\" slash\\ tab\t newline\n nul\u{1} emoji🙂";
        let text = Json::Str(s.to_string()).encode();
        assert_eq!(text, "\"quote\\\" slash\\\\ tab\\t newline\\n nul\\u0001 emoji🙂\"");
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
            // Numbers outside RFC 8259's grammar.
            "01", "-01", "00", "-00", "1.", "1.e5", "-.5", ".5", "-", "1e", "1e+", "1E-",
            "+1", "0x10", "[1.]", "{\"k\":2.}", "[-]",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        for good in ["0", "-0", "0.5", "-0.0", "10", "1e5", "1E+5", "1.5e-3", "-0e0", "0.0e0"] {
            assert_eq!(
                parse(good).unwrap().as_num(),
                Some(good.parse::<f64>().unwrap()),
                "{good:?}"
            );
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

    #[test]
    fn the_writer_streams_the_bytes_the_tree_prints() {
        let mut out = String::new();
        Writer::new(&mut out).obj(|w| {
            w.key("a").arr(|w| {
                w.num(1.0);
                w.arr(|_| {});
                w.obj(|w| w.key("z").null());
            });
            w.key("b").bool(false);
            w.key("c").str("x\"y");
        });
        let tree = obj([
            (
                "a",
                Json::Arr(vec![Json::Num(1.0), Json::Arr(vec![]), obj([("z", Json::Null)])]),
            ),
            ("b", Json::Bool(false)),
            ("c", Json::Str("x\"y".into())),
        ]);
        assert_eq!(out, tree.encode());
        assert_eq!(out, r#"{"a":[1,[],{"z":null}],"b":false,"c":"x\"y"}"#);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "written after")]
    fn keys_out_of_order_trip_the_debug_assertion() {
        let mut out = String::new();
        Writer::new(&mut out).obj(|w| {
            w.key("ok").bool(true);
            w.key("id").num(1.0);
        });
    }

    #[test]
    fn typed_reads_skip_other_values_and_borrow_plain_strings() {
        let mut r = Reader::new(r#" {"a": [1, {"x": "y"}], "k\u0065y": "plain", "n": null} "#);
        let mut seen = Vec::new();
        let is_obj = r
            .obj(|r, key| {
                match &*key {
                    "a" => assert_eq!(r.num().unwrap(), None), // an array: skipped
                    "key" => assert!(matches!(r.str().unwrap(), Some(Cow::Borrowed("plain")))),
                    _ => assert!(r.null().unwrap()),
                }
                seen.push(key.into_owned());
                Ok(())
            })
            .unwrap();
        assert!(is_obj);
        r.end().unwrap();
        assert_eq!(seen, ["a", "key", "n"]);

        // A skipped value is still syntax-checked.
        assert!(Reader::new(r#"{"a": [1,]}"#).obj(|r, _| r.skip()).is_err());
        // A non-object is consumed whole and reported as such.
        let mut r = Reader::new("[1, 2] ");
        assert_eq!(r.obj(|r, _| r.skip()), Ok(false));
        r.end().unwrap();
    }
}
