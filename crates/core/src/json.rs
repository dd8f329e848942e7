//! Minimal, dependency-free JSON reading and writing.
//!
//! The Bifrost execution journal serializes to line-delimited JSON that
//! must be **byte-for-byte reproducible** across runs
//! (see `DESIGN.md`, "Execution journal"). General-purpose serializers
//! make no such promise — field order, float formatting, and whitespace
//! are implementation details there — so the journal builds on this
//! deliberately small module instead:
//!
//! - [`Json`] objects preserve **insertion order** (no hash-map
//!   iteration-order nondeterminism),
//! - numbers render through Rust's shortest-roundtrip `Display` for
//!   `f64`, with integral values written without a fractional part,
//! - the writer emits no insignificant whitespace.
//!
//! A document can be written two ways with the same bytes: as a [`Json`]
//! tree ([`Json::write`]), or member by member through an
//! [`ObjectWriter`] with no tree and no allocation besides the output —
//! what the journal's encoder does for every event.
//!
//! The parser accepts standard JSON (RFC 8259) with the usual escape
//! sequences, so journals written by other tools can be replayed too.

use std::fmt;

/// A JSON value. Object members preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; integers round-trip exactly up to 2^53.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered list of `(key, value)` members.
    Obj(Vec<(String, Json)>),
}

/// A JSON parse error with a byte offset into the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one JSON document, requiring it to span the whole input.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input or trailing garbage.
    pub fn parse(src: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: src.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// Serializes into `out` with deterministic formatting: no
    /// insignificant whitespace, members in insertion order, numbers via
    /// shortest-roundtrip formatting (integral values without `.0`).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
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
                for (i, (key, value)) in members.iter().enumerate() {
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

    /// Member of an object by key, or `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, or `None` for other variants.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as an unsigned integer (truncating), or `None`
    /// for other variants and negative numbers.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string value, or `None` for other variants.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array items, or `None` for other variants.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// `true` for [`Json::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Convenience constructor for an ordered object.
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Streams one JSON object into a `String`, member by member, in call
/// order — the allocation-free counterpart of building a [`Json::Obj`]
/// and calling [`Json::write`] on it. Values go through the same string
/// and number writers as the tree, so the bytes are the same.
///
/// Member keys are `&'static str` and pushed as they are: they are names
/// from the source code, and must need no escaping (checked in debug
/// builds). A key only known at run time goes through
/// [`ObjectWriter::value_escaped`].
#[derive(Debug)]
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Opens an object at the end of `out`.
    pub fn begin(out: &'a mut String) -> Self {
        out.push('{');
        ObjectWriter { out, empty: true }
    }

    /// Writes `key` and hands back the output for its value: the caller
    /// appends exactly one JSON value (a nested object, say).
    pub fn value(&mut self, key: &'static str) -> &mut String {
        debug_assert!(!key.bytes().any(needs_escape), "static key {key:?} needs escaping");
        self.out.push_str(if self.empty { "\"" } else { ",\"" });
        self.empty = false;
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }

    /// [`ObjectWriter::value`] for a key made at run time, escaped like
    /// any string.
    pub fn value_escaped(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        write_string(key, self.out);
        self.out.push(':');
        self.out
    }

    /// A string member.
    pub fn str(&mut self, key: &'static str, value: &str) {
        write_string(value, self.value(key));
    }

    /// A number member (non-finite values render as `null`).
    pub fn num(&mut self, key: &'static str, value: f64) {
        write_number(value, self.value(key));
    }

    /// An unsigned integer member.
    pub fn uint(&mut self, key: &'static str, value: u64) {
        write_uint(value, self.value(key));
    }

    /// A boolean member.
    pub fn bool(&mut self, key: &'static str, value: bool) {
        self.value(key).push_str(if value { "true" } else { "false" });
    }

    /// A `null` member.
    pub fn null(&mut self, key: &'static str) {
        self.value(key).push_str("null");
    }

    /// Closes the object.
    pub fn end(self) {
        self.out.push('}');
    }
}

/// Appends an unsigned integer, byte-identical to writing
/// `Json::Num(value as f64)`.
pub fn write_uint(value: u64, out: &mut String) {
    if value < INTEGRAL_LIMIT as u64 {
        write_u64(value, out);
    } else {
        write_number(value as f64, out);
    }
}

/// Integral values below this magnitude are written as integers; every
/// one of them is exact in an `f64` (2^53 > 9e15).
const INTEGRAL_LIMIT: f64 = 9.0e15;

/// Appends `n` in decimal without going through `fmt`.
fn write_u64(mut n: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ascii digits"));
}

fn write_number(n: f64, out: &mut String) {
    use fmt::Write as _;
    if !n.is_finite() {
        // JSON has no NaN/Infinity; `null` keeps the document valid.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < INTEGRAL_LIMIT {
        let int = n as i64;
        if int < 0 {
            out.push('-');
        }
        write_u64(int.unsigned_abs(), out);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn needs_escape(byte: u8) -> bool {
    byte == b'"' || byte == b'\\' || byte < 0x20
}

fn write_string(s: &str, out: &mut String) {
    use fmt::Write as _;
    out.push('"');
    // Runs of bytes that need no escape are copied whole; every byte that
    // does is ASCII, so the cuts fall on character boundaries.
    let mut clean_from = 0;
    for (i, byte) in s.bytes().enumerate() {
        if !needs_escape(byte) {
            continue;
        }
        out.push_str(&s[clean_from..i]);
        clean_from = i + 1;
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
    }
    out.push_str(&s[clean_from..]);
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, message: message.into() }
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
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes in one go.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        c => {
                            return Err(self.err(format!("invalid escape '\\{}'", c as char)));
                        }
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The character of a `\u` escape whose `\u` was just read: a
    /// high surrogate must be followed by an escaped low surrogate
    /// (`DC00..=DFFF`), and a lone low surrogate is no character.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let code = self.hex4()?;
        if !(0xd800..0xdc00).contains(&code) {
            return char::from_u32(code).ok_or_else(|| self.err("unpaired low surrogate"));
        }
        if !self.bytes[self.pos..].starts_with(b"\\u") {
            return Err(self.err("high surrogate without a low surrogate"));
        }
        self.pos += 2;
        let low = self.hex4()?;
        if !(0xdc00..0xe000).contains(&low) {
            return Err(self.err("high surrogate without a low surrogate"));
        }
        let combined = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
        Ok(char::from_u32(combined).expect("a surrogate pair is a supplementary character"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let c = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (c as char).to_digit(16).ok_or_else(|| self.err("bad hex digit"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    /// A number in RFC 8259 §6's grammar:
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
            if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("leading zero in a number"));
            }
        } else {
            self.digits("a digit")?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits("a digit after the decimal point")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("a digit in the exponent")?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError { offset: start, message: format!("invalid number '{text}'") })
    }

    /// Consumes one or more ASCII digits, or fails naming what was due.
    fn digits(&mut self, what: &str) -> Result<(), JsonError> {
        if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            return Err(self.err(format!("expected {what}")));
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for src in ["null", "true", "false", "0", "-1", "3.25", "1e300", "\"hi\""] {
            let v = Json::parse(src).unwrap();
            assert_eq!(Json::parse(&v.to_string()).unwrap(), v, "{src}");
        }
    }

    #[test]
    fn integral_floats_write_without_fraction() {
        assert_eq!(Json::Num(10.0).to_string(), "10");
        assert_eq!(Json::Num(-2.0).to_string(), "-2");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn object_preserves_insertion_order() {
        let v = obj(vec![("z", Json::Num(1.0)), ("a", Json::Num(2.0))]);
        assert_eq!(v.to_string(), "{\"z\":1,\"a\":2}");
        let back = Json::parse(&v.to_string()).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.get("a").and_then(Json::as_f64), Some(2.0));
        assert_eq!(back.get("missing"), None);
    }

    #[test]
    fn nested_structure_round_trips() {
        let src = r#"{"ev":"check","vals":[1,2.5,null,true],"nested":{"s":"a\"b\\c\nd"}}"#;
        let v = Json::parse(src).unwrap();
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(v.get("ev").and_then(Json::as_str), Some("check"));
        assert_eq!(v.get("vals").and_then(Json::as_arr).map(<[Json]>::len), Some(4));
        assert!(v.get("vals").unwrap().as_arr().unwrap()[2].is_null());
    }

    #[test]
    fn unicode_escapes_parse() {
        let v = Json::parse(r#""\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("é😀"));
        // Control characters are re-escaped on write.
        assert_eq!(Json::Str("\u{0001}".into()).to_string(), "\"\\u0001\"");
    }

    #[test]
    fn malformed_inputs_error() {
        for src in ["", "{", "[1,", "\"open", "nul", "{\"a\"}", "1 2", "{\"a\":1,}x"] {
            assert!(Json::parse(src).is_err(), "{src:?} should fail");
        }
        let err = Json::parse("[1, @]").unwrap_err();
        assert!(err.to_string().contains("byte 4"), "{err}");
        // Broken surrogate pairs and number forms RFC 8259 §6 rejects,
        // each with the byte it fails at.
        for (src, at) in [
            (r#""\ud83d\u0041""#, 13),
            (r#""\ud83d\ud83d""#, 13),
            (r#""\ud83d\uffff""#, 13),
            (r#""\ud83dx""#, 7),
            (r#""\ud83d""#, 7),
            (r#""\ude00""#, 7),
            ("01", 1),
            ("-01", 2),
            ("-.5", 1),
            (".5", 0),
            ("1.", 2),
            ("1.e5", 2),
            ("-", 1),
            ("1e", 2),
            ("1e+", 3),
            ("[00]", 2),
        ] {
            let err = Json::parse(src).expect_err(src);
            assert!(err.to_string().contains(&format!("byte {at}:")), "{src}: {err}");
        }
        for (src, value) in [("0", 0.0), ("-0", -0.0), ("0.5", 0.5), ("10", 10.0), ("1E+2", 100.0)]
        {
            assert_eq!(Json::parse(src).unwrap(), Json::Num(value), "{src}");
        }
        assert_eq!(Json::parse(r#""\udbff\udfff""#).unwrap(), Json::Str("\u{10ffff}".into()));
    }

    /// The writer's escaping rule stated char by char — the reference the
    /// run-copying [`write_string`] is searched against.
    fn escape_by_char(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn strings_escape_the_same_bytes_run_by_run_as_char_by_char() {
        // Every pair of the interesting characters — each escape, the
        // boundary bytes 0x1f/0x20/0x7f, and 2-, 3- and 4-byte UTF-8 —
        // so every "run ends at an escape / at a multi-byte char / at the
        // end" adjacency occurs.
        let mut alphabet: Vec<char> = (0u8..0x21).map(char::from).collect();
        alphabet.extend(['"', '\\', '/', 'a', '\u{7f}', 'é', '€', '😀']);
        for &a in &alphabet {
            for &b in &alphabet {
                for text in [format!("{a}{b}"), format!("x{a}y{b}z"), format!("{a}")] {
                    let written = Json::Str(text.clone()).to_string();
                    assert_eq!(written, escape_by_char(&text), "{text:?}");
                    assert_eq!(Json::parse(&written).unwrap().as_str(), Some(text.as_str()));
                }
            }
        }
        assert_eq!(Json::Str(String::new()).to_string(), "\"\"");
    }

    #[test]
    fn integers_write_the_same_digits_as_fmt() {
        let mut values = vec![0i64, 1, 9, 10, 99, 100, 8_999_999_999_999_999];
        values.extend((1..16).flat_map(|e| [10i64.pow(e) - 1, 10i64.pow(e), 10i64.pow(e) + 1]));
        for v in values {
            for signed in [v, -v] {
                assert_eq!(Json::Num(signed as f64).to_string(), signed.to_string());
            }
        }
        assert_eq!(Json::Num(-0.0).to_string(), "0");
        // At and past the integral limit numbers fall back to the float
        // formatter; the unsigned path agrees with the float path there.
        for v in [9_000_000_000_000_000u64, 9_007_199_254_740_993, u64::MAX] {
            let mut streamed = String::new();
            let mut w = ObjectWriter::begin(&mut streamed);
            w.uint("v", v);
            w.end();
            assert_eq!(streamed, obj(vec![("v", Json::Num(v as f64))]).to_string(), "{v}");
        }
    }

    #[test]
    fn object_writer_matches_the_tree() {
        let mut streamed = String::new();
        let mut w = ObjectWriter::begin(&mut streamed);
        write_string("a\nb", w.value_escaped("e\"v"));
        w.num("x", 0.1 + 0.2);
        w.num("inf", f64::INFINITY);
        w.uint("n", 42);
        w.bool("ok", true);
        w.null("none");
        let mut inner = ObjectWriter::begin(w.value("inner"));
        inner.uint("k", 7);
        inner.end();
        ObjectWriter::begin(w.value("empty")).end();
        w.end();
        let tree = obj(vec![
            ("e\"v", Json::Str("a\nb".into())),
            ("x", Json::Num(0.1 + 0.2)),
            ("inf", Json::Num(f64::INFINITY)),
            ("n", Json::Num(42.0)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("inner", obj(vec![("k", Json::Num(7.0))])),
            ("empty", obj(vec![])),
        ]);
        assert_eq!(streamed, tree.to_string());
        assert_eq!(Json::parse(&streamed).unwrap(), {
            // `inf` reads back as the `null` it was written as.
            let mut read = tree.clone();
            if let Json::Obj(members) = &mut read {
                members[2].1 = Json::Null;
            }
            read
        });
    }

    #[test]
    fn writer_is_deterministic() {
        let v = obj(vec![
            ("t", Json::Num(123456.0)),
            ("mean", Json::Num(0.1 + 0.2)),
            ("tags", Json::Arr(vec![Json::Str("a".into()), Json::Str("b".into())])),
        ]);
        assert_eq!(v.to_string(), v.to_string());
        assert_eq!(
            v.to_string(),
            "{\"t\":123456,\"mean\":0.30000000000000004,\"tags\":[\"a\",\"b\"]}"
        );
    }
}
