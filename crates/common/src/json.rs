//! A small, self-contained JSON value model, parser and writer.
//!
//! The paper stores each record's value as a JSON object
//! (`{"UserID": "u1", "Text": "..."}`) and serializes stand-alone posting
//! lists as JSON arrays. `serde_json` is outside the approved dependency
//! set, so we implement the needed subset here: objects, arrays, strings,
//! 64-bit integers, floats, booleans and null, with standard escape
//! handling.
//!
//! Numbers that are integral round-trip through [`Value::Int`] so that
//! sequence numbers and timestamps survive exactly.

use crate::error::{Error, Result};
use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integral number (preserves full i64 precision).
    Int(i64),
    /// Non-integral number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object with deterministic (sorted) key order.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Build an object from key/value pairs.
    pub fn object<I, K>(pairs: I) -> Value
    where
        I: IntoIterator<Item = (K, Value)>,
        K: Into<String>,
    {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Shorthand string constructor.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Get a field of an object, if this is an object and the field exists.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// View as `&str` if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// View as i64 if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// View as f64 if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// View as array slice if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Mutable array access.
    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Insert into an object; returns the previous value if any.
    ///
    /// Panics if `self` is not an object.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) -> Option<Value> {
        match self {
            Value::Object(m) => m.insert(key.into(), value),
            _ => panic!("insert on non-object JSON value"),
        }
    }

    /// Serialize to a compact JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out);
        out
    }

    /// Parse a JSON document. The entire input must be consumed (modulo
    /// trailing whitespace).
    pub fn parse(input: &str) -> Result<Value> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.parse_value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(Error::corruption(format!(
                "trailing characters at byte {} in JSON",
                p.pos
            )));
        }
        Ok(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(x) => {
            if x.is_finite() {
                let s = format!("{x}");
                out.push_str(&s);
                // Ensure it re-parses as a float, not an int.
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

/// Write `s` as a JSON string literal. Runs of bytes that need no escape
/// are copied with one `push_str` each; every delimiter is ASCII, so a run
/// boundary is always a char boundary of `s`.
fn write_string(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0x00..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        run = i + 1;
        if short.is_empty() {
            out.push_str(&format!("\\u{b:04x}"));
        } else {
            out.push_str(short);
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::corruption(format!(
                "expected '{}' at byte {} in JSON",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value> {
        if depth > MAX_DEPTH {
            return Err(Error::corruption("JSON nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Value::Bool(true)),
            Some(b'f') => self.parse_lit("false", Value::Bool(false)),
            Some(b'n') => self.parse_lit("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(Error::corruption(format!(
                "unexpected byte 0x{c:02x} at {} in JSON",
                self.pos
            ))),
            None => Err(Error::corruption("unexpected end of JSON")),
        }
    }

    fn parse_lit(&mut self, lit: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(Error::corruption(format!(
                "bad literal at byte {}",
                self.pos
            )))
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Value> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.parse_value(depth + 1)?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => {
                    return Err(Error::corruption(format!(
                        "expected ',' or '}}' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            let v = self.parse_value(depth + 1)?;
            items.push(v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::corruption(format!(
                        "expected ',' or ']' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote, backslash
            // or control byte in one step: validating per character would
            // make the string quadratic in its length.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            if run > 0 {
                let text = std::str::from_utf8(&rest[..run])
                    .map_err(|_| Error::corruption("invalid UTF-8 in JSON string"))?;
                s.push_str(text);
                self.pos += run;
            }
            let c = self
                .peek()
                .ok_or_else(|| Error::corruption("unterminated JSON string"))?;
            match c {
                b'"' => {
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::corruption("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{08}'),
                        b'f' => s.push('\u{0c}'),
                        b'u' => {
                            let cp = self.parse_hex4()?;
                            // Handle surrogate pairs.
                            if (0xd800..0xdc00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.parse_hex4()?;
                                    if !(0xdc00..0xe000).contains(&low) {
                                        return Err(Error::corruption("bad low surrogate"));
                                    }
                                    let c = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
                                    s.push(
                                        char::from_u32(c)
                                            .ok_or_else(|| Error::corruption("bad codepoint"))?,
                                    );
                                } else {
                                    return Err(Error::corruption("lone high surrogate"));
                                }
                            } else if (0xdc00..0xe000).contains(&cp) {
                                return Err(Error::corruption("lone low surrogate"));
                            } else {
                                s.push(
                                    char::from_u32(cp)
                                        .ok_or_else(|| Error::corruption("bad codepoint"))?,
                                );
                            }
                        }
                        _ => return Err(Error::corruption("bad escape character")),
                    }
                }
                _ => return Err(Error::corruption("unescaped control character")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        if self.pos + 4 > self.bytes.len() {
            return Err(Error::corruption("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| Error::corruption("bad \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| Error::corruption("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::corruption(format!("bad number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("false").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("42").unwrap(), Value::Int(42));
        assert_eq!(Value::parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(Value::parse("3.5").unwrap(), Value::Float(3.5));
        assert_eq!(Value::parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(Value::parse("\"hi\"").unwrap(), Value::str("hi"));
    }

    #[test]
    fn parse_tweet_like_object() {
        let doc = r#"{"UserID": "u42", "Text": "hello world", "CreationTime": 1528070400}"#;
        let v = Value::parse(doc).unwrap();
        assert_eq!(v.get("UserID").unwrap().as_str(), Some("u42"));
        assert_eq!(v.get("CreationTime").unwrap().as_int(), Some(1528070400));
        assert!(v.get("Missing").is_none());
    }

    #[test]
    fn posting_list_roundtrip() {
        // The Stand-Alone indexes serialize posting lists as JSON arrays of
        // [primary_key, seq] pairs.
        let list = Value::Array(vec![
            Value::Array(vec![Value::str("t4"), Value::Int(9)]),
            Value::Array(vec![Value::str("t1"), Value::Int(2)]),
        ]);
        let text = list.to_json();
        assert_eq!(text, r#"[["t4",9],["t1",2]]"#);
        assert_eq!(Value::parse(&text).unwrap(), list);
    }

    #[test]
    fn escapes_roundtrip() {
        let s = Value::str("a\"b\\c\nd\te\u{08}\u{0c}\r \u{1} é 😀");
        let text = s.to_json();
        assert_eq!(Value::parse(&text).unwrap(), s);
    }

    #[test]
    fn unicode_escape_parses() {
        assert_eq!(Value::parse(r#""é""#).unwrap(), Value::str("é"));
        // Surrogate pair for 😀 (U+1F600).
        assert_eq!(Value::parse(r#""😀""#).unwrap(), Value::str("😀"));
        assert!(Value::parse(r#""\ud83d""#).is_err());
        assert!(Value::parse(r#""\ude00""#).is_err());
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"abc",
            "{\"a\" 1}",
            "[1 2]",
            "nul",
            "{'a':1}",
            "01x",
        ] {
            assert!(Value::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Value::parse("42 junk").is_err());
        assert!(Value::parse("{} {}").is_err());
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Value::parse(&deep).is_err());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Value::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(
            v,
            Value::object([
                ("a", Value::Array(vec![Value::Int(1), Value::Int(2)])),
                ("b", Value::Null),
            ])
        );
    }

    #[test]
    fn object_key_order_is_deterministic() {
        let v1 = Value::parse(r#"{"b":1,"a":2}"#).unwrap();
        let v2 = Value::parse(r#"{"a":2,"b":1}"#).unwrap();
        assert_eq!(v1.to_json(), v2.to_json());
    }

    #[test]
    fn int_precision_preserved() {
        let big = i64::MAX;
        let text = Value::Int(big).to_json();
        assert_eq!(Value::parse(&text).unwrap().as_int(), Some(big));
        let small = i64::MIN;
        let text = Value::Int(small).to_json();
        assert_eq!(Value::parse(&text).unwrap().as_int(), Some(small));
    }

    #[test]
    fn float_writes_reparse_as_float() {
        let v = Value::Float(2.0);
        let text = v.to_json();
        assert_eq!(Value::parse(&text).unwrap(), Value::Float(2.0));
    }

    #[test]
    fn as_f64_covers_both_numbers() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(3.25).as_f64(), Some(3.25));
        assert_eq!(Value::Null.as_f64(), None);
    }

    #[test]
    fn writer_bytes_are_pinned() {
        for (input, want) in [
            ("", r#""""#),
            ("plain text", r#""plain text""#),
            ("a\"b\\c/d", r#""a\"b\\c/d""#),
            ("\n\r\t\u{8}\u{c}", r#""\n\r\t\b\f""#),
            (
                "\u{0}\u{1}\u{1f}x\u{7f}",
                "\"\\u0000\\u0001\\u001fx\u{7f}\"",
            ),
            ("é😀ß", "\"é😀ß\""),
            ("é\"😀\n", "\"é\\\"😀\\n\""),
        ] {
            assert_eq!(Value::str(input).to_json(), want, "input {input:?}");
        }
    }

    #[test]
    fn rejects_raw_control_bytes_in_strings() {
        for bad in ["\"a\u{1}b\"", "\"\n\"", "\"é\u{1f}\""] {
            assert!(Value::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    /// Best of several timings of `f`, so one descheduled run on a busy
    /// host does not decide the ratio.
    fn best_of(mut f: impl FnMut()) -> std::time::Duration {
        (0..5)
            .map(|_| {
                let t = std::time::Instant::now();
                f();
                t.elapsed()
            })
            .min()
            .expect("five timings")
    }

    #[test]
    fn parse_and_write_are_linear_in_string_length() {
        // One string-heavy shape: a document whose text mixes ASCII runs,
        // multi-byte characters and escapes. Linear code takes ~8x as
        // long at 8n; a per-character scan of the remaining input took
        // ~64x.
        let doc = |n: usize| {
            let unit = "tweet text é 😀 \"quoted\"\n";
            let text = unit.repeat(n / unit.len() + 1);
            Value::object([("UserID", Value::str("u1")), ("Text", Value::str(text))])
        };
        let (small, large) = (doc(32 << 10), doc(256 << 10));
        let (small_text, large_text) = (small.to_json(), large.to_json());
        let parse = |text: &str| {
            best_of(|| {
                std::hint::black_box(Value::parse(std::hint::black_box(text)).expect("parse"));
            })
        };
        let write = |v: &Value| {
            best_of(|| {
                std::hint::black_box(std::hint::black_box(v).to_json());
            })
        };
        for (what, t_small, t_large) in [
            ("parse", parse(&small_text), parse(&large_text)),
            ("to_json", write(&small), write(&large)),
        ] {
            let ratio = t_large.as_secs_f64() / t_small.as_secs_f64().max(1e-9);
            assert!(
                ratio <= 24.0,
                "{what}: 8x input took {ratio:.1}x as long ({t_small:?} -> {t_large:?})"
            );
        }
    }

    fn arb_json(depth: u32) -> BoxedStrategy<Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            // Finite floats only; NaN/inf are written as null.
            (-1.0e15f64..1.0e15).prop_map(|f| if f.fract() == 0.0 {
                Value::Float(f + 0.5)
            } else {
                Value::Float(f)
            }),
            // Multi-byte text, every short escape, `/`, and raw control
            // bytes (written as `\u00XX`).
            "[a-zA-Z0-9 _\\-\"\\\\/\n\t\r\u{8}\u{c}\u{0}\u{1}\u{1f}\u{7f}éß😀]{0,20}"
                .prop_map(Value::Str),
        ];
        if depth == 0 {
            leaf.boxed()
        } else {
            prop_oneof![
                leaf.clone(),
                proptest::collection::vec(arb_json(depth - 1), 0..4).prop_map(Value::Array),
                proptest::collection::btree_map("[a-z]{1,8}", arb_json(depth - 1), 0..4)
                    .prop_map(Value::Object),
            ]
            .boxed()
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip(v in arb_json(3)) {
            let text = v.to_json();
            let parsed = Value::parse(&text).unwrap();
            prop_assert_eq!(parsed, v);
        }

        #[test]
        fn prop_parser_never_panics(s in "\\PC{0,64}") {
            let _ = Value::parse(&s);
        }
    }
}
