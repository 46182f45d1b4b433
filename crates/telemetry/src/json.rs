//! The workspace's one JSON reader, and the string escaper its writers
//! share. The build environment is offline, so — like the vendored shims
//! under `vendor/` — no serde: [`parse`] reads every document this
//! workspace writes (trace events, metric exports, `BENCH_*.json` reports),
//! and the writers format by hand, quoting strings with [`escape_into`].

use std::fmt::Write as _;

/// Deepest nesting of arrays and objects [`parse`] accepts. Bench reports
/// nest a few levels; the cap turns a hostile `[[[[…` into an error
/// instead of a stack overflow.
pub const MAX_DEPTH: usize = 64;

/// Append `s` to `out` as a JSON string literal (with quotes).
pub fn escape_into(out: &mut String, s: &str) {
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

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, kept as its source text so that any `u64` reads back
    /// exactly ([`Value::as_u64`]) and the rest as the nearest `f64`
    /// ([`Value::as_f64`]).
    Number(String),
    /// A string, escapes resolved.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's fields, in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The exact value of an integer literal in `0..=u64::MAX`; `None` for
    /// any other value, fractions and exponents included.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The nearest `f64` to a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The first field named `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Parse one complete JSON document: objects, arrays, strings with every
/// escape (surrogate pairs included), numbers with sign, fraction and
/// exponent, `true`, `false` and `null`, with any JSON whitespace between
/// tokens.
///
/// # Errors
///
/// Returns `byte N: <reason>` for the first malformed token, for trailing
/// text after the document, and for nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, String> {
    let mut parser = Parser { text, pos: 0 };
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos < text.len() {
        return Err(parser.err("trailing characters after the document"));
    }
    Ok(value)
}

/// Recursive-descent reader. `pos` only ever stops on a char boundary: it
/// advances over ASCII bytes, and over string contents up to an ASCII
/// quote or backslash.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, reason: &str) -> String {
        format!("byte {}: {reason}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let found = self.peek() == Some(b);
        if found {
            self.pos += 1;
        }
        found
    }

    fn expect(&mut self, b: u8, reason: &str) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(reason))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Value::Array(items));
            }
            self.expect(b',', "expected ',' or ']'")?;
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.pos += 1; // '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after an object key")?;
            fields.push((key, self.value(depth)?));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Value::Object(fields));
            }
            self.expect(b',', "expected ',' or '}'")?;
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self
            .text
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(word))
        {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') && !self.digits() {
            return Err(self.err("expected a digit"));
        }
        if self.eat(b'.') && !self.digits() {
            return Err(self.err("expected a digit after '.'"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            if !self.digits() {
                return Err(self.err("expected an exponent digit"));
            }
        }
        let text = self.text.get(start..self.pos).unwrap_or_default();
        Ok(Value::Number(text.to_string()))
    }

    /// Skip `[0-9]*`; whether any digit was there.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let rest = self.text.get(self.pos..).unwrap_or_default();
            let stop = rest
                .find(['"', '\\'])
                .ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(rest.get(..stop).unwrap_or_default());
            self.pos += stop;
            if self.eat(b'"') {
                return Ok(out);
            }
            self.pos += 1; // '\\'
            let escape = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            out.push(match escape {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => self.unicode_escape()?,
                _ => return Err(self.err("bad escape")),
            });
        }
    }

    /// The code point of a `\u` escape (its `\u` already read), joining a
    /// surrogate pair written as two escapes.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let high = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&high) {
            if !(self.eat(b'\\') && self.eat(b'u')) {
                return Err(self.err("unpaired surrogate"));
            }
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.err("unpaired surrogate"));
            }
            0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
        } else {
            high
        };
        char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let code = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a \"quoted\"\\path\n\twith\u{1}control";
        let mut line = String::from("{\"k\": ");
        escape_into(&mut line, nasty);
        line.push('}');
        let parsed = parse(&line).unwrap();
        assert_eq!(
            parsed,
            Value::Object(vec![("k".to_string(), Value::Str(nasty.to_string()))])
        );
        // The escapes `escape_into` never writes read back too.
        let other = parse(r#""\/\b\f\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(other.as_str(), Some("/\u{8}\u{c}é😀"));
    }

    #[test]
    fn parses_mixed_flat_object() {
        let parsed = parse(r#"{"ev":"B","id":3,"t_us":120}"#).unwrap();
        assert_eq!(parsed.get("ev").and_then(Value::as_str), Some("B"));
        assert_eq!(parsed.get("id").and_then(Value::as_u64), Some(3));
        assert_eq!(parsed.get("t_us").and_then(Value::as_u64), Some(120));
        assert_eq!(parsed.get("dur_us"), None);
    }

    #[test]
    fn rejects_nesting_and_floats() {
        // The reader takes any document; the trace reader refuses a nested
        // value or a float in a field it reads as an integer.
        assert!(parse(r#"{"a": {"b": [1.5]}}"#).is_ok());
        for line in [
            r#"{"ev":"B","id":{"b":1},"name":"x","t_us":0}"#,
            r#"{"ev":"B","id":1,"name":"x","t_us":1.5}"#,
            r#"{"ev":"X","id":1,"name":"x","t_us":0,"dur_us":[1]}"#,
            r#"{"ev":"B","id":1,"parent":1e3,"name":"x","t_us":0}"#,
            r#"{"ev":"B","id":1,"name":"x","thread":-1,"t_us":0}"#,
            r#"{"ev":"B","id":1,"name":"x","t_us":0} extra"#,
        ] {
            assert!(TraceEvent::parse_line(line).is_err(), "accepted {line}");
        }
    }

    #[test]
    fn reads_every_value_kind() {
        let doc =
            " {\"a\" :\t[1, -2.5, 3e2, -0.0E-1, true, false, null],\r\n \"b\": {}, \"c\": []} \n";
        let value = parse(doc).unwrap();
        let Some(Value::Array(items)) = value.get("a") else {
            panic!("{value:?}")
        };
        let numbers: Vec<f64> = items.iter().filter_map(Value::as_f64).collect();
        assert_eq!(numbers, [1.0, -2.5, 300.0, -0.0]);
        assert_eq!(
            items[4..],
            [Value::Bool(true), Value::Bool(false), Value::Null]
        );
        assert_eq!(value.get("b"), Some(&Value::Object(Vec::new())));
        assert_eq!(value.get("c"), Some(&Value::Array(Vec::new())));
    }

    #[test]
    fn integers_read_back_exactly() {
        let max = parse("18446744073709551615").unwrap();
        assert_eq!(max.as_u64(), Some(u64::MAX));
        // One past u64::MAX, a fraction or an exponent is not a u64.
        for text in ["18446744073709551616", "1.0", "1e3", "-1"] {
            let value = parse(text).unwrap();
            assert_eq!(value.as_u64(), None, "{text}");
            assert!(value.as_f64().is_some(), "{text}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\": }",
            "{\"a\" 1}",
            "{1: 2}",
            "[1 2]",
            "01",
            "1.",
            "-",
            "1e",
            ".5",
            "+1",
            "tru",
            "nul",
            "\"open",
            "\"\\x\"",
            "\"\\u12g4\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "[1, 2] trailing",
            "{\"a\": 01x}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        assert!(parse(&"[".repeat(100_000)).is_err());
    }
}
