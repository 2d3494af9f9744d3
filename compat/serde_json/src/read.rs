//! Deserialization: JSON text → `serde::de::Content` → `Deserialize` impls.

use crate::Error;
use serde::de::{Content, ContentDeserializer};

/// Parses JSON text into any `Deserialize` type.
pub fn from_str<'de, T: serde::Deserialize<'de>>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 1,
    };
    p.skip_ws();
    let content = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at offset {}", p.pos)));
    }
    T::deserialize(ContentDeserializer::<Error>::new(content))
}

/// Deepest value nesting accepted (the top-level value is level 1), as
/// upstream serde_json's default recursion limit: parsing recurses once
/// per level, so an unbounded depth lets one small hostile frame
/// overflow the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Nesting level of the value being parsed.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected {:?} at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Content, Error> {
        self.skip_ws();
        match self.peek() {
            None => Err(Error("unexpected end of input".to_string())),
            Some(b'n') if self.eat_literal("null") => Ok(Content::Null),
            Some(b't') if self.eat_literal("true") => Ok(Content::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Content::Bool(false)),
            Some(b'"') => self.parse_string().map(Content::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Content::Seq(items));
                }
                loop {
                    items.push(self.parse_nested()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Content::Seq(items));
                        }
                        _ => {
                            return Err(Error(format!(
                                "expected ',' or ']' at offset {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Content::Map(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.parse_nested()?;
                    entries.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Content::Map(entries));
                        }
                        _ => {
                            return Err(Error(format!(
                                "expected ',' or '}}' at offset {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(b) => Err(Error(format!(
                "unexpected character {:?} at offset {}",
                b as char, self.pos
            ))),
        }
    }

    /// Parses an array element or object member: one level deeper,
    /// within [`MAX_DEPTH`].
    fn parse_nested(&mut self) -> Result<Content, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error(format!(
                "recursion limit exceeded at offset {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = self.parse_value();
        self.depth -= 1;
        value
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| Error(format!("invalid UTF-8 in string: {e}")))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error("unterminated escape".to_string()))?;
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
                            let hi = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: the next escape must be a
                                // low surrogate, or the input is rejected.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(Error(format!(
                                        "unpaired surrogate \\u{hi:04x} at offset {}",
                                        self.pos
                                    )));
                                }
                                char::from_u32(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| {
                                Error(format!("invalid \\u escape at offset {}", self.pos))
                            })?);
                        }
                        other => return Err(Error(format!("invalid escape \\{}", other as char))),
                    }
                }
                _ => return Err(Error("unterminated string".to_string())),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(Error("truncated \\u escape".to_string()));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| Error("invalid \\u escape".to_string()))?;
        let v =
            u32::from_str_radix(hex, 16).map_err(|_| Error("invalid \\u escape".to_string()))?;
        self.pos = end;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Content, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Content::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Content::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Content::F64)
            .map_err(|_| Error(format!("invalid number {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use crate::{from_str, Map, Number, Value};

    #[test]
    fn nesting_is_capped_at_the_recursion_limit() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(from_str::<Value>(&nested(128)).is_ok());
        let err = from_str::<Value>(&nested(129)).expect_err("too deep");
        assert!(err.to_string().contains("recursion limit"), "{err}");
        // Far past the limit is an error too, not a stack overflow.
        assert!(from_str::<Value>(&nested(50_000)).is_err());
        let object = |depth: usize| r#"{"a":"#.repeat(depth) + "1" + &"}".repeat(depth);
        assert!(from_str::<Value>(&object(127)).is_ok());
        assert!(from_str::<Value>(&object(128)).is_err());
    }

    fn number(text: &str) -> Number {
        match from_str::<Value>(text) {
            Ok(Value::Number(n)) => n,
            other => panic!("{text}: {other:?}"),
        }
    }

    fn refused(text: &str) -> String {
        from_str::<Value>(text).expect_err(text).to_string()
    }

    #[test]
    fn whitespace_around_tokens_is_skipped() {
        let v: Value = from_str(" \t\r\n[ 1 ,\n{ \"a\" : true } ] \n").unwrap();
        assert_eq!(v[0].as_u64(), Some(1));
        assert_eq!(v[1]["a"].as_bool(), Some(true));
    }

    #[test]
    fn trailing_characters_are_refused() {
        for text in ["1 2", "{} {}", "null,", "[1]]", "\"a\"x"] {
            assert!(refused(text).contains("trailing characters"), "{text}");
        }
    }

    #[test]
    fn literals_must_be_spelled_out() {
        assert_eq!(from_str::<Value>("null").unwrap(), Value::Null);
        assert_eq!(from_str::<Value>("false").unwrap(), Value::Bool(false));
        for text in ["nul", "tru", "f", "True", "NULL", "", "   "] {
            refused(text);
        }
    }

    #[test]
    fn every_short_escape_decodes() {
        let s: String = from_str(r#""\"\\\/\b\f\n\r\t\u0041\u00e9""#).unwrap();
        assert_eq!(s, "\"\\/\u{8}\u{c}\n\r\tA\u{e9}");
    }

    #[test]
    fn bad_escapes_are_refused() {
        assert!(refused(r#""\x""#).contains("invalid escape"));
        assert!(refused(r#""\u12""#).contains("truncated"));
        assert!(refused(r#""\u12g4""#).contains("invalid \\u escape"));
        assert!(refused(r#""\"#).contains("unterminated escape"));
    }

    #[test]
    fn raw_control_characters_and_open_strings_are_refused() {
        for text in ["\"a\nb\"", "\"\u{1}\"", "\"abc", "\""] {
            assert!(refused(text).contains("unterminated string"), "{text:?}");
        }
    }

    #[test]
    fn integers_keep_their_sign_and_width() {
        assert_eq!(number("0"), Number::U64(0));
        assert_eq!(number("18446744073709551615"), Number::U64(u64::MAX));
        assert_eq!(number("-1"), Number::I64(-1));
        assert_eq!(number("-9223372036854775808"), Number::I64(i64::MIN));
        // Past both integer widths the value is read as a float.
        assert_eq!(
            number("18446744073709551616"),
            Number::F64(18446744073709551616.0)
        );
        assert_eq!(
            number("-9223372036854775809"),
            Number::F64(-9223372036854775809.0)
        );
    }

    #[test]
    fn fractions_and_exponents_are_floats() {
        assert_eq!(number("1.5"), Number::F64(1.5));
        assert_eq!(number("1e3"), Number::F64(1000.0));
        assert_eq!(number("2E+2"), Number::F64(200.0));
        assert_eq!(number("-25e-2"), Number::F64(-0.25));
        let zero = number("-0.0");
        assert!(matches!(zero, Number::F64(x) if x == 0.0 && x.is_sign_negative()));
        for text in ["-", "1e", "1e+", "-x", "+1", ".5"] {
            refused(text);
        }
    }

    #[test]
    fn unclosed_and_malformed_containers_are_refused() {
        assert!(refused("[1 2]").contains("expected ',' or ']'"));
        assert!(refused(r#"{"a":1 "b":2}"#).contains("expected ',' or '}'"));
        assert!(refused(r#"{"a" 1}"#).contains("expected ':'"));
        assert!(refused("{1:2}").contains("expected '\"'"));
        for text in ["[", "[1,", "[1,]", "{", r#"{"a":"#, r#"{"a":1,}"#, "]", "}"] {
            refused(text);
        }
    }

    #[test]
    fn empty_containers_and_repeated_keys() {
        assert_eq!(from_str::<Value>("[ ]").unwrap(), Value::Array(Vec::new()));
        assert_eq!(from_str::<Value>("{ }").unwrap(), Value::Object(Map::new()));
        // A repeated key keeps its first position and its last value.
        let v: Value = from_str(r#"{"a":1,"b":2,"a":3}"#).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["a", "b"]);
        assert_eq!(v["a"].as_u64(), Some(3));
    }
}
