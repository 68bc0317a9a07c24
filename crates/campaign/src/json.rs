//! Hand-rolled JSON decoder — the matching half of the [`crate::jsonl`]
//! encoder.
//!
//! The workspace's vendored `serde` is a no-op stand-in, so decoding is
//! hand-rolled like the encoding: a small recursive-descent parser from
//! `&str` to [`JsonValue`] with byte-offset error positions. It is used by
//! the serve protocol (requests and responses travel as one JSON object per
//! line, [`crate::protocol`]) and is deliberately total: any input —
//! truncated, malformed, non-UTF-8-lossy garbage, absurdly nested — yields
//! a typed [`JsonError`], never a panic. Nesting depth is bounded so
//! adversarial `[[[[…` frames cannot overflow the stack.

use std::fmt;

/// Maximum container nesting depth the parser accepts. Protocol frames are
/// at most a few levels deep; the bound exists so hostile input cannot
/// recurse the parser into a stack overflow.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
///
/// Objects preserve key order (the encoder emits fixed field orders, and
/// round-trip tests compare documents structurally).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal that fits a `u64`, kept exact.
    Integer(u64),
    /// Any other JSON number.
    Number(f64),
    /// A string literal, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, as ordered key/value pairs.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a complete JSON document (surrounding whitespace allowed;
    /// trailing non-whitespace is an error).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos < p.bytes.len() {
            return Err(p.err(JsonErrorKind::TrailingData));
        }
        Ok(value)
    }

    /// Looks a key up in an object; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number (integers round to the
    /// nearest `f64`, exactly as parsing their literal would).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Integer(n) => Some(*n as f64),
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The exact value of a non-negative integer literal.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Integer(n) => Some(*n),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// What went wrong while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// Input ended inside a value, string or literal.
    UnexpectedEof,
    /// A byte that cannot start or continue the expected construct.
    UnexpectedByte(u8),
    /// Extra non-whitespace input after the document.
    TrailingData,
    /// A malformed number literal.
    InvalidNumber,
    /// A backslash escape the grammar does not define.
    InvalidEscape,
    /// A `\uXXXX` escape that is not four hex digits or encodes an unpaired
    /// surrogate.
    InvalidUnicode,
    /// A string containing bytes that are not valid UTF-8.
    InvalidUtf8,
    /// An unescaped control character inside a string literal.
    ControlInString,
    /// Containers nested beyond the parser's depth bound.
    TooDeep,
}

/// A decoding failure: what and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the problem in the input.
    pub offset: usize,
    /// The kind of problem.
    pub kind: JsonErrorKind,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match &self.kind {
            JsonErrorKind::UnexpectedEof => "unexpected end of input".to_string(),
            JsonErrorKind::UnexpectedByte(b) if b.is_ascii_graphic() => {
                format!("unexpected character `{}`", *b as char)
            }
            JsonErrorKind::UnexpectedByte(b) => format!("unexpected byte 0x{b:02x}"),
            JsonErrorKind::TrailingData => "trailing data after the document".to_string(),
            JsonErrorKind::InvalidNumber => "malformed number".to_string(),
            JsonErrorKind::InvalidEscape => "invalid string escape".to_string(),
            JsonErrorKind::InvalidUnicode => "invalid \\u escape".to_string(),
            JsonErrorKind::InvalidUtf8 => "string is not valid UTF-8".to_string(),
            JsonErrorKind::ControlInString => "unescaped control character in string".to_string(),
            JsonErrorKind::TooDeep => format!("nesting deeper than {MAX_DEPTH} levels"),
        };
        write!(f, "{what} at byte {}", self.offset)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, kind: JsonErrorKind) -> JsonError {
        JsonError {
            offset: self.pos,
            kind,
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
        match self.peek() {
            Some(b) if b == byte => {
                self.pos += 1;
                Ok(())
            }
            Some(b) => Err(self.err(JsonErrorKind::UnexpectedByte(b))),
            None => Err(self.err(JsonErrorKind::UnexpectedEof)),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else if self.bytes.len() - self.pos < word.len() {
            Err(self.err(JsonErrorKind::UnexpectedEof))
        } else {
            Err(self.err(JsonErrorKind::UnexpectedByte(self.bytes[self.pos])))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err(JsonErrorKind::TooDeep));
        }
        match self.peek() {
            None => Err(self.err(JsonErrorKind::UnexpectedEof)),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(self.err(JsonErrorKind::UnexpectedByte(b))),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                Some(b) => return Err(self.err(JsonErrorKind::UnexpectedByte(b))),
                None => return Err(self.err(JsonErrorKind::UnexpectedEof)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                Some(b) => return Err(self.err(JsonErrorKind::UnexpectedByte(b))),
                None => return Err(self.err(JsonErrorKind::UnexpectedEof)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut code: u16 = 0;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(b @ b'0'..=b'9') => b - b'0',
                Some(b @ b'a'..=b'f') => b - b'a' + 10,
                Some(b @ b'A'..=b'F') => b - b'A' + 10,
                Some(_) => return Err(self.err(JsonErrorKind::InvalidUnicode)),
                None => return Err(self.err(JsonErrorKind::UnexpectedEof)),
            };
            code = code << 4 | u16::from(digit);
            self.pos += 1;
        }
        Ok(code)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut raw = Vec::new();
        loop {
            match self.peek() {
                None => return Err(self.err(JsonErrorKind::UnexpectedEof)),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(raw)
                        .map_err(|_| self.err(JsonErrorKind::InvalidUtf8));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        None => return Err(self.err(JsonErrorKind::UnexpectedEof)),
                        Some(b'"') => raw.push(b'"'),
                        Some(b'\\') => raw.push(b'\\'),
                        Some(b'/') => raw.push(b'/'),
                        Some(b'b') => raw.push(0x08),
                        Some(b'f') => raw.push(0x0c),
                        Some(b'n') => raw.push(b'\n'),
                        Some(b'r') => raw.push(b'\r'),
                        Some(b't') => raw.push(b'\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.hex4()?;
                            let ch = if (0xd800..0xdc00).contains(&unit) {
                                // High surrogate: a low surrogate must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err(JsonErrorKind::InvalidUnicode));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err(JsonErrorKind::InvalidUnicode));
                                }
                                self.pos += 1;
                                let low = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(self.err(JsonErrorKind::InvalidUnicode));
                                }
                                let high = u32::from(unit - 0xd800);
                                let low = u32::from(low - 0xdc00);
                                char::from_u32(0x10000 + (high << 10 | low))
                                    .ok_or_else(|| self.err(JsonErrorKind::InvalidUnicode))?
                            } else {
                                char::from_u32(u32::from(unit))
                                    .ok_or_else(|| self.err(JsonErrorKind::InvalidUnicode))?
                            };
                            let mut buf = [0u8; 4];
                            raw.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                            // hex4/the surrogate path already advanced pos
                            // past the escape; skip the shared += 1 below.
                            continue;
                        }
                        Some(_) => return Err(self.err(JsonErrorKind::InvalidEscape)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err(JsonErrorKind::ControlInString)),
                Some(b) => {
                    raw.push(b);
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err(JsonErrorKind::InvalidNumber));
        }
        // JSON forbids leading zeros ("01"); tolerate them — the encoder
        // never emits them and strictness here buys nothing.
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err(JsonErrorKind::InvalidNumber));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err(JsonErrorKind::InvalidNumber));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII digits and punctuation");
        // `u64` parsing accepts exactly the digit-only literals that fit.
        text.parse()
            .map(JsonValue::Integer)
            .or_else(|_| text.parse().map(JsonValue::Number))
            .map_err(|_| JsonError {
                offset: start,
                kind: JsonErrorKind::InvalidNumber,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_parse() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(
            JsonValue::parse("-12.5e2").unwrap(),
            JsonValue::Number(-1250.0)
        );
        assert_eq!(
            JsonValue::parse("\"a\\n\\\"b\\\"\"").unwrap(),
            JsonValue::String("a\n\"b\"".to_string())
        );
    }

    #[test]
    fn integers_above_2_pow_53_decode_exactly() {
        for n in [(1_u64 << 53) + 1, u64::MAX] {
            let value = JsonValue::parse(&n.to_string()).unwrap();
            assert_eq!(value.as_u64(), Some(n));
            assert_eq!(value.as_f64(), Some(n as f64));
        }
        // Past u64::MAX, and anything signed or fractional, is a float.
        let past = JsonValue::parse("18446744073709551616").unwrap();
        assert_eq!(past, JsonValue::Number(18446744073709551616.0));
        for text in ["-1", "-0", "1.0", "1e3"] {
            assert_eq!(JsonValue::parse(text).unwrap().as_u64(), None, "{text}");
        }
    }

    #[test]
    fn containers_preserve_order_and_support_lookup() {
        let v = JsonValue::parse(r#"{"b":1,"a":[true,null,"x"],"c":{"d":2}}"#).unwrap();
        assert_eq!(v.get("b").and_then(JsonValue::as_u64), Some(1));
        let a = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[2].as_str(), Some("x"));
        assert_eq!(
            v.get("c")
                .and_then(|c| c.get("d"))
                .and_then(JsonValue::as_f64),
            Some(2.0)
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            JsonValue::parse("\"\\u00e9\\ud83d\\ude00\"").unwrap(),
            JsonValue::String("é😀".to_string())
        );
        // Unpaired surrogate.
        assert_eq!(
            JsonValue::parse("\"\\ud83d\"").unwrap_err().kind,
            JsonErrorKind::InvalidUnicode
        );
    }

    #[test]
    fn malformed_documents_yield_typed_errors() {
        for (text, kind) in [
            ("", JsonErrorKind::UnexpectedEof),
            ("{", JsonErrorKind::UnexpectedEof),
            ("{\"a\"", JsonErrorKind::UnexpectedEof),
            ("[1,", JsonErrorKind::UnexpectedEof),
            ("\"abc", JsonErrorKind::UnexpectedEof),
            ("tru", JsonErrorKind::UnexpectedEof),
            ("truX", JsonErrorKind::UnexpectedByte(b't')),
            ("[1 2]", JsonErrorKind::UnexpectedByte(b'2')),
            ("{} {}", JsonErrorKind::TrailingData),
            ("1.", JsonErrorKind::InvalidNumber),
            ("-", JsonErrorKind::InvalidNumber),
            ("1e", JsonErrorKind::InvalidNumber),
            ("\"\\x\"", JsonErrorKind::InvalidEscape),
            ("\"\\u12g4\"", JsonErrorKind::InvalidUnicode),
            ("\"a\nb\"", JsonErrorKind::ControlInString),
        ] {
            let err = JsonValue::parse(text).expect_err(text);
            assert_eq!(err.kind, kind, "input: {text:?}");
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn hostile_nesting_is_bounded_not_fatal() {
        let deep = "[".repeat(10_000);
        assert_eq!(
            JsonValue::parse(&deep).unwrap_err().kind,
            JsonErrorKind::TooDeep
        );
    }

    #[test]
    fn encoder_output_round_trips() {
        // A line shaped exactly like the jsonl encoder's records.
        let line = "{\"benchmark\":\"b\\\"1\\\"\",\"tool\":\"contango\",\"sinks\":10,\
                    \"status\":\"ok\",\"clr_ps\":12.5,\"skew_ps\":0.125,\
                    \"stages\":[{\"stage\":\"INITIAL\",\"clr_ps\":20,\"skew_ps\":5.5}]}";
        let v = JsonValue::parse(line).unwrap();
        assert_eq!(
            v.get("benchmark").and_then(JsonValue::as_str),
            Some("b\"1\"")
        );
        assert_eq!(v.get("sinks").and_then(JsonValue::as_u64), Some(10));
        let stages = v.get("stages").and_then(JsonValue::as_array).unwrap();
        assert_eq!(
            stages[0].get("stage").and_then(JsonValue::as_str),
            Some("INITIAL")
        );
    }
}
