//! Offline stand-in for the `serde_json` crate.
//!
//! Bridges the serde stub's [`Value`] tree to JSON text: a hand-written
//! recursive-descent parser for `from_str`, and the `Value` renderer for
//! `to_string`/`to_string_pretty`. Covers the API surface this workspace
//! uses: `to_string`, `to_string_pretty`, `from_str`, `to_value`,
//! `from_value`, the [`Value`] type, and the [`json!`] macro.

use std::fmt;

pub use serde::Value;

/// Error produced by any serde_json stub operation.
#[derive(Debug, Clone)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Error {
        Error { message: message.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl serde::ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error::new(msg.to_string())
    }
}

impl serde::de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error::new(msg.to_string())
    }
}

/// Convenience alias matching serde_json.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes `value` to compact JSON text.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(to_value(value)?.to_json())
}

/// Serializes `value` to human-indented JSON text.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(to_value(value)?.to_json_pretty())
}

/// Serializes `value` into a [`Value`] tree.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Result<Value> {
    serde::__private::to_value_err(value)
}

/// Rebuilds a `T` from a [`Value`] tree.
pub fn from_value<T: serde::DeserializeOwned>(value: Value) -> Result<T> {
    serde::__private::from_value_err(value)
}

/// Parses JSON text into a `T`.
pub fn from_str<T: serde::DeserializeOwned>(text: &str) -> Result<T> {
    from_value(parse_value(text)?)
}

/// Builds a [`Value`] from JSON-ish literal syntax.
///
/// Object values and array elements may be arbitrary serializable
/// expressions; serialization failures panic (the stub has no fallible
/// serializers in practice).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($key:tt : $val:expr),* $(,)? }) => {
        $crate::Value::Map(vec![
            $( (::std::string::String::from($key), $crate::to_value(&$val).unwrap()) ),*
        ])
    };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Seq(vec![ $( $crate::to_value(&$elem).unwrap() ),* ])
    };
    ($other:expr) => { $crate::to_value(&$other).unwrap() };
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Deepest nesting of arrays and objects `from_str` accepts (serde_json's
/// default recursion limit). The parser recurses once per level, so an
/// unbounded depth would let one short line of `[` overflow the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
    depth: usize,
}

fn parse_value(text: &str) -> Result<Value> {
    let mut parser = Parser { bytes: text.as_bytes(), at: 0, depth: 0 };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.at != parser.bytes.len() {
        return Err(Error::new(format!("trailing input at byte {}", parser.at)));
    }
    Ok(value)
}

fn bad_unicode_escape() -> Error {
    Error::new("bad \\u escape")
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.at += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<()> {
        match self.peek() {
            Some(b) if b == byte => {
                self.at += 1;
                Ok(())
            }
            other => Err(Error::new(format!(
                "expected `{}` at byte {}, found {:?}",
                byte as char, self.at, other.map(|b| b as char)
            ))),
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        self.skip_ws();
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            None => Err(Error::new("unexpected end of input")),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(_) => self.number(),
        }
    }

    /// Parses one array or object, one level below the current one.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.at
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Value::Map(pairs));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            pairs.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Value::Map(pairs));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` in object, found {:?}",
                        other.map(|b| b as char)
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Value::Seq(items));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` in array, found {:?}",
                        other.map(|b| b as char)
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy everything up to the next quote or backslash at once:
            // one UTF-8 check and one copy per run keeps decoding linear.
            let rest = &self.bytes[self.at..];
            let run = rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
            let text =
                std::str::from_utf8(&rest[..run]).map_err(|_| Error::new("invalid UTF-8"))?;
            out.push_str(text);
            self.at += run;
            match self.bytes.get(self.at) {
                None => return Err(Error::new("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.at += 1;
                    self.escape(&mut out)?;
                }
            }
        }
    }

    /// Decodes the escape whose letter is at `self.at` (just past the
    /// backslash) and leaves `self.at` after it.
    fn escape(&mut self, out: &mut String) -> Result<()> {
        match self.bytes.get(self.at) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                let mut code = self.hex4()?;
                // RFC 8259 §7: a character outside the Basic Multilingual
                // Plane is escaped as a high surrogate followed by a low
                // one. A lone surrogate of either kind is an error
                // (`char::from_u32` refuses it).
                if (0xD800..0xDC00).contains(&code) {
                    if self.bytes.get(self.at + 1..self.at + 3) != Some(&b"\\u"[..]) {
                        return Err(bad_unicode_escape());
                    }
                    self.at += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(bad_unicode_escape());
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                }
                out.push(char::from_u32(code).ok_or_else(bad_unicode_escape)?);
            }
            other => return Err(Error::new(format!("bad escape {:?}", other.map(|&b| b as char)))),
        }
        self.at += 1;
        Ok(())
    }

    /// Reads the four hex digits after the `u` at `self.at` and leaves
    /// `self.at` on the last of them. Only hex digits count: no sign,
    /// no whitespace.
    fn hex4(&mut self) -> Result<u32> {
        let digits = self.bytes.get(self.at + 1..self.at + 5).ok_or_else(bad_unicode_escape)?;
        let code = digits
            .iter()
            .try_fold(0u32, |code, &b| Some(code * 16 + char::from(b).to_digit(16)?))
            .ok_or_else(bad_unicode_escape)?;
        self.at += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value> {
        self.skip_ws();
        let start = self.at;
        if self.bytes.get(self.at) == Some(&b'-') {
            self.at += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.at) {
            match b {
                b'0'..=b'9' => self.at += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.at += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at])
            .map_err(|_| Error::new("invalid number"))?;
        if text.is_empty() || text == "-" {
            return Err(Error::new(format!("expected number at byte {start}")));
        }
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| Error::new(format!("bad float `{text}`: {e}")))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|e| Error::new(format!("bad integer `{text}`: {e}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trip() {
        let text = r#"{"a": [1, -2, 3.5], "b": "x\ny", "c": null, "d": true}"#;
        let v: Value = from_str(text).unwrap();
        assert_eq!(v["a"][1], -2i64);
        assert_eq!(v["b"], "x\ny");
        assert!(v["c"].is_null());
        assert_eq!(v["d"], true);
        let back: Value = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_renders_nested() {
        let v = json!({"k": [1i64, 2], "empty": Vec::<i64>::new()});
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\"k\": [\n"));
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_fail() {
        // What Python's `json.dumps` writes for U+1F600.
        let v: Value = from_str(r#""a\ud83d\ude00b""#).unwrap();
        assert_eq!(v, "a\u{1F600}b");
        let v: Value = from_str(r#""\uD834\uDD1E""#).unwrap();
        assert_eq!(v, "\u{1D11E}");
        for bad in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\n""#,
            r#""\ud83dA""#,
            r#""\ud83d\ud83d""#,
            r#""\ude00""#,
            r#""\ud83d\ude0""#,
        ] {
            let err = from_str::<Value>(bad).unwrap_err();
            assert_eq!(err.to_string(), "bad \\u escape", "{bad}");
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        let v: Value = from_str(r#""\u0041\u00e9\u00E9""#).unwrap();
        assert_eq!(v, "A\u{e9}\u{e9}");
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u004g""#, r#""\u00""#] {
            assert!(from_str::<Value>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn strings_keep_raw_multibyte_text_and_errors() {
        let v: Value = from_str("\"\u{e9}\u{4e2d}\u{1F600}\\\"x\\\\\"").unwrap();
        assert_eq!(v, "\u{e9}\u{4e2d}\u{1F600}\"x\\");
        assert_eq!(from_str::<Value>(r#""abc"#).unwrap_err().to_string(), "unterminated string");
        assert_eq!(from_str::<Value>(r#""abc\"#).unwrap_err().to_string(), "bad escape None");
        assert_eq!(from_str::<Value>(r#""\q""#).unwrap_err().to_string(), "bad escape Some('q')");
    }

    #[test]
    fn nesting_is_limited_to_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
        let err = from_str::<Value>(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        let objects = format!("{}1{}", r#"{"k":"#.repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(from_str::<Value>(&objects).is_err());
        // Far deeper than any stack would survive without the limit.
        assert!(from_str::<Value>(&"[".repeat(600_000)).is_err());
        // Depth is per path, not a count of containers.
        let wide = format!("[{}]", vec![nested(MAX_DEPTH - 1); 3].join(","));
        assert!(from_str::<Value>(&wide).is_ok());
    }

    #[test]
    fn typed_round_trip() {
        let pairs: Vec<(String, i64)> = vec![("a".into(), 1), ("b".into(), 2)];
        let text = to_string(&pairs).unwrap();
        let back: Vec<(String, i64)> = from_str(&text).unwrap();
        assert_eq!(back, pairs);
    }
}
