//! A minimal JSON reader for checkpoint manifests.
//!
//! The build environment has no network access to a JSON crate, so manifests
//! are written with `format!` and read back with this hand-rolled
//! recursive-descent parser. Numbers keep their raw token text so
//! `u64` values round-trip without passing through `f64`.

use marius_storage::{Result, StorageError};

fn bad(reason: impl Into<String>) -> StorageError {
    StorageError::checkpoint(reason)
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered key/value pairs).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (rejecting trailing garbage).
    pub fn parse(text: &str) -> Result<Json> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(bad(format!("trailing bytes at offset {}", p.pos)));
        }
        Ok(value)
    }

    /// Object field lookup.
    pub fn field(&self, name: &str) -> Result<&Json> {
        match self {
            Json::Obj(pairs) => pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| bad(format!("missing field {name:?}"))),
            _ => Err(bad(format!("expected an object looking up {name:?}"))),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(bad(format!("expected a string, found {other:?}"))),
        }
    }

    /// The value as an array.
    pub fn as_array(&self) -> Result<&[Json]> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(bad(format!("expected an array, found {other:?}"))),
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(bad(format!("expected a bool, found {other:?}"))),
        }
    }

    /// The value as an exact `u64` (numbers only, no float detour).
    pub fn as_u64(&self) -> Result<u64> {
        match self {
            Json::Num(raw) => raw
                .parse::<u64>()
                .map_err(|_| bad(format!("expected an unsigned integer, found {raw:?}"))),
            other => Err(bad(format!("expected a number, found {other:?}"))),
        }
    }

    /// The value as an `f64`. Finite floats written with Rust's shortest
    /// display formatting parse back to identical bits.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Json::Num(raw) => raw
                .parse::<f64>()
                .map_err(|_| bad(format!("expected a number, found {raw:?}"))),
            other => Err(bad(format!("expected a number, found {other:?}"))),
        }
    }

    /// A `"0x…"` hex string as a `u64` — the encoding used for bit patterns
    /// (RNG words, f64 bits, checksums).
    pub fn as_hex_u64(&self) -> Result<u64> {
        let s = self.as_str()?;
        let digits = s
            .strip_prefix("0x")
            .ok_or_else(|| bad(format!("expected a 0x-prefixed hex string, found {s:?}")))?;
        u64::from_str_radix(digits, 16).map_err(|_| bad(format!("invalid hex string {s:?}")))
    }

    /// Shorthand: `field(name)?.as_str()`.
    pub fn str_field(&self, name: &str) -> Result<&str> {
        self.field(name)?.as_str()
    }

    /// Shorthand: `field(name)?.as_u64()`.
    pub fn u64_field(&self, name: &str) -> Result<u64> {
        self.field(name)?.as_u64()
    }

    /// Shorthand: `field(name)?.as_f64()`.
    pub fn f64_field(&self, name: &str) -> Result<f64> {
        self.field(name)?.as_f64()
    }

    /// Shorthand: `field(name)?.as_bool()`.
    pub fn bool_field(&self, name: &str) -> Result<bool> {
        self.field(name)?.as_bool()
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
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

    fn peek(&self) -> Result<u8> {
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| bad("unexpected end of document"))
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek()? != b {
            return Err(bad(format!(
                "expected {:?} at offset {}",
                b as char, self.pos
            )));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(bad(format!(
                "unexpected byte {:?} at offset {}",
                other as char, self.pos
            ))),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(bad(format!("invalid literal at offset {}", self.pos)))
        }
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9' => self.pos += 1,
                _ => break,
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| bad("non-UTF8 number token"))?;
        if raw.is_empty() || raw.parse::<f64>().is_err() {
            return Err(bad(format!("invalid number {raw:?} at offset {start}")));
        }
        Ok(Json::Num(raw.to_string()))
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek()?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek()?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(bad("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| bad("non-UTF8 \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| bad(format!("invalid \\u escape {hex:?}")))?;
                            self.pos += 4;
                            // Surrogate pairs do not occur in our manifests
                            // (all strings are ASCII-escaped control chars at
                            // most); map unpaired surrogates to the
                            // replacement character rather than erroring.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(bad(format!("invalid escape \\{}", other as char)));
                        }
                    }
                }
                _ => {
                    // Re-scan the full UTF-8 code point starting at pos - 1.
                    let start = self.pos - 1;
                    let s = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| bad("non-UTF8 string content"))?;
                    let c = s.chars().next().ok_or_else(|| bad("empty code point"))?;
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(bad(format!(
                        "expected ',' or ']' in array, found {:?}",
                        other as char
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek()? == b'}' {
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
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                other => {
                    return Err(bad(format!(
                        "expected ',' or '}}' in object, found {:?}",
                        other as char
                    )))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = Json::parse(
            r#"{"a": 1, "b": [true, false, null], "c": {"d": "x\n\"y\"", "e": -2.5e3}}"#,
        )
        .unwrap();
        assert_eq!(doc.u64_field("a").unwrap(), 1);
        let arr = doc.field("b").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 3);
        assert!(arr[0].as_bool().unwrap());
        assert_eq!(arr[2], Json::Null);
        let c = doc.field("c").unwrap();
        assert_eq!(c.str_field("d").unwrap(), "x\n\"y\"");
        assert_eq!(c.f64_field("e").unwrap(), -2500.0);
    }

    #[test]
    fn u64_values_round_trip_exactly() {
        let doc = Json::parse(&format!("{{\"v\":{}}}", u64::MAX)).unwrap();
        assert_eq!(doc.u64_field("v").unwrap(), u64::MAX);
    }

    #[test]
    fn hex_strings_decode_bit_patterns() {
        let doc = Json::parse(r#"{"bits":"0x400be30c0fb23703"}"#).unwrap();
        assert_eq!(
            doc.field("bits").unwrap().as_hex_u64().unwrap(),
            0x400be30c0fb23703
        );
        assert!(Json::parse(r#"{"bits":"nope"}"#)
            .unwrap()
            .field("bits")
            .unwrap()
            .as_hex_u64()
            .is_err());
    }

    #[test]
    fn f64_display_round_trips_through_parse() {
        for v in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -0.0] {
            let doc = Json::parse(&format!("{{\"v\":{v}}}")).unwrap();
            assert_eq!(doc.f64_field("v").unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn rejects_truncated_and_trailing_input() {
        assert!(Json::parse("{\"a\":").is_err());
        assert!(Json::parse("{\"a\":1} extra").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn report_json_escapes_parse_back() {
        let escaped = marius_telemetry::json::escape("a\"b\\c\nd\te\u{1}");
        let doc = Json::parse(&format!("{{\"s\":\"{escaped}\"}}")).unwrap();
        assert_eq!(doc.str_field("s").unwrap(), "a\"b\\c\nd\te\u{1}");
    }
}
