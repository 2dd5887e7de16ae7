//! The workspace's one JSON module: it writes and it reads.
//!
//! The build environment has no network access to a JSON crate, so this
//! module is the single source of truth for the encoding every document in
//! the workspace uses — epoch reports, checkpoint manifests, `BENCH_*.json`,
//! Chrome traces, `metrics.json`. [`escape`] and [`num`] spell strings and
//! numbers (the streaming trace and metrics writers call them directly);
//! [`Json`] is a document tree that [`Json::render`] writes compactly with
//! those same two spellings and [`Json::parse`] reads back. Numbers keep
//! their raw token text, so `u64` values round-trip without passing through
//! `f64`.

use std::fmt;

/// Escapes a string for embedding inside a JSON string literal (the
/// surrounding quotes are the caller's job).
///
/// Control characters below `0x20` become `\u00XX`; quotes and backslashes
/// are backslash-escaped; everything else passes through unchanged.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number token.
///
/// Rust's shortest-round-trip `Display` already produces valid JSON for
/// finite values and parses back to identical bits; non-finite values (which
/// JSON cannot represent) are mapped to `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Why a document did not parse, or a value was not the shape asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for JsonError {}

type Result<T> = std::result::Result<T, JsonError>;

fn bad(reason: impl Into<String>) -> JsonError {
    JsonError(reason.into())
}

/// A JSON value.
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
    /// A float as [`num`] spells it: finite values as numbers, anything else
    /// as `null`.
    pub fn float(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(num(v))
        } else {
            Json::Null
        }
    }

    /// A 64-bit word as a `"0x…"` string of 16 hex digits — the encoding of
    /// bit patterns (RNG words, `f64` bits, checksums).
    pub fn hex(word: u64) -> Json {
        Json::Str(format!("{word:#018x}"))
    }

    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Renders the value compactly: no whitespace, strings through
    /// [`escape`], numbers as their token text.
    pub fn render(&self) -> String {
        let join = |items: Vec<String>| items.join(",");
        match self {
            Json::Null => "null".into(),
            Json::Bool(b) => b.to_string(),
            Json::Num(raw) => raw.clone(),
            Json::Str(s) => format!("\"{}\"", escape(s)),
            Json::Arr(items) => format!("[{}]", join(items.iter().map(Json::render).collect())),
            Json::Obj(pairs) => {
                let pairs = pairs
                    .iter()
                    .map(|(k, v)| format!("\"{}\":{}", escape(k), v.render()));
                format!("{{{}}}", join(pairs.collect()))
            }
        }
    }

    /// Parses a complete JSON document (rejecting trailing garbage).
    pub fn parse(text: &str) -> Result<Json> {
        let mut p = Parser {
            text,
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
        self.number("an unsigned integer")
    }

    /// The value as an `f64`. Finite floats written with Rust's shortest
    /// display formatting parse back to identical bits.
    pub fn as_f64(&self) -> Result<f64> {
        self.number("a number")
    }

    fn number<T: std::str::FromStr>(&self, what: &str) -> Result<T> {
        match self {
            Json::Num(raw) => raw
                .parse()
                .map_err(|_| bad(format!("expected {what}, found {raw:?}"))),
            other => Err(bad(format!("expected a number, found {other:?}"))),
        }
    }

    /// A `"0x…"` hex string as a `u64` (what [`Json::hex`] writes).
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
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
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
                            // Surrogate pairs do not occur in our documents
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
                    // Copy the run of plain characters up to the next quote
                    // or escape (both ASCII, so the run ends on a character
                    // boundary).
                    let start = self.pos - 1;
                    let end = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| start + n);
                    out.push_str(&self.text[start..end]);
                    self.pos = end;
                }
            }
        }
    }

    /// Parses `open item (',' item)* close`, with whitespace anywhere between
    /// tokens, reading each item with `item`.
    fn sequence<T>(
        &mut self,
        [open, close]: [u8; 2],
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        self.expect(open)?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek()? == close {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b if b == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                other => {
                    let (close, other) = (close as char, other as char);
                    return Err(bad(format!("expected ',' or {close:?}, found {other:?}")));
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json> {
        Ok(Json::Arr(self.sequence(*b"[]", Self::value)?))
    }

    fn object(&mut self) -> Result<Json> {
        let pairs = self.sequence(*b"{}", |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            Ok((key, p.value()?))
        })?;
        Ok(Json::Obj(pairs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny\tz\r"), "x\\ny\\tz\\r");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn num_is_valid_json() {
        assert_eq!(num(1.0), "1");
        assert_eq!(num(0.25), "0.25");
        assert_eq!(num(-3.5e300), format!("{}", -3.5e300));
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }

    #[test]
    fn num_round_trips_bits_for_finite_values() {
        for v in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -0.0] {
            let parsed: f64 = num(v).parse().unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits());
        }
    }

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
    fn render_writes_back_what_parse_read() {
        let text = r#"{"a":1,"b":[true,false,null],"c":{"d":"x\n\"y\"","e":-2.5e3},"f":[]}"#;
        assert_eq!(Json::parse(text).unwrap().render(), text);
        let built = Json::obj([("nan", Json::float(f64::NAN)), ("bits", Json::hex(1))]);
        assert_eq!(
            built.render(),
            r#"{"nan":null,"bits":"0x0000000000000001"}"#
        );
    }

    #[test]
    fn report_json_escapes_parse_back() {
        let escaped = escape("a\"b\\c\nd\te\u{1}");
        let doc = Json::parse(&format!("{{\"s\":\"{escaped}\"}}")).unwrap();
        assert_eq!(doc.str_field("s").unwrap(), "a\"b\\c\nd\te\u{1}");
    }
}
