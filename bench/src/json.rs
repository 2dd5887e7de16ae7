//! JSON for run records and ledgers.
//!
//! Parsing is the workspace's manifest reader (`marius::core::checkpoint::json`)
//! and number / string formatting its telemetry helpers; this file adds only
//! the constructors, `Option`-returning lookups and the renderer the harness
//! needs on top of them.

pub use marius::core::checkpoint::json::Json;
use marius::telemetry::json::{escape, num as number_token};

/// A JSON number; non-finite values become `null`, as JSON has no token for
/// them.
pub fn num(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(number_token(v))
    } else {
        Json::Null
    }
}

pub fn text(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn parse(text: &str) -> Result<Json, String> {
    Json::parse(text).map_err(|e| e.to_string())
}

/// `value[key]`, when `value` is an object that has it.
pub fn get<'a>(value: &'a Json, key: &str) -> Option<&'a Json> {
    value.field(key).ok()
}

/// `value[key]` as a number.
pub fn get_f64(value: &Json, key: &str) -> Option<f64> {
    value.f64_field(key).ok()
}

/// `value[key]` as a string.
pub fn get_str<'a>(value: &'a Json, key: &str) -> Option<&'a str> {
    value.str_field(key).ok()
}

/// The elements of `value[key]`; empty when it is missing or not an array.
pub fn items<'a>(value: &'a Json, key: &str) -> &'a [Json] {
    get(value, key)
        .and_then(|v| v.as_array().ok())
        .unwrap_or(&[])
}

/// The key/value pairs of an object; empty for anything else.
pub fn entries(value: &Json) -> &[(String, Json)] {
    match value {
        Json::Obj(pairs) => pairs,
        _ => &[],
    }
}

/// Renders on one line.
pub fn render(value: &Json) -> String {
    let mut out = String::new();
    write(value, &mut out);
    out
}

fn write(value: &Json, out: &mut String) {
    let quoted = |s: &str, out: &mut String| {
        out.push('"');
        out.push_str(&escape(s));
        out.push('"');
    };
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(token) => out.push_str(token),
        Json::Str(s) => quoted(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                quoted(k, out);
                out.push(':');
                write(v, out);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_documents_parse_back() {
        let doc = obj([
            ("name", text("a \"quoted\"\nline")),
            ("n", num(1.25e-3)),
            ("big", num(268115.0)),
            ("nan", num(f64::NAN)),
            ("ok", Json::Bool(true)),
            ("list", Json::Arr(vec![num(-1.0), Json::Arr(vec![])])),
            ("empty", obj::<&str>([])),
        ]);
        let back = parse(&render(&doc)).unwrap();
        assert_eq!(back, doc);
        assert_eq!(get_f64(&back, "big"), Some(268115.0));
        assert_eq!(render(get(&back, "big").unwrap()), "268115");
        assert_eq!(get(&back, "nan"), Some(&Json::Null));
        assert_eq!(get_str(&back, "name"), Some("a \"quoted\"\nline"));
        assert_eq!(items(&back, "list").len(), 2);
        assert!(items(&back, "missing").is_empty());
        assert_eq!(entries(&back).len(), 7);
        assert!(parse("{\"a\":1} x").is_err());
    }
}
