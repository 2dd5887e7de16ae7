//! Hand-rolled JSON formatting helpers shared by every writer in the
//! workspace.
//!
//! The build environment has no network access to a JSON crate, so every
//! JSON document — epoch reports, checkpoint manifests, `BENCH_*.json`,
//! Chrome traces, `metrics.json` — is assembled with `format!`. These two helpers are the single source of truth
//! for string escaping and number formatting, so all writers emit the same
//! byte-for-byte encoding and the manifest reader in `marius-core` can parse
//! any of them back.

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
}
