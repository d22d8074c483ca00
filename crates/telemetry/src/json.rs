//! Minimal hand-rolled JSON support.
//!
//! The workspace vendors no serde, and the telemetry wire format is
//! deliberately flat — every line is a single-level object of string and
//! number fields — so a small writer plus a key-extractor parser covers
//! both exporters and the `trace` binary's file mode without a dependency.
//!
//! Writer determinism: fields are emitted in a fixed order by the caller
//! and floats use Rust's shortest-roundtrip `Display`, so identical
//! reports serialize to identical bytes on every platform and worker
//! count.

use std::fmt::Write as _;

/// Append a JSON string literal (with escaping) to `out`.
pub fn push_str_field(out: &mut String, s: &str) {
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

/// Append a JSON number for `v`, mapping non-finite values to `null`
/// (JSON has no NaN/Inf). Integral floats keep a `.0` suffix via Rust's
/// `Display`, which is already shortest-roundtrip and deterministic.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            let _ = write!(out, "{:.1}", v);
        } else {
            let _ = write!(out, "{v}");
        }
    } else {
        out.push_str("null");
    }
}

/// Extract the raw value slice for `key` in a flat JSON object line.
///
/// Scans for `"key":` outside string literals, then returns the value
/// text up to the next top-level `,` or `}`. Returns `None` when the key
/// is absent. Only suitable for the flat single-level objects this crate
/// emits.
fn raw_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let bytes = line.as_bytes();
    let mut i = 0;
    let mut in_str = false;
    let mut escaped = false;
    while i < bytes.len() {
        let b = bytes[i];
        if in_str {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_str = false;
            }
            i += 1;
            continue;
        }
        if b == b'"' {
            // Candidate key start: match `"key"` then skip whitespace to `:`.
            let rest = &line[i + 1..];
            if let Some(stripped) = rest.strip_prefix(key) {
                if let Some(after_quote) = stripped.strip_prefix('"') {
                    let after_colon = after_quote.trim_start();
                    if let Some(val) = after_colon.strip_prefix(':') {
                        return Some(value_slice(val.trim_start()));
                    }
                }
            }
            in_str = true;
        }
        i += 1;
    }
    None
}

/// The value text starting at `val`, up to (not including) the top-level
/// terminator.
fn value_slice(val: &str) -> &str {
    let bytes = val.as_bytes();
    if bytes.first() == Some(&b'"') {
        let mut escaped = false;
        for (j, &b) in bytes.iter().enumerate().skip(1) {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                return &val[..=j];
            }
        }
        val
    } else {
        let end = bytes
            .iter()
            .position(|&b| b == b',' || b == b'}')
            .unwrap_or(bytes.len());
        val[..end].trim_end()
    }
}

/// Parse `key` as a `u64` from a flat JSON line.
pub fn json_u64(line: &str, key: &str) -> Option<u64> {
    raw_value(line, key)?.parse().ok()
}

/// Parse `key` as an `f64` from a flat JSON line (`null` → `None`).
pub fn json_f64(line: &str, key: &str) -> Option<f64> {
    let raw = raw_value(line, key)?;
    if raw == "null" {
        return None;
    }
    raw.parse().ok()
}

/// Parse `key` as an unescaped string from a flat JSON line.
pub fn json_str(line: &str, key: &str) -> Option<String> {
    let raw = raw_value(line, key)?;
    let inner = raw.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                if let Some(c) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    out.push(c);
                }
            }
            Some(other) => out.push(other),
            None => {}
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes_and_parser_roundtrips() {
        let mut line = String::from("{\"name\":");
        push_str_field(&mut line, "a\"b\\c\nd\te\u{1}");
        line.push_str(",\"n\":42,\"x\":");
        push_f64(&mut line, 1.5);
        line.push('}');
        assert_eq!(
            json_str(&line, "name").as_deref(),
            Some("a\"b\\c\nd\te\u{1}")
        );
        assert_eq!(json_u64(&line, "n"), Some(42));
        assert_eq!(json_f64(&line, "x"), Some(1.5));
        assert_eq!(json_u64(&line, "missing"), None);
    }

    #[test]
    fn key_inside_string_value_is_not_matched() {
        let line = r#"{"msg":"fake \"n\": 7 here","n":3}"#;
        assert_eq!(json_u64(line, "n"), Some(3));
        assert_eq!(json_str(line, "msg").as_deref(), Some("fake \"n\": 7 here"));
    }

    #[test]
    fn floats_serialize_deterministically() {
        let mut s = String::new();
        push_f64(&mut s, 3.0);
        s.push(' ');
        push_f64(&mut s, f64::NAN);
        s.push(' ');
        push_f64(&mut s, 0.1);
        assert_eq!(s, "3.0 null 0.1");
        assert_eq!(json_f64("{\"v\":null}", "v"), None);
    }

    #[test]
    fn value_slice_stops_at_terminators() {
        let line = r#"{"a":12,"b":"x,y}","c":7}"#;
        assert_eq!(json_u64(line, "a"), Some(12));
        assert_eq!(json_str(line, "b").as_deref(), Some("x,y}"));
        assert_eq!(json_u64(line, "c"), Some(7));
    }
}
