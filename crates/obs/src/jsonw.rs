//! Minimal JSON writing helpers for telemetry exports.
//!
//! `wr-obs` sits below `wr-runtime` (the pool is instrumented with it), and
//! `wr-tensor` depends on `wr-runtime`, so this crate cannot use
//! `wr_tensor::json` without closing a dependency cycle. These helpers
//! write the same dialect — shortest round-trip floats, `null` for
//! non-finite values — and every export is parse-validated against
//! `wr_tensor::Json::parse` by the workspace-root integration tests.

/// Append `v` as a JSON number: shortest representation that round-trips
/// (Rust's `{:?}` for floats), integers without a trailing `.0`, and
/// `null` for NaN/±inf (JSON has no encoding for them).
pub(crate) fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    // Exact integrality test chooses the integer formatting; both
    // branches print the same value.
    if v.trunc() == v && v.abs() < 1e15 {
        out.push_str(&format!("{}", v as i64));
    } else {
        out.push_str(&format!("{v:?}"));
    }
}

/// Append `s` as a quoted JSON string with the mandatory escapes.
pub(crate) fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(v: f64) -> String {
        let mut s = String::new();
        write_f64(&mut s, v);
        s
    }

    #[test]
    fn numbers_round_trip_compactly() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(3.0), "3");
        assert_eq!(f(-17.0), "-17");
        assert_eq!(f(0.1), "0.1");
        assert_eq!(f(1.5e-9), "1.5e-9");
        assert_eq!(f(f64::NAN), "null");
        assert_eq!(f(f64::INFINITY), "null");
    }

    #[test]
    fn strings_escape_control_characters() {
        let mut s = String::new();
        write_str(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
