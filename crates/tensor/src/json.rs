//! Minimal JSON support for the workspace's persistence paths.
//!
//! The offline build carries no serde, so the few JSON formats the
//! reproduction reads and writes — query-log lines
//! (`{"id":…,"history":[…]}`), flat experiment records, the bench report
//! and the telemetry exports it shape-checks — go through this small
//! value type instead. Numbers are held as `f64`; an `f32` round-trips
//! exactly because `f32 → f64` is lossless and `Display` for `f64` prints
//! the shortest representation that parses back to the same value.
//! Non-finite floats serialize as `null` and parse back as NaN (JSON has no
//! literal for them).

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Maximum container nesting depth. Parsing is recursive, so unbounded
/// depth on hostile input would overflow the stack (an abort, not a
/// catchable error); the workspace's own formats nest at most 2 deep.
const MAX_DEPTH: usize = 128;

/// Longest accepted number token. f64 shortest-round-trip output is under
/// 25 bytes and u64 under 21; anything much longer is hostile input that
/// should error rather than be silently collapsed to ±inf.
const MAX_NUMBER_LEN: usize = 512;

/// `2⁵³`: numbers are held as `f64`, which holds every integer up to here
/// exactly and `2⁵³ + 1` not at all.
pub const MAX_EXACT_INT: u64 = 1 << 53;

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// A non-negative integer up to [`MAX_EXACT_INT`]. Above it a number
    /// no longer names one integer (`2⁵³ + 1` parses as `2⁵³`), so it is
    /// `None` rather than a nearby id or a saturated `usize::MAX`.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            // fract() == 0.0 is the exact integrality test; a tolerance would
            // accept non-integers as indices.
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= MAX_EXACT_INT as f64 => {
                Some(*x as usize)
            }
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Interpret as a `Vec<usize>` (an array of non-negative integers).
    pub fn as_usize_vec(&self) -> Option<Vec<usize>> {
        self.as_arr()?.iter().map(|v| v.as_usize()).collect()
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", ch as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(b, pos, depth),
        Some(b'[') => parse_array(b, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len()
        && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    if *pos - start > MAX_NUMBER_LEN {
        return Err(format!("number longer than {MAX_NUMBER_LEN} bytes at byte {start}"));
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy a full UTF-8 scalar.
                let s = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let ch = s
                    .chars()
                    .next()
                    .ok_or_else(|| format!("unreadable scalar at byte {}", *pos))?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth + 1)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos, depth + 1)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// Write a float the way the rest of the file format expects: shortest
/// round-trip representation, `null` for non-finite values.
pub fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        // `Display` for floats prints the shortest string that parses back
        // to the same value.
        let _ = fmt::Write::write_fmt(out, format_args!("{x}"));
    } else {
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

impl Json {
    /// Serialize compactly (no whitespace), matching `serde_json::to_string`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_f64(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Serialize a `usize` slice as a compact JSON array (`[1,2,3]`).
pub fn usize_array_to_string(xs: &[usize]) -> String {
    let mut out = String::with_capacity(xs.len() * 4 + 2);
    out.push('[');
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = fmt::Write::write_fmt(&mut out, format_args!("{x}"));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = Json::parse(r#"{"a":[1,2.5,-3e2],"b":"hi\n","c":null,"d":true}"#).unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a, &[Json::Num(1.0), Json::Num(2.5), Json::Num(-300.0)]);
        assert_eq!(v.get("b").unwrap().as_str().unwrap(), "hi\n");
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert_eq!(v.get("d"), Some(&Json::Bool(true)));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("definitely not json").is_err());
        assert!(Json::parse("{not json}").is_err());
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("[1,2] extra").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn truncated_documents_error() {
        // Every prefix of a valid document must error, never panic.
        let full = r#"{"dims":[2,2],"data":[1.0,2.0,3.0,4.0]}"#;
        for cut in 0..full.len() {
            assert!(Json::parse(&full[..cut]).is_err(), "prefix of len {cut} must error");
        }
    }

    #[test]
    fn unterminated_strings_error() {
        for bad in [r#""never closed"#, r#"{"key"#, r#"["a", "b"#, "\"ends in escape\\"] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn bad_escapes_error() {
        for bad in [r#""\x00""#, r#""\u12"#, r#""\u12G4""#, r#""\"#, r#""\q""#] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        // Far beyond MAX_DEPTH; without the depth guard this would blow the
        // parser's stack (an abort, not an Err).
        let deep_arr = "[".repeat(100_000);
        assert!(Json::parse(&deep_arr).is_err());
        let deep_obj = "{\"k\":".repeat(100_000);
        assert!(Json::parse(&deep_obj).is_err());
        // Just under the limit still parses.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH - 1), "]".repeat(MAX_DEPTH - 1));
        assert!(Json::parse(&ok).is_ok());
        // Depth counts containers, not siblings: a wide flat array is fine.
        let wide = format!("[{}1]", "1,".repeat(10_000));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn overlong_numbers_error() {
        let huge_digits = "9".repeat(100_000);
        assert!(Json::parse(&huge_digits).is_err());
        let huge_exponent = format!("1e{}", "9".repeat(100_000));
        assert!(Json::parse(&huge_exponent).is_err());
        let many_signs = "-".repeat(100_000);
        assert!(Json::parse(&many_signs).is_err());
        // Ordinary precision is untouched.
        assert!(Json::parse("-1.7976931348623157e308").is_ok());
    }

    #[test]
    fn malformed_numbers_error() {
        for bad in ["1.2.3", "1e", "--5", "+", ".", "0x10", "1e+"] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn float_roundtrip_is_exact() {
        for x in [0.1f32, -3.75, 1e-20, f32::MAX, f32::MIN_POSITIVE, 0.0] {
            let mut s = String::new();
            write_f64(&mut s, x as f64);
            let back = Json::parse(&s).unwrap().as_f64().unwrap() as f32;
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {s}");
        }
    }

    #[test]
    fn non_finite_becomes_null_then_nan() {
        let mut s = String::new();
        write_f64(&mut s, f64::INFINITY);
        assert_eq!(s, "null");
        assert!(Json::parse("null").unwrap().as_f64().unwrap().is_nan());
    }

    #[test]
    fn usize_array_roundtrip() {
        let xs = vec![0usize, 3, 7, 123456];
        let s = usize_array_to_string(&xs);
        assert_eq!(s, "[0,3,7,123456]");
        assert_eq!(Json::parse(&s).unwrap().as_usize_vec().unwrap(), xs);
        assert_eq!(usize_array_to_string(&[]), "[]");
        assert_eq!(Json::parse("[]").unwrap().as_usize_vec().unwrap(), Vec::<usize>::new());
        let edge = Json::parse("9007199254740992").unwrap();
        assert_eq!(edge.as_usize(), Some(1 << 53));
        assert_eq!(Json::parse("1e20").unwrap().as_usize(), None, "must not saturate");
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "quote\" slash\\ newline\n tab\t control\u{1} unicode→";
        let mut s = String::new();
        write_escaped(&mut s, original);
        let back = Json::parse(&s).unwrap();
        assert_eq!(back.as_str().unwrap(), original);
    }
}
