//! The workspace's one JSON reader/writer: every socket line, cache entry,
//! sweep spec, trace event and registry snapshot goes through it.
//!
//! The build environment has no network access, so `serde_json` is not
//! available; this module implements exactly the subset the workspace
//! needs, on `std` alone — it sits in `dp-obs`, at the bottom of the crate
//! graph, so that the metrics registry can speak [`Json`] like every layer
//! above it. Three properties matter beyond plain conformance:
//!
//! - **Exact float round-trips.** Floats are written with Rust's `{}`
//!   formatting (`{:e}` past `i64`), which emits the shortest decimal
//!   string that parses back to the identical bit pattern. Cached `CellSummary` values therefore
//!   reproduce cold-run output *byte for byte*.
//! - **Exact integers.** Number tokens without `.`/`e` parse as [`Json::Int`]
//!   (`i64`), so instruction and launch counters never pass through `f64`.
//! - **Bounded nesting.** The parser is recursive and reads bytes from
//!   outside the process (a request line is parsed before the auth check),
//!   so a document nested deeper than [`MAX_DEPTH`] is a parse error, not a
//!   stack overflow.
//!
//! The tree's scanner and writers are public, so that a reader or writer of
//! one known document shape can skip the tree and still read and write
//! every token byte for byte as the tree does: [`skip_ws`],
//! [`parse_string`] and [`parse_number`] are the tokens [`parse`] reads,
//! and [`write_string`], [`write_f64`] and [`Json::write`] are the text
//! [`Display`](std::fmt::Display) writes. `dp-sweep`'s cache check and
//! `dp-serve`'s hot requests and answers use them.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number token without a fraction or exponent.
    Int(i64),
    /// Any other number token.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object. Ordered map so output is deterministic.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// The value as an `f64` ([`Json::Int`] converts losslessly for the
    /// magnitudes the engine stores).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an `i64` (exact integers only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a `u64` (exact non-negative integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// A member of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// Appends the value's compact text to `out` — the bytes
    /// [`Display`](std::fmt::Display) writes, without a `String` of its own.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => write_f64(out, *v),
            Json::Str(s) => write_string(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Compact serialization with deterministic member order
/// (`value.to_string()` comes from this impl).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Appends `v` to `out` as [`Json::Float`] writes it.
///
/// `{}` is the shortest exact representation; integral floats print without
/// a fraction and would re-parse as Int, which `as_f64` converts back
/// losslessly — except -0.0, whose `{}` form "-0" would reparse as integer 0
/// and lose the sign bit, so it keeps an explicit fraction, and past `i64`,
/// where the parser refuses bare digits as an overflowing Int, so the float
/// keeps an exponent.
///
/// # Panics
///
/// Panics if `v` is not finite: JSON has no text for it.
pub fn write_f64(out: &mut String, v: f64) {
    assert!(v.is_finite(), "JSON cannot represent {v}");
    if v.to_bits() == (-0.0f64).to_bits() {
        out.push_str("-0.0");
    } else if v.abs() >= 9_223_372_036_854_775_808.0 {
        let _ = write!(out, "{v:e}");
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Appends `s` to `out` as a JSON string literal, quotes included — the
/// one string writer: trees, the trace emitter's line builder and the
/// daemon's directly written answers all escape through it.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    // Copy each run of bytes that need no escape with one `push_str`.
    // Every byte that does need one is ASCII, so a run always ends on a
    // scalar boundary.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Builds a [`Json::Object`] from key/value pairs.
pub fn object(members: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The deepest nesting of arrays and objects [`parse`] accepts. The deepest
/// document the workspace writes nests 6.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error, or
/// `nesting deeper than 128` for a document past [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut pos = 0;
    let value = parse_value(text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

/// Moves `*pos` past the JSON whitespace (space, tab, `\n`, `\r`) at it —
/// the whitespace [`parse`] skips between tokens.
#[inline]
pub fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// `depth` counts the arrays and objects already open around this value.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!("nesting deeper than {MAX_DEPTH}")),
        Some(b'{') => {
            *pos += 1;
            let mut members = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match parse_value(text, pos, depth + 1)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected `:` at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(text, pos, depth + 1)?;
                members.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(text, pos).map(|s| Json::Str(s.into_owned())),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid token at byte {pos}"))
    }
}

/// Reads the string token whose opening quote is at `*pos` — the token
/// [`parse`] reads for a string value or an object key — and leaves `*pos`
/// after its closing quote. A string without escapes is borrowed from
/// `text`; one with escapes is decoded into a `String` sized once, for the
/// raw text (no escape decodes longer than it is written). Public, like
/// [`parse_number`], for decoders of one known document shape.
///
/// # Errors
///
/// Returns a message for an unterminated string or a bad escape.
pub fn parse_string<'a>(text: &'a str, pos: &mut usize) -> Result<Cow<'a, str>, String> {
    let bytes = text.as_bytes();
    *pos += 1; // opening quote
    let start = *pos;
    // Both delimiters are ASCII, so every run ends on a scalar boundary.
    let delimiter = |from: usize| {
        bytes[from..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .map(|run| from + run)
            .ok_or_else(|| "unterminated string".to_string())
    };
    let end = delimiter(start)?;
    if bytes[end] == b'"' {
        *pos = end + 1;
        return Ok(Cow::Borrowed(&text[start..end]));
    }
    let mut out = String::with_capacity(raw_string_len(&bytes[start..]));
    out.push_str(&text[start..end]);
    *pos = end;
    loop {
        // `*pos` is at a backslash.
        *pos += 1;
        match bytes.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                let (mut code, hex) = hex4(bytes, *pos + 1)?;
                *pos += 4;
                // A scalar above U+FFFF is written as a high surrogate
                // escape followed by a low one; a surrogate alone, or the
                // two in the other order, is no scalar and is refused.
                if (0xD800..0xDC00).contains(&code) && bytes.get(*pos + 1..*pos + 3) == Some(b"\\u")
                {
                    let (low, _) = hex4(bytes, *pos + 3)?;
                    if (0xDC00..0xE000).contains(&low) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        *pos += 6;
                    }
                }
                let c =
                    char::from_u32(code).ok_or_else(|| format!("unsupported \\u escape {hex}"))?;
                out.push(c);
            }
            _ => return Err(format!("invalid escape at byte {pos}")),
        }
        *pos += 1;
        // Copy the run up to the next delimiter in one piece.
        let end = delimiter(*pos)?;
        out.push_str(&text[*pos..end]);
        *pos = end;
        if bytes[end] == b'"' {
            *pos += 1;
            return Ok(Cow::Owned(out));
        }
    }
}

/// The four hex digits of a `\u` escape starting at `at`: their value and
/// their text.
fn hex4(bytes: &[u8], at: usize) -> Result<(u32, &str), String> {
    let hex = bytes
        .get(at..at + 4)
        .ok_or_else(|| "truncated \\u escape".to_string())?;
    let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
    // `from_str_radix` alone would also take a sign: `\u+041` is no escape.
    if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("invalid \\u escape {hex}"));
    }
    let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
    Ok((code, hex))
}

/// The bytes of a string token's body up to its closing quote (or to the
/// end of `body`, when the token is unterminated): every backslash takes
/// the byte after it along, so an escaped quote does not end the body.
fn raw_string_len(body: &[u8]) -> usize {
    let mut at = 0;
    while let Some(&b) = body.get(at) {
        match b {
            b'"' => break,
            b'\\' => at += 2,
            _ => at += 1,
        }
    }
    at.min(body.len())
}

/// Reads the number token at `*pos` — the token [`parse`] reads for a
/// number value, by the same `str::parse` call — and leaves `*pos` after
/// it. Public for decoders of one known document shape that must read
/// every number exactly as the tree does.
///
/// # Errors
///
/// Returns a message when the token is empty or does not parse.
#[inline]
pub fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let token = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if float {
        token
            .parse::<f64>()
            .map(Json::Float)
            .map_err(|e| format!("bad number `{token}`: {e}"))
    } else {
        token
            .parse::<i64>()
            .map(Json::Int)
            .map_err(|e| format!("bad number `{token}`: {e}"))
    }
}

/// [`Json::Float`] from an `f64` (helper that keeps call sites short).
pub fn num(v: f64) -> Json {
    Json::Float(v)
}

/// [`Json::Int`] from a `u64`.
///
/// # Panics
///
/// Panics if the value exceeds `i64::MAX` (the engine's counters never do).
pub fn uint(v: u64) -> Json {
    Json::Int(i64::try_from(v).expect("counter fits i64"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let text = r#"{"a": [1, -2, 3.5], "b": {"c": true, "d": null}, "e": "x\"y\n"}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[1], Json::Int(-2));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\"y\n"));
        let reparsed = parse(&v.to_string()).unwrap();
        assert_eq!(v, reparsed);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [
            0.1,
            1.0 / 3.0,
            123456.789012345,
            -2.2250738585072014e-308,
            9007199254740993.0,
            -0.0,
            9_223_372_036_854_775_808.0,
            -1.8446744073709552e19,
            f64::MAX,
        ] {
            let text = Json::Float(x).to_string();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(x.to_bits(), back.to_bits(), "{x} → {text} → {back}");
        }
    }

    #[test]
    fn large_integers_stay_exact() {
        let v = parse("[9007199254740993, -9007199254740993]").unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_i64(), Some(9_007_199_254_740_993));
        assert_eq!(items[1].as_i64(), Some(-9_007_199_254_740_993));
    }

    #[test]
    fn syntax_errors_are_reported() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn nesting_is_capped() {
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let nested = |n: usize| open.repeat(n) + "0" + &close.repeat(n);
            assert!(parse(&nested(MAX_DEPTH)).is_ok());
            let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
            assert_eq!(err, "nesting deeper than 128");
        }
    }

    #[test]
    fn object_builder_orders_members() {
        let v = object([("b", Json::Int(2)), ("a", Json::Int(1))]);
        assert_eq!(v.to_string(), r#"{"a":1,"b":2}"#);
    }
}
