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
//! - **Bounded nesting.** The reader is recursive and reads bytes from
//!   outside the process (a request line is parsed before the auth check),
//!   so a document nested deeper than [`MAX_DEPTH`] is a parse error, not a
//!   stack overflow.
//!
//! The grammar has one reader, [`Cursor`]. [`parse`] is its
//! [`Cursor::value`] and a check that nothing follows; a reader of one
//! known document shape (`dp-sweep`'s cache check, `dp-serve`'s request
//! lines and the shard's `sweep-cell` answers) asks the same cursor for the
//! tokens it expects and skips the tree. Such a reader gives the tree's
//! verdicts by reading each member with [`Cursor::or_skip`] or
//! [`Cursor::or_value`]: a value of another shape is read past as
//! [`Cursor::value`] reads it, so only a syntax error fails the read, at
//! the byte [`parse`] fails at. A read fails with an [`Error`], an offset
//! and a kind, which [`Error::message`] renders as [`parse`] reports it.
//! [`write_string`], [`write_f64`] and [`Json::write`] are the text
//! [`Display`](std::fmt::Display) writes, for writers that skip the tree
//! too.

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
/// JSON has no number for an infinity or a NaN: one is written `null`, as
/// `JSON.stringify` writes it, so no writer panics on a value it was handed.
/// A reader expecting a number refuses it; the daemon refuses such a
/// read-back before writing its answer.
pub fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v.to_bits() == (-0.0f64).to_bits() {
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
    let bytes = s.as_bytes();
    let mut run = 0;
    while let Some(i) = next_escape(bytes, run) {
        out.push_str(&s[run..i]);
        run = i + 1;
        match bytes[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)].into());
                out.push(HEX[usize::from(b & 0xf)].into());
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// The index of the first byte at or after `from` that a string literal
/// must escape: `"`, `\` or a control byte below 0x20. It reads eight
/// bytes a step, as one little-endian word: a transformed program is
/// kilobytes of text with an escape (its newlines) every few dozen bytes.
fn next_escape(bytes: &[u8], from: usize) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([1; 8]);
    const HIGH: u64 = ONES * 0x80;
    // `(v - ONES) & !v` sets a byte's high bit where the byte of `v` is 0,
    // and `(w - ONES * 0x20) & !w` where the byte of `w` is below 0x20. A
    // borrow can set bits above the first such byte too, never below it,
    // so the lowest marked byte is the first that needs an escape.
    let zero = |v: u64| v.wrapping_sub(ONES) & !v;
    let mut i = from;
    while let Some(chunk) = bytes.get(i..i + 8) {
        let w = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        let control = w.wrapping_sub(ONES * 0x20) & !w;
        let quote = zero(w ^ (ONES * u64::from(b'"')));
        let backslash = zero(w ^ (ONES * u64::from(b'\\')));
        let marked = (control | quote | backslash) & HIGH;
        if marked != 0 {
            return Some(i + marked.trailing_zeros() as usize / 8);
        }
        i += 8;
    }
    bytes[i..]
        .iter()
        .position(|&b| b < 0x20 || b == b'"' || b == b'\\')
        .map(|at| i + at)
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

/// The deepest nesting of arrays and objects a [`Cursor`] reads. The
/// deepest document the workspace writes nests 6.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document: one [`Cursor::value`], then nothing but
/// whitespace.
///
/// # Errors
///
/// The read's [`Error`] as a message: the byte offset of the first syntax
/// error, or `nesting deeper than 128` for a document past [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut cursor = Cursor::new(text);
    let value = cursor.value().and_then(|v| cursor.finish().map(|()| v));
    value.map_err(|e| e.message(text))
}

/// Why a [`Cursor`] read failed: the byte it failed at and what is wrong
/// there, which only [`Error::message`] spells out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error {
    at: usize,
    kind: Kind,
}

/// What a [`Cursor`] read gives.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// What is wrong at an [`Error`]'s offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// The message, whatever the offset.
    Plain(&'static str),
    /// The message, then ` at byte <offset>`.
    At(&'static str),
    /// An array or object opens inside [`MAX_DEPTH`] others.
    TooDeep,
    /// An object key that is another value than a string, read whole.
    KeyNotString,
    /// A `\u` escape whose four bytes are not four hex digits.
    BadUnicode,
    /// A `\u` escape naming a surrogate outside a high-low pair.
    Surrogate,
    /// A number token that leaves JSON's grammar at the byte given.
    Number(usize),
    /// A number token, ending before the byte given, past `i64` or `f64`.
    Range(usize),
}

impl Kind {
    fn at(self, at: usize) -> Error {
        Error { at, kind: self }
    }
}

impl Error {
    /// The message [`parse`] gives for this error in `text`, the text the
    /// failed read was reading.
    #[cold]
    pub fn message(self, text: &str) -> String {
        let Error { at, kind } = self;
        let bytes = text.as_bytes();
        match kind {
            Kind::Plain(message) => message.to_string(),
            Kind::At(what) => format!("{what} at byte {at}"),
            Kind::TooDeep => format!("nesting deeper than {MAX_DEPTH}"),
            Kind::KeyNotString => {
                // The key was read whole once already, so it reads again.
                let key = Cursor::new(&text[at..]).value().unwrap_or(Json::Null);
                format!("object key must be a string, got {key:?}")
            }
            Kind::BadUnicode => match std::str::from_utf8(&bytes[at..at + 4]) {
                Ok(hex) => format!("invalid \\u escape {hex}"),
                Err(e) => e.to_string(),
            },
            Kind::Surrogate => format!("unsupported \\u escape {}", &text[at..at + 4]),
            Kind::Number(end) => {
                let token = String::from_utf8_lossy(&bytes[at..bytes.len().min(end + 1)]);
                format!("bad number `{token}` at byte {at}")
            }
            Kind::Range(end) => {
                let token = &text[at..end];
                match token.parse::<i64>() {
                    Err(e) if !token.contains(['.', 'e', 'E']) => {
                        format!("bad number `{token}`: {e}")
                    }
                    _ => format!("number `{token}` overflows to infinity"),
                }
            }
        }
    }
}

/// Moves `*pos` past the JSON whitespace (space, tab, `\n`, `\r`) at it —
/// the whitespace [`parse`] skips between tokens.
#[inline]
fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Reads the string token whose opening quote is at `*pos` — the token
/// [`parse`] reads for a string value or an object key — and leaves `*pos`
/// after its closing quote. A string without escapes is borrowed from
/// `text`; one with escapes is decoded into a `String` sized once, for the
/// raw text (no escape decodes longer than it is written).
fn parse_string<'a>(text: &'a str, pos: &mut usize) -> Result<Cow<'a, str>> {
    let bytes = text.as_bytes();
    *pos += 1; // opening quote
    let start = *pos;
    // Both delimiters are ASCII, so every run ends on a scalar boundary.
    let delimiter = |from: usize| {
        bytes[from..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .map(|run| from + run)
            .ok_or(Kind::Plain("unterminated string").at(from))
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
                let first = *pos + 1;
                let mut code = hex4(bytes, first)?;
                *pos += 4;
                // A scalar above U+FFFF is written as a high surrogate
                // escape followed by a low one; a surrogate alone, or the
                // two in the other order, is no scalar and is refused.
                if (0xD800..0xDC00).contains(&code) && bytes.get(*pos + 1..*pos + 3) == Some(b"\\u")
                {
                    let low = hex4(bytes, *pos + 3)?;
                    if (0xDC00..0xE000).contains(&low) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        *pos += 6;
                    }
                }
                out.push(char::from_u32(code).ok_or(Kind::Surrogate.at(first))?);
            }
            _ => return Err(Kind::At("invalid escape").at(*pos)),
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

/// The value of the four hex digits of a `\u` escape starting at `at`.
fn hex4(bytes: &[u8], at: usize) -> Result<u32> {
    let hex = bytes
        .get(at..at + 4)
        .ok_or(Kind::Plain("truncated \\u escape").at(at))?;
    // `from_str_radix` alone would also take a sign: `\u+041` is no escape.
    let hex = std::str::from_utf8(hex).ok();
    let hex = hex.filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()));
    let code = hex.and_then(|hex| u32::from_str_radix(hex, 16).ok());
    code.ok_or(Kind::BadUnicode.at(at))
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
/// number value — and leaves `*pos` after it. The token follows JSON's
/// grammar, `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, checked in one
/// walk over its bytes. One without a fraction or an exponent is a
/// [`Json::Int`] (refused past `i64`), its value summed up in the same
/// walk; any other is the [`Json::Float`] `str::parse` reads, refused when
/// it overflows to infinity, which JSON has no text for. It inlines into
/// each cursor read, so a caller that converts the number at once never
/// holds the [`Json`].
#[inline(always)]
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    };
    let negative = bytes.get(*pos) == Some(&b'-');
    *pos += usize::from(negative);
    let int = *pos;
    // The integer part's magnitude, `None` once it passes `u64`.
    let mut magnitude = Some(0u64);
    while let Some(digit) = bytes.get(*pos).and_then(|b| b.checked_sub(b'0')) {
        if digit > 9 {
            break;
        }
        magnitude = magnitude
            .and_then(|m| m.checked_mul(10))
            .and_then(|m| m.checked_add(u64::from(digit)));
        *pos += 1;
    }
    // One leading zero, and only as the whole integer part.
    let mut valid = *pos > int && (bytes[int] != b'0' || *pos == int + 1);
    let mut float = false;
    if valid && bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        float = true;
        valid = digits(pos);
    }
    if valid && matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        float = true;
        *pos += usize::from(matches!(bytes.get(*pos), Some(b'+' | b'-')));
        valid = digits(pos);
    }
    if !valid {
        return Err(Kind::Number(*pos).at(start));
    }
    let value = if float {
        // Every byte of the token is ASCII.
        let token = std::str::from_utf8(&bytes[start..*pos]).unwrap_or_default();
        token
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .map(Json::Float)
    } else {
        // `-0` is `Int(0)`, and `-9223372036854775808` is `i64::MIN`.
        let exact = match magnitude {
            Some(m) if negative => {
                (m <= i64::MIN.unsigned_abs()).then(|| 0i64.wrapping_sub_unsigned(m))
            }
            Some(m) => i64::try_from(m).ok(),
            None => None,
        };
        exact.map(Json::Int)
    };
    value.ok_or(Kind::Range(*pos).at(start))
}

/// A cursor over one JSON text: the workspace's one reader of the grammar.
/// [`Cursor::value`] reads any value as a tree, which is what [`parse`]
/// does; a reader of one known document shape asks for the tokens it
/// expects instead and skips the tree. Each read skips the whitespace
/// before its token, and fails with an [`Error`] where the text is not the
/// token asked for. Arrays and objects nest at most [`MAX_DEPTH`] deep,
/// whoever reads them.
pub struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    /// The arrays and objects open around the read position.
    depth: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Cursor {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// The next token's first byte; `None` when only whitespace is left.
    #[inline]
    fn peek(&mut self) -> Option<u8> {
        skip_ws(self.text.as_bytes(), &mut self.pos);
        self.text.as_bytes().get(self.pos).copied()
    }

    /// The next token's first byte, which must be there.
    #[inline]
    fn next(&mut self) -> Result<u8> {
        self.peek()
            .ok_or(Kind::Plain("unexpected end of input").at(self.pos))
    }

    /// Takes `byte` if it is the next token.
    #[inline]
    fn eat(&mut self, byte: u8) -> bool {
        let next = self.peek() == Some(byte);
        self.pos += usize::from(next);
        next
    }

    /// Takes `byte`, which must be the next token: `what` was expected.
    fn expect(&mut self, byte: u8, what: &'static str) -> Result<()> {
        let eaten = self.eat(byte);
        eaten.then_some(()).ok_or(Kind::At(what).at(self.pos))
    }

    /// A refusal at the read position, for a reader of one shape that does
    /// not take the well-formed value there.
    fn refused(&self) -> Error {
        Kind::At("unexpected token").at(self.pos)
    }

    /// Nothing but whitespace is left: the end of a document.
    pub fn finish(&mut self) -> Result<()> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(Kind::At("trailing content").at(self.pos)),
        }
    }

    /// Any value, as a tree.
    pub fn value(&mut self) -> Result<Json> {
        match self.next()? {
            b'{' => {
                let mut members = BTreeMap::new();
                self.object(|cursor, name| {
                    members.insert(name.to_string(), cursor.value()?);
                    Ok(())
                })?;
                Ok(Json::Object(members))
            }
            b'[' => {
                let mut items = Vec::new();
                self.array(|cursor| {
                    items.push(cursor.value()?);
                    Ok(())
                })?;
                Ok(Json::Array(items))
            }
            b'"' => Ok(Json::Str(self.string()?.into_owned())),
            b't' => self.keyword("true", Json::Bool(true)),
            b'f' => self.keyword("false", Json::Bool(false)),
            b'n' => self.keyword("null", Json::Null),
            _ => self.number(),
        }
    }

    /// The value `read` takes; where `read` refuses it, the value read
    /// past as [`Cursor::value`] reads it, as a tree. Only a syntax error
    /// fails.
    pub fn or_value<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<Result<T, Json>> {
        let at = self.pos;
        read(self).map(Ok).or_else(|_| {
            self.pos = at;
            self.value().map(Err)
        })
    }

    /// [`Cursor::or_value`], with `None` for the value read past.
    pub fn or_skip<T>(&mut self, read: impl FnOnce(&mut Self) -> Result<T>) -> Result<Option<T>> {
        self.or_value(read).map(Result::ok)
    }

    /// A string, borrowed from the text unless it has escapes.
    #[inline]
    pub fn string(&mut self) -> Result<Cow<'a, str>> {
        if self.next()? != b'"' {
            return Err(self.refused());
        }
        parse_string(self.text, &mut self.pos)
    }

    /// A number: [`Json::Int`] or [`Json::Float`].
    #[inline]
    fn number(&mut self) -> Result<Json> {
        self.next()?;
        parse_number(self.text.as_bytes(), &mut self.pos)
    }

    /// A number, converted by `convert`, which may refuse it.
    #[inline]
    pub fn number_as<T>(&mut self, convert: impl Fn(&Json) -> Option<T>) -> Result<T> {
        // Not through `Cursor::number`, which stays a call of its own: with
        // `parse_number` inlined here, the `Json` never leaves this read.
        self.next()?;
        let number = parse_number(self.text.as_bytes(), &mut self.pos)?;
        convert(&number).ok_or(self.refused())
    }

    /// `true` or `false`.
    pub fn bool(&mut self) -> Result<bool> {
        match self.value()? {
            Json::Bool(b) => Ok(b),
            _ => Err(self.refused()),
        }
    }

    /// A keyword, spelled out.
    fn keyword(&mut self, word: &str, value: Json) -> Result<Json> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(Kind::At("invalid token").at(self.pos));
        }
        self.pos += word.len();
        Ok(value)
    }

    /// Takes `open`, which must be the next token, and runs `read` one
    /// level deeper.
    fn nested(&mut self, open: u8, read: impl FnOnce(&mut Self) -> Result<()>) -> Result<()> {
        if self.next()? != open {
            return Err(self.refused());
        }
        if self.depth == MAX_DEPTH {
            return Err(Kind::TooDeep.at(self.pos));
        }
        self.pos += 1;
        self.depth += 1;
        let read = read(self);
        self.depth -= 1;
        read
    }

    /// An object, its members handed to `member` by name, in the order the
    /// text gives them.
    pub fn object(&mut self, mut member: impl FnMut(&mut Self, &str) -> Result<()>) -> Result<()> {
        self.nested(b'{', |cursor| {
            if cursor.eat(b'}') {
                return Ok(());
            }
            loop {
                // A key of another type is read whole before it is refused:
                // a syntax error inside it comes first.
                if cursor.next()? != b'"' {
                    let at = cursor.pos;
                    cursor.value()?;
                    return Err(Kind::KeyNotString.at(at));
                }
                let name = cursor.string()?;
                cursor.expect(b':', "expected `:`")?;
                member(cursor, &name)?;
                if !cursor.eat(b',') {
                    return cursor.expect(b'}', "expected `,` or `}`");
                }
            }
        })
    }

    /// An array, its items handed to `item`.
    pub fn array(&mut self, mut item: impl FnMut(&mut Self) -> Result<()>) -> Result<()> {
        self.nested(b'[', |cursor| {
            if cursor.eat(b']') {
                return Ok(());
            }
            loop {
                item(cursor)?;
                if !cursor.eat(b',') {
                    return cursor.expect(b']', "expected `,` or `]`");
                }
            }
        })
    }

    /// An array of numbers, each converted by `convert`, in a vector
    /// allocated once: its length is counted from the commas before the
    /// first `]`, which no number token holds. An empty array, whatever
    /// its whitespace, allocates nothing.
    pub fn numbers<T>(&mut self, convert: impl Fn(&Json) -> Option<T>) -> Result<Vec<T>> {
        if self.next()? != b'[' {
            return Err(self.refused());
        }
        let rest = &self.text.as_bytes()[self.pos + 1..];
        let end = rest.iter().position(|&b| b == b']');
        let items = &rest[..end.ok_or(self.refused())?];
        let mut at = 0;
        skip_ws(items, &mut at);
        let mut out = Vec::with_capacity(if at == items.len() {
            0
        } else {
            1 + items.iter().filter(|&&b| b == b',').count()
        });
        self.array(|cursor| {
            out.push(cursor.number_as(&convert)?);
            Ok(())
        })?;
        Ok(out)
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
    fn non_finite_floats_are_written_null() {
        for v in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut out = String::new();
            write_f64(&mut out, v);
            assert_eq!(out, "null");
            assert_eq!(Json::Array(vec![Json::Float(v)]).to_string(), "[null]");
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
    fn numbers_follow_the_json_grammar() {
        for (text, value) in [
            ("0", Json::Int(0)),
            ("-0", Json::Int(0)),
            ("10", Json::Int(10)),
            ("0.5", Json::Float(0.5)),
            ("-0.0", Json::Float(-0.0)),
            ("1e5", Json::Float(1e5)),
            ("1E+5", Json::Float(1e5)),
            ("2.5e-3", Json::Float(2.5e-3)),
            ("1e-400", Json::Float(0.0)),
            ("-1.7976931348623157e308", Json::Float(f64::MIN)),
        ] {
            assert_eq!(parse(text), Ok(value), "{text}");
        }
        for text in [
            "01",
            "-01",
            "00",
            "1.",
            ".5",
            "-.5",
            "+1",
            "1.e5",
            "1e",
            "1e+",
            "-",
            "--1",
            "1e400",
            "-1e400",
            "0x10",
            "1.5.2",
            "9223372036854775808",
        ] {
            assert!(parse(text).is_err(), "`{text}` parses");
        }
        assert_eq!(
            parse("[1e400]").unwrap_err(),
            "number `1e400` overflows to infinity"
        );
        assert_eq!(parse("01").unwrap_err(), "bad number `01` at byte 0");
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
    fn cursor_number_arrays_are_allocated_once() {
        for (text, len) in [("[]", 0), ("[ \n]", 0), ("[1]", 1), ("[ 1 , 2,3 ]", 3)] {
            let items = Cursor::new(text).numbers(Json::as_i64).unwrap();
            assert_eq!((items.len(), items.capacity()), (len, len), "{text}");
        }
        assert!(Cursor::new("[1,]").numbers(Json::as_i64).is_err());
        assert!(Cursor::new("[1.5]").numbers(Json::as_i64).is_err());
    }

    #[test]
    fn or_skip_reads_past_another_shape_and_fails_on_bad_syntax() {
        let read = |text| {
            let mut cursor = Cursor::new(text);
            let n = cursor.or_skip(|c| c.number_as(Json::as_u64));
            n.and_then(|n| cursor.finish().map(|()| n))
        };
        assert_eq!(read(" 7 "), Ok(Some(7)));
        assert_eq!(read("-7"), Ok(None));
        assert_eq!(read(r#"[{"a":[1,"x"]}]"#), Ok(None));
        assert_eq!(read("[1,]").unwrap_err().kind, Kind::Number(3));
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert_eq!(read(&deep).unwrap_err().kind, Kind::TooDeep);
        let mut cursor = Cursor::new(r#" [1, "x"] "#);
        let value = cursor.or_value(|c| c.numbers(Json::as_i64)).unwrap();
        assert_eq!(value, Err(parse(r#"[1,"x"]"#).unwrap()));
    }

    #[test]
    fn object_builder_orders_members() {
        let v = object([("b", Json::Int(2)), ("a", Json::Int(1))]);
        assert_eq!(v.to_string(), r#"{"a":1,"b":2}"#);
    }
}
