//! Property tests for `dp_obs::json`, the parser every socket line,
//! cache entry and sweep spec goes through: writer/parser round-trips over
//! strings that exercise every escape, byte-mutated documents that must
//! fail cleanly, and nesting on both sides of the cap.

use dp_obs::json::{parse, Json, MAX_DEPTH};
use proptest::prelude::*;

/// Characters a generated string draws from: plain ASCII, every character
/// `write_string` escapes (quote, backslash, `\n` `\r` `\t`, other
/// controls), the two extra escapes the parser reads (`\b` `\f`), `/`, and
/// scalars of two, three and four UTF-8 bytes.
const CHARS: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    '/',
    '"',
    '\\',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{1}',
    '\u{8}',
    '\u{c}',
    '\u{1f}',
    '\u{7f}',
    'é',
    'ß',
    '€',
    '你',
    '\u{ffff}',
    '😀',
    '\u{10ffff}',
];

fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..CHARS.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| CHARS[i]).collect())
}

/// Trees that `to_string` → `parse` must reproduce exactly. Floats carry a
/// fraction, or are past `i64` and written with an exponent: an integral
/// `Float` below 2^63 prints without either and re-parses as `Int` by
/// design (see the module docs), which `==` on `Json` tells apart.
fn arb_json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        Just(Json::Bool(true)),
        Just(Json::Bool(false)),
        (-1_000_000i64..1_000_000).prop_map(Json::Int),
        Just(Json::Int(i64::MIN)),
        Just(Json::Int(i64::MAX)),
        (-1_000_000i64..1_000_000).prop_map(|n| Json::Float(n as f64 / 64.0 + 1.0 / 128.0)),
        (-1_000_000i64..1_000_000, 63i32..1024).prop_map(|(n, exp)| {
            let mantissa = (1.0 + n.abs() as f64 / 1e6).copysign(n as f64);
            Json::Float(mantissa * 2f64.powi(exp))
        }),
        arb_string().prop_map(Json::Str),
    ];
    leaf.prop_recursive(4, 64, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Json::Array),
            prop::collection::vec((arb_string(), inner), 0..5)
                .prop_map(|members| Json::Object(members.into_iter().collect())),
        ]
    })
}

/// `depth` containers around a `0`, each an array or a one-member object
/// as `shape`'s bits say, with a little whitespace — or, `closed` false, the
/// openers alone, as a hostile line arrives.
fn nested(depth: usize, shape: i64, closed: bool) -> String {
    let object = |level: usize| shape >> (level % 63) & 1 == 1;
    let mut text = String::new();
    for level in 0..depth {
        text.push_str(if object(level) { "{ \"k\":" } else { "[ " });
    }
    if closed {
        text.push('0');
        for level in (0..depth).rev() {
            text.push(if object(level) { '}' } else { ']' });
        }
    }
    text
}

/// The string with every UTF-16 unit written as a `\uXXXX` escape, or
/// `None` if it holds a scalar outside the basic plane (see
/// `every_scalar_escaped_parses_back_to_itself` for those).
fn all_unicode_escapes(s: &str) -> Option<String> {
    let mut out = String::from("\"");
    for c in s.chars() {
        if c as u32 > 0xffff {
            return None;
        }
        out.push_str(&format!("\\u{:04x}", c as u32));
    }
    out.push('"');
    Some(out)
}

/// Scalar values, every one but the surrogates: half from the basic plane,
/// half from all seventeen planes.
fn arb_scalars() -> impl Strategy<Value = Vec<char>> {
    let scalar = prop_oneof![0u32..0xF800, 0u32..0x10_F800].prop_map(|n| {
        let n = if n < 0xD800 { n } else { n + 0x800 };
        char::from_u32(n).expect("a scalar value")
    });
    prop::collection::vec(scalar, 0..8)
}

/// `chars` written as a string token of `\uXXXX` escapes only, one per
/// UTF-16 unit: a scalar above U+FFFF is a high and a low surrogate
/// escape, as `json.dumps` and `JSON.stringify` write it.
fn utf16_escapes(chars: &[char]) -> String {
    let mut out = String::from("\"");
    for c in chars {
        for unit in c.encode_utf16(&mut [0; 2]) {
            out.push_str(&format!("\\u{unit:04x}"));
        }
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every scalar written as `\u` escapes — a surrogate pair above
    /// U+FFFF — parses back to itself.
    #[test]
    fn every_scalar_escaped_parses_back_to_itself(chars in arb_scalars()) {
        let text = utf16_escapes(&chars);
        prop_assert_eq!(parse(&text), Ok(Json::Str(chars.iter().collect())), "token: {}", text);
    }

    /// parse ∘ write is the identity on trees.
    #[test]
    fn written_documents_parse_back_to_the_same_tree(v in arb_json()) {
        let text = v.to_string();
        let back = parse(&text);
        prop_assert_eq!(back.as_ref(), Ok(&v), "document: {}", text);
        // And write ∘ parse ∘ write is the identity on bytes.
        prop_assert_eq!(back.unwrap().to_string(), text);
    }

    /// `\uXXXX` reads as the scalar it names, whatever surrounds it.
    #[test]
    fn unicode_escapes_read_as_their_scalars(s in arb_string(), tail in arb_string()) {
        if let Some(escaped) = all_unicode_escapes(&s) {
            prop_assert_eq!(parse(&escaped), Ok(Json::Str(s.clone())));
            // Mixed with a raw run after the escapes.
            let mixed = format!("[{escaped},{}]", Json::Str(tail.clone()));
            prop_assert_eq!(parse(&mixed), Ok(Json::Array(vec![Json::Str(s), Json::Str(tail)])));
        }
    }

    /// Valid documents with bytes overwritten, inserted or removed — then
    /// made UTF-8 again the way `read_line_limited` does — never panic the
    /// parser; they parse or fail with a message.
    #[test]
    fn mutated_documents_never_panic(
        v in arb_json(),
        edits in prop::collection::vec((0usize..3, 0usize..4096, 0u8..255), 1..6),
    ) {
        let mut bytes = v.to_string().into_bytes();
        for (kind, at, byte) in edits {
            let at = at % (bytes.len() + 1);
            match kind {
                0 if at < bytes.len() => bytes[at] = byte,
                1 if at < bytes.len() => { bytes.remove(at); }
                _ => bytes.insert(at, byte),
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Err(message) = parse(&text) {
            prop_assert!(!message.is_empty());
        }
    }

    /// Every prefix of a valid document (cut on a scalar boundary) is
    /// handled: a torn line is an error or a shorter document, not a panic.
    #[test]
    fn truncated_documents_never_panic(v in arb_json()) {
        let text = v.to_string();
        for (cut, _) in text.char_indices() {
            let _ = parse(&text[..cut]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Up to the cap a nested document parses and writes back; past it —
    /// by one level or by a hundred thousand, closed or not — the answer is
    /// the one message, never a deep recursion.
    #[test]
    fn nesting_parses_to_the_cap_and_is_refused_past_it(
        depth in 1usize..MAX_DEPTH + 1,
        excess in prop_oneof![1usize..4, 1_000usize..300_000],
        shape in 0i64..i64::MAX,
    ) {
        let doc = parse(&nested(depth, shape, true));
        prop_assert!(doc.is_ok(), "depth {}: {:?}", depth, doc);
        let doc = doc.unwrap();
        prop_assert_eq!(parse(&doc.to_string()), Ok(doc));
        for closed in [true, false] {
            prop_assert_eq!(
                parse(&nested(MAX_DEPTH + excess, shape, closed)),
                Err(format!("nesting deeper than {MAX_DEPTH}"))
            );
        }
    }
}

/// The error texts clients and tests match on.
#[test]
fn string_error_texts_are_pinned() {
    let err = |text: &str| parse(text).unwrap_err();
    assert_eq!(err(r#""abc"#), "unterminated string");
    assert_eq!(err(r#"["é€😀"#), "unterminated string");
    assert_eq!(err(r#""a\q""#), "invalid escape at byte 3");
    assert_eq!(err(r#"{"k":"é\x"}"#), "invalid escape at byte 9");
    assert_eq!(err(r#""abc\"#), "invalid escape at byte 5");
    assert_eq!(err(r#""\u12"#), "truncated \\u escape");
    assert_eq!(err(r#""\u"#), "truncated \\u escape");
    assert_eq!(err(r#""\ud800""#), "unsupported \\u escape d800");
}

/// A surrogate pair reads as its one scalar; a surrogate alone, the two
/// reversed, or a pair cut short is refused.
#[test]
fn only_a_whole_surrogate_pair_is_a_scalar() {
    assert_eq!(parse(r#""\ud83d\ude00""#), Ok(Json::Str("😀".to_string())));
    assert_eq!(
        parse(r#""a\uD83D\uDE00b""#),
        Ok(Json::Str("a😀b".to_string()))
    );
    let err = |text: &str| parse(text).unwrap_err();
    assert_eq!(err(r#""\ud83d""#), "unsupported \\u escape d83d");
    assert_eq!(err(r#""\ud83dx""#), "unsupported \\u escape d83d");
    assert_eq!(err(r#""\ud83d\n""#), "unsupported \\u escape d83d");
    assert_eq!(err(r#""\ude00""#), "unsupported \\u escape de00");
    assert_eq!(err(r#""\ude00\ud83d""#), "unsupported \\u escape de00");
    assert_eq!(err(r#""\ud83d\ud83d""#), "unsupported \\u escape d83d");
    assert_eq!(err(r#""\ud83dA""#), "unsupported \\u escape d83d");
    assert_eq!(err(r#""\ud83d\ude0"#), "truncated \\u escape");
}

/// A `\u` escape is exactly four hex digits: no sign, no other character.
#[test]
fn a_unicode_escape_is_four_hex_digits() {
    assert_eq!(parse(r#""\u0041\u00E9""#), Ok(Json::Str("Aé".to_string())));
    let err = |text: &str| parse(text).unwrap_err();
    assert_eq!(err(r#""\u+041""#), "invalid \\u escape +041");
    assert_eq!(err(r#""\u-041""#), "invalid \\u escape -041");
    assert_eq!(err(r#""\u00g1""#), "invalid \\u escape 00g1");
    assert_eq!(err(r#""\ud83d\u+e00""#), "invalid \\u escape +e00");
}
