//! Property tests for `Name`: whatever its length or script, a name is
//! indistinguishable from the `String` holding the same text — as text,
//! under `Debug` and `Display`, as a hash key, in order, and when built
//! with `Name::from_fmt` instead of `format!`.

use dpopt::frontend::Name;
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// Characters of one to four UTF-8 bytes each, and three that `Debug`
/// escapes.
const CHARS: [char; 15] = [
    'a', 'Z', '_', '7', 'x', 'é', 'ß', 'ж', '€', '中', '∑', '🦀', '"', '\\', '\t',
];

/// A string of at most `max_bytes` bytes drawn from [`CHARS`]: characters
/// are appended while the next one still fits.
fn text(picks: Vec<usize>, max_bytes: usize) -> String {
    let mut text = String::new();
    for pick in picks {
        let c = CHARS[pick % CHARS.len()];
        if text.len() + c.len_utf8() > max_bytes {
            break;
        }
        text.push(c);
    }
    text
}

/// Strings of 0 to 64 bytes, half of them within four bytes of the inline
/// limit on either side.
fn arb_text() -> impl Strategy<Value = String> {
    let limit = Name::INLINE_LEN;
    let max_bytes = prop_oneof![0usize..65, (limit - 4)..(limit + 5)];
    (prop::collection::vec(0usize..CHARS.len(), 0..65), max_bytes)
        .prop_map(|(picks, max_bytes)| text(picks, max_bytes))
}

fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Text, `Debug`, `Display` (padded too) and `Hash` agree with the
    /// `String`'s.
    #[test]
    fn a_name_reads_as_its_string(s in arb_text()) {
        let name = Name::new(&s);
        prop_assert_eq!(name.as_str(), s.as_str());
        prop_assert_eq!(&*name, s.as_str());
        prop_assert_eq!(format!("{name:?}"), format!("{s:?}"));
        prop_assert_eq!(format!("{name}"), s.clone());
        prop_assert_eq!(format!("[{name:>40}]"), format!("[{s:>40}]"));
        prop_assert_eq!(hash_of(&name), hash_of(&s));
        prop_assert_eq!(hash_of(&name), hash_of(s.as_str()));
        prop_assert_eq!(&name, &s);
        prop_assert_eq!(&name, s.as_str());
    }

    /// Two names compare as their strings do.
    #[test]
    fn names_order_as_their_strings(a in arb_text(), b in arb_text()) {
        let (x, y) = (Name::new(&a), Name::new(&b));
        prop_assert_eq!(x.cmp(&y), a.cmp(&b));
        prop_assert_eq!(x.partial_cmp(&y), a.partial_cmp(&b));
        prop_assert_eq!(x == y, a == b);
    }

    /// A set of names is searched with a `&str`, and finds exactly what a
    /// set of the same strings finds.
    #[test]
    fn a_name_set_is_searched_by_str(
        members in prop::collection::vec(arb_text(), 0..8),
        probes in prop::collection::vec(arb_text(), 0..8),
    ) {
        let names: HashSet<Name> = members.iter().map(|s| Name::new(s)).collect();
        let strings: HashSet<&str> = members.iter().map(String::as_str).collect();
        prop_assert_eq!(names.len(), strings.len());
        for probe in members.iter().chain(&probes) {
            prop_assert_eq!(names.contains(probe.as_str()), strings.contains(probe.as_str()));
        }
    }

    /// `from_fmt` makes what `format!` makes, whether the pieces stay
    /// inline or push the name past the limit part way through.
    #[test]
    fn from_fmt_equals_format(a in arb_text(), b in arb_text(), n in 0usize..100_000) {
        prop_assert_eq!(Name::from_fmt(format_args!("{a}")), a.clone());
        prop_assert_eq!(
            Name::from_fmt(format_args!("{a}_{n}{b}")),
            format!("{a}_{n}{b}")
        );
        prop_assert_eq!(
            Name::from_fmt(format_args!("{a:?}{n:>6}")),
            format!("{a:?}{n:>6}")
        );
    }
}

#[test]
fn a_literal_format_is_the_literal() {
    assert_eq!(Name::from_fmt(format_args!("_a_g")), "_a_g");
    assert_eq!(Name::from_fmt(format_args!("")), Name::EMPTY);
}
