//! Identifiers.
//!
//! A [`Name`] is an identifier held by value: up to [`Name::INLINE_LEN`]
//! bytes live inside the 24-byte value itself, and only a longer name is
//! boxed. Nearly every name a CUDA kernel or a pass uses (`threadIdx`,
//! `_a_arr3_1`, `child_serial`) is short, so parsing a program, cloning a
//! name into an analysis result, or formatting a fresh name with
//! [`Name::from_fmt`] does not touch the heap.
//!
//! A name is text and nothing else: its `Eq`, `Hash`, `Ord`, `Debug` and
//! `Display` are those of the `str` it holds, so a `HashSet<Name>` is
//! searched with a `&str`, and a tree's `{:?}` reads as it did when its
//! names were `String`s.

use std::borrow::Borrow;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// An identifier: a string that stays inline when it is short.
#[derive(Clone)]
pub struct Name(Repr);

#[derive(Clone)]
enum Repr {
    /// `bytes[..len]` is the name, always valid UTF-8.
    Inline {
        len: u8,
        bytes: [u8; Name::INLINE_LEN],
    },
    Heap(Box<str>),
}

const _: () = assert!(std::mem::size_of::<Name>() == 24);

impl Name {
    /// The longest name, in bytes, that is stored without an allocation.
    pub const INLINE_LEN: usize = 22;

    /// The empty name.
    pub const EMPTY: Name = Name(Repr::Inline {
        len: 0,
        bytes: [0; Name::INLINE_LEN],
    });

    /// A name holding `text`; it allocates only when `text` is longer than
    /// [`Name::INLINE_LEN`] bytes.
    pub fn new(text: &str) -> Name {
        let mut name = Name::EMPTY;
        name.0.push(text);
        name
    }

    /// The name `format!` would make of `args`, built without a `String`:
    /// `Name::from_fmt(format_args!("_a_g{site}"))`.
    pub fn from_fmt(args: fmt::Arguments<'_>) -> Name {
        let mut name = Name::EMPTY;
        name.0.write_fmt(args).expect("a name's writer never fails");
        name
    }

    /// The name's text.
    pub fn as_str(&self) -> &str {
        self.0.as_str()
    }
}

impl Repr {
    /// Called on every hash, comparison and scope lookup: checking the
    /// bytes again here gave back most of what inline names save.
    fn as_str(&self) -> &str {
        match self {
            Repr::Inline { len, bytes } => {
                // SAFETY: `bytes[..len]` is only ever written by
                // `Repr::push`, which appends whole `&str`s, so it is a
                // sequence of complete UTF-8 strings: valid UTF-8.
                unsafe { std::str::from_utf8_unchecked(&bytes[..*len as usize]) }
            }
            Repr::Heap(text) => text,
        }
    }

    /// Appends `text`, moving to the heap once the name outgrows the
    /// inline buffer.
    fn push(&mut self, text: &str) {
        if let Repr::Inline { len, bytes } = self {
            let start = *len as usize;
            let end = start + text.len();
            if end <= Name::INLINE_LEN {
                bytes[start..end].copy_from_slice(text.as_bytes());
                *len = end as u8;
                return;
            }
        }
        let mut long = String::with_capacity(self.as_str().len() + text.len());
        long.push_str(self.as_str());
        long.push_str(text);
        *self = Repr::Heap(long.into_boxed_str());
    }
}

impl fmt::Write for Repr {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        self.push(text);
        Ok(())
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl From<&str> for Name {
    fn from(text: &str) -> Name {
        Name::new(text)
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_names_stay_inline_and_long_ones_are_boxed() {
        let short = Name::new("_a_arr12_3");
        assert!(matches!(short.0, Repr::Inline { len: 10, .. }));
        let limit = "x".repeat(Name::INLINE_LEN);
        assert!(matches!(Name::new(&limit).0, Repr::Inline { .. }));
        let long = format!("{limit}y");
        assert!(matches!(Name::new(&long).0, Repr::Heap(_)));
        assert_eq!(Name::new(&long).as_str(), long);
    }

    #[test]
    fn from_fmt_crosses_the_inline_limit() {
        let base = "b".repeat(Name::INLINE_LEN - 2);
        let name = Name::from_fmt(format_args!("{base}_{}", 123));
        assert_eq!(name.as_str(), format!("{base}_123"));
        assert!(matches!(name.0, Repr::Heap(_)));
        assert_eq!(Name::from_fmt(format_args!("_a_g{}", 3)), "_a_g3");
    }
}
