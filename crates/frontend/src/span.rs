//! Byte-offset source spans used by every token and AST node.

use std::fmt;

/// A half-open byte range `[start, end)` into the original source text.
///
/// Spans survive transformation passes: nodes synthesized by a pass carry
/// [`Span::SYNTH`] so diagnostics can distinguish user code from generated
/// code.
///
/// # Examples
///
/// ```
/// use dp_frontend::Span;
/// let s = Span::new(3, 7);
/// assert_eq!(s.len(), 4);
/// assert!(!s.is_synthetic());
/// assert!(Span::SYNTH.is_synthetic());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Span {
    /// Byte offset of the first character.
    pub(crate) start: u32,
    /// Byte offset one past the last character.
    pub(crate) end: u32,
}

impl Span {
    /// Span used for nodes synthesized by transformation passes.
    pub const SYNTH: Span = Span {
        start: u32::MAX,
        end: u32::MAX,
    };

    /// Creates a span covering `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn new(start: u32, end: u32) -> Self {
        assert!(start <= end, "span start must not exceed end");
        Span { start, end }
    }

    /// Length of the span in bytes. Synthetic spans have length 0.
    pub fn len(&self) -> u32 {
        if self.is_synthetic() {
            0
        } else {
            self.end - self.start
        }
    }

    /// Whether the span is empty (including the synthetic span).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this span marks compiler-generated code.
    pub fn is_synthetic(&self) -> bool {
        *self == Span::SYNTH
    }

    /// The smallest span covering both `self` and `other`.
    ///
    /// Joining with a synthetic span yields the non-synthetic operand.
    pub(crate) fn join(self, other: Span) -> Span {
        if self.is_synthetic() {
            return other;
        }
        if other.is_synthetic() {
            return self;
        }
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Extracts the text this span covers from `source`.
    ///
    /// Returns an empty string for synthetic or out-of-range spans.
    #[cfg(test)]
    pub(crate) fn text<'s>(&self, source: &'s str) -> &'s str {
        if self.is_synthetic() || self.end as usize > source.len() {
            ""
        } else {
            &source[self.start as usize..self.end as usize]
        }
    }
}

impl Default for Span {
    fn default() -> Self {
        Span::SYNTH
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_synthetic() {
            write!(f, "<generated>")
        } else {
            write!(f, "{}..{}", self.start, self.end)
        }
    }
}

/// 1-based line/column position, computed lazily for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineCol {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (in bytes).
    pub col: u32,
}

impl fmt::Display for LineCol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Computes the [`LineCol`] of a byte offset within `source`.
///
/// Offsets past the end of the source saturate at the final position.
///
/// # Examples
///
/// ```
/// use dp_frontend::span::line_col;
/// let lc = line_col("ab\ncd", 3);
/// assert_eq!((lc.line, lc.col), (2, 1));
/// ```
pub fn line_col(source: &str, offset: u32) -> LineCol {
    let offset = (offset as usize).min(source.len());
    let mut line = 1;
    let mut col = 1;
    for (i, b) in source.bytes().enumerate() {
        if i >= offset {
            break;
        }
        if b == b'\n' {
            line += 1;
            col = 1;
        } else {
            col += 1;
        }
    }
    LineCol { line, col }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_and_len() {
        let s = Span::new(2, 5);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(Span::new(4, 4).len(), 0);
    }

    #[test]
    #[should_panic(expected = "span start")]
    fn reversed_span_panics() {
        let _ = Span::new(5, 2);
    }

    #[test]
    fn synth_is_default_and_empty() {
        assert_eq!(Span::default(), Span::SYNTH);
        assert!(Span::SYNTH.is_empty());
        assert_eq!(Span::SYNTH.to_string(), "<generated>");
    }

    #[test]
    fn join_covers_both() {
        let a = Span::new(2, 4);
        let b = Span::new(6, 9);
        assert_eq!(a.join(b), Span::new(2, 9));
        assert_eq!(b.join(a), Span::new(2, 9));
    }

    #[test]
    fn join_with_synth_keeps_real_span() {
        let a = Span::new(1, 3);
        assert_eq!(a.join(Span::SYNTH), a);
        assert_eq!(Span::SYNTH.join(a), a);
        assert_eq!(Span::SYNTH.join(Span::SYNTH), Span::SYNTH);
    }

    #[test]
    fn text_extraction() {
        let src = "hello world";
        assert_eq!(Span::new(0, 5).text(src), "hello");
        assert_eq!(Span::new(6, 11).text(src), "world");
        assert_eq!(Span::SYNTH.text(src), "");
        assert_eq!(Span::new(0, 100).text(src), "");
    }

    #[test]
    fn line_col_basic() {
        let src = "int x;\nint y;\n";
        assert_eq!(line_col(src, 0), LineCol { line: 1, col: 1 });
        assert_eq!(line_col(src, 4), LineCol { line: 1, col: 5 });
        assert_eq!(line_col(src, 7), LineCol { line: 2, col: 1 });
        assert_eq!(line_col(src, 11), LineCol { line: 2, col: 5 });
    }

    #[test]
    fn line_col_saturates() {
        let lc = line_col("ab", 99);
        assert_eq!(lc, LineCol { line: 1, col: 3 });
    }
}
