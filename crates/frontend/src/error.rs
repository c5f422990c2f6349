//! Frontend error types with source spans.

use crate::span::{line_col, Span};
use std::error::Error;
use std::fmt;

/// An error produced while lexing or parsing CUDA-subset source.
///
/// Implements [`std::error::Error`] and renders as
/// `parse error at <line>:<col>: <message>` when formatted with a source via
/// [`ParseError::render`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    message: String,
    span: Span,
}

impl ParseError {
    /// Creates a new error covering `span`.
    pub(crate) fn new(message: impl Into<String>, span: Span) -> Self {
        ParseError {
            message: message.into(),
            span,
        }
    }

    /// The human-readable message (lowercase, no trailing punctuation).
    #[cfg(test)]
    pub(crate) fn message(&self) -> &str {
        &self.message
    }

    /// The source span the error points at.
    #[cfg(test)]
    pub(crate) fn span(&self) -> Span {
        self.span
    }

    /// Renders the error with line/column information resolved against
    /// `source`, including the offending line of text.
    pub fn render(&self, source: &str) -> String {
        if self.span.is_synthetic() {
            return format!("parse error: {}", self.message);
        }
        let lc = line_col(source, self.span.start);
        let line_text = source
            .lines()
            .nth((lc.line - 1) as usize)
            .unwrap_or_default();
        format!(
            "parse error at {lc}: {}\n  | {line_text}\n  | {:>width$}",
            self.message,
            "^",
            width = lc.col as usize
        )
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.span.is_synthetic() {
            write!(f, "parse error: {}", self.message)
        } else {
            write!(
                f,
                "parse error at byte {}: {}",
                self.span.start, self.message
            )
        }
    }
}

impl Error for ParseError {}

/// Convenience alias for frontend results.
pub type Result<T> = std::result::Result<T, ParseError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_offset_and_message() {
        let e = ParseError::new("unexpected token", Span::new(4, 5));
        assert_eq!(e.to_string(), "parse error at byte 4: unexpected token");
        assert_eq!(e.message(), "unexpected token");
        assert_eq!(e.span(), Span::new(4, 5));
    }

    #[test]
    fn render_points_at_column() {
        let src = "int x\nint y;\n";
        let e = ParseError::new("expected `;`", Span::new(4, 5));
        let rendered = e.render(src);
        assert!(rendered.contains("1:5"), "rendered: {rendered}");
        assert!(rendered.contains("int x"));
    }

    #[test]
    fn render_synthetic_has_no_location() {
        let e = ParseError::new("boom", Span::SYNTH);
        assert_eq!(e.render("src"), "parse error: boom");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ParseError>();
    }
}
