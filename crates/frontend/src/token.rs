//! Token definitions for the CUDA-C subset lexer.
//!
//! Tokens borrow the source text they were lexed from: an identifier is a
//! slice of it, and so is a directive unless a `\` continuation had to be
//! spliced out. The first owned copy of a name is the one the AST keeps.

use crate::span::Span;
use std::borrow::Cow;
use std::fmt;

/// A lexical token with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'s> {
    /// What kind of token this is.
    pub kind: TokenKind<'s>,
    /// Where in the source it came from.
    pub span: Span,
}

/// The kinds of tokens produced by [`crate::lexer::Lexer`].
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind<'s> {
    /// Integer literal, e.g. `42`, `0x1F`.
    IntLit(i64),
    /// Floating-point literal, e.g. `1.5`, `2e3`, `1.0f`.
    FloatLit(f64),
    /// Identifier or non-reserved word.
    Ident(&'s str),
    /// Reserved keyword.
    Keyword(Keyword),
    /// Punctuation or operator.
    Punct(Punct),
    /// A preprocessor directive line kept verbatim (e.g. `#include <x.h>`).
    Directive(Cow<'s, str>),
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::IntLit(v) => write!(f, "integer `{v}`"),
            TokenKind::FloatLit(v) => write!(f, "float `{v}`"),
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Keyword(k) => write!(f, "keyword `{k}`"),
            TokenKind::Punct(p) => write!(f, "`{p}`"),
            TokenKind::Directive(d) => write!(f, "directive `{d}`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

macro_rules! keywords {
    ($($variant:ident => $text:literal),+ $(,)?) => {
        /// Reserved words of the CUDA-C subset.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Keyword {
            $(#[doc = concat!("`", $text, "`")] $variant),+
        }

        impl Keyword {
            /// Looks up a keyword from its source text.
            #[allow(clippy::should_implement_trait)]
            pub fn from_str(s: &str) -> Option<Keyword> {
                match s {
                    $($text => Some(Keyword::$variant),)+
                    _ => None,
                }
            }

            /// The source text of this keyword.
            pub fn as_str(&self) -> &'static str {
                match self {
                    $(Keyword::$variant => $text,)+
                }
            }
        }

        impl fmt::Display for Keyword {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.as_str())
            }
        }
    };
}

keywords! {
    Global => "__global__",
    Device => "__device__",
    Host => "__host__",
    Shared => "__shared__",
    Const => "const",
    Void => "void",
    Bool => "bool",
    Char => "char",
    Int => "int",
    Unsigned => "unsigned",
    Signed => "signed",
    Long => "long",
    Short => "short",
    Float => "float",
    Double => "double",
    SizeT => "size_t",
    Dim3 => "dim3",
    If => "if",
    Else => "else",
    For => "for",
    While => "while",
    Do => "do",
    Return => "return",
    Break => "break",
    Continue => "continue",
    True => "true",
    False => "false",
    Struct => "struct",
}

macro_rules! puncts {
    ($($variant:ident => $text:literal),+ $(,)?) => {
        /// Operators and punctuation of the CUDA-C subset.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Punct {
            $(#[doc = concat!("`", $text, "`")] $variant),+
        }

        impl Punct {
            /// The source text of this punctuation token.
            pub fn as_str(&self) -> &'static str {
                match self {
                    $(Punct::$variant => $text,)+
                }
            }
        }

        impl fmt::Display for Punct {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.as_str())
            }
        }
    };
}

puncts! {
    // Longest first by family (the lexer handles maximal munch itself).
    LaunchOpen => "<<<",
    LaunchClose => ">>>",
    ShlAssign => "<<=",
    ShrAssign => ">>=",
    Shl => "<<",
    Shr => ">>",
    Le => "<=",
    Ge => ">=",
    EqEq => "==",
    Ne => "!=",
    AndAnd => "&&",
    OrOr => "||",
    PlusPlus => "++",
    MinusMinus => "--",
    PlusAssign => "+=",
    MinusAssign => "-=",
    StarAssign => "*=",
    SlashAssign => "/=",
    PercentAssign => "%=",
    AmpAssign => "&=",
    PipeAssign => "|=",
    CaretAssign => "^=",
    Arrow => "->",
    Lt => "<",
    Gt => ">",
    Assign => "=",
    Plus => "+",
    Minus => "-",
    Star => "*",
    Slash => "/",
    Percent => "%",
    Amp => "&",
    Pipe => "|",
    Caret => "^",
    Tilde => "~",
    Bang => "!",
    Question => "?",
    Colon => ":",
    Semi => ";",
    Comma => ",",
    Dot => ".",
    LParen => "(",
    RParen => ")",
    LBrace => "{",
    RBrace => "}",
    LBracket => "[",
    RBracket => "]",
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_round_trip() {
        for kw in [
            Keyword::Global,
            Keyword::Device,
            Keyword::Shared,
            Keyword::Dim3,
            Keyword::Unsigned,
        ] {
            assert_eq!(Keyword::from_str(kw.as_str()), Some(kw));
        }
        assert_eq!(Keyword::from_str("notakeyword"), None);
    }

    #[test]
    fn punct_display() {
        assert_eq!(Punct::LaunchOpen.to_string(), "<<<");
        assert_eq!(Punct::Shl.to_string(), "<<");
        assert_eq!(Punct::Semi.to_string(), ";");
    }

    #[test]
    fn token_kind_display() {
        assert_eq!(TokenKind::IntLit(7).to_string(), "integer `7`");
        assert_eq!(TokenKind::Ident("foo").to_string(), "identifier `foo`");
        assert_eq!(TokenKind::Eof.to_string(), "end of input");
    }
}
