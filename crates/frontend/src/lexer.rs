//! Hand-written lexer for the CUDA-C subset.
//!
//! The lexer produces a flat `Token` stream. Comments and whitespace are
//! skipped; preprocessor lines are either parsed (`#define NAME <int>` is
//! understood by the parser) or preserved verbatim as
//! `TokenKind::Directive` tokens so a source-to-source pipeline can print
//! them back out.
//!
//! Tokens borrow the source: an identifier or a directive is a slice of the
//! text handed to [`lex`], not a copy (a directive with a `\` continuation,
//! which has to be spliced, is the one exception). The parser makes the one
//! owned copy the AST keeps.
//!
//! One CUDA-specific wrinkle handled here: `>>>` is only a launch-close token
//! in launch position. The lexer always emits `>>>` as
//! `Punct::LaunchClose`; the parser re-splits it when it is actually
//! parsing nested template-free expressions (the subset has no templates, so
//! `>>>` never appears outside launches in valid input).

use crate::error::{ParseError, Result};
use crate::span::Span;
use crate::token::{Keyword, Punct, Token, TokenKind};
use std::borrow::Cow;

/// Converts CUDA-subset source text into tokens.
///
/// # Examples
///
/// ```
/// use dp_frontend::lexer::lex;
/// let tokens = lex("int x = 42;").unwrap();
/// assert_eq!(tokens.len(), 6); // int, x, =, 42, ;, EOF
/// ```
pub fn lex(source: &str) -> Result<Vec<Token<'_>>> {
    Lexer::new(source).run()
}

struct Lexer<'s> {
    src: &'s str,
    pos: usize,
    tokens: Vec<Token<'s>>,
}

impl<'s> Lexer<'s> {
    fn new(source: &'s str) -> Self {
        Lexer {
            src: source,
            pos: 0,
            // The workload sources run 3.5 to 5.4 bytes a token.
            tokens: Vec::with_capacity(source.len() / 3 + 1),
        }
    }

    fn run(mut self) -> Result<Vec<Token<'s>>> {
        loop {
            self.skip_trivia()?;
            let start = self.pos;
            let Some(c) = self.peek() else {
                self.push(TokenKind::Eof, start);
                return Ok(self.tokens);
            };
            match c {
                b'#' => self.lex_directive(start),
                b'0'..=b'9' => self.lex_number(start)?,
                b'.' if self.peek_at(1).is_some_and(|c| c.is_ascii_digit()) => {
                    self.lex_number(start)?
                }
                c if c == b'_' || c.is_ascii_alphabetic() => self.lex_word(start),
                b'"' => self.lex_string(start)?,
                b'\'' => self.lex_char(start)?,
                _ => self.lex_punct(start)?,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.peek_at(0)
    }

    fn peek_at(&self, n: usize) -> Option<u8> {
        self.src.as_bytes().get(self.pos + n).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn push(&mut self, kind: TokenKind<'s>, start: usize) {
        self.tokens.push(Token {
            kind,
            span: Span::new(start as u32, self.pos as u32),
        });
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.pos += 1;
                }
                Some(b'/') if self.peek_at(1) == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                Some(b'/') if self.peek_at(1) == Some(b'*') => {
                    let start = self.pos;
                    self.pos += 2;
                    loop {
                        match self.peek() {
                            Some(b'*') if self.peek_at(1) == Some(b'/') => {
                                self.pos += 2;
                                break;
                            }
                            Some(_) => self.pos += 1,
                            None => {
                                return Err(ParseError::new(
                                    "unterminated block comment",
                                    Span::new(start as u32, self.pos as u32),
                                ))
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Lexes a whole preprocessor line verbatim: a slice of the source,
    /// unless `\` continuations have to be spliced out of it.
    fn lex_directive(&mut self, start: usize) {
        let mut text = Cow::Borrowed("");
        loop {
            let rest = &self.src[self.pos..];
            let line = &rest[..rest.find('\n').unwrap_or(rest.len())];
            self.pos += line.len();
            if text.is_empty() {
                text = Cow::Borrowed(line);
            } else {
                text.to_mut().push_str(line);
            }
            if self.peek() != Some(b'\n') || !text.ends_with('\\') {
                break;
            }
            text.to_mut().pop();
            self.pos += 1;
        }
        let text = match text {
            Cow::Borrowed(t) => Cow::Borrowed(t.trim_end()),
            Cow::Owned(mut t) => {
                t.truncate(t.trim_end().len());
                Cow::Owned(t)
            }
        };
        self.push(TokenKind::Directive(text), start);
    }

    fn lex_number(&mut self, start: usize) -> Result<()> {
        // Hex integers.
        if self.peek() == Some(b'0')
            && matches!(self.peek_at(1), Some(b'x') | Some(b'X'))
            && self.peek_at(2).is_some_and(|c| c.is_ascii_hexdigit())
        {
            self.pos += 2;
            let digits_start = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_hexdigit()) {
                self.pos += 1;
            }
            let text = &self.src[digits_start..self.pos];
            let value = i64::from_str_radix(text, 16).map_err(|_| {
                ParseError::new(
                    "hexadecimal literal out of range",
                    Span::new(start as u32, self.pos as u32),
                )
            })?;
            self.skip_int_suffix();
            self.push(TokenKind::IntLit(value), start);
            return Ok(());
        }

        let mut is_float = false;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') && self.peek_at(1) != Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            let mut look = 1;
            if matches!(self.peek_at(1), Some(b'+') | Some(b'-')) {
                look = 2;
            }
            if self.peek_at(look).is_some_and(|c| c.is_ascii_digit()) {
                is_float = true;
                self.pos += look;
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
        }
        let text = &self.src[start..self.pos];
        if is_float || matches!(self.peek(), Some(b'f') | Some(b'F')) {
            let value: f64 = text.parse().map_err(|_| {
                ParseError::new(
                    "invalid float literal",
                    Span::new(start as u32, self.pos as u32),
                )
            })?;
            // Consume `f`/`F` suffix.
            if matches!(self.peek(), Some(b'f') | Some(b'F')) {
                self.pos += 1;
            }
            self.push(TokenKind::FloatLit(value), start);
        } else {
            let value: i64 = text.parse().map_err(|_| {
                ParseError::new(
                    "integer literal out of range",
                    Span::new(start as u32, self.pos as u32),
                )
            })?;
            self.skip_int_suffix();
            self.push(TokenKind::IntLit(value), start);
        }
        Ok(())
    }

    fn skip_int_suffix(&mut self) {
        while matches!(
            self.peek(),
            Some(b'u') | Some(b'U') | Some(b'l') | Some(b'L')
        ) {
            self.pos += 1;
        }
    }

    fn lex_word(&mut self, start: usize) {
        while self
            .peek()
            .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
        {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        let kind = match Keyword::from_str(text) {
            Some(kw) => TokenKind::Keyword(kw),
            None => TokenKind::Ident(text),
        };
        self.push(kind, start);
    }

    /// String literals only appear in directives/printf-style calls we don't
    /// model; lex and discard content, emitting an identifier-like token so
    /// the parser can give a precise error.
    fn lex_string(&mut self, start: usize) -> Result<()> {
        self.pos += 1;
        while let Some(c) = self.bump() {
            match c {
                b'"' => {
                    return Err(ParseError::new(
                        "string literals are not supported in the CUDA subset",
                        Span::new(start as u32, self.pos as u32),
                    ))
                }
                b'\\' => {
                    self.pos += 1;
                }
                _ => {}
            }
        }
        Err(ParseError::new(
            "unterminated string literal",
            Span::new(start as u32, self.pos as u32),
        ))
    }

    fn lex_char(&mut self, start: usize) -> Result<()> {
        self.pos += 1;
        let mut value = None;
        while let Some(c) = self.bump() {
            match c {
                b'\'' => {
                    return match value {
                        Some(v) => {
                            self.push(TokenKind::IntLit(v), start);
                            Ok(())
                        }
                        None => Err(ParseError::new(
                            "empty character literal",
                            Span::new(start as u32, self.pos as u32),
                        )),
                    };
                }
                b'\\' => {
                    let esc = self.bump().ok_or_else(|| {
                        ParseError::new(
                            "unterminated character literal",
                            Span::new(start as u32, self.pos as u32),
                        )
                    })?;
                    value = Some(match esc {
                        b'n' => b'\n' as i64,
                        b't' => b'\t' as i64,
                        b'0' => 0,
                        b'\\' => b'\\' as i64,
                        b'\'' => b'\'' as i64,
                        other => other as i64,
                    });
                }
                c => value = Some(c as i64),
            }
        }
        Err(ParseError::new(
            "unterminated character literal",
            Span::new(start as u32, self.pos as u32),
        ))
    }

    fn lex_punct(&mut self, start: usize) -> Result<()> {
        use Punct::*;
        // Maximal munch over explicit lookahead.
        let c0 = self.peek().unwrap();
        let c1 = self.peek_at(1);
        let c2 = self.peek_at(2);
        let (punct, len) = match (c0, c1, c2) {
            (b'<', Some(b'<'), Some(b'<')) => (LaunchOpen, 3),
            (b'>', Some(b'>'), Some(b'>')) => (LaunchClose, 3),
            (b'<', Some(b'<'), Some(b'=')) => (ShlAssign, 3),
            (b'>', Some(b'>'), Some(b'=')) => (ShrAssign, 3),
            (b'<', Some(b'<'), _) => (Shl, 2),
            (b'>', Some(b'>'), _) => (Shr, 2),
            (b'<', Some(b'='), _) => (Le, 2),
            (b'>', Some(b'='), _) => (Ge, 2),
            (b'=', Some(b'='), _) => (EqEq, 2),
            (b'!', Some(b'='), _) => (Ne, 2),
            (b'&', Some(b'&'), _) => (AndAnd, 2),
            (b'|', Some(b'|'), _) => (OrOr, 2),
            (b'+', Some(b'+'), _) => (PlusPlus, 2),
            (b'-', Some(b'-'), _) => (MinusMinus, 2),
            (b'+', Some(b'='), _) => (PlusAssign, 2),
            (b'-', Some(b'='), _) => (MinusAssign, 2),
            (b'*', Some(b'='), _) => (StarAssign, 2),
            (b'/', Some(b'='), _) => (SlashAssign, 2),
            (b'%', Some(b'='), _) => (PercentAssign, 2),
            (b'&', Some(b'='), _) => (AmpAssign, 2),
            (b'|', Some(b'='), _) => (PipeAssign, 2),
            (b'^', Some(b'='), _) => (CaretAssign, 2),
            (b'-', Some(b'>'), _) => (Arrow, 2),
            (b'<', _, _) => (Lt, 1),
            (b'>', _, _) => (Gt, 1),
            (b'=', _, _) => (Assign, 1),
            (b'+', _, _) => (Plus, 1),
            (b'-', _, _) => (Minus, 1),
            (b'*', _, _) => (Star, 1),
            (b'/', _, _) => (Slash, 1),
            (b'%', _, _) => (Percent, 1),
            (b'&', _, _) => (Amp, 1),
            (b'|', _, _) => (Pipe, 1),
            (b'^', _, _) => (Caret, 1),
            (b'~', _, _) => (Tilde, 1),
            (b'!', _, _) => (Bang, 1),
            (b'?', _, _) => (Question, 1),
            (b':', _, _) => (Colon, 1),
            (b';', _, _) => (Semi, 1),
            (b',', _, _) => (Comma, 1),
            (b'.', _, _) => (Dot, 1),
            (b'(', _, _) => (LParen, 1),
            (b')', _, _) => (RParen, 1),
            (b'{', _, _) => (LBrace, 1),
            (b'}', _, _) => (RBrace, 1),
            (b'[', _, _) => (LBracket, 1),
            (b']', _, _) => (RBracket, 1),
            _ => {
                // Token starts lie on char boundaries; name the whole scalar.
                let c = self.src[start..].chars().next().expect("peeked a byte");
                return Err(ParseError::new(
                    format!("unexpected character `{c}`"),
                    Span::new(start as u32, (start + c.len_utf8()) as u32),
                ));
            }
        };
        self.pos += len;
        self.push(TokenKind::Punct(punct), start);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn empty_source_is_just_eof() {
        assert_eq!(kinds(""), vec![TokenKind::Eof]);
        assert_eq!(kinds("   \n\t "), vec![TokenKind::Eof]);
    }

    #[test]
    fn integers_and_floats() {
        assert_eq!(
            kinds("42 0x1F 1.5 2e3 7f 3.0f 1e-2"),
            vec![
                TokenKind::IntLit(42),
                TokenKind::IntLit(31),
                TokenKind::FloatLit(1.5),
                TokenKind::FloatLit(2000.0),
                TokenKind::FloatLit(7.0),
                TokenKind::FloatLit(3.0),
                TokenKind::FloatLit(0.01),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn integer_suffixes_are_skipped() {
        assert_eq!(
            kinds("1u 2U 3l 4LL 5ull"),
            vec![
                TokenKind::IntLit(1),
                TokenKind::IntLit(2),
                TokenKind::IntLit(3),
                TokenKind::IntLit(4),
                TokenKind::IntLit(5),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn keywords_vs_identifiers() {
        assert_eq!(
            kinds("__global__ foo int intx"),
            vec![
                TokenKind::Keyword(Keyword::Global),
                TokenKind::Ident("foo"),
                TokenKind::Keyword(Keyword::Int),
                TokenKind::Ident("intx"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn launch_brackets() {
        assert_eq!(
            kinds("k<<<g, b>>>(x);"),
            vec![
                TokenKind::Ident("k"),
                TokenKind::Punct(Punct::LaunchOpen),
                TokenKind::Ident("g"),
                TokenKind::Punct(Punct::Comma),
                TokenKind::Ident("b"),
                TokenKind::Punct(Punct::LaunchClose),
                TokenKind::Punct(Punct::LParen),
                TokenKind::Ident("x"),
                TokenKind::Punct(Punct::RParen),
                TokenKind::Punct(Punct::Semi),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn maximal_munch_of_shifts_and_compares() {
        assert_eq!(
            kinds("a<<b >>c <= >= == != && ||"),
            vec![
                TokenKind::Ident("a"),
                TokenKind::Punct(Punct::Shl),
                TokenKind::Ident("b"),
                TokenKind::Punct(Punct::Shr),
                TokenKind::Ident("c"),
                TokenKind::Punct(Punct::Le),
                TokenKind::Punct(Punct::Ge),
                TokenKind::Punct(Punct::EqEq),
                TokenKind::Punct(Punct::Ne),
                TokenKind::Punct(Punct::AndAnd),
                TokenKind::Punct(Punct::OrOr),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("a // line comment\n b /* block \n comment */ c"),
            vec![
                TokenKind::Ident("a"),
                TokenKind::Ident("b"),
                TokenKind::Ident("c"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn unterminated_block_comment_errors() {
        assert!(lex("a /* oops").is_err());
    }

    #[test]
    fn directives_are_verbatim() {
        let toks = kinds("#include <cuda.h>\n#define N 5\nint x;");
        assert_eq!(toks[0], TokenKind::Directive("#include <cuda.h>".into()));
        assert_eq!(toks[1], TokenKind::Directive("#define N 5".into()));
    }

    #[test]
    fn directive_with_continuation() {
        let toks = kinds("#define M(a) \\\n  (a + 1)\nx");
        assert_eq!(
            toks[0],
            TokenKind::Directive("#define M(a)   (a + 1)".into())
        );
        assert_eq!(toks[1], TokenKind::Ident("x"));
    }

    #[test]
    fn directives_keep_multi_byte_text() {
        // Verbatim means the `str`, not its bytes re-read as Latin-1.
        let toks = kinds("#include <é.h> \t\n#define S \\\n  \"naïve→\"  \nx");
        assert_eq!(toks[0], TokenKind::Directive("#include <é.h>".into()));
        assert!(matches!(&toks[0], TokenKind::Directive(Cow::Borrowed(_))));
        assert_eq!(
            toks[1],
            TokenKind::Directive("#define S   \"naïve→\"".into())
        );
        assert_eq!(toks[2], TokenKind::Ident("x"));
        assert_eq!(
            kinds("#pragma é \\"),
            vec![TokenKind::Directive("#pragma é \\".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn unexpected_multi_byte_character_is_named_whole() {
        let src = "p[0] = 1é;";
        let err = lex(src).unwrap_err();
        assert!(err.message().contains("`é`"), "{}", err.message());
        let span = err.span();
        assert_eq!(&src[span.start as usize..span.end as usize], "é");
    }

    #[test]
    fn char_literals_become_ints() {
        assert_eq!(
            kinds("'a' '\\n' '\\0'"),
            vec![
                TokenKind::IntLit(97),
                TokenKind::IntLit(10),
                TokenKind::IntLit(0),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn string_literal_is_rejected() {
        let err = lex("printf(\"hi\")").unwrap_err();
        assert!(err.message().contains("string literals"));
    }

    #[test]
    fn unexpected_character_errors_with_span() {
        let err = lex("int @x;").unwrap_err();
        assert!(err.message().contains('@'));
        assert_eq!(err.span().start, 4);
    }

    #[test]
    fn spans_cover_tokens() {
        let toks = lex("ab + cd").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(3, 4));
        assert_eq!(toks[2].span, Span::new(5, 7));
    }
}
