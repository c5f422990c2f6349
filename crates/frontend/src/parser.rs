//! Recursive-descent parser for the CUDA-C subset.
//!
//! The grammar covers what the paper's transformations and benchmarks need:
//! function definitions with CUDA qualifiers, the full C statement set,
//! C expressions with correct precedence (Pratt parsing), `dim3`, kernel
//! launch statements, `__shared__` arrays, and simple `#define` macros.

use crate::ast::*;
use crate::error::{ParseError, Result};
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Keyword, Punct, Token, TokenKind};

/// Parses a translation unit.
///
/// # Errors
///
/// Returns a spanned [`ParseError`] on the first lexical or syntactic
/// problem.
///
/// # Examples
///
/// ```
/// use dp_frontend::parser::parse;
/// let program = parse("__global__ void k(int* p) { p[threadIdx.x] = 1; }").unwrap();
/// assert!(program.function("k").unwrap().is_kernel());
/// ```
pub fn parse(source: &str) -> Result<Program> {
    let tokens = lex(source)?;
    Parser::new(tokens).program()
}

/// Parses a single expression (useful for tests and analysis tooling).
///
/// # Errors
///
/// Returns an error if the text is not exactly one expression.
pub fn parse_expr(source: &str) -> Result<Expr> {
    let tokens = lex(source)?;
    let mut p = Parser::new(tokens);
    let expr = p.expr()?;
    p.expect_eof()?;
    Ok(expr)
}

/// Parses a single statement (useful for tests).
///
/// # Errors
///
/// Returns an error if the text is not exactly one statement.
pub fn parse_stmt(source: &str) -> Result<Stmt> {
    let tokens = lex(source)?;
    let mut p = Parser::new(tokens);
    let stmt = p.stmt()?;
    p.expect_eof()?;
    Ok(stmt)
}

/// The parser never backtracks, so it reads tokens in place: a name is
/// copied once, into the AST node that keeps it.
struct Parser<'s> {
    tokens: Vec<Token<'s>>,
    pos: usize,
}

impl<'s> Parser<'s> {
    fn new(tokens: Vec<Token<'s>>) -> Self {
        Parser { tokens, pos: 0 }
    }

    fn peek(&self) -> &TokenKind<'s> {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind<'s> {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) {
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek() == &TokenKind::Punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.peek() == &TokenKind::Keyword(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("expected `{p}`")))
        }
    }

    fn expect_ident(&mut self) -> Result<Name> {
        match *self.peek() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(Name::new(name))
            }
            _ => Err(self.unexpected("expected identifier")),
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if self.peek() == &TokenKind::Eof {
            Ok(())
        } else {
            Err(self.unexpected("expected end of input"))
        }
    }

    fn unexpected(&self, expected: &str) -> ParseError {
        ParseError::new(format!("{expected}, found {}", self.peek()), self.span())
    }

    // ------------------------------------------------------------------
    // Top level
    // ------------------------------------------------------------------

    fn program(&mut self) -> Result<Program> {
        let mut program = Program::new();
        loop {
            match self.peek() {
                TokenKind::Eof => return Ok(program),
                TokenKind::Directive(text) => {
                    program.items.push(parse_directive(text));
                    self.bump();
                }
                _ => {
                    let func = self.function()?;
                    program.items.push(Item::Function(func));
                }
            }
        }
    }

    fn function(&mut self) -> Result<Function> {
        let start = self.span();
        let mut qual = FnQual::Host;
        loop {
            if self.eat_keyword(Keyword::Global) {
                qual = FnQual::Global;
            } else if self.eat_keyword(Keyword::Device) {
                qual = FnQual::Device;
            } else if self.eat_keyword(Keyword::Host) {
                // `__host__ __device__` keeps the stronger qualifier.
                if qual == FnQual::Host {
                    qual = FnQual::Host;
                }
            } else {
                break;
            }
        }
        let ret = self.ty()?;
        let name = self.expect_ident()?;
        self.expect_punct(Punct::LParen)?;
        let mut params = Vec::new();
        if !self.eat_punct(Punct::RParen) {
            loop {
                if self.eat_keyword(Keyword::Const) {
                    // `const T*` parameters: qualifier is informational.
                }
                let ty = self.ty()?;
                let pname = self.expect_ident()?;
                params.push(Param { ty, name: pname });
                if self.eat_punct(Punct::RParen) {
                    break;
                }
                self.expect_punct(Punct::Comma)?;
            }
        }
        self.expect_punct(Punct::LBrace)?;
        let body = self.block_body()?;
        let span = start.join(self.prev_span());
        if qual == FnQual::Global && ret != Type::Void {
            return Err(ParseError::new(
                format!("kernel `{name}` must return void"),
                span,
            ));
        }
        Ok(Function {
            qual,
            ret,
            name,
            params,
            body,
            span,
        })
    }

    // ------------------------------------------------------------------
    // Types
    // ------------------------------------------------------------------

    fn at_type_start(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::Keyword(
                Keyword::Void
                    | Keyword::Bool
                    | Keyword::Char
                    | Keyword::Int
                    | Keyword::Unsigned
                    | Keyword::Signed
                    | Keyword::Long
                    | Keyword::Short
                    | Keyword::Float
                    | Keyword::Double
                    | Keyword::SizeT
                    | Keyword::Dim3
            )
        )
    }

    fn ty(&mut self) -> Result<Type> {
        let base = match *self.peek() {
            TokenKind::Keyword(Keyword::Void) => {
                self.bump();
                Type::Void
            }
            TokenKind::Keyword(Keyword::Bool) => {
                self.bump();
                Type::Bool
            }
            TokenKind::Keyword(Keyword::Char) | TokenKind::Keyword(Keyword::Short) => {
                self.bump();
                Type::Int
            }
            TokenKind::Keyword(Keyword::Signed) => {
                self.bump();
                self.eat_keyword(Keyword::Int);
                Type::Int
            }
            TokenKind::Keyword(Keyword::Int) => {
                self.bump();
                Type::Int
            }
            TokenKind::Keyword(Keyword::SizeT) => {
                self.bump();
                Type::UInt
            }
            TokenKind::Keyword(Keyword::Unsigned) => {
                self.bump();
                if self.eat_keyword(Keyword::Long) {
                    self.eat_keyword(Keyword::Long);
                    self.eat_keyword(Keyword::Int);
                    Type::ULong
                } else {
                    self.eat_keyword(Keyword::Int);
                    Type::UInt
                }
            }
            TokenKind::Keyword(Keyword::Long) => {
                self.bump();
                self.eat_keyword(Keyword::Long);
                self.eat_keyword(Keyword::Int);
                Type::Long
            }
            TokenKind::Keyword(Keyword::Float) => {
                self.bump();
                Type::Float
            }
            TokenKind::Keyword(Keyword::Double) => {
                self.bump();
                Type::Double
            }
            TokenKind::Keyword(Keyword::Dim3) => {
                self.bump();
                Type::Dim3
            }
            TokenKind::Keyword(Keyword::Struct) => {
                return Err(ParseError::new(
                    "struct types are not supported in the CUDA subset",
                    self.span(),
                ))
            }
            _ => return Err(self.unexpected("expected type")),
        };
        let mut ty = base;
        while self.eat_punct(Punct::Star) {
            ty = ty.ptr_to();
        }
        Ok(ty)
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn block_body(&mut self) -> Result<Vec<Stmt>> {
        let mut stmts = Vec::new();
        loop {
            if self.eat_punct(Punct::RBrace) {
                return Ok(stmts);
            }
            if self.peek() == &TokenKind::Eof {
                return Err(self.unexpected("expected `}`"));
            }
            stmts.push(self.stmt()?);
        }
    }

    fn stmt(&mut self) -> Result<Stmt> {
        let start = self.span();
        match *self.peek() {
            TokenKind::Punct(Punct::LBrace) => {
                self.bump();
                let stmts = self.block_body()?;
                Ok(Stmt::new(
                    StmtKind::Block(stmts),
                    start.join(self.prev_span()),
                ))
            }
            TokenKind::Punct(Punct::Semi) => {
                self.bump();
                Ok(Stmt::new(StmtKind::Empty, start))
            }
            TokenKind::Keyword(Keyword::If) => self.if_stmt(start),
            TokenKind::Keyword(Keyword::For) => self.for_stmt(start),
            TokenKind::Keyword(Keyword::While) => self.while_stmt(start),
            TokenKind::Keyword(Keyword::Do) => self.do_while_stmt(start),
            TokenKind::Keyword(Keyword::Return) => {
                self.bump();
                let value = if self.eat_punct(Punct::Semi) {
                    None
                } else {
                    let e = self.expr()?;
                    self.expect_punct(Punct::Semi)?;
                    Some(e)
                };
                Ok(Stmt::new(
                    StmtKind::Return(value),
                    start.join(self.prev_span()),
                ))
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::new(StmtKind::Break, start.join(self.prev_span())))
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::new(StmtKind::Continue, start.join(self.prev_span())))
            }
            TokenKind::Keyword(Keyword::Shared) | TokenKind::Keyword(Keyword::Const) => {
                self.decl_stmt(start)
            }
            TokenKind::Keyword(Keyword::Dim3)
                if self.peek_at(1) == &TokenKind::Punct(Punct::LParen) =>
            {
                // `dim3(...)` used as an expression statement (rare).
                self.expr_stmt(start)
            }
            _ if self.at_type_start() => self.decl_stmt(start),
            TokenKind::Ident(_) if self.peek_at(1) == &TokenKind::Punct(Punct::LaunchOpen) => {
                self.launch_stmt(start)
            }
            _ => self.expr_stmt(start),
        }
    }

    fn expr_stmt(&mut self, start: Span) -> Result<Stmt> {
        let expr = self.expr()?;
        self.expect_punct(Punct::Semi)?;
        Ok(Stmt::new(
            StmtKind::Expr(expr),
            start.join(self.prev_span()),
        ))
    }

    fn decl_stmt(&mut self, start: Span) -> Result<Stmt> {
        let decl = self.var_decl()?;
        self.expect_punct(Punct::Semi)?;
        Ok(Stmt::new(
            StmtKind::Decl(decl),
            start.join(self.prev_span()),
        ))
    }

    /// Parses a declaration without the trailing `;` (shared with for-init).
    fn var_decl(&mut self) -> Result<VarDecl> {
        let mut shared = false;
        let mut is_const = false;
        loop {
            if self.eat_keyword(Keyword::Shared) {
                shared = true;
            } else if self.eat_keyword(Keyword::Const) {
                is_const = true;
            } else {
                break;
            }
        }
        let ty = self.ty()?;
        let mut declarators = Vec::new();
        loop {
            let name = self.expect_ident()?;
            let array_len = if self.eat_punct(Punct::LBracket) {
                let len = self.expr()?;
                self.expect_punct(Punct::RBracket)?;
                Some(len)
            } else {
                None
            };
            let init = if self.eat_punct(Punct::Assign) {
                Some(self.expr()?)
            } else {
                None
            };
            declarators.push(Declarator {
                name,
                array_len,
                init,
            });
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        Ok(VarDecl {
            ty,
            shared,
            is_const,
            declarators,
        })
    }

    fn if_stmt(&mut self, start: Span) -> Result<Stmt> {
        self.bump(); // if
        self.expect_punct(Punct::LParen)?;
        let cond = self.expr()?;
        self.expect_punct(Punct::RParen)?;
        let then_branch = Box::new(self.stmt()?);
        let else_branch = if self.eat_keyword(Keyword::Else) {
            Some(Box::new(self.stmt()?))
        } else {
            None
        };
        Ok(Stmt::new(
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            },
            start.join(self.prev_span()),
        ))
    }

    fn for_stmt(&mut self, start: Span) -> Result<Stmt> {
        self.bump(); // for
        self.expect_punct(Punct::LParen)?;
        let init = if self.eat_punct(Punct::Semi) {
            None
        } else if self.at_type_start()
            || matches!(
                self.peek(),
                TokenKind::Keyword(Keyword::Const) | TokenKind::Keyword(Keyword::Shared)
            )
        {
            let d_start = self.span();
            let decl = self.var_decl()?;
            self.expect_punct(Punct::Semi)?;
            Some(Box::new(Stmt::new(
                StmtKind::Decl(decl),
                d_start.join(self.prev_span()),
            )))
        } else {
            let e_start = self.span();
            let e = self.expr()?;
            self.expect_punct(Punct::Semi)?;
            Some(Box::new(Stmt::new(
                StmtKind::Expr(e),
                e_start.join(self.prev_span()),
            )))
        };
        let cond = if self.peek() == &TokenKind::Punct(Punct::Semi) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect_punct(Punct::Semi)?;
        let step = if self.peek() == &TokenKind::Punct(Punct::RParen) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect_punct(Punct::RParen)?;
        let body = Box::new(self.stmt()?);
        Ok(Stmt::new(
            StmtKind::For {
                init,
                cond,
                step,
                body,
            },
            start.join(self.prev_span()),
        ))
    }

    fn while_stmt(&mut self, start: Span) -> Result<Stmt> {
        self.bump(); // while
        self.expect_punct(Punct::LParen)?;
        let cond = self.expr()?;
        self.expect_punct(Punct::RParen)?;
        let body = Box::new(self.stmt()?);
        Ok(Stmt::new(
            StmtKind::While { cond, body },
            start.join(self.prev_span()),
        ))
    }

    fn do_while_stmt(&mut self, start: Span) -> Result<Stmt> {
        self.bump(); // do
        let body = Box::new(self.stmt()?);
        if !self.eat_keyword(Keyword::While) {
            return Err(self.unexpected("expected `while`"));
        }
        self.expect_punct(Punct::LParen)?;
        let cond = self.expr()?;
        self.expect_punct(Punct::RParen)?;
        self.expect_punct(Punct::Semi)?;
        Ok(Stmt::new(
            StmtKind::DoWhile { body, cond },
            start.join(self.prev_span()),
        ))
    }

    fn launch_stmt(&mut self, start: Span) -> Result<Stmt> {
        let kernel = self.expect_ident()?;
        self.expect_punct(Punct::LaunchOpen)?;
        let grid = self.expr()?;
        self.expect_punct(Punct::Comma)?;
        let block = self.expr()?;
        let shmem = if self.eat_punct(Punct::Comma) {
            Some(self.expr()?)
        } else {
            None
        };
        let stream = if self.eat_punct(Punct::Comma) {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect_punct(Punct::LaunchClose)?;
        self.expect_punct(Punct::LParen)?;
        let mut args = Vec::new();
        if !self.eat_punct(Punct::RParen) {
            loop {
                args.push(self.expr()?);
                if self.eat_punct(Punct::RParen) {
                    break;
                }
                self.expect_punct(Punct::Comma)?;
            }
        }
        self.expect_punct(Punct::Semi)?;
        Ok(Stmt::new(
            StmtKind::Launch(LaunchStmt {
                kernel,
                grid,
                block,
                shmem,
                stream,
                args,
            }),
            start.join(self.prev_span()),
        ))
    }

    // ------------------------------------------------------------------
    // Expressions (Pratt)
    // ------------------------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.expr_bp(0)
    }

    fn expr_bp(&mut self, min_bp: u8) -> Result<Expr> {
        let mut lhs = self.unary()?;
        while let TokenKind::Punct(p) = *self.peek() {
            let (op_bp, right_assoc): (u8, bool) = match p {
                Punct::Assign
                | Punct::PlusAssign
                | Punct::MinusAssign
                | Punct::StarAssign
                | Punct::SlashAssign
                | Punct::PercentAssign
                | Punct::AmpAssign
                | Punct::PipeAssign
                | Punct::CaretAssign
                | Punct::ShlAssign
                | Punct::ShrAssign => (2, true),
                Punct::Question => (4, true),
                Punct::OrOr => (6, false),
                Punct::AndAnd => (8, false),
                Punct::Pipe => (10, false),
                Punct::Caret => (12, false),
                Punct::Amp => (14, false),
                Punct::EqEq | Punct::Ne => (16, false),
                Punct::Lt | Punct::Le | Punct::Gt | Punct::Ge => (18, false),
                Punct::Shl | Punct::Shr => (20, false),
                Punct::Plus | Punct::Minus => (22, false),
                Punct::Star | Punct::Slash | Punct::Percent => (24, false),
                _ => break,
            };
            if op_bp < min_bp {
                break;
            }
            self.bump();
            let next_bp = if right_assoc { op_bp } else { op_bp + 1 };
            lhs = if p == Punct::Question {
                let then_e = self.expr_bp(0)?;
                self.expect_punct(Punct::Colon)?;
                let else_e = self.expr_bp(next_bp)?;
                let span = lhs.span.join(else_e.span);
                Expr::new(
                    ExprKind::Ternary(Box::new(lhs), Box::new(then_e), Box::new(else_e)),
                    span,
                )
            } else if let Some(aop) = assign_op_of(p) {
                let rhs = self.expr_bp(next_bp)?;
                let span = lhs.span.join(rhs.span);
                Expr::new(ExprKind::Assign(aop, Box::new(lhs), Box::new(rhs)), span)
            } else {
                let bop = bin_op_of(p).expect("binary operator");
                let rhs = self.expr_bp(next_bp)?;
                let span = lhs.span.join(rhs.span);
                Expr::new(ExprKind::Binary(bop, Box::new(lhs), Box::new(rhs)), span)
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr> {
        let start = self.span();
        let expr = match *self.peek() {
            TokenKind::Punct(Punct::Minus) => {
                self.bump();
                let operand = self.unary()?;
                let span = start.join(operand.span);
                Expr::new(ExprKind::Unary(UnOp::Neg, Box::new(operand)), span)
            }
            TokenKind::Punct(Punct::Bang) => {
                self.bump();
                let operand = self.unary()?;
                let span = start.join(operand.span);
                Expr::new(ExprKind::Unary(UnOp::Not, Box::new(operand)), span)
            }
            TokenKind::Punct(Punct::Tilde) => {
                self.bump();
                let operand = self.unary()?;
                let span = start.join(operand.span);
                Expr::new(ExprKind::Unary(UnOp::BitNot, Box::new(operand)), span)
            }
            TokenKind::Punct(Punct::Star) => {
                self.bump();
                let operand = self.unary()?;
                let span = start.join(operand.span);
                Expr::new(ExprKind::Unary(UnOp::Deref, Box::new(operand)), span)
            }
            TokenKind::Punct(Punct::Amp) => {
                self.bump();
                let operand = self.unary()?;
                let span = start.join(operand.span);
                Expr::new(ExprKind::Unary(UnOp::AddrOf, Box::new(operand)), span)
            }
            TokenKind::Punct(Punct::Plus) => {
                self.bump();
                self.unary()?
            }
            TokenKind::Punct(p @ (Punct::PlusPlus | Punct::MinusMinus)) => {
                self.bump();
                let inc = p == Punct::PlusPlus;
                let operand = self.unary()?;
                let span = start.join(operand.span);
                Expr::new(
                    ExprKind::IncDec {
                        inc,
                        prefix: true,
                        operand: Box::new(operand),
                    },
                    span,
                )
            }
            TokenKind::Punct(Punct::LParen) if self.is_cast_start() => {
                self.bump();
                let ty = self.ty()?;
                self.expect_punct(Punct::RParen)?;
                let operand = self.unary()?;
                let span = start.join(operand.span);
                Expr::new(ExprKind::Cast(ty, Box::new(operand)), span)
            }
            _ => self.postfix()?,
        };
        Ok(expr)
    }

    /// After seeing `(`, decides whether a cast follows: `(` type-keyword.
    fn is_cast_start(&self) -> bool {
        matches!(
            self.peek_at(1),
            TokenKind::Keyword(
                Keyword::Void
                    | Keyword::Bool
                    | Keyword::Char
                    | Keyword::Int
                    | Keyword::Unsigned
                    | Keyword::Signed
                    | Keyword::Long
                    | Keyword::Short
                    | Keyword::Float
                    | Keyword::Double
                    | Keyword::SizeT
            )
        )
    }

    fn postfix(&mut self) -> Result<Expr> {
        let mut expr = self.primary()?;
        loop {
            match *self.peek() {
                TokenKind::Punct(Punct::LBracket) => {
                    self.bump();
                    let index = self.expr()?;
                    self.expect_punct(Punct::RBracket)?;
                    let span = expr.span.join(self.prev_span());
                    expr = Expr::new(ExprKind::Index(Box::new(expr), Box::new(index)), span);
                }
                TokenKind::Punct(Punct::Dot) => {
                    self.bump();
                    let field = self.expect_ident()?;
                    let span = expr.span.join(self.prev_span());
                    expr = Expr::new(ExprKind::Member(Box::new(expr), field), span);
                }
                TokenKind::Punct(p @ (Punct::PlusPlus | Punct::MinusMinus)) => {
                    self.bump();
                    let inc = p == Punct::PlusPlus;
                    let span = expr.span.join(self.prev_span());
                    expr = Expr::new(
                        ExprKind::IncDec {
                            inc,
                            prefix: false,
                            operand: Box::new(expr),
                        },
                        span,
                    );
                }
                _ => return Ok(expr),
            }
        }
    }

    fn primary(&mut self) -> Result<Expr> {
        let start = self.span();
        match *self.peek() {
            TokenKind::IntLit(v) => {
                self.bump();
                Ok(Expr::new(ExprKind::IntLit(v), start))
            }
            TokenKind::FloatLit(v) => {
                self.bump();
                Ok(Expr::new(ExprKind::FloatLit(v), start))
            }
            TokenKind::Keyword(Keyword::True) => {
                self.bump();
                Ok(Expr::new(ExprKind::BoolLit(true), start))
            }
            TokenKind::Keyword(Keyword::False) => {
                self.bump();
                Ok(Expr::new(ExprKind::BoolLit(false), start))
            }
            TokenKind::Keyword(Keyword::Dim3) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let mut args = Vec::new();
                if !self.eat_punct(Punct::RParen) {
                    loop {
                        args.push(self.expr()?);
                        if self.eat_punct(Punct::RParen) {
                            break;
                        }
                        self.expect_punct(Punct::Comma)?;
                    }
                }
                if args.is_empty() || args.len() > 3 {
                    return Err(ParseError::new(
                        "dim3 constructor takes 1 to 3 arguments",
                        start.join(self.prev_span()),
                    ));
                }
                Ok(Expr::new(
                    ExprKind::Dim3Ctor(args),
                    start.join(self.prev_span()),
                ))
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.eat_punct(Punct::LParen) {
                    let mut args = Vec::new();
                    if !self.eat_punct(Punct::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if self.eat_punct(Punct::RParen) {
                                break;
                            }
                            self.expect_punct(Punct::Comma)?;
                        }
                    }
                    Ok(Expr::new(
                        ExprKind::Call(Name::new(name), args),
                        start.join(self.prev_span()),
                    ))
                } else {
                    Ok(Expr::new(ExprKind::Ident(Name::new(name)), start))
                }
            }
            TokenKind::Punct(Punct::LParen) => {
                self.bump();
                let inner = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                Ok(inner)
            }
            _ => Err(self.unexpected("expected expression")),
        }
    }
}

fn parse_directive(text: &str) -> Item {
    let mut parts = text.split_whitespace();
    if parts.next() == Some("#define") {
        if let (Some(name), Some(value), None) = (parts.next(), parts.next(), parts.next()) {
            let parsed = if let Some(hex) = value.strip_prefix("0x") {
                i64::from_str_radix(hex, 16).ok()
            } else {
                value.parse::<i64>().ok()
            };
            if let Some(v) = parsed {
                if name.chars().all(|c| c == '_' || c.is_ascii_alphanumeric()) {
                    return Item::Define {
                        name: Name::new(name),
                        value: v,
                    };
                }
            }
        }
    }
    Item::Directive(text.to_string())
}

fn bin_op_of(p: Punct) -> Option<BinOp> {
    Some(match p {
        Punct::Plus => BinOp::Add,
        Punct::Minus => BinOp::Sub,
        Punct::Star => BinOp::Mul,
        Punct::Slash => BinOp::Div,
        Punct::Percent => BinOp::Rem,
        Punct::Lt => BinOp::Lt,
        Punct::Le => BinOp::Le,
        Punct::Gt => BinOp::Gt,
        Punct::Ge => BinOp::Ge,
        Punct::EqEq => BinOp::Eq,
        Punct::Ne => BinOp::Ne,
        Punct::AndAnd => BinOp::LogAnd,
        Punct::OrOr => BinOp::LogOr,
        Punct::Amp => BinOp::BitAnd,
        Punct::Pipe => BinOp::BitOr,
        Punct::Caret => BinOp::BitXor,
        Punct::Shl => BinOp::Shl,
        Punct::Shr => BinOp::Shr,
        _ => return None,
    })
}

fn assign_op_of(p: Punct) -> Option<AssignOp> {
    Some(match p {
        Punct::Assign => AssignOp::Assign,
        Punct::PlusAssign => AssignOp::Add,
        Punct::MinusAssign => AssignOp::Sub,
        Punct::StarAssign => AssignOp::Mul,
        Punct::SlashAssign => AssignOp::Div,
        Punct::PercentAssign => AssignOp::Rem,
        Punct::AmpAssign => AssignOp::And,
        Punct::PipeAssign => AssignOp::Or,
        Punct::CaretAssign => AssignOp::Xor,
        Punct::ShlAssign => AssignOp::Shl,
        Punct::ShrAssign => AssignOp::Shr,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_kernel() {
        let p = parse("__global__ void k(int* out) { out[threadIdx.x] = 1; }").unwrap();
        let f = p.function("k").unwrap();
        assert_eq!(f.qual, FnQual::Global);
        assert_eq!(f.params.len(), 1);
        assert_eq!(f.params[0].ty, Type::Int.ptr_to());
        assert_eq!(f.body.len(), 1);
    }

    #[test]
    fn kernel_must_return_void() {
        let err = parse("__global__ int k() { return 1; }").unwrap_err();
        assert!(err.message().contains("must return void"));
    }

    #[test]
    fn precedence_mul_over_add() {
        let e = parse_expr("a + b * c").unwrap();
        match e.kind {
            ExprKind::Binary(BinOp::Add, _, rhs) => {
                assert!(matches!(rhs.kind, ExprKind::Binary(BinOp::Mul, _, _)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn precedence_shift_vs_compare() {
        // `a << b < c` parses as `(a << b) < c`.
        let e = parse_expr("a << b < c").unwrap();
        assert!(matches!(e.kind, ExprKind::Binary(BinOp::Lt, _, _)));
    }

    #[test]
    fn assignment_is_right_associative() {
        let e = parse_expr("a = b = c").unwrap();
        match e.kind {
            ExprKind::Assign(AssignOp::Assign, _, rhs) => {
                assert!(matches!(rhs.kind, ExprKind::Assign(AssignOp::Assign, _, _)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn ternary_nests() {
        let e = parse_expr("a ? b : c ? d : e").unwrap();
        match e.kind {
            ExprKind::Ternary(_, _, els) => {
                assert!(matches!(els.kind, ExprKind::Ternary(_, _, _)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn ceiling_division_expression() {
        // The exact pattern from paper Fig. 4(a).
        let e = parse_expr("(N - 1) / b + 1").unwrap();
        assert!(matches!(e.kind, ExprKind::Binary(BinOp::Add, _, _)));
    }

    #[test]
    fn cast_parses() {
        let e = parse_expr("(float)N / b").unwrap();
        match e.kind {
            ExprKind::Binary(BinOp::Div, lhs, _) => {
                assert!(matches!(lhs.kind, ExprKind::Cast(Type::Float, _)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parenthesized_expr_is_not_cast() {
        let e = parse_expr("(N) / b").unwrap();
        match e.kind {
            ExprKind::Binary(BinOp::Div, lhs, _) => {
                assert_eq!(lhs.kind.as_ident(), Some("N"));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn dim3_ctor() {
        let e = parse_expr("dim3(a, b, 1)").unwrap();
        match e.kind {
            ExprKind::Dim3Ctor(args) => assert_eq!(args.len(), 3),
            other => panic!("unexpected: {other:?}"),
        }
        assert!(parse_expr("dim3()").is_err());
        assert!(parse_expr("dim3(1,2,3,4)").is_err());
    }

    #[test]
    fn member_access_on_builtins() {
        let e = parse_expr("blockIdx.x * blockDim.x + threadIdx.x").unwrap();
        assert!(matches!(e.kind, ExprKind::Binary(BinOp::Add, _, _)));
    }

    #[test]
    fn launch_statement_full_config() {
        let s = parse_stmt("child<<<gDim, bDim, 0, stream>>>(a, b);").unwrap();
        match s.kind {
            StmtKind::Launch(l) => {
                assert_eq!(l.kernel, "child");
                assert!(l.shmem.is_some());
                assert!(l.stream.is_some());
                assert_eq!(l.args.len(), 2);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn launch_with_expression_config() {
        let s = parse_stmt("child<<<(n + 255) / 256, 256>>>(p, n);").unwrap();
        match s.kind {
            StmtKind::Launch(l) => {
                assert!(matches!(l.grid.kind, ExprKind::Binary(BinOp::Div, _, _)));
                assert_eq!(l.args.len(), 2);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn launch_with_no_args() {
        let s = parse_stmt("k<<<1, 32>>>();").unwrap();
        match s.kind {
            StmtKind::Launch(l) => assert!(l.args.is_empty()),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn for_loop_with_decl_init() {
        let s = parse_stmt("for (int i = 0; i < n; ++i) { sum += i; }").unwrap();
        match s.kind {
            StmtKind::For {
                init, cond, step, ..
            } => {
                assert!(matches!(init.unwrap().kind, StmtKind::Decl(_)));
                assert!(cond.is_some());
                assert!(step.is_some());
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn for_loop_all_empty() {
        let s = parse_stmt("for (;;) break;").unwrap();
        match s.kind {
            StmtKind::For {
                init, cond, step, ..
            } => {
                assert!(init.is_none());
                assert!(cond.is_none());
                assert!(step.is_none());
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn dangling_else_binds_to_nearest_if() {
        let s = parse_stmt("if (a) if (b) x = 1; else x = 2;").unwrap();
        match s.kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                assert!(else_branch.is_none());
                assert!(matches!(
                    then_branch.kind,
                    StmtKind::If {
                        else_branch: Some(_),
                        ..
                    }
                ));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn multi_declarator_decl() {
        let s = parse_stmt("int a = 1, b, c = a + 2;").unwrap();
        match s.kind {
            StmtKind::Decl(d) => {
                assert_eq!(d.declarators.len(), 3);
                assert!(d.declarators[0].init.is_some());
                assert!(d.declarators[1].init.is_none());
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn shared_array_decl() {
        let s = parse_stmt("__shared__ float tile[256];").unwrap();
        match s.kind {
            StmtKind::Decl(d) => {
                assert!(d.shared);
                assert_eq!(d.ty, Type::Float);
                assert!(d.declarators[0].array_len.is_some());
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn unsigned_long_long_type() {
        let p =
            parse("__device__ unsigned long long f(unsigned long long x) { return x; }").unwrap();
        let f = p.function("f").unwrap();
        assert_eq!(f.ret, Type::ULong);
        assert_eq!(f.params[0].ty, Type::ULong);
    }

    #[test]
    fn defines_and_directives() {
        let p =
            parse("#include <cuda.h>\n#define _THRESHOLD 128\n__global__ void k() { }").unwrap();
        assert_eq!(p.define("_THRESHOLD"), Some(128));
        assert!(matches!(p.items[0], Item::Directive(_)));
    }

    #[test]
    fn define_hex() {
        let p = parse("#define MASK 0xFF\n").unwrap();
        assert_eq!(p.define("MASK"), Some(255));
    }

    #[test]
    fn function_like_define_is_directive() {
        let p = parse("#define MAX(a,b) ((a)>(b)?(a):(b))\n").unwrap();
        assert!(matches!(p.items[0], Item::Directive(_)));
    }

    #[test]
    fn syncthreads_is_a_call() {
        let s = parse_stmt("__syncthreads();").unwrap();
        match s.kind {
            StmtKind::Expr(e) => {
                assert!(matches!(e.kind, ExprKind::Call(name, _) if name == "__syncthreads"));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn error_spans_point_at_problem() {
        let err = parse("__global__ void k() { int = 3; }").unwrap_err();
        assert!(err.span().start > 0);
        assert!(err.message().contains("expected identifier"));
    }

    #[test]
    fn inc_dec_forms() {
        let post = parse_expr("i++").unwrap();
        assert!(
            matches!(
                post.kind,
                ExprKind::IncDec {
                    inc: true,
                    prefix: false,
                    ..
                }
            ),
            "got {post:?}"
        );
        let pre = parse_expr("--i").unwrap();
        assert!(matches!(
            pre.kind,
            ExprKind::IncDec {
                inc: false,
                prefix: true,
                ..
            }
        ));
    }

    #[test]
    fn address_of_and_deref() {
        let e = parse_expr("*(&x)").unwrap();
        match e.kind {
            ExprKind::Unary(UnOp::Deref, inner) => {
                assert!(matches!(inner.kind, ExprKind::Unary(UnOp::AddrOf, _)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn comment_only_program() {
        let p = parse("// nothing here\n/* or here */").unwrap();
        assert!(p.items.is_empty());
    }
}
