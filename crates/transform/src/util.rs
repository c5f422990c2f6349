//! Shared helpers for the transformation passes.
//!
//! A pass builds the code it generates as syntax, never as text: each
//! structure of the paper's figures (the serial child of Fig. 3b, the
//! coarsening loop of Fig. 6, the aggregation epilogue and the `_agg`
//! kernel of Fig. 7) is a function that returns `Stmt`s made with [`Gen`].
//! Every node it makes carries [`Span::SYNTH`] and the origin of the pass
//! that made it, and a user body that goes inside generated code is moved
//! into place. Builders make the tree the parser would make of the same C,
//! so the printed program re-parses to it (`compile_identity.rs` holds the
//! passes to that, node for node).
//!
//! A pass reads the program in place and writes the program in place; it
//! never copies it. The one thing a pass may not do is read a function it
//! has half rewritten: a kernel can launch itself, or launch a child that
//! calls back into it, and then the child's serial or aggregated version is
//! built from — and its serializability judged on — the parent *as the pass
//! found it*. So a launching parent's body is taken out of the program,
//! rewritten and put back after the last read ([`body_to_rewrite`]), and a
//! parent that launches itself, whose body is its child's, is rewritten on
//! a copy while the program still holds the old one. A function that
//! launches nothing, most of them, is left out of even that.
//!
//! A pass does not walk a function to ask it a question. It summarizes
//! every function once, when it starts ([`ProgramFacts`]: one walk per
//! body), and asks the summaries whether a function launches, returns,
//! reads a builtin, what it calls and what blocks serializing it. It
//! summarizes a function again only when its rewrite changed an answer a
//! later question gets: coarsening, after a child's body moved into its
//! body function.
//!
//! Every name a pass makes is a [`Name`], written in place from its text
//! and decimal numbers ([`concat`], [`numbered`]) rather than formatted,
//! and fresh ([`fresh_name`]) against what it could capture: a variable
//! against the identifiers of the function it lands in ([`fresh_local`],
//! asking [`BodyFacts::is_taken`]), a generated function against every
//! function of the program and every other one the pass generates. A pass
//! keeps each generated function together with the child it was made for,
//! so that it never has to read a name back to learn where the function
//! belongs.

pub(crate) use dp_analysis::{is_one_dimensional, BodyFacts, ProgramFacts};
use dp_frontend::ast::*;
use dp_frontend::visit::{walk_stmt_exprs_mut, walk_stmt_mut};
use dp_frontend::Span;

/// Builds generated code: every node gets [`Span::SYNTH`] and this origin.
/// Each method mirrors the C it stands for; `g.dot("blockIdx", "x")` is
/// `blockIdx.x`, and a statement list in braces is a `Vec<Stmt>`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Gen(pub CodeOrigin);

impl Gen {
    /// `name`
    pub(crate) fn id(self, name: &str) -> Expr {
        Expr::ident(name, self.0)
    }

    /// An integer literal.
    pub(crate) fn int(self, value: i64) -> Expr {
        Expr::int(value, self.0)
    }

    /// `lhs op rhs`
    pub(crate) fn bin(self, op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(op, lhs, rhs, self.0)
    }

    /// `base.field`
    pub(crate) fn dot(self, base: &str, field: &str) -> Expr {
        Expr::member(self.id(base), field, self.0)
    }

    /// `base[index]`
    pub(crate) fn index(self, base: &str, index: Expr) -> Expr {
        Expr::index(self.id(base), index, self.0)
    }

    /// `name(args)`
    pub(crate) fn call(self, name: &str, args: Vec<Expr>) -> Expr {
        Expr::call(name, args, self.0)
    }

    /// `&operand`
    pub(crate) fn addr(self, operand: Expr) -> Expr {
        Expr::synth(ExprKind::Unary(UnOp::AddrOf, Box::new(operand)), self.0)
    }

    /// `(ty)operand`
    pub(crate) fn cast(self, ty: Type, operand: Expr) -> Expr {
        Expr::synth(ExprKind::Cast(ty, Box::new(operand)), self.0)
    }

    /// `lhs op rhs` for an assignment operator `op`.
    pub(crate) fn assign(self, op: AssignOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::synth(ExprKind::Assign(op, Box::new(lhs), Box::new(rhs)), self.0)
    }

    /// `lhs = rhs;`
    pub(crate) fn set(self, lhs: Expr, rhs: Expr) -> Stmt {
        self.expr(self.assign(AssignOp::Assign, lhs, rhs))
    }

    /// `expr;`
    pub(crate) fn expr(self, expr: Expr) -> Stmt {
        Stmt::expr(expr, self.0)
    }

    /// `ty name = init;`
    pub(crate) fn decl(self, ty: Type, name: &str, init: Expr) -> Stmt {
        Stmt::decl(ty, name, Some(init), self.0)
    }

    /// `{ stmts }`
    fn block(self, stmts: Vec<Stmt>) -> Stmt {
        Stmt::synth(StmtKind::Block(stmts), self.0)
    }

    /// `if (cond) { then }`
    pub(crate) fn if_(self, cond: Expr, then: Vec<Stmt>) -> Stmt {
        let then_branch = Box::new(self.block(then));
        let kind = StmtKind::If {
            cond,
            then_branch,
            else_branch: None,
        };
        Stmt::synth(kind, self.0)
    }

    /// `if (cond) { then } else { els }`
    pub(crate) fn if_else(self, cond: Expr, then: Vec<Stmt>, els: Vec<Stmt>) -> Stmt {
        let mut stmt = self.if_(cond, then);
        if let StmtKind::If { else_branch, .. } = &mut stmt.kind {
            *else_branch = Some(Box::new(self.block(els)));
        }
        stmt
    }

    /// `for (int var = init; cond; step) { body }`
    pub fn for_(self, var: &str, init: Expr, cond: Expr, step: Expr, body: Vec<Stmt>) -> Stmt {
        let kind = StmtKind::For {
            init: Some(Box::new(self.decl(Type::Int, var, init))),
            cond: Some(cond),
            step: Some(step),
            body: Box::new(self.block(body)),
        };
        Stmt::synth(kind, self.0)
    }

    /// `while (cond) { body }`
    pub(crate) fn while_(self, cond: Expr, body: Vec<Stmt>) -> Stmt {
        let body = Box::new(self.block(body));
        Stmt::synth(StmtKind::While { cond, body }, self.0)
    }

    /// `kernel<<<grid, block>>>(args);`
    pub(crate) fn launch(self, kernel: Name, grid: Expr, block: Expr, args: Vec<Expr>) -> Stmt {
        let launch = LaunchStmt {
            kernel,
            grid,
            block,
            shmem: None,
            stream: None,
            args,
        };
        Stmt::synth(StmtKind::Launch(launch), self.0)
    }
}

/// A generated `qual void name(params) { body }` definition.
pub fn gen_function(qual: FnQual, name: Name, params: Vec<Param>, body: Vec<Stmt>) -> Function {
    Function {
        qual,
        ret: Type::Void,
        name,
        params,
        body,
        span: Span::SYNTH,
    }
}

/// A parameter `ty name`.
pub(crate) fn param(ty: Type, name: &str) -> Param {
    Param {
        ty,
        name: Name::new(name),
    }
}

/// The x extent of a 1-D launch dimension.
pub(crate) fn one_dimensional(dim: Expr) -> Expr {
    match dim.kind {
        ExprKind::Dim3Ctor(args) => args.into_iter().next().expect("dim3 has an x extent"),
        kind => Expr { kind, ..dim },
    }
}

/// Tags every statement and expression in `stmts` with `origin`,
/// *without* overwriting nested statements already tagged differently
/// (spliced bodies keep their own origins).
pub(crate) fn tag_origin(stmts: &mut [Stmt], origin: CodeOrigin) {
    for stmt in stmts {
        walk_stmt_mut(stmt, &mut |s| {
            if s.origin == CodeOrigin::Original {
                s.origin = origin;
            }
        });
        walk_stmt_exprs_mut(stmt, &mut |e| {
            if e.origin == CodeOrigin::Original {
                e.origin = origin;
            }
        });
    }
}

/// The body a pass rewrites for `parent`, to be put back when it is done:
/// taken out of `program`, or, if the parent launches itself, copied, so
/// that the body read as the child's is the one the pass found.
pub(crate) fn body_to_rewrite(program: &mut Program, parent: BodyFacts) -> Vec<Stmt> {
    let func = program
        .function_mut(parent.name())
        .expect("a summarized function is in the program");
    if parent.launches(parent.name()) {
        func.body.clone()
    } else {
        std::mem::take(&mut func.body)
    }
}

/// A local name for generated code, fresh against the identifiers of the
/// function it lands in, as summarized before the function changes (the
/// summary keeps only names that start with `_`, as every generated local
/// name does).
pub(crate) fn fresh_local(base: impl Into<Name>, used: BodyFacts) -> Name {
    let base = base.into();
    debug_assert!(
        base.starts_with('_'),
        "a generated local name starts with `_`: `{base}`"
    );
    fresh_name(base, |name| used.is_taken(name))
}

/// Returns `base` if it is not `taken`, otherwise the first of `base_2`,
/// `base_3`, … that is not. A generated function is named with it against
/// the functions the pass's [`ProgramFacts`] summarizes and those the pass
/// has named, so it never takes the name of a user's function or of
/// another generated one.
pub(crate) fn fresh_name(base: Name, taken: impl Fn(&str) -> bool) -> Name {
    if !taken(&base) {
        return base;
    }
    let mut digits = [0; 20];
    (2..)
        .map(|i| concat(&[&base, "_", decimal(i, &mut digits)]))
        .find(|candidate| !taken(candidate))
        .expect("a finite set leaves a suffix free")
}

/// The name made of `parts` end to end. One that fits inline is put
/// together on the stack; a longer one is joined once and boxed.
pub(crate) fn concat(parts: &[&str]) -> Name {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    if len > Name::INLINE_LEN {
        return Name::new(&parts.concat());
    }
    let mut bytes = [0; Name::INLINE_LEN];
    let mut at = 0;
    for part in parts {
        bytes[at..at + part.len()].copy_from_slice(part.as_bytes());
        at += part.len();
    }
    Name::new(std::str::from_utf8(&bytes[..len]).expect("whole strings joined are UTF-8"))
}

/// `base` followed by `n` in decimal: `numbered("_a_g", 3)` is `_a_g3`.
pub(crate) fn numbered(base: &str, n: usize) -> Name {
    concat(&[base, decimal(n, &mut [0; 20])])
}

/// `n` in decimal, written at the end of `digits`: what its `Display`
/// writes.
pub(crate) fn decimal(mut n: usize, digits: &mut [u8; 20]) -> &str {
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&digits[at..]).expect("digits are ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_frontend::parser::parse_stmt;
    use std::collections::HashSet;

    /// What the parser makes of `src`, with every span erased and every
    /// origin set to `origin`: the tree a builder must equal.
    fn parsed(src: &str, origin: CodeOrigin) -> Stmt {
        let mut stmt = parse_stmt(src).unwrap();
        walk_stmt_mut(&mut stmt, &mut |s| s.span = Span::SYNTH);
        walk_stmt_exprs_mut(&mut stmt, &mut |e| e.span = Span::SYNTH);
        tag_origin(std::slice::from_mut(&mut stmt), origin);
        stmt
    }

    fn body(src: &str) -> Vec<Stmt> {
        let StmtKind::Block(stmts) = parse_stmt(&format!("{{ {src} }}")).unwrap().kind else {
            unreachable!("a braced statement list parses to a block")
        };
        stmts
    }

    #[test]
    fn builders_equal_what_the_parser_makes_of_the_same_code() {
        let g = Gen(CodeOrigin::AggLogic);
        let built = g.for_(
            "i",
            g.dot("blockIdx", "x"),
            g.bin(BinOp::Lt, g.id("i"), g.id("n")),
            g.assign(AssignOp::Add, g.id("i"), g.dot("gridDim", "x")),
            vec![
                g.decl(
                    Type::Long,
                    "pk",
                    g.call(
                        "atomicAdd",
                        vec![
                            g.addr(g.index("ctr", g.id("grp"))),
                            g.cast(Type::Long, g.int(1)),
                        ],
                    ),
                ),
                g.if_else(
                    g.bin(BinOp::Gt, g.id("pk"), g.int(0)),
                    vec![g.set(g.id("x"), g.int(1))],
                    vec![g.while_(g.id("x"), vec![])],
                ),
                g.launch("k".into(), g.id("a"), g.int(32), vec![g.id("pk")]),
            ],
        );
        let want = parsed(
            "for (int i = blockIdx.x; i < n; i += gridDim.x) {
                 long long pk = atomicAdd(&ctr[grp], (long long)1);
                 if (pk > 0) { x = 1; } else { while (x) { } }
                 k<<<a, 32>>>(pk);
             }",
            CodeOrigin::AggLogic,
        );
        assert_eq!(built, want);
    }

    #[test]
    fn tag_origin_preserves_existing_tags() {
        let mut stmts = body("x = 1;\ny = 2;");
        tag_origin(&mut stmts[..1], CodeOrigin::DisaggLogic);
        tag_origin(&mut stmts, CodeOrigin::AggLogic);
        assert_eq!(stmts[0].origin, CodeOrigin::DisaggLogic);
        assert_eq!(stmts[1].origin, CodeOrigin::AggLogic);
    }

    /// The summaries of a program whose one function `f` has the body
    /// `src`.
    fn facts(src: &str) -> ProgramFacts {
        let f = gen_function(FnQual::Device, "f".into(), vec![], body(src));
        ProgramFacts::of(&Program {
            items: vec![Item::Function(f)],
        })
    }

    #[test]
    fn fresh_name_avoids_collisions() {
        let used: HashSet<&str> = ["_bx", "_bx_2"].into();
        let taken = |name: &str| used.contains(name);
        assert_eq!(fresh_name("_bx".into(), taken), "_bx_3");
        assert_eq!(fresh_name("_tx".into(), taken), "_tx");
        let facts = facts("int _bx = 0; _bx_2 = _bx;");
        assert_eq!(fresh_local("_bx", facts.get("f").unwrap()), "_bx_3");
        let long = "_a_name_longer_than_inline";
        assert_eq!(fresh_name(long.into(), |n| n == long), format!("{long}_2"));
    }

    #[test]
    fn generated_names_are_what_format_makes() {
        let mut digits = [0; 20];
        for n in [0, 7, 10, 99, 12345, usize::MAX] {
            assert_eq!(decimal(n, &mut digits), n.to_string());
            assert_eq!(numbered("_a_g", n), format!("_a_g{n}"));
        }
        let child = "c".repeat(Name::INLINE_LEN);
        assert_eq!(concat(&[&child, "_serial"]), format!("{child}_serial"));
        assert_eq!(concat(&["_", "k", "_coarsen_body"]), "_k_coarsen_body");
        assert_eq!(concat(&[]), Name::EMPTY);
    }

    #[test]
    fn contains_return_finds_nested() {
        let has_return = |src| facts(src).get("f").unwrap().has_return();
        assert!(has_return("if (x) { for (;;) { return; } }"));
        assert!(!has_return("x = 1;"));
    }

    #[test]
    fn builtin_member_and_whole_use() {
        let facts = facts("int i = blockIdx.x; f(gridDim);");
        let f = facts.get("f").unwrap();
        assert!(f.uses_member("blockIdx", "x"));
        assert!(!f.uses_member("blockIdx", "y"));
        assert!(f.uses_whole("gridDim"));
        assert!(!f.uses_whole("blockIdx"));
    }
}
