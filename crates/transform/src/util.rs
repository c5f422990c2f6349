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
//! found it*. So a launching parent is rewritten on a copy of its body
//! while the program still holds the old one, and the copy is assigned back
//! after the last read ([`contains_launch`] keeps functions that launch
//! nothing, most of them, out of even that).
//!
//! Every name a pass makes is a [`Name`], formatted in place with
//! [`Name::from_fmt`] rather than into a `String`, and fresh ([`fresh_name`])
//! against what it could capture: a variable against the identifiers of
//! the function it lands in, a generated function against every function
//! of the program and every other one the pass generates
//! ([`claim_fresh_name`]). A pass keeps each generated function together
//! with the child it was made for, so that it never has to read a name
//! back to learn where the function belongs.

use dp_frontend::ast::*;
use dp_frontend::visit::{for_each_stmt_expr, walk_stmt_exprs_mut, walk_stmt_mut};
use dp_frontend::Span;
use std::borrow::Borrow;
use std::collections::HashSet;
use std::hash::Hash;

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

/// Whether a launch dimension is 1-D: an `int` expression, or a `dim3`
/// whose y and z are the literal 1.
pub(crate) fn is_one_dimensional(dim: &Expr) -> bool {
    match &dim.kind {
        ExprKind::Dim3Ctor(args) => args
            .iter()
            .skip(1)
            .all(|a| matches!(a.kind, ExprKind::IntLit(1))),
        _ => true,
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

/// Collects every identifier mentioned anywhere in a function, borrowed
/// from it: pick names with [`fresh_name`] before the function changes.
pub(crate) fn idents_in_function(func: &Function) -> HashSet<&str> {
    let mut names: HashSet<&str> = func.params.iter().map(|p| p.name.as_str()).collect();
    names.insert(&func.name);
    for stmt in &func.body {
        dp_frontend::visit::for_each_stmt(stmt, &mut |s| {
            if let StmtKind::Decl(d) = &s.kind {
                names.extend(d.declarators.iter().map(|d| d.name.as_str()));
            }
        });
        for_each_stmt_expr(stmt, &mut |e| {
            if let ExprKind::Ident(name) = &e.kind {
                names.insert(name);
            }
        });
    }
    names
}

/// Returns `base` if unused, otherwise `base_2`, `base_3`, ….
pub(crate) fn fresh_name<S: Borrow<str> + Hash + Eq>(
    base: impl Into<Name>,
    used: &HashSet<S>,
) -> Name {
    let base = base.into();
    if !used.contains(base.as_str()) {
        return base;
    }
    (2..)
        .map(|i| Name::from_fmt(format_args!("{base}_{i}")))
        .find(|candidate| !used.contains(candidate.as_str()))
        .expect("a finite set leaves a suffix free")
}

/// The names of the program's functions. A function a pass generates is
/// named with [`claim_fresh_name`] against these, so it never takes the
/// name of a user's function or of another generated one.
pub(crate) fn function_names(program: &Program) -> HashSet<Name> {
    program.functions().map(|f| f.name.clone()).collect()
}

/// [`fresh_name`] against `taken`, which then holds it too.
pub(crate) fn claim_fresh_name(base: Name, taken: &mut HashSet<Name>) -> Name {
    let name = fresh_name(base, taken);
    taken.insert(name.clone());
    name
}

/// Whether any statement in the function is a `return` (at any depth).
pub(crate) fn contains_return(body: &[Stmt]) -> bool {
    any_stmt(body, |s| matches!(s.kind, StmtKind::Return(_)))
}

/// Whether any statement in the function is a kernel launch (at any depth).
pub(crate) fn contains_launch(body: &[Stmt]) -> bool {
    any_stmt(body, |s| matches!(s.kind, StmtKind::Launch(_)))
}

fn any_stmt(body: &[Stmt], pred: impl Fn(&Stmt) -> bool) -> bool {
    let mut found = false;
    for stmt in body {
        dp_frontend::visit::for_each_stmt(stmt, &mut |s| found |= pred(s));
    }
    found
}

/// Whether the body references `base.field` for a builtin dim variable.
pub(crate) fn uses_builtin_member(body: &[Stmt], base: &str, field: &str) -> bool {
    let mut found = false;
    for stmt in body {
        for_each_stmt_expr(stmt, &mut |e| {
            if let ExprKind::Member(b, fld) = &e.kind {
                if fld == field && b.kind.as_ident() == Some(base) {
                    found = true;
                }
            }
        });
    }
    found
}

/// Whether the body uses a builtin dim variable as a *whole* value
/// (not through a member access), e.g. passing `gridDim` to a function.
pub(crate) fn uses_builtin_whole(body: &[Stmt], base: &str) -> bool {
    let mut whole = 0usize;
    let mut member = 0usize;
    for stmt in body {
        for_each_stmt_expr(stmt, &mut |e| match &e.kind {
            ExprKind::Ident(name) if name == base => whole += 1,
            ExprKind::Member(b, _) if b.kind.as_ident() == Some(base) => member += 1,
            _ => {}
        });
    }
    // Each member access contains one ident occurrence; any excess means a
    // bare use.
    whole > member
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_frontend::parser::parse_stmt;

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

    #[test]
    fn fresh_name_avoids_collisions() {
        let used: HashSet<&str> = ["_bx", "_bx_2"].into();
        assert_eq!(fresh_name("_bx", &used), "_bx_3");
        assert_eq!(fresh_name("_tx", &used), "_tx");
    }

    #[test]
    fn contains_return_finds_nested() {
        assert!(contains_return(&body("if (x) { for (;;) { return; } }")));
        assert!(!contains_return(&body("x = 1;")));
    }

    #[test]
    fn builtin_member_and_whole_use() {
        let body = body("int i = blockIdx.x; f(gridDim);");
        assert!(uses_builtin_member(&body, "blockIdx", "x"));
        assert!(!uses_builtin_member(&body, "blockIdx", "y"));
        assert!(uses_builtin_whole(&body, "gridDim"));
        assert!(!uses_builtin_whole(&body, "blockIdx"));
    }
}
