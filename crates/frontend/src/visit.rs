//! AST walkers used by the analyses and transformation passes.
//!
//! All walkers are plain functions over the AST (no visitor trait): the
//! passes in `dp-transform` mostly need "apply this closure to every
//! expression/statement", and closures compose better than trait impls for
//! that shape of work.

use crate::ast::*;
use crate::span::Span;

/// Walks `expr` post-order (children before parents), letting `f` mutate
/// every node in place.
///
/// Post-order means a callback that replaces a node wholesale (for example
/// rewriting `blockIdx.x` to `_bx`) never re-visits its own replacement.
pub fn walk_expr_mut(expr: &mut Expr, f: &mut impl FnMut(&mut Expr)) {
    match &mut expr.kind {
        ExprKind::IntLit(_) | ExprKind::FloatLit(_) | ExprKind::BoolLit(_) | ExprKind::Ident(_) => {
        }
        ExprKind::Binary(_, lhs, rhs) => {
            walk_expr_mut(lhs, f);
            walk_expr_mut(rhs, f);
        }
        ExprKind::Unary(_, operand) => walk_expr_mut(operand, f),
        ExprKind::IncDec { operand, .. } => walk_expr_mut(operand, f),
        ExprKind::Assign(_, lhs, rhs) => {
            walk_expr_mut(lhs, f);
            walk_expr_mut(rhs, f);
        }
        ExprKind::Ternary(c, t, e) => {
            walk_expr_mut(c, f);
            walk_expr_mut(t, f);
            walk_expr_mut(e, f);
        }
        ExprKind::Call(_, args) | ExprKind::Dim3Ctor(args) => {
            for arg in args {
                walk_expr_mut(arg, f);
            }
        }
        ExprKind::Index(base, index) => {
            walk_expr_mut(base, f);
            walk_expr_mut(index, f);
        }
        ExprKind::Member(base, _) => walk_expr_mut(base, f),
        ExprKind::Cast(_, operand) => walk_expr_mut(operand, f),
    }
    f(expr);
}

/// Walks every expression contained in `stmt` (including nested statements),
/// post-order within each expression.
pub fn walk_stmt_exprs_mut(stmt: &mut Stmt, f: &mut impl FnMut(&mut Expr)) {
    match &mut stmt.kind {
        StmtKind::Decl(decl) => {
            for d in &mut decl.declarators {
                if let Some(len) = &mut d.array_len {
                    walk_expr_mut(len, f);
                }
                if let Some(init) = &mut d.init {
                    walk_expr_mut(init, f);
                }
            }
        }
        StmtKind::Expr(e) => walk_expr_mut(e, f),
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            walk_expr_mut(cond, f);
            walk_stmt_exprs_mut(then_branch, f);
            if let Some(e) = else_branch {
                walk_stmt_exprs_mut(e, f);
            }
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(i) = init {
                walk_stmt_exprs_mut(i, f);
            }
            if let Some(c) = cond {
                walk_expr_mut(c, f);
            }
            if let Some(s) = step {
                walk_expr_mut(s, f);
            }
            walk_stmt_exprs_mut(body, f);
        }
        StmtKind::While { cond, body } => {
            walk_expr_mut(cond, f);
            walk_stmt_exprs_mut(body, f);
        }
        StmtKind::DoWhile { body, cond } => {
            walk_stmt_exprs_mut(body, f);
            walk_expr_mut(cond, f);
        }
        StmtKind::Return(Some(e)) => walk_expr_mut(e, f),
        StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue | StmtKind::Empty => {}
        StmtKind::Block(stmts) => {
            for s in stmts {
                walk_stmt_exprs_mut(s, f);
            }
        }
        StmtKind::Launch(launch) => {
            walk_expr_mut(&mut launch.grid, f);
            walk_expr_mut(&mut launch.block, f);
            if let Some(s) = &mut launch.shmem {
                walk_expr_mut(s, f);
            }
            if let Some(s) = &mut launch.stream {
                walk_expr_mut(s, f);
            }
            for arg in &mut launch.args {
                walk_expr_mut(arg, f);
            }
        }
    }
}

/// Walks `stmt` and every nested statement post-order, letting `f` mutate
/// each one.
pub fn walk_stmt_mut(stmt: &mut Stmt, f: &mut impl FnMut(&mut Stmt)) {
    match &mut stmt.kind {
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            walk_stmt_mut(then_branch, f);
            if let Some(e) = else_branch {
                walk_stmt_mut(e, f);
            }
        }
        StmtKind::For { init, body, .. } => {
            if let Some(i) = init {
                walk_stmt_mut(i, f);
            }
            walk_stmt_mut(body, f);
        }
        StmtKind::While { body, .. } => walk_stmt_mut(body, f),
        StmtKind::DoWhile { body, .. } => walk_stmt_mut(body, f),
        StmtKind::Block(stmts) => {
            for s in stmts {
                walk_stmt_mut(s, f);
            }
        }
        _ => {}
    }
    f(stmt);
}

/// Immutable expression walk (post-order).
pub fn for_each_expr<'a>(expr: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    match &expr.kind {
        ExprKind::IntLit(_) | ExprKind::FloatLit(_) | ExprKind::BoolLit(_) | ExprKind::Ident(_) => {
        }
        ExprKind::Binary(_, lhs, rhs) => {
            for_each_expr(lhs, f);
            for_each_expr(rhs, f);
        }
        ExprKind::Unary(_, operand) => for_each_expr(operand, f),
        ExprKind::IncDec { operand, .. } => for_each_expr(operand, f),
        ExprKind::Assign(_, lhs, rhs) => {
            for_each_expr(lhs, f);
            for_each_expr(rhs, f);
        }
        ExprKind::Ternary(c, t, e) => {
            for_each_expr(c, f);
            for_each_expr(t, f);
            for_each_expr(e, f);
        }
        ExprKind::Call(_, args) | ExprKind::Dim3Ctor(args) => {
            for arg in args {
                for_each_expr(arg, f);
            }
        }
        ExprKind::Index(base, index) => {
            for_each_expr(base, f);
            for_each_expr(index, f);
        }
        ExprKind::Member(base, _) => for_each_expr(base, f),
        ExprKind::Cast(_, operand) => for_each_expr(operand, f),
    }
    f(expr);
}

/// Immutable walk over every expression in a statement tree. The callback
/// may keep what it is handed for as long as `stmt` is borrowed.
pub fn for_each_stmt_expr<'a>(stmt: &'a Stmt, f: &mut impl FnMut(&'a Expr)) {
    for_each_stmt(stmt, &mut |s| match &s.kind {
        StmtKind::Decl(decl) => {
            for d in &decl.declarators {
                if let Some(len) = &d.array_len {
                    for_each_expr(len, f);
                }
                if let Some(init) = &d.init {
                    for_each_expr(init, f);
                }
            }
        }
        StmtKind::Expr(e) => for_each_expr(e, f),
        StmtKind::If { cond, .. } => for_each_expr(cond, f),
        StmtKind::For { cond, step, .. } => {
            if let Some(c) = cond {
                for_each_expr(c, f);
            }
            if let Some(st) = step {
                for_each_expr(st, f);
            }
        }
        StmtKind::While { cond, .. } => for_each_expr(cond, f),
        StmtKind::DoWhile { cond, .. } => for_each_expr(cond, f),
        StmtKind::Return(Some(e)) => for_each_expr(e, f),
        StmtKind::Launch(launch) => {
            for_each_expr(&launch.grid, f);
            for_each_expr(&launch.block, f);
            if let Some(s) = &launch.shmem {
                for_each_expr(s, f);
            }
            if let Some(s) = &launch.stream {
                for_each_expr(s, f);
            }
            for arg in &launch.args {
                for_each_expr(arg, f);
            }
        }
        _ => {}
    });
}

/// Immutable walk over `stmt` and every nested statement (pre-order). The
/// callback may keep what it is handed for as long as `stmt` is borrowed.
pub fn for_each_stmt<'a>(stmt: &'a Stmt, f: &mut impl FnMut(&'a Stmt)) {
    f(stmt);
    match &stmt.kind {
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            for_each_stmt(then_branch, f);
            if let Some(e) = else_branch {
                for_each_stmt(e, f);
            }
        }
        StmtKind::For { init, body, .. } => {
            if let Some(i) = init {
                for_each_stmt(i, f);
            }
            for_each_stmt(body, f);
        }
        StmtKind::While { body, .. } => for_each_stmt(body, f),
        StmtKind::DoWhile { body, .. } => for_each_stmt(body, f),
        StmtKind::Block(stmts) => {
            for s in stmts {
                for_each_stmt(s, f);
            }
        }
        _ => {}
    }
}

/// Erases spans and origin tags everywhere in the program.
///
/// Used by round-trip tests: `parse(print(p))` equals `strip_meta(p)` up to
/// metadata, since printing discards spans.
pub fn strip_meta(program: &mut Program) {
    for func in program.functions_mut() {
        func.span = Span::SYNTH;
        for stmt in &mut func.body {
            walk_stmt_mut(stmt, &mut |s| {
                s.span = Span::SYNTH;
                s.origin = CodeOrigin::Original;
            });
            walk_stmt_exprs_mut(stmt, &mut |e| {
                e.span = Span::SYNTH;
                e.origin = CodeOrigin::Original;
            });
        }
    }
}

/// Replaces every use of builtin member `base.field` (e.g. `blockIdx.x`)
/// with the identifier `replacement` inside `stmt`.
///
/// This is the workhorse of the serialization/coarsening rewrites
/// (paper Fig. 3b line 12-14, Fig. 6 line 03-04).
pub fn replace_builtin_member(stmt: &mut Stmt, base: &str, field: &str, replacement: &str) {
    walk_stmt_exprs_mut(stmt, &mut |e| {
        if let ExprKind::Member(b, fld) = &e.kind {
            if fld == field && b.kind.as_ident() == Some(base) {
                e.kind = ExprKind::Ident(Name::new(replacement));
            }
        }
    });
}

/// Replaces every use of the *whole* builtin identifier `base` (e.g. a bare
/// `gridDim` passed around as `dim3`) with `replacement`.
///
/// Member accesses like `gridDim.x` become `replacement.x` because the walk
/// rewrites the inner identifier.
pub fn replace_builtin_ident(stmt: &mut Stmt, base: &str, replacement: &str) {
    walk_stmt_exprs_mut(stmt, &mut |e| {
        if e.kind.as_ident() == Some(base) {
            e.kind = ExprKind::Ident(Name::new(replacement));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_stmt};

    #[test]
    fn walk_expr_visits_all_nodes() {
        let mut e = parse_expr("a + b * f(c, d[e])").unwrap();
        let mut count = 0;
        walk_expr_mut(&mut e, &mut |_| count += 1);
        // a, b, c, d, e, d[e], f(..), b*f, a+...
        assert_eq!(count, 9);
    }

    #[test]
    fn replace_member_rewrites_only_target() {
        let mut s = parse_stmt("x = blockIdx.x + threadIdx.x + v.x;").unwrap();
        replace_builtin_member(&mut s, "blockIdx", "x", "_bx");
        let mut found_bx = false;
        let mut found_thread = false;
        for_each_stmt_expr(&s, &mut |e| {
            if e.kind.as_ident() == Some("_bx") {
                found_bx = true;
            }
            if let ExprKind::Member(b, _) = &e.kind {
                if b.kind.as_ident() == Some("threadIdx") {
                    found_thread = true;
                }
            }
        });
        assert!(found_bx, "blockIdx.x should be replaced");
        assert!(found_thread, "threadIdx.x should remain");
    }

    #[test]
    fn replace_ident_rewrites_member_bases() {
        let mut s = parse_stmt("y = gridDim.x * 2 + f(gridDim);").unwrap();
        replace_builtin_ident(&mut s, "gridDim", "_gDim");
        let mut count = 0;
        for_each_stmt_expr(&s, &mut |e| {
            if e.kind.as_ident() == Some("_gDim") {
                count += 1;
            }
        });
        assert_eq!(count, 2);
    }

    #[test]
    fn walk_stmts_reaches_nested() {
        let mut s = parse_stmt("if (a) { for (;;) { x = 1; } } else y = 2;").unwrap();
        let mut exprs = 0;
        walk_stmt_exprs_mut(&mut s, &mut |_| exprs += 1);
        assert!(exprs >= 5, "found {exprs}");
        let mut stmts = 0;
        walk_stmt_mut(&mut s, &mut |_| stmts += 1);
        // if, block, for, inner block, x=1, y=2
        assert_eq!(stmts, 6);
    }

    #[test]
    fn launch_exprs_are_walked() {
        let mut s = parse_stmt("k<<<g + 1, b>>>(p, n * 2);").unwrap();
        let mut idents = Vec::new();
        walk_stmt_exprs_mut(&mut s, &mut |e| {
            if let ExprKind::Ident(name) = &e.kind {
                idents.push(name.clone());
            }
        });
        assert_eq!(idents, vec!["g", "b", "p", "n"]);
    }
}
