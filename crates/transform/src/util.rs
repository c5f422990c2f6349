//! Shared helpers for the transformation passes.
//!
//! The passes generate code from *source templates*: the generated code is
//! written as CUDA-subset text (mirroring the paper's figures), parsed with
//! the regular frontend, origin-tagged, and spliced into the AST. This keeps
//! each pass readable and guarantees the generated code stays inside the
//! supported subset.
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

use dp_frontend::ast::*;
use dp_frontend::parser::parse;
use dp_frontend::visit::{for_each_stmt_expr, walk_stmt_exprs_mut, walk_stmt_mut};
use std::collections::HashSet;

/// Parses a brace-free sequence of statements from template text.
///
/// # Panics
///
/// Panics if the template does not parse — templates are compiler-internal,
/// so a parse failure is a bug in the pass, not user error.
pub fn parse_template_stmts(template: &str) -> Vec<Stmt> {
    let wrapped = format!("__device__ void __template__() {{\n{template}\n}}");
    let program = parse(&wrapped).unwrap_or_else(|e| {
        panic!(
            "internal template failed to parse: {}\n{template}",
            e.render(&wrapped)
        )
    });
    let Item::Function(mut f) = program.items.into_iter().next().unwrap() else {
        unreachable!("template wraps a single function")
    };
    f.body.drain(..).collect()
}

/// Parses one expression from template text.
pub fn parse_template_expr(template: &str) -> Expr {
    dp_frontend::parser::parse_expr(template)
        .unwrap_or_else(|e| panic!("internal template expr failed to parse: {e}\n{template}"))
}

/// Tags every statement and expression in `stmts` with `origin`,
/// *without* overwriting nested statements already tagged differently
/// (spliced bodies keep their own origins).
pub fn tag_origin(stmts: &mut [Stmt], origin: CodeOrigin) {
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

/// Marker call used in templates where a body will be spliced:
/// `__DPOPT_BODY__();`.
pub const BODY_MARKER: &str = "__DPOPT_BODY__";

/// Replaces the `__DPOPT_BODY__();` marker statement with `body`
/// (recursively searching nested statements). Returns `true` if found.
pub fn splice_body(stmts: &mut Vec<Stmt>, body: Vec<Stmt>) -> bool {
    // Find the marker at this level first.
    for i in 0..stmts.len() {
        if is_marker(&stmts[i]) {
            stmts.splice(i..=i, body);
            return true;
        }
        if splice_in_stmt(&mut stmts[i], &body) {
            return true;
        }
    }
    false
}

fn is_marker(stmt: &Stmt) -> bool {
    matches!(
        &stmt.kind,
        StmtKind::Expr(Expr {
            kind: ExprKind::Call(name, _),
            ..
        }) if name == BODY_MARKER
    )
}

fn splice_in_stmt(stmt: &mut Stmt, body: &[Stmt]) -> bool {
    match &mut stmt.kind {
        StmtKind::Block(stmts) => {
            for i in 0..stmts.len() {
                if is_marker(&stmts[i]) {
                    stmts.splice(i..=i, body.to_vec());
                    return true;
                }
                if splice_in_stmt(&mut stmts[i], body) {
                    return true;
                }
            }
            false
        }
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            if splice_in_stmt(then_branch, body) {
                return true;
            }
            if let Some(e) = else_branch {
                return splice_in_stmt(e, body);
            }
            false
        }
        StmtKind::For { body: b, .. }
        | StmtKind::While { body: b, .. }
        | StmtKind::DoWhile { body: b, .. } => splice_in_stmt(b, body),
        _ => false,
    }
}

/// Collects every identifier mentioned anywhere in a function.
pub fn idents_in_function(func: &Function) -> HashSet<String> {
    let mut names: HashSet<String> = func.params.iter().map(|p| p.name.clone()).collect();
    names.insert(func.name.clone());
    for stmt in &func.body {
        dp_frontend::visit::for_each_stmt(stmt, &mut |s| {
            if let StmtKind::Decl(d) = &s.kind {
                for decl in &d.declarators {
                    names.insert(decl.name.clone());
                }
            }
        });
        for_each_stmt_expr(stmt, &mut |e| {
            if let ExprKind::Ident(name) = &e.kind {
                names.insert(name.clone());
            }
        });
    }
    names
}

/// Returns `base` if unused, otherwise `base_2`, `base_3`, ….
pub fn fresh_name(base: &str, used: &HashSet<String>) -> String {
    if !used.contains(base) {
        return base.to_string();
    }
    let mut i = 2;
    loop {
        let candidate = format!("{base}_{i}");
        if !used.contains(&candidate) {
            return candidate;
        }
        i += 1;
    }
}

/// Whether any statement in the function is a `return` (at any depth).
pub fn contains_return(body: &[Stmt]) -> bool {
    any_stmt(body, |s| matches!(s.kind, StmtKind::Return(_)))
}

/// Whether any statement in the function is a kernel launch (at any depth).
pub fn contains_launch(body: &[Stmt]) -> bool {
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
pub fn uses_builtin_member(body: &[Stmt], base: &str, field: &str) -> bool {
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
pub fn uses_builtin_whole(body: &[Stmt], base: &str) -> bool {
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

/// C-source rendering of a parameter list (for templates).
pub fn params_source(params: &[Param]) -> String {
    params
        .iter()
        .map(|p| format!("{} {}", p.ty, p.name))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Comma-joined parameter names (for forwarding calls in templates).
pub fn args_source(params: &[Param]) -> String {
    params
        .iter()
        .map(|p| p.name.clone())
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_frontend::parser::parse_stmt;

    #[test]
    fn template_statements_parse() {
        let stmts = parse_template_stmts("int x = 1;\nif (x > 0) { x = 2; }");
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    #[should_panic(expected = "internal template")]
    fn bad_template_panics() {
        parse_template_stmts("int = ;");
    }

    #[test]
    fn tag_origin_preserves_existing_tags() {
        let mut stmts = parse_template_stmts("x = 1;\ny = 2;");
        tag_origin(&mut stmts[..1], CodeOrigin::DisaggLogic);
        tag_origin(&mut stmts, CodeOrigin::AggLogic);
        assert_eq!(stmts[0].origin, CodeOrigin::DisaggLogic);
        assert_eq!(stmts[1].origin, CodeOrigin::AggLogic);
    }

    #[test]
    fn splice_replaces_marker_at_top_level() {
        let mut stmts = parse_template_stmts("int a = 0;\n__DPOPT_BODY__();\nint b = 1;");
        let body = parse_template_stmts("a = 7;\na = 8;");
        assert!(splice_body(&mut stmts, body));
        assert_eq!(stmts.len(), 4);
        assert!(matches!(&stmts[1].kind, StmtKind::Expr(_)));
    }

    #[test]
    fn splice_replaces_marker_in_nested_loop() {
        let mut stmts = parse_template_stmts(
            "for (int i = 0; i < n; ++i) { if (i > 0) { __DPOPT_BODY__(); } }",
        );
        let body = vec![parse_stmt("x = i;").unwrap()];
        assert!(splice_body(&mut stmts, body));
        let printed = {
            let mut out = String::new();
            for s in &stmts {
                dp_frontend::printer::print_stmt(&mut out, s, 0);
            }
            out
        };
        assert!(printed.contains("x = i;"));
        assert!(!printed.contains(BODY_MARKER));
    }

    #[test]
    fn splice_without_marker_returns_false() {
        let mut stmts = parse_template_stmts("int a = 0;");
        assert!(!splice_body(&mut stmts, vec![]));
    }

    #[test]
    fn fresh_name_avoids_collisions() {
        let used: HashSet<String> = ["_bx".to_string(), "_bx_2".to_string()].into();
        assert_eq!(fresh_name("_bx", &used), "_bx_3");
        assert_eq!(fresh_name("_tx", &used), "_tx");
    }

    #[test]
    fn contains_return_finds_nested() {
        let body = parse_template_stmts("if (x) { for (;;) { return; } }");
        assert!(contains_return(&body));
        let body = parse_template_stmts("x = 1;");
        assert!(!contains_return(&body));
    }

    #[test]
    fn builtin_member_and_whole_use() {
        let body = parse_template_stmts("int i = blockIdx.x; f(gridDim);");
        assert!(uses_builtin_member(&body, "blockIdx", "x"));
        assert!(!uses_builtin_member(&body, "blockIdx", "y"));
        assert!(uses_builtin_whole(&body, "gridDim"));
        assert!(!uses_builtin_whole(&body, "blockIdx"));
    }

    #[test]
    fn param_rendering() {
        let params = vec![
            Param {
                ty: Type::Int.ptr_to(),
                name: "data".into(),
            },
            Param {
                ty: Type::Float,
                name: "alpha".into(),
            },
        ];
        assert_eq!(params_source(&params), "int* data, float alpha");
        assert_eq!(args_source(&params), "data, alpha");
    }
}
