//! Pretty-printer: AST back to CUDA-subset source.
//!
//! The printer emits minimally-parenthesized, consistently indented source.
//! `parse(print(program))` reproduces the same AST up to spans (checked by
//! property tests), which is what makes the transformation passes
//! composable source-to-source stages as in the paper's Fig. 8(a).

use crate::ast::*;
use std::fmt::Write;

/// Pretty-prints a whole translation unit.
///
/// Everything is pushed into the one returned `String`; no node of the AST
/// gets a string of its own.
///
/// # Examples
///
/// ```
/// use dp_frontend::{parser::parse, printer::print_program};
/// let p = parse("__global__ void k(int* p){p[0]=1;}").unwrap();
/// let text = print_program(&p);
/// assert!(text.contains("__global__ void k(int* p)"));
/// ```
pub fn print_program(program: &Program) -> String {
    let mut out = String::new();
    for (i, item) in program.items.iter().enumerate() {
        match item {
            Item::Define { name, value } => {
                let _ = writeln!(out, "#define {name} {value}");
            }
            Item::Directive(text) => {
                out.push_str(text);
                out.push('\n');
            }
            Item::Function(func) => {
                if i > 0 {
                    out.push('\n');
                }
                print_function(&mut out, func);
            }
        }
    }
    out
}

/// Pretty-prints a single function definition.
pub fn print_function(out: &mut String, func: &Function) {
    match func.qual {
        FnQual::Global => out.push_str("__global__ "),
        FnQual::Device => out.push_str("__device__ "),
        FnQual::Host => {}
    }
    let _ = write!(out, "{} {}(", func.ret, func.name);
    for (i, p) in func.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{} {}", p.ty, p.name);
    }
    out.push_str(") {\n");
    for stmt in &func.body {
        print_stmt(out, stmt, 1);
    }
    out.push_str("}\n");
}

fn push_pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("    ");
    }
}

/// Pretty-prints a statement at the given indent level.
pub fn print_stmt(out: &mut String, stmt: &Stmt, indent: usize) {
    push_pad(out, indent);
    match &stmt.kind {
        StmtKind::Decl(decl) => {
            print_decl(out, decl);
            out.push_str(";\n");
        }
        StmtKind::Expr(e) => {
            write_expr(out, e);
            out.push_str(";\n");
        }
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            out.push_str("if (");
            write_expr(out, cond);
            out.push_str(") ");
            print_braced(out, then_branch, indent);
            if let Some(els) = else_branch {
                out.push('\n');
                push_pad(out, indent);
                out.push_str("else ");
                print_braced(out, els, indent);
            }
            out.push('\n');
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            out.push_str("for (");
            match init.as_deref().map(|s| &s.kind) {
                Some(StmtKind::Decl(d)) => print_decl(out, d),
                Some(StmtKind::Expr(e)) => write_expr(out, e),
                _ => {}
            }
            out.push_str("; ");
            if let Some(c) = cond {
                write_expr(out, c);
            }
            out.push_str("; ");
            if let Some(s) = step {
                write_expr(out, s);
            }
            out.push_str(") ");
            print_braced(out, body, indent);
            out.push('\n');
        }
        StmtKind::While { cond, body } => {
            out.push_str("while (");
            write_expr(out, cond);
            out.push_str(") ");
            print_braced(out, body, indent);
            out.push('\n');
        }
        StmtKind::DoWhile { body, cond } => {
            out.push_str("do ");
            print_braced(out, body, indent);
            out.push_str(" while (");
            write_expr(out, cond);
            out.push_str(");\n");
        }
        StmtKind::Return(value) => {
            out.push_str("return");
            if let Some(e) = value {
                out.push(' ');
                write_expr(out, e);
            }
            out.push_str(";\n");
        }
        StmtKind::Break => out.push_str("break;\n"),
        StmtKind::Continue => out.push_str("continue;\n"),
        StmtKind::Block(_) => {
            print_braced(out, stmt, indent);
            out.push('\n');
        }
        StmtKind::Launch(launch) => {
            out.push_str(&launch.kernel);
            out.push_str("<<<");
            write_expr(out, &launch.grid);
            out.push_str(", ");
            write_expr(out, &launch.block);
            for extra in [&launch.shmem, &launch.stream].into_iter().flatten() {
                out.push_str(", ");
                write_expr(out, extra);
            }
            out.push_str(">>>(");
            write_args(out, &launch.args);
            out.push_str(");\n");
        }
        StmtKind::Empty => out.push_str(";\n"),
    }
}

/// Prints a statement as a braced body without the trailing newline
/// (wrapping non-blocks in braces so the output is always unambiguous).
fn print_braced(out: &mut String, stmt: &Stmt, indent: usize) {
    out.push_str("{\n");
    match &stmt.kind {
        StmtKind::Block(stmts) => {
            for s in stmts {
                print_stmt(out, s, indent + 1);
            }
        }
        _ => print_stmt(out, stmt, indent + 1),
    }
    push_pad(out, indent);
    out.push('}');
}

fn print_decl(out: &mut String, decl: &VarDecl) {
    if decl.shared {
        out.push_str("__shared__ ");
    }
    if decl.is_const {
        out.push_str("const ");
    }
    let _ = write!(out, "{} ", decl.ty);
    for (i, d) in decl.declarators.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&d.name);
        if let Some(len) = &d.array_len {
            out.push('[');
            write_expr(out, len);
            out.push(']');
        }
        if let Some(init) = &d.init {
            out.push_str(" = ");
            write_expr(out, init);
        }
    }
}

/// Binding power of an expression for parenthesization decisions.
/// Mirrors the parser's Pratt table; higher binds tighter.
fn prec(expr: &Expr) -> u8 {
    match &expr.kind {
        ExprKind::Assign(..) => 2,
        ExprKind::Ternary(..) => 4,
        ExprKind::Binary(op, ..) => match op {
            BinOp::LogOr => 6,
            BinOp::LogAnd => 8,
            BinOp::BitOr => 10,
            BinOp::BitXor => 12,
            BinOp::BitAnd => 14,
            BinOp::Eq | BinOp::Ne => 16,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 18,
            BinOp::Shl | BinOp::Shr => 20,
            BinOp::Add | BinOp::Sub => 22,
            BinOp::Mul | BinOp::Div | BinOp::Rem => 24,
        },
        ExprKind::Unary(..) | ExprKind::Cast(..) | ExprKind::IncDec { prefix: true, .. } => 26,
        _ => 30, // literals, idents, calls, postfix forms
    }
}

/// Pretty-prints an expression with minimal parentheses.
pub fn print_expr(expr: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, expr);
    out
}

/// Appends an expression to `out`. (`write!` into a `String` cannot fail.)
fn write_expr(out: &mut String, expr: &Expr) {
    let p = prec(expr);
    match &expr.kind {
        ExprKind::IntLit(v) => {
            let _ = write!(out, "{v}");
        }
        ExprKind::FloatLit(v) => {
            // Always keep a decimal point or exponent so it re-lexes as float.
            let start = out.len();
            let _ = write!(out, "{v}");
            let s = &out[start..];
            if !(s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN")) {
                out.push_str(".0");
            }
        }
        ExprKind::BoolLit(b) => out.push_str(if *b { "true" } else { "false" }),
        ExprKind::Ident(name) => out.push_str(name),
        ExprKind::Binary(op, lhs, rhs) => {
            child(out, lhs, p, false);
            let _ = write!(out, " {op} ");
            child(out, rhs, p, true);
        }
        ExprKind::Unary(op, operand) => {
            out.push_str(op.as_str());
            // Avoid `--x` from Neg(Neg(x)) and `&&` from AddrOf chains:
            // no precedence reaches `u8::MAX`, so the operand is
            // parenthesized whatever it is.
            let doubled = matches!(
                (op, &operand.kind),
                (UnOp::Neg, ExprKind::Unary(UnOp::Neg, _))
                    | (UnOp::AddrOf, ExprKind::Unary(UnOp::AddrOf, _))
            );
            child(out, operand, if doubled { u8::MAX } else { p }, false);
        }
        ExprKind::IncDec {
            inc,
            prefix,
            operand,
        } => {
            let op = if *inc { "++" } else { "--" };
            if *prefix {
                out.push_str(op);
            }
            child(out, operand, 26, false);
            if !*prefix {
                out.push_str(op);
            }
        }
        ExprKind::Assign(op, lhs, rhs) => {
            child(out, lhs, p + 1, false);
            let _ = write!(out, " {} ", op.as_str());
            child(out, rhs, p, false);
        }
        ExprKind::Ternary(c, t, e) => {
            child(out, c, p + 1, false);
            out.push_str(" ? ");
            write_expr(out, t);
            out.push_str(" : ");
            child(out, e, p, false);
        }
        ExprKind::Call(name, args) => {
            out.push_str(name);
            out.push('(');
            write_args(out, args);
            out.push(')');
        }
        ExprKind::Index(base, index) => {
            child(out, base, 30, false);
            out.push('[');
            write_expr(out, index);
            out.push(']');
        }
        ExprKind::Member(base, field) => {
            child(out, base, 30, false);
            out.push('.');
            out.push_str(field);
        }
        ExprKind::Cast(ty, operand) => {
            let _ = write!(out, "({ty})");
            child(out, operand, p, false);
        }
        ExprKind::Dim3Ctor(args) => {
            out.push_str("dim3(");
            write_args(out, args);
            out.push(')');
        }
    }
}

/// Appends comma-separated expressions.
fn write_args(out: &mut String, args: &[Expr]) {
    for (i, arg) in args.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_expr(out, arg);
    }
}

/// Appends a child expression, parenthesizing when its precedence is lower
/// than required (or equal, for the right operand of left-associative ops).
fn child(out: &mut String, expr: &Expr, parent_prec: u8, is_right_of_left_assoc: bool) {
    let p = prec(expr);
    if p < parent_prec || (p == parent_prec && is_right_of_left_assoc) {
        out.push('(');
        write_expr(out, expr);
        out.push(')');
    } else {
        write_expr(out, expr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, parse_expr, parse_stmt};
    use crate::visit::strip_meta;

    fn round_trip_expr(src: &str) {
        let e1 = parse_expr(src).unwrap();
        let printed = print_expr(&e1);
        let e2 = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("reparse of `{printed}` failed: {err}"));
        // Compare structurally, ignoring spans.
        assert_eq!(
            format_structure(&e1),
            format_structure(&e2),
            "round trip changed `{src}` -> `{printed}`"
        );
    }

    /// Span-insensitive structural fingerprint.
    fn format_structure(e: &Expr) -> String {
        format!("{:?}", StripSpans(e))
    }

    struct StripSpans<'a>(&'a Expr);
    impl std::fmt::Debug for StripSpans<'_> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            let mut e = self.0.clone();
            crate::visit::walk_expr_mut(&mut e, &mut |x| {
                x.span = crate::span::Span::SYNTH;
            });
            write!(f, "{:?}", e.kind)
        }
    }

    #[test]
    fn expr_round_trips() {
        for src in [
            "a + b * c",
            "(a + b) * c",
            "a - b - c",
            "a - (b - c)",
            "a / b / c",
            "(N - 1) / b + 1",
            "(N + b - 1) / b",
            "N / b + (N % b == 0 ? 0 : 1)",
            "ceil((float)N / b)",
            "a << b >> 2",
            "a < b == c > d",
            "a & b | c ^ d",
            "!a && ~b || -c",
            "x = y += z",
            "a ? b : c ? d : e",
            "(a ? b : c) * 2",
            "f(a, g(b), c[d])",
            "p[i].x",
            "dim3(a, b + 1, 1)",
            "*(&x)",
            "-(-x)",
            "i++ + ++j",
            "(float)(a + b)",
            "atomicAdd(&count[i], 1)",
        ] {
            round_trip_expr(src);
        }
    }

    #[test]
    fn float_literals_stay_floats() {
        let e = parse_expr("2.0").unwrap();
        assert_eq!(print_expr(&e), "2.0");
        let e = parse_expr("1.5e10").unwrap();
        let printed = print_expr(&e);
        let e2 = parse_expr(&printed).unwrap();
        assert!(matches!(e2.kind, ExprKind::FloatLit(v) if v == 1.5e10));
    }

    #[test]
    fn program_round_trips() {
        let src = "\
#define _THRESHOLD 128
__device__ int add(int a, int b) {
    return a + b;
}

__global__ void child(int* data, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        data[i] = add(data[i], 1);
    }
}

__global__ void parent(int* data, int* offsets, int n) {
    int v = blockIdx.x * blockDim.x + threadIdx.x;
    int count = offsets[v + 1] - offsets[v];
    child<<<(count + 31) / 32, 32>>>(data, count);
}
";
        let mut p1 = parse(src).unwrap();
        let printed = print_program(&p1);
        let mut p2 =
            parse(&printed).unwrap_or_else(|e| panic!("{}\n{}", e.render(&printed), printed));
        strip_meta(&mut p1);
        strip_meta(&mut p2);
        assert_eq!(p1, p2, "program round trip failed:\n{printed}");
    }

    #[test]
    fn statements_print_readably() {
        let s = parse_stmt("for (int i = 0; i < n; ++i) sum += a[i];").unwrap();
        let mut out = String::new();
        print_stmt(&mut out, &s, 0);
        assert_eq!(out, "for (int i = 0; i < n; ++i) {\n    sum += a[i];\n}\n");
    }

    #[test]
    fn do_while_prints() {
        let s = parse_stmt("do { x--; } while (x > 0);").unwrap();
        let mut out = String::new();
        print_stmt(&mut out, &s, 0);
        assert!(out.starts_with("do {"));
        assert!(out.trim_end().ends_with("while (x > 0);"));
    }

    #[test]
    fn launch_prints_all_forms() {
        for src in [
            "k<<<g, b>>>();",
            "k<<<g, b>>>(a);",
            "k<<<(n + 255) / 256, 256, 0, s>>>(a, b);",
        ] {
            let s = parse_stmt(src).unwrap();
            let mut out = String::new();
            print_stmt(&mut out, &s, 0);
            let s2 = parse_stmt(out.trim()).unwrap();
            let mut a = s.clone();
            let mut b = s2.clone();
            crate::visit::walk_stmt_mut(&mut a, &mut |st| st.span = crate::span::Span::SYNTH);
            crate::visit::walk_stmt_exprs_mut(&mut a, &mut |e| e.span = crate::span::Span::SYNTH);
            crate::visit::walk_stmt_mut(&mut b, &mut |st| st.span = crate::span::Span::SYNTH);
            crate::visit::walk_stmt_exprs_mut(&mut b, &mut |e| e.span = crate::span::Span::SYNTH);
            assert_eq!(a, b, "launch round trip failed for `{src}`");
        }
    }

    #[test]
    fn nested_if_else_keeps_structure() {
        let src = "if (a) if (b) x = 1; else x = 2;";
        let s = parse_stmt(src).unwrap();
        let mut out = String::new();
        print_stmt(&mut out, &s, 0);
        // The printer braces everything, so the dangling else is explicit.
        let s2 = parse_stmt(out.trim()).unwrap();
        let mut a = s.clone();
        let mut b = s2;
        for st in [&mut a, &mut b] {
            crate::visit::walk_stmt_mut(st, &mut |x| x.span = crate::span::Span::SYNTH);
            crate::visit::walk_stmt_exprs_mut(st, &mut |e| e.span = crate::span::Span::SYNTH);
        }
        // Structure differs in Block wrapping; compare by printing both.
        let mut out2 = String::new();
        print_stmt(&mut out2, &b, 0);
        assert_eq!(out, out2);
    }

    #[test]
    fn shared_decl_prints() {
        let s = parse_stmt("__shared__ float tile[128];").unwrap();
        let mut out = String::new();
        print_stmt(&mut out, &s, 0);
        assert_eq!(out, "__shared__ float tile[128];\n");
    }
}
