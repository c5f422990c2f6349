//! Desired-thread-count extraction (paper Section III-D, Fig. 4).
//!
//! Thresholding needs the number of child threads the programmer *wanted*,
//! which is not what the launch provides: the launch carries a grid
//! dimension, usually computed as a ceiling-division of the desired thread
//! count `N` by the block dimension `b`. This module implements the paper's
//! heuristic: find the division, take the left-hand subexpression, strip
//! additions/subtractions of constants (including the divisor itself), and
//! treat what remains as `N`.
//!
//! Supported patterns (paper Fig. 4):
//!
//! | case | expression |
//! |------|------------|
//! | (a)  | `(N - 1)/b + 1` |
//! | (b)  | `(N + b - 1)/b` |
//! | (c)  | `N/b + (N%b == 0 ? 0 : 1)` |
//! | (d)  | `ceil((float)N/b)` |
//! | (e)  | `ceil(N/(float)b)` |
//! | (f)  | `dim3(...)` whose components are any of the above |
//!
//! All patterns also work when the expression is stored in an intermediate
//! local variable (possibly through a short chain of assignments).
//!
//! The extraction is *destructive by design*: the `N` occurrence is replaced
//! in place with a fresh variable so the expression is not duplicated — the
//! paper does this "just in case the expression has side effects".

use dp_frontend::ast::*;

/// Maximum length of a local `int gd = ...; ... k<<<gd, b>>>` definition
/// chain the extractor will follow.
const MAX_VAR_CHAIN: usize = 4;

/// Result of a successful thread-count extraction.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadCount {
    /// The extracted `N` expression (moved out of the tree; an identifier
    /// referring to `replacement` now sits where it was).
    pub n: Expr,
    /// Index in the statement block before which `int <replacement> = N;`
    /// must be inserted so every variable in `N` is still in scope and the
    /// replacement identifier is defined before use.
    pub insert_before: usize,
}

/// Attempts to extract the desired thread count for the launch statement at
/// `block[launch_index]`, replacing the `N` occurrence with `replacement`.
///
/// On success the tree has been rewritten and the caller must insert
/// `int <replacement> = <returned N>;` before `insert_before`. On failure
/// the block is left untouched.
///
/// # Panics
///
/// Panics if `block[launch_index]` is not a launch statement.
pub fn extract_thread_count(
    block: &mut [Stmt],
    launch_index: usize,
    replacement: &str,
) -> Option<ThreadCount> {
    // Work on a clone so failure leaves the block untouched.
    let mut grid = match &block[launch_index].kind {
        StmtKind::Launch(launch) => launch.grid.clone(),
        other => panic!("extract_thread_count: not a launch statement: {other:?}"),
    };
    if let Some(n) = take_from_expr(&mut grid) {
        let n = finish(n, replacement, &mut grid);
        if let StmtKind::Launch(launch) = &mut block[launch_index].kind {
            launch.grid = grid;
        }
        return Some(ThreadCount {
            n,
            insert_before: launch_index,
        });
    }
    // dim3 constructor in the grid position: handle per-component.
    if let ExprKind::Dim3Ctor(_) = &grid.kind {
        if let Some(n) = take_from_dim3(&mut grid) {
            let n = finish(n, replacement, &mut grid);
            if let StmtKind::Launch(launch) = &mut block[launch_index].kind {
                launch.grid = grid;
            }
            return Some(ThreadCount {
                n,
                insert_before: launch_index,
            });
        }
    }
    // Variable indirection: `int gd = <pattern>; ... k<<<gd, b>>>`.
    if let ExprKind::Ident(var) = &grid.kind {
        let var = var.clone();
        return extract_via_variable(block, launch_index, &var, replacement, MAX_VAR_CHAIN);
    }
    None
}

/// Follows `var` back to its most recent definition before `launch_index`
/// in the same block and extracts from the defining expression.
fn extract_via_variable(
    block: &mut [Stmt],
    launch_index: usize,
    var: &str,
    replacement: &str,
    depth: usize,
) -> Option<ThreadCount> {
    if depth == 0 {
        return None;
    }
    let def_index = find_last_def(block, launch_index, var)?;
    let mut def_expr = def_expr_of(&block[def_index], var)?.clone();
    if let Some(n) = take_from_expr(&mut def_expr).or_else(|| {
        if matches!(def_expr.kind, ExprKind::Dim3Ctor(_)) {
            take_from_dim3(&mut def_expr)
        } else {
            None
        }
    }) {
        let n = finish(n, replacement, &mut def_expr);
        *def_expr_of_mut(&mut block[def_index], var)? = def_expr;
        return Some(ThreadCount {
            n,
            insert_before: def_index,
        });
    }
    // Chase one more level of indirection.
    if let ExprKind::Ident(inner) = &def_expr.kind {
        let inner = inner.clone();
        return extract_via_variable(block, def_index, &inner, replacement, depth - 1);
    }
    None
}

/// Finds the last statement before `before` that defines `var` (declaration
/// initializer or simple assignment at block level).
fn find_last_def(block: &[Stmt], before: usize, var: &str) -> Option<usize> {
    (0..before)
        .rev()
        .find(|&i| def_expr_of(&block[i], var).is_some())
}

fn def_expr_of<'s>(stmt: &'s Stmt, var: &str) -> Option<&'s Expr> {
    match &stmt.kind {
        StmtKind::Decl(decl) => decl
            .declarators
            .iter()
            .find(|d| d.name == var)
            .and_then(|d| d.init.as_ref()),
        StmtKind::Expr(e) => match &e.kind {
            ExprKind::Assign(AssignOp::Assign, lhs, rhs) if lhs.kind.as_ident() == Some(var) => {
                Some(rhs)
            }
            _ => None,
        },
        _ => None,
    }
}

fn def_expr_of_mut<'s>(stmt: &'s mut Stmt, var: &str) -> Option<&'s mut Expr> {
    match &mut stmt.kind {
        StmtKind::Decl(decl) => decl
            .declarators
            .iter_mut()
            .find(|d| d.name == var)
            .and_then(|d| d.init.as_mut()),
        StmtKind::Expr(e) => match &mut e.kind {
            ExprKind::Assign(AssignOp::Assign, lhs, rhs) if lhs.kind.as_ident() == Some(var) => {
                Some(rhs)
            }
            _ => None,
        },
        _ => None,
    }
}

/// Replaces the slot where `N` was found (already swapped for a placeholder
/// by `take_*`) with the replacement identifier, returning `n` unchanged.
fn finish(n: Expr, replacement: &str, tree: &mut Expr) -> Expr {
    rename_placeholder(tree, replacement);
    n
}

const PLACEHOLDER: &str = "__dpopt_n_slot__";

fn rename_placeholder(e: &mut Expr, replacement: &str) {
    dp_frontend::visit::walk_expr_mut(e, &mut |x| {
        if x.kind.as_ident() == Some(PLACEHOLDER) {
            x.kind = ExprKind::Ident(Name::new(replacement));
        }
    });
}

/// Core pattern matcher. On success, the `N` subexpression inside `e` has
/// been replaced by a placeholder identifier and `N` itself is returned.
fn take_from_expr(e: &mut Expr) -> Option<Expr> {
    // Unwrap integer casts around the whole pattern, e.g. `(int)ceil(...)`.
    if let ExprKind::Cast(_, inner) = &mut e.kind {
        return take_from_expr(inner);
    }
    match &mut e.kind {
        // Case (a): D + 1  or  1 + D, and
        // case (c): D + (N % b == 0 ? 0 : 1)
        ExprKind::Binary(BinOp::Add, lhs, rhs) => {
            if is_div(lhs) && is_adjustment(rhs) {
                take_from_div(lhs)
            } else if is_div(rhs) && is_adjustment(lhs) {
                take_from_div(rhs)
            } else {
                None
            }
        }
        // Case (b): direct division.
        ExprKind::Binary(BinOp::Div, _, _) => take_from_div(e),
        // Cases (d)/(e): ceil(...)
        ExprKind::Call(name, args) if (name == "ceil" || name == "ceilf") && args.len() == 1 => {
            take_from_expr(&mut args[0])
        }
        _ => None,
    }
}

/// Handles `dim3(x, y, z)` grids: the x component must contain a pattern;
/// pure y/z components are multiplied into the returned `N`.
fn take_from_dim3(e: &mut Expr) -> Option<Expr> {
    let ExprKind::Dim3Ctor(args) = &mut e.kind else {
        return None;
    };
    // y/z components must be trivially pure (identifier or literal) to be
    // multiplied into the thread count without duplicating side effects.
    for extra in args.iter().skip(1) {
        if !is_pure_atom(extra) {
            return None;
        }
    }
    let n_x = take_from_expr(&mut args[0])?;
    let mut n = n_x;
    for extra in args.iter().skip(1) {
        if matches!(extra.kind, ExprKind::IntLit(1)) {
            continue;
        }
        n = Expr::bin(BinOp::Mul, n, extra.clone(), CodeOrigin::ThresholdCheck);
    }
    Some(n)
}

fn is_pure_atom(e: &Expr) -> bool {
    matches!(
        e.kind,
        ExprKind::IntLit(_) | ExprKind::FloatLit(_) | ExprKind::Ident(_)
    ) || matches!(&e.kind, ExprKind::Member(base, _) if is_pure_atom(base))
}

/// `+1`-style adjustments accepted next to the division: integer literals
/// and the `(x % y == 0) ? 0 : 1` ternary of case (c).
fn is_adjustment(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::IntLit(_) => true,
        ExprKind::Ternary(_, t, f) => {
            matches!(t.kind, ExprKind::IntLit(_)) && matches!(f.kind, ExprKind::IntLit(_))
        }
        ExprKind::Cast(_, inner) => is_adjustment(inner),
        _ => false,
    }
}

fn is_div(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Binary(BinOp::Div, _, _) => true,
        ExprKind::Cast(_, inner) => is_div(inner),
        ExprKind::Call(name, args) if (name == "ceil" || name == "ceilf") && args.len() == 1 => {
            is_div(&args[0])
        }
        _ => false,
    }
}

/// Given a division (possibly wrapped in casts/ceil), strips constants from
/// the dividend and moves the remaining `N` out.
fn take_from_div(e: &mut Expr) -> Option<Expr> {
    match &mut e.kind {
        ExprKind::Cast(_, inner) => take_from_div(inner),
        ExprKind::Call(name, args) if (name == "ceil" || name == "ceilf") && args.len() == 1 => {
            take_from_div(&mut args[0])
        }
        ExprKind::Binary(BinOp::Div, lhs, rhs) => {
            let divisor = (**rhs).clone();
            let slot = n_slot(lhs, &divisor)?;
            let origin = slot.origin;
            let n = std::mem::replace(slot, Expr::ident(PLACEHOLDER, origin));
            // Refuse constants-as-N only if nothing meaningful remains:
            // a literal N like `(1000 + 31)/32` is still a valid count.
            Some(strip_casts(n))
        }
        _ => None,
    }
}

fn strip_casts(e: Expr) -> Expr {
    match e.kind {
        ExprKind::Cast(_, inner) => strip_casts(*inner),
        _ => e,
    }
}

/// Descends through `+ const` / `- const` / `+ divisor` / casts on the
/// dividend, returning the slot holding `N`.
fn n_slot<'e>(e: &'e mut Expr, divisor: &Expr) -> Option<&'e mut Expr> {
    match &e.kind {
        ExprKind::Binary(BinOp::Add | BinOp::Sub, _, rhs0) if is_constant_like(rhs0, divisor) => {
            let ExprKind::Binary(_, lhs, _) = &mut e.kind else {
                unreachable!()
            };
            n_slot(lhs, divisor)
        }
        ExprKind::Binary(BinOp::Add, lhs0, _) if is_constant_like(lhs0, divisor) => {
            let ExprKind::Binary(_, _, rhs) = &mut e.kind else {
                unreachable!()
            };
            n_slot(rhs, divisor)
        }
        ExprKind::Cast(_, _) => {
            let ExprKind::Cast(_, inner) = &mut e.kind else {
                unreachable!()
            };
            n_slot(inner, divisor)
        }
        _ => Some(e),
    }
}

/// A subexpression the stripping heuristic discards: integer literals and
/// anything structurally equal to the divisor (which "is usually a
/// constant" per the paper).
fn is_constant_like(e: &Expr, divisor: &Expr) -> bool {
    match &e.kind {
        ExprKind::IntLit(_) => true,
        ExprKind::Cast(_, inner) => is_constant_like(inner, divisor),
        _ => structurally_eq(e, divisor),
    }
}

/// Structural expression equality ignoring spans and origins.
pub(crate) fn structurally_eq(a: &Expr, b: &Expr) -> bool {
    use ExprKind::*;
    match (&a.kind, &b.kind) {
        (IntLit(x), IntLit(y)) => x == y,
        (FloatLit(x), FloatLit(y)) => x == y,
        (BoolLit(x), BoolLit(y)) => x == y,
        (Ident(x), Ident(y)) => x == y,
        (Binary(op1, a1, b1), Binary(op2, a2, b2)) => {
            op1 == op2 && structurally_eq(a1, a2) && structurally_eq(b1, b2)
        }
        (Unary(op1, x), Unary(op2, y)) => op1 == op2 && structurally_eq(x, y),
        (
            IncDec {
                inc: i1,
                prefix: p1,
                operand: o1,
            },
            IncDec {
                inc: i2,
                prefix: p2,
                operand: o2,
            },
        ) => i1 == i2 && p1 == p2 && structurally_eq(o1, o2),
        (Assign(op1, a1, b1), Assign(op2, a2, b2)) => {
            op1 == op2 && structurally_eq(a1, a2) && structurally_eq(b1, b2)
        }
        (Ternary(c1, t1, e1), Ternary(c2, t2, e2)) => {
            structurally_eq(c1, c2) && structurally_eq(t1, t2) && structurally_eq(e1, e2)
        }
        (Call(n1, a1), Call(n2, a2)) => {
            n1 == n2
                && a1.len() == a2.len()
                && a1.iter().zip(a2).all(|(x, y)| structurally_eq(x, y))
        }
        (Index(b1, i1), Index(b2, i2)) => structurally_eq(b1, b2) && structurally_eq(i1, i2),
        (Member(b1, f1), Member(b2, f2)) => f1 == f2 && structurally_eq(b1, b2),
        (Cast(t1, x), Cast(t2, y)) => t1 == t2 && structurally_eq(x, y),
        (Dim3Ctor(a1), Dim3Ctor(a2)) => {
            a1.len() == a2.len() && a1.iter().zip(a2).all(|(x, y)| structurally_eq(x, y))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_frontend::parser::{parse_expr, parse_stmt};
    use dp_frontend::printer::print_expr;

    /// Runs extraction over a tiny block `int gd = <def>; k<<<gd, b>>>(x);`
    /// or a direct-launch block, returning (N text, rewritten grid text).
    fn extract_direct(grid_src: &str) -> Option<(String, String)> {
        let launch = parse_stmt(&format!("k<<<{grid_src}, 32>>>(x);")).unwrap();
        let mut block = vec![launch];
        let tc = extract_thread_count(&mut block, 0, "_threads")?;
        let StmtKind::Launch(l) = &block[0].kind else {
            unreachable!()
        };
        Some((print_expr(&tc.n), print_expr(&l.grid)))
    }

    #[test]
    fn case_a_n_minus_1_div_b_plus_1() {
        let (n, grid) = extract_direct("(N - 1) / b + 1").unwrap();
        assert_eq!(n, "N");
        assert_eq!(grid, "(_threads - 1) / b + 1");
    }

    #[test]
    fn case_b_n_plus_b_minus_1_div_b() {
        let (n, grid) = extract_direct("(N + b - 1) / b").unwrap();
        assert_eq!(n, "N");
        assert_eq!(grid, "(_threads + b - 1) / b");
    }

    #[test]
    fn case_c_with_ternary() {
        let (n, grid) = extract_direct("N / b + (N % b == 0 ? 0 : 1)").unwrap();
        assert_eq!(n, "N");
        assert!(grid.starts_with("_threads / b"));
    }

    #[test]
    fn case_d_ceil_float_cast_dividend() {
        let (n, grid) = extract_direct("ceil((float)N / b)").unwrap();
        assert_eq!(n, "N");
        assert_eq!(grid, "ceil((float)_threads / b)");
    }

    #[test]
    fn case_e_ceil_float_cast_divisor() {
        let (n, grid) = extract_direct("ceil(N / (float)b)").unwrap();
        assert_eq!(n, "N");
        assert_eq!(grid, "ceil(_threads / (float)b)");
    }

    #[test]
    fn case_f_dim3_with_pattern_x() {
        let (n, grid) = extract_direct("dim3((N + 127) / 128, rows, 1)").unwrap();
        assert_eq!(n, "N * rows");
        assert_eq!(grid, "dim3((_threads + 127) / 128, rows, 1)");
    }

    #[test]
    fn dim3_with_impure_extra_component_fails() {
        assert!(extract_direct("dim3((N + 127) / 128, f(x), 1)").is_none());
    }

    #[test]
    fn complex_n_expression_survives() {
        let (n, _) = extract_direct("(offsets[v + 1] - offsets[v] - 1) / bDim + 1").unwrap();
        assert_eq!(n, "offsets[v + 1] - offsets[v]");
    }

    #[test]
    fn int_cast_of_ceil() {
        let (n, _) = extract_direct("(int)ceil((float)count / 256)").unwrap();
        assert_eq!(n, "count");
    }

    #[test]
    fn literal_n_is_accepted() {
        // `(1000 + 31) / 32`: stripping keeps the leftmost term.
        let (n, _) = extract_direct("(1000 + 31) / 32").unwrap();
        assert_eq!(n, "1000");
    }

    #[test]
    fn non_pattern_fails_cleanly() {
        assert!(extract_direct("numBlocks * 2").is_none());
        assert!(extract_direct("f(n)").is_none());
        assert!(extract_direct("32").is_none());
    }

    #[test]
    fn failure_leaves_block_untouched() {
        let launch = parse_stmt("k<<<numBlocks * 2, 32>>>(x);").unwrap();
        let mut block = vec![launch.clone()];
        assert!(extract_thread_count(&mut block, 0, "_threads").is_none());
        assert_eq!(block[0], launch);
    }

    #[test]
    fn variable_indirection_single_level() {
        let mut block = vec![
            parse_stmt("int gd = (n + 31) / 32;").unwrap(),
            parse_stmt("x = x + 1;").unwrap(),
            parse_stmt("k<<<gd, 32>>>(x);").unwrap(),
        ];
        let tc = extract_thread_count(&mut block, 2, "_threads").unwrap();
        assert_eq!(print_expr(&tc.n), "n");
        assert_eq!(tc.insert_before, 0);
        let StmtKind::Decl(d) = &block[0].kind else {
            unreachable!()
        };
        assert_eq!(
            print_expr(d.declarators[0].init.as_ref().unwrap()),
            "(_threads + 31) / 32"
        );
    }

    #[test]
    fn variable_indirection_via_assignment() {
        let mut block = vec![
            parse_stmt("int gd;").unwrap(),
            parse_stmt("gd = (count - 1) / bs + 1;").unwrap(),
            parse_stmt("k<<<gd, bs>>>(x);").unwrap(),
        ];
        let tc = extract_thread_count(&mut block, 2, "_t").unwrap();
        assert_eq!(print_expr(&tc.n), "count");
        assert_eq!(tc.insert_before, 1);
    }

    #[test]
    fn variable_chain_two_levels() {
        let mut block = vec![
            parse_stmt("int a = (n + 255) / 256;").unwrap(),
            parse_stmt("int gd = a;").unwrap(),
            parse_stmt("k<<<gd, 256>>>(x);").unwrap(),
        ];
        let tc = extract_thread_count(&mut block, 2, "_t").unwrap();
        assert_eq!(print_expr(&tc.n), "n");
        assert_eq!(tc.insert_before, 0);
    }

    #[test]
    fn latest_definition_wins() {
        let mut block = vec![
            parse_stmt("int gd = (n + 31) / 32;").unwrap(),
            parse_stmt("gd = (m + 63) / 64;").unwrap(),
            parse_stmt("k<<<gd, 64>>>(x);").unwrap(),
        ];
        let tc = extract_thread_count(&mut block, 2, "_t").unwrap();
        assert_eq!(print_expr(&tc.n), "m");
        assert_eq!(tc.insert_before, 1);
    }

    #[test]
    fn undefined_variable_fails() {
        let mut block = vec![parse_stmt("k<<<gd, 32>>>(x);").unwrap()];
        assert!(extract_thread_count(&mut block, 0, "_t").is_none());
    }

    #[test]
    fn structural_eq_ignores_spans() {
        let a = parse_expr("x + y * 2").unwrap();
        let b = parse_expr("x  +  y*2").unwrap();
        assert!(structurally_eq(&a, &b));
        let c = parse_expr("x + y * 3").unwrap();
        assert!(!structurally_eq(&a, &c));
    }
}
