//! The walks [`BodyFacts`](crate::BodyFacts) replaced, one per question,
//! kept as oracles: `facts.rs`'s tests hold every answer of a summary to
//! theirs.

use crate::transformable::Blocker;
use dp_frontend::ast::*;
use dp_frontend::visit::{for_each_stmt, for_each_stmt_expr};
use std::collections::{HashMap, HashSet};

/// The set of function names `func` calls directly (plain calls, not
/// launches), restricted to functions defined in the program.
pub(crate) fn direct_callees(program: &Program, func: &Function) -> HashSet<Name> {
    let defined: HashSet<&str> = program.functions().map(|f| f.name.as_str()).collect();
    let mut callees = HashSet::new();
    for stmt in &func.body {
        for_each_stmt_expr(stmt, &mut |e| {
            if let ExprKind::Call(name, _) = &e.kind {
                if defined.contains(name.as_str()) {
                    callees.insert(name.clone());
                }
            }
        });
    }
    callees
}

/// The call graph over functions defined in the program (direct calls only;
/// launches are not edges).
pub(crate) fn call_graph(program: &Program) -> HashMap<Name, HashSet<Name>> {
    program
        .functions()
        .map(|f| (f.name.clone(), direct_callees(program, f)))
        .collect()
}

/// All functions transitively reachable from `root` through direct calls,
/// including `root` itself, in no particular order.
pub(crate) fn reachable_functions<'p>(program: &'p Program, root: &str) -> Vec<&'p Function> {
    let graph = call_graph(program);
    let mut seen = HashSet::new();
    let mut stack = vec![Name::new(root)];
    let mut result = Vec::new();
    while let Some(name) = stack.pop() {
        if !seen.insert(name.clone()) {
            continue;
        }
        if let Some(func) = program.function(&name) {
            result.push(func);
            if let Some(callees) = graph.get(&name) {
                stack.extend(callees.iter().cloned());
            }
        }
    }
    result
}

/// Every reason `kernel` cannot be serialized; functions come in the order
/// [`reachable_functions`] gives them.
pub(crate) fn serialization_blockers(program: &Program, kernel: &str) -> Vec<Blocker> {
    if program.function(kernel).is_none() {
        return vec![Blocker::MissingDefinition {
            kernel: Name::new(kernel),
        }];
    }
    let mut blockers = Vec::new();
    for func in reachable_functions(program, kernel) {
        for stmt in &func.body {
            for_each_stmt(stmt, &mut |s| {
                if let StmtKind::Decl(decl) = &s.kind {
                    if decl.shared {
                        let blocker = Blocker::SharedMemory {
                            in_function: func.name.clone(),
                        };
                        if !blockers.contains(&blocker) {
                            blockers.push(blocker);
                        }
                    }
                }
            });
            for_each_stmt_expr(stmt, &mut |e| {
                if let ExprKind::Call(name, _) = &e.kind {
                    if SYNC_INTRINSICS.contains(&name.as_str()) {
                        let blocker = Blocker::SyncIntrinsic {
                            intrinsic: name.clone(),
                            in_function: func.name.clone(),
                        };
                        if !blockers.contains(&blocker) {
                            blockers.push(blocker);
                        }
                    }
                }
            });
        }
    }
    blockers
}

/// The identifiers of a function that start with `_`: its name, its
/// parameters, its declared names and the identifiers it uses.
pub(crate) fn idents_in_function<'f>(func: &'f Function) -> HashSet<&'f str> {
    let mut names = HashSet::new();
    let mut add = |name: &'f str| {
        if name.starts_with('_') {
            names.insert(name);
        }
    };
    for p in &func.params {
        add(&p.name);
    }
    add(&func.name);
    for stmt in &func.body {
        for_each_stmt(stmt, &mut |s| {
            if let StmtKind::Decl(d) = &s.kind {
                d.declarators.iter().for_each(|d| add(&d.name));
            }
        });
        for_each_stmt_expr(stmt, &mut |e| {
            if let ExprKind::Ident(name) = &e.kind {
                add(name);
            }
        });
    }
    names
}

/// Whether any statement in the body is a `return` (at any depth).
pub(crate) fn contains_return(body: &[Stmt]) -> bool {
    any_stmt(body, |s| matches!(s.kind, StmtKind::Return(_)))
}

/// Whether any statement in the body is a kernel launch (at any depth).
pub(crate) fn contains_launch(body: &[Stmt]) -> bool {
    any_stmt(body, |s| matches!(s.kind, StmtKind::Launch(_)))
}

fn any_stmt(body: &[Stmt], pred: impl Fn(&Stmt) -> bool) -> bool {
    let mut found = false;
    for stmt in body {
        for_each_stmt(stmt, &mut |s| found |= pred(s));
    }
    found
}

/// Whether the body launches `kernel` with a grid that is not 1-D.
pub(crate) fn launches_multi_dimensional(body: &[Stmt], kernel: &str) -> bool {
    any_stmt(body, |s| {
        matches!(&s.kind, StmtKind::Launch(l)
            if l.kernel == kernel && !crate::is_one_dimensional(&l.grid))
    })
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
