//! The thresholding transformation (paper Section III, Fig. 3).
//!
//! For every dynamic launch `child<<<gDim, bDim>>>(args)` whose child kernel
//! is serializable (Section III-C) and whose desired thread count can be
//! extracted from the grid-dimension expression (Section III-D), the pass:
//!
//! 1. generates a `__device__` serial version of the child that executes all
//!    child threads in loops (Fig. 3b lines 09–15),
//! 2. hoists the desired thread count into `int _threads = N;`, replacing
//!    the `N` occurrence to avoid duplicating side effects,
//! 3. wraps the launch in
//!    `if (_threads >= _THRESHOLD) { launch } else { child_serial(...); }`.
//!
//! `_THRESHOLD` is emitted as a `#define` so it can be overridden per
//! compilation, exactly like the paper's macro variable.

use crate::manifest::{Diagnostic, ThresholdSiteMeta, TransformManifest};
use crate::util::*;
use dp_frontend::ast::*;
use dp_frontend::visit::{replace_builtin_ident, replace_builtin_member};
use std::collections::HashSet;

/// Name of the compile-time threshold macro.
pub(crate) const THRESHOLD_MACRO: &str = "_THRESHOLD";

/// Applies thresholding to every dynamic launch site in the program.
///
/// Launch sites that cannot be transformed (non-serializable child, or no
/// recognizable ceiling-division pattern) are left untouched and reported in
/// the manifest's diagnostics, matching the paper's behaviour of falling
/// back to the unmodified launch.
pub fn apply(program: &mut Program, threshold: i64) -> TransformManifest {
    let mut manifest = TransformManifest::new();
    program.set_define(THRESHOLD_MACRO, threshold);

    let parent_names: Vec<Name> = program
        .functions()
        .filter(|f| matches!(f.qual, FnQual::Global | FnQual::Device))
        .map(|f| f.name.clone())
        .collect();

    let mut serials = Serials {
        taken: function_names(program),
        of_child: Vec::new(),
        functions: Vec::new(),
    };
    let mut counter = 0usize;

    for parent_name in parent_names {
        let parent = program
            .function(&parent_name)
            .expect("name was collected from this program");
        if !contains_launch(&parent.body) {
            let parent = program.function_mut(&parent_name).expect("found above");
            normalize_blocks(&mut parent.body);
            continue;
        }
        // Generating a serial child reads everything the child reaches, and
        // under recursion that includes this parent: rewrite a copy of the
        // body, so `program` still holds the definition the pass found.
        let mut body = parent.body.clone();
        normalize_blocks(&mut body);
        let used = idents_in_function(parent);
        process_block(
            &mut body,
            program,
            &parent_name,
            &used,
            &mut serials,
            &mut manifest,
            &mut counter,
        );
        program
            .function_mut(&parent_name)
            .expect("name was collected from this program")
            .body = body;
    }

    // Insert generated serial functions right after their child kernels.
    for (child, serial) in serials.functions {
        let pos = program
            .items
            .iter()
            .position(|item| matches!(item, Item::Function(f) if f.name == child))
            .map(|p| p + 1)
            .unwrap_or(program.items.len());
        program.items.insert(pos, Item::Function(serial));
    }

    manifest
}

/// The serial versions of children the pass has generated so far.
struct Serials {
    /// Every function name in the program or generated: a generated
    /// function is named fresh against these.
    taken: HashSet<Name>,
    /// Each serialized child, with the name of its serial function.
    of_child: Vec<(Name, Name)>,
    /// Each generated function, with the child it goes after.
    functions: Vec<(Name, Function)>,
}

/// Rewrites every non-block body of control statements into a block so the
/// pass can treat all statement lists uniformly.
pub(crate) fn normalize_blocks(body: &mut [Stmt]) {
    for stmt in body {
        dp_frontend::visit::walk_stmt_mut(stmt, &mut |s| {
            let origin = s.origin;
            match &mut s.kind {
                StmtKind::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    ensure_block(then_branch, origin);
                    if let Some(e) = else_branch {
                        ensure_block(e, origin);
                    }
                }
                StmtKind::For { body, .. }
                | StmtKind::While { body, .. }
                | StmtKind::DoWhile { body, .. } => ensure_block(body, origin),
                _ => {}
            }
        });
    }
}

fn ensure_block(stmt: &mut Box<Stmt>, origin: CodeOrigin) {
    if !matches!(stmt.kind, StmtKind::Block(_)) {
        let inner = std::mem::replace(
            stmt.as_mut(),
            Stmt {
                kind: StmtKind::Empty,
                span: dp_frontend::Span::SYNTH,
                origin,
            },
        );
        stmt.kind = StmtKind::Block(vec![inner]);
    }
}

/// Thresholds every launch in `stmts`, a statement list of the parent
/// `parent_name`, whose identifiers are `used`.
fn process_block(
    stmts: &mut Vec<Stmt>,
    program: &Program,
    parent_name: &str,
    used: &HashSet<&str>,
    serials: &mut Serials,
    manifest: &mut TransformManifest,
    counter: &mut usize,
) {
    let mut i = 0;
    while i < stmts.len() {
        // Recurse into nested statement lists first.
        match &mut stmts[i].kind {
            StmtKind::Block(inner) => {
                process_block(
                    inner,
                    program,
                    parent_name,
                    used,
                    serials,
                    manifest,
                    counter,
                );
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                if let StmtKind::Block(inner) = &mut then_branch.kind {
                    process_block(
                        inner,
                        program,
                        parent_name,
                        used,
                        serials,
                        manifest,
                        counter,
                    );
                }
                if let Some(e) = else_branch {
                    if let StmtKind::Block(inner) = &mut e.kind {
                        process_block(
                            inner,
                            program,
                            parent_name,
                            used,
                            serials,
                            manifest,
                            counter,
                        );
                    }
                }
            }
            StmtKind::For { body, .. }
            | StmtKind::While { body, .. }
            | StmtKind::DoWhile { body, .. } => {
                if let StmtKind::Block(inner) = &mut body.kind {
                    process_block(
                        inner,
                        program,
                        parent_name,
                        used,
                        serials,
                        manifest,
                        counter,
                    );
                }
            }
            _ => {}
        }

        let StmtKind::Launch(launch) = &stmts[i].kind else {
            i += 1;
            continue;
        };
        let child_name = launch.kernel.clone();
        let launch_span = stmts[i].span;

        // Section III-C: reject non-serializable children.
        let blockers = dp_analysis::serialization_blockers(program, &child_name);
        if !blockers.is_empty() {
            let reasons: Vec<String> = blockers.iter().map(|b| b.to_string()).collect();
            manifest.diagnostics.push(Diagnostic {
                pass: "thresholding",
                function: Name::new(parent_name),
                message: format!("child not serializable: {}", reasons.join("; ")),
                span: launch_span,
            });
            i += 1;
            continue;
        }

        // Section III-D: extract the desired thread count.
        let threads_name = fresh_name(Name::from_fmt(format_args!("_threads{counter}")), used);
        let Some(tc) = dp_analysis::extract_thread_count(stmts, i, &threads_name) else {
            manifest.diagnostics.push(Diagnostic {
                pass: "thresholding",
                function: Name::new(parent_name),
                message: "no ceiling-division pattern found in grid dimension".to_string(),
                span: launch_span,
            });
            i += 1;
            continue;
        };
        *counter += 1;

        // Make sure the serial version of the child exists.
        let serial_name = ensure_serial_fn(program, &child_name, serials);

        // Insert `int _threads = N;` before the statement where N lived.
        let mut threads_decl = Stmt::decl(
            Type::Int,
            threads_name.clone(),
            Some(tc.n),
            CodeOrigin::ThresholdCheck,
        );
        threads_decl.origin = CodeOrigin::ThresholdCheck;
        stmts.insert(tc.insert_before, threads_decl);
        let launch_index = if tc.insert_before <= i { i + 1 } else { i };

        // Build the threshold branch around the launch, which moves into it.
        let placeholder = Stmt::synth(StmtKind::Empty, CodeOrigin::ThresholdCheck);
        let launch_stmt = std::mem::replace(&mut stmts[launch_index], placeholder);
        let StmtKind::Launch(launch) = &launch_stmt.kind else {
            unreachable!("launch index tracked through insertion")
        };
        let mut serial_args = Vec::with_capacity(launch.args.len() + 2);
        serial_args.extend(launch.args.iter().cloned());
        serial_args.push(launch.grid.clone());
        serial_args.push(launch.block.clone());
        let serial_call = Stmt::expr(
            Expr::call(
                serial_name.clone(),
                serial_args,
                CodeOrigin::ThresholdSerial,
            ),
            CodeOrigin::ThresholdSerial,
        );
        let cond = Expr::bin(
            BinOp::Ge,
            Expr::ident(threads_name, CodeOrigin::ThresholdCheck),
            Expr::ident(THRESHOLD_MACRO, CodeOrigin::ThresholdCheck),
            CodeOrigin::ThresholdCheck,
        );
        stmts[launch_index] = Stmt::synth(
            StmtKind::If {
                cond,
                then_branch: Box::new(Stmt::synth(
                    StmtKind::Block(vec![launch_stmt]),
                    CodeOrigin::ThresholdCheck,
                )),
                else_branch: Some(Box::new(Stmt::synth(
                    StmtKind::Block(vec![serial_call]),
                    CodeOrigin::ThresholdCheck,
                ))),
            },
            CodeOrigin::ThresholdCheck,
        );

        manifest.threshold_sites.push(ThresholdSiteMeta {
            parent: Name::new(parent_name),
            child: child_name,
            serial_fn: serial_name,
        });
        i = launch_index + 1;
    }
}

/// Generates (once) the serial `__device__` version of `child`
/// (Fig. 3b lines 09–15) and returns its name.
fn ensure_serial_fn(program: &Program, child: &Name, serials: &mut Serials) -> Name {
    if let Some((_, serial_name)) = serials.of_child.iter().find(|(c, _)| c == child) {
        return serial_name.clone();
    }
    let serial_name = claim_fresh_name(
        Name::from_fmt(format_args!("{child}_serial")),
        &mut serials.taken,
    );
    let child_fn = program
        .function(child)
        .expect("caller verified the child kernel exists");

    let used = idents_in_function(child_fn);
    let g = fresh_name("_s_gDim", &used);
    let b = fresh_name("_s_bDim", &used);
    let idx = ["_s_bz", "_s_by", "_s_bx", "_s_tz", "_s_ty", "_s_tx"].map(|n| fresh_name(n, &used));

    // Replace builtin index/dimension uses in a copy of the child body.
    let mut body = child_fn.body.clone();
    for stmt in &mut body {
        replace_builtin_member(stmt, "blockIdx", "z", &idx[0]);
        replace_builtin_member(stmt, "blockIdx", "y", &idx[1]);
        replace_builtin_member(stmt, "blockIdx", "x", &idx[2]);
        replace_builtin_member(stmt, "threadIdx", "z", &idx[3]);
        replace_builtin_member(stmt, "threadIdx", "y", &idx[4]);
        replace_builtin_member(stmt, "threadIdx", "x", &idx[5]);
        replace_builtin_ident(stmt, "gridDim", &g);
        replace_builtin_ident(stmt, "blockDim", &b);
    }
    tag_origin(&mut body, CodeOrigin::ThresholdSerial);

    let mut params = child_fn.params.clone();
    params.extend([param(Type::Dim3, &g), param(Type::Dim3, &b)]);
    let t = Gen(CodeOrigin::ThresholdSerial);
    let innermost = if contains_return(&child_fn.body) {
        // `return` inside serialization loops would abort all remaining
        // simulated threads, so the body goes into its own device function
        // and `return` keeps per-thread semantics.
        let body_name = claim_fresh_name(
            Name::from_fmt(format_args!("{child}_serial_body")),
            &mut serials.taken,
        );
        let mut body_params = params.clone();
        body_params.extend(idx.iter().map(|n| param(Type::Int, n)));
        let args = body_params.iter().map(|p| t.id(&p.name)).collect();
        let call = t.expr(t.call(&body_name, args));
        let body_fn = gen_function(FnQual::Device, body_name, body_params, body);
        serials.functions.push((child.clone(), body_fn));
        vec![call]
    } else {
        body
    };
    let loops = serial_loops(t, &g, &b, &idx, innermost);
    let serial_fn = gen_function(FnQual::Device, serial_name.clone(), params, loops);
    serials.functions.push((child.clone(), serial_fn));
    serials.of_child.push((child.clone(), serial_name.clone()));
    serial_name
}

/// The six nested serialization loops over block and thread indices,
/// `for (int _s_bz = 0; _s_bz < _s_gDim.z; ++_s_bz)` outermost.
fn serial_loops(t: Gen, g: &str, b: &str, idx: &[Name], innermost: Vec<Stmt>) -> Vec<Stmt> {
    let extents = [(g, "z"), (g, "y"), (g, "x"), (b, "z"), (b, "y"), (b, "x")];
    let mut body = innermost;
    for (var, (dim, field)) in idx.iter().zip(extents).rev() {
        let cond = t.bin(BinOp::Lt, t.id(var), t.dot(dim, field));
        let operand = Box::new(t.id(var));
        let step = ExprKind::IncDec {
            inc: true,
            prefix: true,
            operand,
        };
        let step = Expr::synth(step, t.0);
        body = vec![t.for_(var, t.int(0), cond, step, body)];
    }
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_frontend::printer::print_program;

    const BASIC: &str = "\
__global__ void child(int* data, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        data[i] = data[i] + 1;
    }
}

__global__ void parent(int* data, int* offsets, int numV) {
    int v = blockIdx.x * blockDim.x + threadIdx.x;
    if (v < numV) {
        int count = offsets[v + 1] - offsets[v];
        child<<<(count + 31) / 32, 32>>>(data, count);
    }
}
";

    #[test]
    fn transforms_basic_launch() {
        let mut p = dp_frontend::parse(BASIC).unwrap();
        let manifest = apply(&mut p, 128);
        assert_eq!(manifest.threshold_sites.len(), 1);
        assert!(manifest.diagnostics.is_empty());
        assert_eq!(p.define("_THRESHOLD"), Some(128));

        let out = print_program(&p);
        assert!(out.contains("child_serial"), "serial fn missing:\n{out}");
        assert!(
            out.contains("_threads0 >= _THRESHOLD"),
            "guard missing:\n{out}"
        );
        assert!(
            out.contains("int _threads0 = count;"),
            "hoist missing:\n{out}"
        );
        // The grid expression now refers to the hoisted count.
        assert!(
            out.contains("(_threads0 + 31) / 32"),
            "rewrite missing:\n{out}"
        );
        // Output must re-parse (source-to-source invariant).
        dp_frontend::parse(&out).unwrap();
    }

    #[test]
    fn serial_fn_replaces_builtins() {
        let mut p = dp_frontend::parse(BASIC).unwrap();
        apply(&mut p, 128);
        let serial = p.function("child_serial").unwrap();
        assert_eq!(serial.qual, FnQual::Device);
        // params + _s_gDim + _s_bDim
        assert_eq!(serial.params.len(), 4);
        let mut printed = String::new();
        dp_frontend::printer::print_function(&mut printed, serial);
        assert!(printed.contains("_s_bx"), "{printed}");
        assert!(printed.contains("_s_tx"), "{printed}");
        assert!(!printed.contains("threadIdx"), "{printed}");
        assert!(!printed.contains("blockIdx"), "{printed}");
    }

    #[test]
    fn child_with_return_uses_body_function() {
        let src = "\
__global__ void child(int* data, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) {
        return;
    }
    data[i] = i;
}
__global__ void parent(int* data, int n) {
    child<<<(n + 63) / 64, 64>>>(data, n);
}
";
        let mut p = dp_frontend::parse(src).unwrap();
        let manifest = apply(&mut p, 32);
        assert_eq!(manifest.threshold_sites.len(), 1);
        assert!(p.function("child_serial_body").is_some());
        let serial = p.function("child_serial").unwrap();
        let mut printed = String::new();
        dp_frontend::printer::print_function(&mut printed, serial);
        assert!(printed.contains("child_serial_body("), "{printed}");
    }

    #[test]
    fn non_serializable_child_is_skipped_with_diagnostic() {
        let src = "\
__global__ void child(int* d, int n) {
    __syncthreads();
    d[0] = n;
}
__global__ void parent(int* d, int n) {
    child<<<(n + 31) / 32, 32>>>(d, n);
}
";
        let mut p = dp_frontend::parse(src).unwrap();
        let before = print_program(&p);
        let manifest = apply(&mut p, 128);
        assert!(manifest.threshold_sites.is_empty());
        assert_eq!(manifest.diagnostics.len(), 1);
        assert!(manifest.diagnostics[0].message.contains("__syncthreads"));
        // Program unchanged apart from the #define.
        let after = print_program(&p);
        assert_eq!(
            after.replace("#define _THRESHOLD 128\n", "").trim_start(),
            before.trim_start()
        );
    }

    #[test]
    fn unrecognizable_grid_expression_is_skipped() {
        let src = "\
__global__ void child(int* d, int n) { d[0] = n; }
__global__ void parent(int* d, int n) {
    child<<<n * 2, 32>>>(d, n);
}
";
        let mut p = dp_frontend::parse(src).unwrap();
        let manifest = apply(&mut p, 128);
        assert!(manifest.threshold_sites.is_empty());
        assert_eq!(manifest.diagnostics.len(), 1);
        assert!(manifest.diagnostics[0]
            .message
            .contains("no ceiling-division pattern"));
    }

    #[test]
    fn two_launches_of_same_child_share_serial_fn() {
        let src = "\
__global__ void child(int* d, int n) { d[0] = n; }
__global__ void parent(int* d, int n, int m) {
    child<<<(n + 31) / 32, 32>>>(d, n);
    child<<<(m + 31) / 32, 32>>>(d, m);
}
";
        let mut p = dp_frontend::parse(src).unwrap();
        let manifest = apply(&mut p, 128);
        assert_eq!(manifest.threshold_sites.len(), 2);
        let count = p.functions().filter(|f| f.name == "child_serial").count();
        assert_eq!(count, 1);
        let out = print_program(&p);
        assert!(out.contains("_threads0"));
        assert!(out.contains("_threads1"));
    }

    #[test]
    fn variable_defined_grid_dimension() {
        let src = "\
__global__ void child(int* d, int n) { d[0] = n; }
__global__ void parent(int* d, int n) {
    int blocks = (n - 1) / 256 + 1;
    child<<<blocks, 256>>>(d, n);
}
";
        let mut p = dp_frontend::parse(src).unwrap();
        let manifest = apply(&mut p, 64);
        assert_eq!(manifest.threshold_sites.len(), 1);
        let out = print_program(&p);
        assert!(out.contains("int _threads0 = n;"), "{out}");
        assert!(out.contains("(_threads0 - 1) / 256 + 1"), "{out}");
    }

    #[test]
    fn hoisted_count_avoids_a_parent_local() {
        let src = "\
__global__ void child(int* d, int n) { d[0] = n; }
__global__ void parent(int* d, int n) {
    int _threads0 = n + 1;
    child<<<(n + 31) / 32, 32>>>(d, _threads0);
}
";
        let mut p = dp_frontend::parse(src).unwrap();
        apply(&mut p, 64);
        let out = print_program(&p);
        assert!(out.contains("int _threads0_2 = n;"), "{out}");
        assert!(out.contains("if (_threads0_2 >= _THRESHOLD)"), "{out}");
        assert!(out.contains("(d, _threads0);"), "{out}");
    }

    #[test]
    fn host_launches_are_not_thresholded() {
        let src = "\
__global__ void child(int* d, int n) { d[0] = n; }
void host_main(int* d, int n) {
    child<<<(n + 31) / 32, 32>>>(d, n);
}
";
        let mut p = dp_frontend::parse(src).unwrap();
        let manifest = apply(&mut p, 128);
        assert!(manifest.threshold_sites.is_empty());
        assert!(manifest.diagnostics.is_empty());
    }

    #[test]
    fn output_reparses_after_transform() {
        let mut p = dp_frontend::parse(BASIC).unwrap();
        apply(&mut p, 128);
        let out = print_program(&p);
        let p2 = dp_frontend::parse(&out).unwrap();
        assert_eq!(p2.functions().count(), p.functions().count());
    }
}
