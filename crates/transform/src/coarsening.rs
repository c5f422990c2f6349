//! The coarsening transformation (paper Section IV, Fig. 6).
//!
//! Each coarsened child block executes the work of `_CFACTOR` original child
//! blocks through a block-stride loop. The child kernel gains a trailing
//! parameter carrying the original (uncoarsened) grid dimension, and every
//! launch site divides its grid dimension by the factor.
//!
//! Deviation from Fig. 6 noted in DESIGN.md: since only the x-dimension is
//! coarsened (as in the paper's example and evaluation), the original grid
//! dimension is passed as a scalar `int` rather than a `dim3`. This keeps
//! the aggregation pass composable (all child arguments stay single words)
//! without changing 1-D semantics.

use crate::manifest::{CoarsenSiteMeta, Diagnostic, TransformManifest};
use crate::util::*;
use dp_frontend::ast::*;
use dp_frontend::visit::replace_builtin_member;

/// Name of the compile-time coarsening-factor macro.
pub(crate) const CFACTOR_MACRO: &str = "_CFACTOR";

/// Applies coarsening to every child kernel that is dynamically launched.
///
/// Children that cannot be coarsened (undefined, use `gridDim` as a whole
/// value, or are launched with a multi-dimensional grid) are skipped with a
/// diagnostic.
pub fn apply(program: &mut Program, factor: i64) -> TransformManifest {
    let mut manifest = TransformManifest::new();
    program.set_define(CFACTOR_MACRO, factor);

    // Candidate children: kernels launched from device code.
    let mut facts = ProgramFacts::of(program);
    let sites: Vec<dp_analysis::LaunchSite> = facts.launch_sites().collect();
    let mut children: Vec<&Name> = Vec::new();
    for site in &sites {
        if site.from_device && !children.contains(&&site.kernel) {
            children.push(&site.kernel);
        }
    }

    for child in children {
        if let Err(diag) = coarsen_child(program, &mut facts, child) {
            manifest.diagnostics.push(diag);
            continue;
        }
        rewrite_launch_sites(program, &facts, child);
        manifest.coarsen_sites.push(CoarsenSiteMeta {
            child: child.clone(),
            factor,
        });
    }
    manifest
}

/// Checks preconditions and rewrites the child kernel in place. A body
/// function it generates is named fresh against every function `facts`
/// summarizes: the program's, and the body functions generated before.
fn coarsen_child(
    program: &mut Program,
    facts: &mut ProgramFacts,
    child: &str,
) -> Result<(), Diagnostic> {
    let Some(used) = facts.get(child) else {
        return Err(diag(child, "child kernel is not defined"));
    };
    if used.uses_whole("gridDim") {
        return Err(diag(
            child,
            "child uses gridDim as a whole value; x-dimension coarsening would be unsound",
        ));
    }
    // Every launch site must have a 1-D (int-like) grid expression: the
    // sites as they are now, in every function that launches the child,
    // a body function this pass generated for another child included.
    if facts
        .functions()
        .any(|f| f.launches_multi_dimensional(child))
    {
        return Err(diag(
            child,
            "launch site uses a multi-dimensional grid; only x-dimension coarsening is supported",
        ));
    }

    let g = fresh_local("_c_gDim", used);
    let bx = fresh_local("_c_bx", used);
    let has_return = used.has_return();
    let child_fn = program.function_mut(child).expect("summarized above");

    let mut body = std::mem::take(&mut child_fn.body);
    for stmt in &mut body {
        replace_builtin_member(stmt, "blockIdx", "x", &bx);
        replace_builtin_member(stmt, "gridDim", "x", &g);
    }
    child_fn.params.push(param(Type::Int, &g));

    let c = Gen(CodeOrigin::CoarsenLoop);
    let mut body_fn = None;
    if has_return {
        // `return` would abort the remaining coarsening iterations, so the
        // body moves to a device function (per-original-block semantics).
        let base = concat(&["_", child, "_coarsen_body"]);
        let body_name = fresh_name(base, |name| facts.get(name).is_some());
        let mut body_params = child_fn.params.clone();
        body_params.push(param(Type::Int, &bx));
        let args = body_params.iter().map(|p| c.id(&p.name)).collect();
        let call = c.expr(c.call(&body_name, args));
        body_fn = Some(gen_function(FnQual::Device, body_name, body_params, body));
        body = vec![call];
    }
    let step = c.assign(AssignOp::Add, c.id(&bx), c.dot("gridDim", "x"));
    let cond = c.bin(BinOp::Lt, c.id(&bx), c.id(&g));
    child_fn.body = vec![c.for_(&bx, c.dot("blockIdx", "x"), cond, step, body)];

    if let Some(body_fn) = body_fn {
        // Insert the body function before the child kernel. What the child
        // launched, the body function launches now: summarize both again.
        let body_name = body_fn.name.clone();
        let pos = program
            .items
            .iter()
            .position(|item| matches!(item, Item::Function(f) if f.name == child))
            .unwrap_or(0);
        program.items.insert(pos, Item::Function(body_fn));
        facts.refresh(program, child);
        facts.refresh(program, &body_name);
    }
    Ok(())
}

/// Rewrites every launch of `child` (device and host) to launch the
/// coarsened grid and pass the original grid dimension (Fig. 6 lines 08–10).
/// Only the functions whose summaries launch `child` are walked. Their
/// summaries stay as they are: the rewrite adds names no later site or
/// child takes, and keeps every launch and its grid's dimensions.
fn rewrite_launch_sites(program: &mut Program, facts: &ProgramFacts, child: &str) {
    let mut counter = 0usize;
    for func in program.functions_mut() {
        let used = facts.get(&func.name).expect("every function is summarized");
        if !used.launches(child) {
            continue;
        }
        for stmt in &mut func.body {
            dp_frontend::visit::walk_stmt_mut(stmt, &mut |s| {
                if !matches!(&s.kind, StmtKind::Launch(l) if l.kernel == child) {
                    return;
                }
                // The site's two names, fresh against the function as it
                // was before this rewrite.
                let g_name = fresh_local(numbered("_c_gDim", counter), used);
                let cg_name = fresh_local(numbered("_c_cgDim", counter), used);
                counter += 1;
                let c = Gen(CodeOrigin::CoarsenLoop);
                let StmtKind::Launch(mut launch) = std::mem::replace(&mut s.kind, StmtKind::Empty)
                else {
                    unreachable!("matched above")
                };
                let grid = std::mem::replace(&mut launch.grid, c.id(&cg_name));
                launch.args.push(c.id(&g_name));
                let g_decl = Stmt::decl(
                    Type::Int,
                    g_name.clone(),
                    Some(one_dimensional(grid)),
                    CodeOrigin::CoarsenLoop,
                );
                let cg_init = c.bin(
                    BinOp::Div,
                    c.bin(
                        BinOp::Sub,
                        c.bin(BinOp::Add, c.id(&g_name), c.id(CFACTOR_MACRO)),
                        c.int(1),
                    ),
                    c.id(CFACTOR_MACRO),
                );
                let cg_decl = c.decl(Type::Int, &cg_name, cg_init);
                let launch_stmt = Stmt::new(StmtKind::Launch(launch), s.span);
                s.kind = StmtKind::Block(vec![g_decl, cg_decl, launch_stmt]);
                s.origin = CodeOrigin::CoarsenLoop;
            });
        }
    }
}

fn diag(child: &str, message: &str) -> Diagnostic {
    Diagnostic {
        pass: "coarsening",
        function: Name::new(child),
        message: message.to_string(),
        span: dp_frontend::Span::SYNTH,
    }
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
    fn coarsens_child_and_rewrites_launch() {
        let mut p = dp_frontend::parse(BASIC).unwrap();
        let manifest = apply(&mut p, 8);
        assert_eq!(manifest.coarsen_sites.len(), 1);
        assert!(manifest.diagnostics.is_empty());
        assert_eq!(p.define("_CFACTOR"), Some(8));

        let child = p.function("child").unwrap();
        assert_eq!(child.params.last().unwrap().name, "_c_gDim");
        assert_eq!(child.params.last().unwrap().ty, Type::Int);

        let out = print_program(&p);
        assert!(
            out.contains("for (int _c_bx = blockIdx.x; _c_bx < _c_gDim; _c_bx += gridDim.x)"),
            "stride loop missing:\n{out}"
        );
        assert!(
            out.contains("(_c_gDim0 + _CFACTOR - 1) / _CFACTOR"),
            "{out}"
        );
        assert!(
            out.contains("child<<<_c_cgDim0, 32>>>(data, count, _c_gDim0);"),
            "{out}"
        );
        dp_frontend::parse(&out).unwrap();
    }

    #[test]
    fn body_blockidx_uses_are_replaced() {
        let mut p = dp_frontend::parse(BASIC).unwrap();
        apply(&mut p, 4);
        let child = p.function("child").unwrap();
        let mut printed = String::new();
        dp_frontend::printer::print_function(&mut printed, child);
        // The stride loop header still reads blockIdx.x/gridDim.x; the body
        // must not.
        let body_only = printed
            .split("for (")
            .nth(1)
            .unwrap()
            .split_once('{')
            .unwrap()
            .1;
        assert!(!body_only.contains("blockIdx.x"), "{printed}");
        assert!(body_only.contains("_c_bx"), "{printed}");
    }

    #[test]
    fn child_with_return_gets_body_function() {
        let src = "\
__global__ void child(int* d, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) { return; }
    d[i] = i;
}
__global__ void parent(int* d, int n) {
    child<<<(n + 63) / 64, 64>>>(d, n);
}
";
        let mut p = dp_frontend::parse(src).unwrap();
        let manifest = apply(&mut p, 16);
        assert_eq!(manifest.coarsen_sites.len(), 1);
        assert!(p.function("_child_coarsen_body").is_some());
        let out = print_program(&p);
        assert!(
            out.contains("_child_coarsen_body(d, n, _c_gDim, _c_bx);"),
            "{out}"
        );
    }

    #[test]
    fn whole_griddim_use_is_rejected() {
        let src = "\
__device__ int f(dim3 g) { return g.x; }
__global__ void child(int* d) { d[0] = f(gridDim); }
__global__ void parent(int* d, int n) {
    child<<<(n + 31) / 32, 32>>>(d);
}
";
        let mut p = dp_frontend::parse(src).unwrap();
        let before = print_program(&p);
        let manifest = apply(&mut p, 8);
        assert!(manifest.coarsen_sites.is_empty());
        assert_eq!(manifest.diagnostics.len(), 1);
        let after = print_program(&p).replace("#define _CFACTOR 8\n", "");
        assert_eq!(after.trim_start(), before.trim_start());
    }

    #[test]
    fn multi_dimensional_grid_is_rejected() {
        let src = "\
__global__ void child(int* d) { d[blockIdx.x] = blockIdx.y; }
__global__ void parent(int* d, int n) {
    child<<<dim3((n + 31) / 32, 4, 1), 32>>>(d);
}
";
        let mut p = dp_frontend::parse(src).unwrap();
        let manifest = apply(&mut p, 8);
        assert!(manifest.coarsen_sites.is_empty());
        assert_eq!(manifest.diagnostics.len(), 1);
        assert!(manifest.diagnostics[0]
            .message
            .contains("multi-dimensional"));
    }

    /// The grandchild's only launch moves into `_child_coarsen_body` when
    /// `child` is coarsened; that launch's y extent must still refuse it.
    #[test]
    fn multi_dimensional_launch_from_a_generated_body_is_rejected() {
        let src = "\
__global__ void grand(int* d) { d[blockIdx.x + blockIdx.y] = 1; }
__global__ void parent(int* d, int n) {
    child<<<(n + 31) / 32, 32>>>(d, n);
}
__global__ void child(int* d, int n) {
    if (n == 0) { return; }
    grand<<<dim3((n + 31) / 32, 2, 1), 32>>>(d);
}
";
        let mut p = dp_frontend::parse(src).unwrap();
        let manifest = apply(&mut p, 16);
        let coarsened: Vec<&str> = manifest
            .coarsen_sites
            .iter()
            .map(|s| s.child.as_str())
            .collect();
        assert_eq!(coarsened, ["child"]);
        assert_eq!(manifest.diagnostics.len(), 1);
        assert_eq!(manifest.diagnostics[0].function.as_str(), "grand");
        assert!(manifest.diagnostics[0]
            .message
            .contains("multi-dimensional"));
        let out = print_program(&p);
        assert!(out.contains("_child_coarsen_body"), "{out}");
        assert!(
            out.contains("grand<<<dim3((n + 31) / 32, 2, 1), 32>>>(d);"),
            "{out}"
        );
        assert!(out.contains("__global__ void grand(int* d) {"), "{out}");
    }

    #[test]
    fn dim3_with_unit_yz_is_accepted() {
        let src = "\
__global__ void child(int* d, int n) { if (blockIdx.x < n) { d[blockIdx.x] = 1; } }
__global__ void parent(int* d, int n) {
    child<<<dim3((n + 31) / 32, 1, 1), 32>>>(d, n);
}
";
        let mut p = dp_frontend::parse(src).unwrap();
        let manifest = apply(&mut p, 8);
        assert_eq!(manifest.coarsen_sites.len(), 1);
        let out = print_program(&p);
        assert!(out.contains("int _c_gDim0 = (n + 31) / 32;"), "{out}");
    }

    #[test]
    fn host_only_kernels_are_untouched() {
        let src = "\
__global__ void k(int* d, int n) { d[blockIdx.x] = n; }
void host_main(int* d, int n) {
    k<<<(n + 31) / 32, 32>>>(d, n);
}
";
        let mut p = dp_frontend::parse(src).unwrap();
        let manifest = apply(&mut p, 8);
        assert!(manifest.coarsen_sites.is_empty());
        let k = p.function("k").unwrap();
        assert_eq!(
            k.params.len(),
            2,
            "host-only kernel must keep its signature"
        );
    }

    #[test]
    fn multiple_sites_of_same_child_all_rewritten() {
        let src = "\
__global__ void child(int* d, int n) { d[blockIdx.x] = n; }
__global__ void parent(int* d, int n, int m) {
    child<<<(n + 31) / 32, 32>>>(d, n);
    child<<<(m + 31) / 32, 32>>>(d, m);
}
";
        let mut p = dp_frontend::parse(src).unwrap();
        let manifest = apply(&mut p, 2);
        assert_eq!(manifest.coarsen_sites.len(), 1);
        let out = print_program(&p);
        assert!(out.contains("_c_gDim0"));
        assert!(out.contains("_c_gDim1"));
    }

    #[test]
    fn launch_site_names_avoid_parent_locals() {
        let src = "\
__global__ void child(int* d, int n) { d[blockIdx.x] = n; }
__global__ void parent(int* d, int n) {
    int _c_gDim0 = n;
    int _c_cgDim0 = n + 1;
    child<<<(n + 31) / 32, 32>>>(d, _c_gDim0 + _c_cgDim0);
}
";
        let mut p = dp_frontend::parse(src).unwrap();
        apply(&mut p, 8);
        let out = print_program(&p);
        assert!(out.contains("int _c_gDim0_2 = (n + 31) / 32;"), "{out}");
        assert!(
            out.contains("child<<<_c_cgDim0_2, 32>>>(d, _c_gDim0 + _c_cgDim0, _c_gDim0_2);"),
            "{out}"
        );
    }

    #[test]
    fn name_collision_with_user_code_is_avoided() {
        let src = "\
__global__ void child(int* d, int _c_bx) { d[blockIdx.x] = _c_bx; }
__global__ void parent(int* d, int n) {
    child<<<(n + 31) / 32, 32>>>(d, n);
}
";
        let mut p = dp_frontend::parse(src).unwrap();
        apply(&mut p, 8);
        let child = p.function("child").unwrap();
        let mut printed = String::new();
        dp_frontend::printer::print_function(&mut printed, child);
        assert!(printed.contains("_c_bx_2"), "{printed}");
    }
}
