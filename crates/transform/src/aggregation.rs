//! The aggregation transformation (paper Sections II-B, V; Fig. 7).
//!
//! Child grids launched by many parent threads are combined into one
//! aggregated grid. Parent threads store their launch configurations and
//! arguments into pre-allocated buffers (the *aggregation logic*); child
//! blocks binary-search the scanned grid-dimension array to recover their
//! original parent's configuration (the *disaggregation logic*).
//!
//! Granularities:
//!
//! - **Warp** — per-warp counters; the last warp thread to finish storing
//!   performs the launch.
//! - **Block** — `__syncthreads()` then thread 0 launches (prior work /
//!   KLAP).
//! - **Multi-block** *(this paper's contribution)* — groups of
//!   `_AGG_GRANULARITY` blocks share buffers; a packed 64-bit atomic counter
//!   implements the `(numParents, sumGDim)` simultaneous increment of
//!   Fig. 7 lines 19–20; a group-wide finished-blocks counter decides which
//!   block performs the launch (lines 28–35).
//! - **Grid** — parent threads only store; the aggregated launch is
//!   performed from the host after the parent grid completes.
//!
//! The transformation hoists each launch site into "participation"
//! assignments (`_a_g = gDim; _a_b = bDim; _a_arg_j = arg_j;`) and appends a
//! uniform aggregation epilogue at the end of the parent kernel, so launches
//! guarded by data-dependent conditions work: non-participating threads
//! simply keep `_a_g == 0`. This mirrors how thresholding composes with
//! aggregation in the paper (a serialized child grid never reaches the
//! aggregation logic).

use crate::config::{AggConfig, AggGranularity};
use crate::manifest::{AggSiteMeta, BufferParam, Diagnostic, TransformManifest};
use crate::thresholding::normalize_blocks;
use crate::util::*;
use dp_frontend::ast::*;
use dp_frontend::visit::replace_builtin_member;

/// Name of the multi-block group-size macro.
pub const AGG_GRANULARITY_MACRO: &str = "_AGG_GRANULARITY";
/// Name of the aggregation-threshold macro (Section V-B).
pub const AGG_THRESHOLD_MACRO: &str = "_AGG_THRESHOLD";

/// Applies aggregation to every dynamic launch site in the program.
pub fn apply(program: &mut Program, config: &AggConfig) -> TransformManifest {
    let mut manifest = TransformManifest::new();
    if let AggGranularity::MultiBlock(n) = config.granularity {
        program.set_define(AGG_GRANULARITY_MACRO, n as i64);
    }
    let mut agg_threshold = config.agg_threshold;
    if agg_threshold.is_some() && config.granularity != AggGranularity::Block {
        manifest.diagnostics.push(Diagnostic {
            pass: "aggregation",
            function: String::new(),
            message: format!(
                "aggregation threshold requires block granularity (got {}); ignoring it",
                config.granularity
            ),
            span: dp_frontend::Span::SYNTH,
        });
        agg_threshold = None;
    }
    if let Some(t) = agg_threshold {
        program.set_define(AGG_THRESHOLD_MACRO, t);
    }

    let parent_names: Vec<String> = program
        .functions()
        .filter(|f| f.qual == FnQual::Global)
        .map(|f| f.name.clone())
        .collect();

    let mut site_counter = 0usize;
    for parent in parent_names {
        transform_parent(
            program,
            &parent,
            config.granularity,
            agg_threshold,
            &mut site_counter,
            &mut manifest,
        );
    }

    // Device-function launch sites cannot host the epilogue; report them.
    for site in dp_analysis::launch_sites(program) {
        if site.from_device {
            if let Some(f) = program.function(&site.parent) {
                if f.qual == FnQual::Device {
                    manifest.diagnostics.push(Diagnostic {
                        pass: "aggregation",
                        function: site.parent.clone(),
                        message: "launch inside a __device__ function cannot be aggregated"
                            .to_string(),
                        span: site.span,
                    });
                }
            }
        }
    }
    manifest
}

struct SiteInfo {
    id: usize,
    child: String,
    grid: Expr,
    block: Expr,
    args: Vec<Expr>,
}

fn transform_parent(
    program: &mut Program,
    parent_name: &str,
    granularity: AggGranularity,
    agg_threshold: Option<i64>,
    site_counter: &mut usize,
    manifest: &mut TransformManifest,
) {
    let Some(parent) = program.function(parent_name) else {
        return;
    };
    if !contains_launch(&parent.body) {
        return;
    }
    if contains_return(&parent.body) {
        manifest.diagnostics.push(Diagnostic {
            pass: "aggregation",
            function: parent_name.to_string(),
            message: "parent kernel uses early return; the uniform aggregation epilogue \
                      would not be reached by all threads"
                .to_string(),
            span: parent.span,
        });
        return;
    }

    // A child is read from `program` all the way down to building its
    // aggregated kernel, and a kernel that launches itself is its own
    // child: the parent is rewritten on a copy of its body, and nothing is
    // written to `program` before the last child has been read.
    let mut body = parent.body.clone();
    normalize_blocks(&mut body);

    // Replace each valid launch statement with participation assignments.
    let mut sites: Vec<SiteInfo> = Vec::new();
    for stmt in &mut body {
        replace_launches(
            stmt,
            0,
            program,
            parent_name,
            site_counter,
            &mut sites,
            manifest,
        );
    }

    // Hoisted participation variables at the top of the kernel, the
    // aggregation epilogue per site at its end, the buffer parameters
    // appended to its signature, and the aggregated child kernels.
    let mut new_body = Vec::new();
    let mut epilogue = Vec::new();
    let mut new_params = Vec::new();
    let mut agg_kernels: Vec<(&str, Function)> = Vec::new();
    for site in &sites {
        let s = site.id;
        let child_fn = program.function(&site.child).expect("validated");
        for name in ["_a_g", "_a_b"] {
            new_body.push(Stmt::decl(
                Type::Int,
                format!("{name}{s}"),
                Some(Expr::int(0, CodeOrigin::AggLogic)),
                CodeOrigin::AggLogic,
            ));
        }
        let mut buffer_params = Vec::new();
        for (j, param) in child_fn.params.iter().enumerate() {
            new_body.push(Stmt::decl(
                param.ty.clone(),
                format!("_a_arg{s}_{j}"),
                None,
                CodeOrigin::AggLogic,
            ));
            new_params.push(Param {
                ty: param.ty.clone().ptr_to(),
                name: format!("_a_arr{s}_{j}"),
            });
            buffer_params.push(BufferParam::ArgArray {
                index: j,
                ty: param.ty.clone(),
            });
        }
        epilogue.extend(build_epilogue(site, child_fn, granularity, agg_threshold));

        let mut buffer = |ty: Type, name: &str, kind: BufferParam| {
            new_params.push(Param {
                ty,
                name: format!("{name}{s}"),
            });
            buffer_params.push(kind);
        };
        buffer(Type::Int.ptr_to(), "_a_scan", BufferParam::GDimScanned);
        buffer(Type::Int.ptr_to(), "_a_bArr", BufferParam::BDimArray);
        buffer(Type::Long.ptr_to(), "_a_ctr", BufferParam::PackedCounter);
        buffer(Type::Int.ptr_to(), "_a_maxB", BufferParam::MaxBDim);
        if matches!(
            granularity,
            AggGranularity::Warp | AggGranularity::MultiBlock(_)
        ) {
            buffer(Type::Int.ptr_to(), "_a_fin", BufferParam::FinishedCounter);
        }
        if agg_threshold.is_some() {
            buffer(
                Type::Int.ptr_to(),
                "_a_part",
                BufferParam::ParticipantCounter,
            );
        }
        buffer(Type::Int, "_a_slots", BufferParam::SlotsPerGroup);

        // Generate the aggregated child kernel (once per child).
        let agg_kernel = format!("{}_agg", site.child);
        if program.function(&agg_kernel).is_none()
            && !agg_kernels.iter().any(|(_, k)| k.name == agg_kernel)
        {
            agg_kernels.push((&site.child, build_agg_child(&agg_kernel, child_fn)));
        }

        manifest.agg_sites.push(AggSiteMeta {
            parent: parent_name.to_string(),
            child: site.child.clone(),
            agg_kernel,
            granularity,
            buffer_params,
            host_side_launch: granularity == AggGranularity::Grid,
        });
    }
    for h in &mut new_body {
        h.origin = CodeOrigin::AggLogic;
    }
    new_body.extend(body);
    new_body.extend(epilogue);

    let parent = program.function_mut(parent_name).expect("parent exists");
    parent.body = new_body;
    parent.params.extend(new_params);
    for (child, kernel) in agg_kernels {
        let pos = program
            .items
            .iter()
            .position(|item| matches!(item, Item::Function(f) if f.name == child))
            .map(|p| p + 1)
            .unwrap_or(program.items.len());
        program.items.insert(pos, Item::Function(kernel));
    }
}

/// Recursively replaces valid launch statements with participation
/// assignments, collecting site info. `loop_depth` tracks whether we are
/// under a loop (launches in loops cannot be aggregated: a thread would
/// participate more than once per kernel execution).
fn replace_launches(
    stmt: &mut Stmt,
    loop_depth: usize,
    program: &Program,
    parent_name: &str,
    site_counter: &mut usize,
    sites: &mut Vec<SiteInfo>,
    manifest: &mut TransformManifest,
) {
    match &mut stmt.kind {
        StmtKind::Block(stmts) => {
            for s in stmts {
                replace_launches(
                    s,
                    loop_depth,
                    program,
                    parent_name,
                    site_counter,
                    sites,
                    manifest,
                );
            }
            return;
        }
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            replace_launches(
                then_branch,
                loop_depth,
                program,
                parent_name,
                site_counter,
                sites,
                manifest,
            );
            if let Some(e) = else_branch {
                replace_launches(
                    e,
                    loop_depth,
                    program,
                    parent_name,
                    site_counter,
                    sites,
                    manifest,
                );
            }
            return;
        }
        StmtKind::For { body, .. }
        | StmtKind::While { body, .. }
        | StmtKind::DoWhile { body, .. } => {
            replace_launches(
                body,
                loop_depth + 1,
                program,
                parent_name,
                site_counter,
                sites,
                manifest,
            );
            return;
        }
        StmtKind::Launch(_) => {}
        _ => return,
    }

    let StmtKind::Launch(launch) = &stmt.kind else {
        unreachable!()
    };
    let span = stmt.span;
    if let Err(message) = validate_site(program, launch, loop_depth) {
        manifest.diagnostics.push(Diagnostic {
            pass: "aggregation",
            function: parent_name.to_string(),
            message,
            span,
        });
        return;
    }

    let id = *site_counter;
    *site_counter += 1;
    let info = SiteInfo {
        id,
        child: launch.kernel.clone(),
        grid: one_dimensional(&launch.grid),
        block: one_dimensional(&launch.block),
        args: launch.args.clone(),
    };

    // `{ _a_gS = grid; _a_bS = block; _a_argS_j = arg_j; ... }`
    let mut stmts = Vec::new();
    stmts.push(Stmt::expr(
        Expr::assign(
            Expr::ident(format!("_a_g{id}"), CodeOrigin::AggLogic),
            info.grid.clone(),
            CodeOrigin::AggLogic,
        ),
        CodeOrigin::AggLogic,
    ));
    stmts.push(Stmt::expr(
        Expr::assign(
            Expr::ident(format!("_a_b{id}"), CodeOrigin::AggLogic),
            info.block.clone(),
            CodeOrigin::AggLogic,
        ),
        CodeOrigin::AggLogic,
    ));
    for (j, arg) in info.args.iter().enumerate() {
        stmts.push(Stmt::expr(
            Expr::assign(
                Expr::ident(format!("_a_arg{id}_{j}"), CodeOrigin::AggLogic),
                arg.clone(),
                CodeOrigin::AggLogic,
            ),
            CodeOrigin::AggLogic,
        ));
    }
    stmt.kind = StmtKind::Block(stmts);
    stmt.origin = CodeOrigin::AggLogic;
    sites.push(info);
}

fn validate_site(program: &Program, launch: &LaunchStmt, loop_depth: usize) -> Result<(), String> {
    if loop_depth > 0 {
        return Err(
            "launch inside a loop cannot be aggregated (a parent thread would \
                    participate multiple times)"
                .to_string(),
        );
    }
    let Some(child) = program.function(&launch.kernel) else {
        return Err(format!("child kernel `{}` is not defined", launch.kernel));
    };
    if child.params.len() != launch.args.len() {
        return Err(format!(
            "launch passes {} arguments but `{}` takes {}",
            launch.args.len(),
            launch.kernel,
            child.params.len()
        ));
    }
    if !is_one_dimensional(&launch.grid) || !is_one_dimensional(&launch.block) {
        return Err("aggregation supports only 1-D launch configurations".to_string());
    }
    for base in ["gridDim", "blockDim"] {
        if uses_builtin_whole(&child.body, base) {
            return Err(format!("child uses `{base}` as a whole value"));
        }
    }
    for base in ["gridDim", "blockDim", "blockIdx", "threadIdx"] {
        for field in ["y", "z"] {
            if uses_builtin_member(&child.body, base, field) {
                return Err(format!(
                    "child uses `{base}.{field}`; aggregation rebinds only the x dimension"
                ));
            }
        }
    }
    Ok(())
}

fn is_one_dimensional(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Dim3Ctor(args) => args
            .iter()
            .skip(1)
            .all(|a| matches!(a.kind, ExprKind::IntLit(1))),
        _ => true,
    }
}

fn one_dimensional(e: &Expr) -> Expr {
    match &e.kind {
        ExprKind::Dim3Ctor(args) => args[0].clone(),
        _ => e.clone(),
    }
}

/// Builds the per-site aggregation epilogue appended to the parent kernel.
fn build_epilogue(
    site: &SiteInfo,
    child_fn: &Function,
    granularity: AggGranularity,
    agg_threshold: Option<i64>,
) -> Vec<Stmt> {
    let s = site.id;
    let group_expr = match granularity {
        AggGranularity::Warp => {
            "blockIdx.x * ((blockDim.x + 31) / 32) + threadIdx.x / 32".to_string()
        }
        AggGranularity::Block => "blockIdx.x".to_string(),
        AggGranularity::MultiBlock(_) => format!("blockIdx.x / {AGG_GRANULARITY_MACRO}"),
        AggGranularity::Grid => "0".to_string(),
    };

    let arg_stores: String = (0..child_fn.params.len())
        .map(|j| format!("_a_arr{s}_{j}[_a_base{s} + _a_pi{s}] = _a_arg{s}_{j};\n"))
        .collect();

    let store_phase = format!(
        "if (_a_g{s} > 0) {{
             long long _a_pk{s} = atomicAdd(&_a_ctr{s}[_a_grp{s}], ((long long)1 << 32) + (long long)_a_g{s});
             int _a_pi{s} = (int)(_a_pk{s} >> 32);
             int _a_sp{s} = (int)(_a_pk{s} & 4294967295);
             {arg_stores}
             _a_scan{s}[_a_base{s} + _a_pi{s}] = _a_sp{s} + _a_g{s};
             _a_bArr{s}[_a_base{s} + _a_pi{s}] = _a_b{s};
             atomicMax(&_a_maxB{s}[_a_grp{s}], _a_b{s});
         }}"
    );

    let agg_args: String = (0..child_fn.params.len())
        .map(|j| format!("_a_arr{s}_{j} + _a_base{s}, "))
        .collect();
    let agg_launch = format!(
        "{child}_agg<<<_a_tot{s}, _a_maxB{s}[_a_grp{s}]>>>({agg_args}_a_scan{s} + _a_base{s}, _a_bArr{s} + _a_base{s}, _a_np{s});",
        child = site.child
    );
    let read_and_launch = format!(
        "long long _a_pkf{s} = _a_ctr{s}[_a_grp{s}];
         int _a_np{s} = (int)(_a_pkf{s} >> 32);
         int _a_tot{s} = (int)(_a_pkf{s} & 4294967295);
         if (_a_np{s} > 0) {{
             {agg_launch}
         }}"
    );

    let completion = match granularity {
        AggGranularity::Warp => format!(
            "__threadfence();
             int _a_fn{s} = atomicAdd(&_a_fin{s}[_a_grp{s}], 1) + 1;
             int _a_wsz{s} = min(32, blockDim.x - (threadIdx.x / 32) * 32);
             if (_a_fn{s} == _a_wsz{s}) {{
                 {read_and_launch}
             }}"
        ),
        AggGranularity::Block => format!(
            "__syncthreads();
             if (threadIdx.x == 0) {{
                 {read_and_launch}
             }}"
        ),
        AggGranularity::MultiBlock(_) => format!(
            "__threadfence();
             __syncthreads();
             if (threadIdx.x == 0) {{
                 int _a_nfb{s} = atomicAdd(&_a_fin{s}[_a_grp{s}], 1) + 1;
                 int _a_gb{s} = min({AGG_GRANULARITY_MACRO}, gridDim.x - _a_grp{s} * {AGG_GRANULARITY_MACRO});
                 if (_a_nfb{s} == _a_gb{s}) {{
                     {read_and_launch}
                 }}
             }}"
        ),
        AggGranularity::Grid => String::new(),
    };

    let body = if agg_threshold.is_some() {
        // Section V-B: count participants first; aggregate only when enough
        // parent threads participate, otherwise launch directly.
        let direct_args = args_list(site);
        format!(
            "int _a_grp{s} = {group_expr};
             int _a_base{s} = _a_grp{s} * _a_slots{s};
             if (_a_g{s} > 0) {{
                 atomicAdd(&_a_part{s}[_a_grp{s}], 1);
             }}
             __syncthreads();
             if (_a_part{s}[_a_grp{s}] >= {AGG_THRESHOLD_MACRO}) {{
                 {store_phase}
                 {completion}
             }} else {{
                 if (_a_g{s} > 0) {{
                     {child}<<<_a_g{s}, _a_b{s}>>>({direct_args});
                 }}
             }}",
            child = site.child
        )
    } else {
        format!(
            "int _a_grp{s} = {group_expr};
             int _a_base{s} = _a_grp{s} * _a_slots{s};
             {store_phase}
             {completion}"
        )
    };

    let mut stmts = parse_template_stmts(&body);
    tag_origin(&mut stmts, CodeOrigin::AggLogic);
    stmts
}

fn args_list(site: &SiteInfo) -> String {
    (0..site.args.len())
        .map(|j| format!("_a_arg{}_{j}", site.id))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Builds the aggregated child kernel with the disaggregation prologue
/// (Fig. 7 lines 01–11).
fn build_agg_child(name: &str, child_fn: &Function) -> Function {
    let arr_params: String = child_fn
        .params
        .iter()
        .enumerate()
        .map(|(j, p)| format!("{}* _da_arr{j}, ", p.ty))
        .collect();
    let param_loads: String = child_fn
        .params
        .iter()
        .enumerate()
        .map(|(j, p)| format!("{} {} = _da_arr{j}[_da_pi];\n", p.ty, p.name))
        .collect();

    let src = format!(
        "__global__ void {name}({arr_params}int* _da_scan, int* _da_bArr, int _da_np) {{
             int _da_lo = 0;
             int _da_hi = _da_np - 1;
             while (_da_lo < _da_hi) {{
                 int _da_mid = (_da_lo + _da_hi) / 2;
                 if (_da_scan[_da_mid] > blockIdx.x) {{
                     _da_hi = _da_mid;
                 }} else {{
                     _da_lo = _da_mid + 1;
                 }}
             }}
             int _da_pi = _da_lo;
             int _da_prev = 0;
             if (_da_pi > 0) {{
                 _da_prev = _da_scan[_da_pi - 1];
             }}
             {param_loads}
             int _da_gd = _da_scan[_da_pi] - _da_prev;
             int _da_bx = blockIdx.x - _da_prev;
             int _da_bd = _da_bArr[_da_pi];
             if (threadIdx.x < _da_bd) {{
                 {BODY_MARKER}();
             }}
         }}"
    );
    let program = dp_frontend::parse(&src)
        .unwrap_or_else(|e| panic!("internal agg-child template failed: {e}\n{src}"));
    let Item::Function(mut kernel) = program.items.into_iter().next().unwrap() else {
        unreachable!()
    };
    tag_origin(&mut kernel.body, CodeOrigin::DisaggLogic);

    // Child body with x-dimension builtins rebound to the disaggregated
    // values (body keeps its own origin tags).
    let mut body = child_fn.body.clone();
    for stmt in &mut body {
        replace_builtin_member(stmt, "blockIdx", "x", "_da_bx");
        replace_builtin_member(stmt, "gridDim", "x", "_da_gd");
        replace_builtin_member(stmt, "blockDim", "x", "_da_bd");
    }
    assert!(splice_body(&mut kernel.body, body));
    kernel
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

    fn apply_gran(src: &str, granularity: AggGranularity) -> (Program, TransformManifest) {
        let mut p = dp_frontend::parse(src).unwrap();
        let m = apply(&mut p, &AggConfig::new(granularity));
        (p, m)
    }

    #[test]
    fn multiblock_generates_fig7_structure() {
        let (p, m) = apply_gran(BASIC, AggGranularity::MultiBlock(4));
        assert_eq!(m.agg_sites.len(), 1);
        let site = &m.agg_sites[0];
        assert_eq!(site.agg_kernel, "child_agg");
        assert!(!site.host_side_launch);
        assert_eq!(p.define("_AGG_GRANULARITY"), Some(4));

        let out = print_program(&p);
        assert!(out.contains("blockIdx.x / _AGG_GRANULARITY"), "{out}");
        assert!(out.contains("atomicAdd(&_a_ctr0[_a_grp0]"), "{out}");
        assert!(out.contains("atomicMax(&_a_maxB0[_a_grp0]"), "{out}");
        assert!(out.contains("__threadfence()"), "{out}");
        assert!(out.contains("__syncthreads()"), "{out}");
        assert!(out.contains("child_agg<<<"), "{out}");
        dp_frontend::parse(&out).unwrap();
    }

    #[test]
    fn agg_child_has_binary_search_and_guard() {
        let (p, _) = apply_gran(BASIC, AggGranularity::Block);
        let agg = p.function("child_agg").unwrap();
        let mut printed = String::new();
        dp_frontend::printer::print_function(&mut printed, agg);
        assert!(printed.contains("while (_da_lo < _da_hi)"), "{printed}");
        assert!(printed.contains("if (threadIdx.x < _da_bd)"), "{printed}");
        assert!(printed.contains("int n = _da_arr1[_da_pi];"), "{printed}");
        // Body rebinds blockIdx.x.
        assert!(
            printed.contains("_da_bx * _da_bd + threadIdx.x"),
            "{printed}"
        );
    }

    #[test]
    fn parent_gains_buffer_params_in_manifest_order() {
        let (p, m) = apply_gran(BASIC, AggGranularity::MultiBlock(8));
        let parent = p.function("parent").unwrap();
        let site = &m.agg_sites[0];
        // original 3 + 2 arg arrays + scan + bArr + ctr + maxB + fin + slots
        assert_eq!(parent.params.len(), 3 + site.buffer_params.len());
        assert!(matches!(
            site.buffer_params[0],
            BufferParam::ArgArray { index: 0, .. }
        ));
        assert!(matches!(
            site.buffer_params.last(),
            Some(BufferParam::SlotsPerGroup)
        ));
        assert!(site
            .buffer_params
            .iter()
            .any(|b| matches!(b, BufferParam::FinishedCounter)));
    }

    #[test]
    fn block_granularity_uses_syncthreads_no_fence() {
        let (p, _) = apply_gran(BASIC, AggGranularity::Block);
        let out = print_program(&p);
        assert!(out.contains("__syncthreads()"));
        assert!(!out.contains("__threadfence()"));
        assert!(out.contains("if (threadIdx.x == 0)"));
    }

    #[test]
    fn warp_granularity_uses_warp_counters() {
        let (p, m) = apply_gran(BASIC, AggGranularity::Warp);
        let out = print_program(&p);
        assert!(out.contains("threadIdx.x / 32"), "{out}");
        assert!(
            out.contains("min(32, blockDim.x - threadIdx.x / 32 * 32)"),
            "{out}"
        );
        assert!(m.agg_sites[0]
            .buffer_params
            .iter()
            .any(|b| matches!(b, BufferParam::FinishedCounter)));
    }

    #[test]
    fn grid_granularity_defers_launch_to_host() {
        let (p, m) = apply_gran(BASIC, AggGranularity::Grid);
        assert!(m.agg_sites[0].host_side_launch);
        let out = print_program(&p);
        // Parent stores but never launches the aggregated child.
        assert!(!out.contains("child_agg<<<"), "{out}");
        assert!(p.function("child_agg").is_some());
    }

    #[test]
    fn aggregation_threshold_adds_direct_path() {
        let mut p = dp_frontend::parse(BASIC).unwrap();
        let m = apply(
            &mut p,
            &AggConfig {
                granularity: AggGranularity::Block,
                agg_threshold: Some(16),
            },
        );
        assert_eq!(p.define("_AGG_THRESHOLD"), Some(16));
        let out = print_program(&p);
        assert!(out.contains("_a_part0"), "{out}");
        assert!(out.contains(">= _AGG_THRESHOLD"), "{out}");
        // Direct (non-aggregated) fallback launch of the original child.
        assert!(
            out.contains("child<<<_a_g0, _a_b0>>>(_a_arg0_0, _a_arg0_1);"),
            "{out}"
        );
        assert!(m.agg_sites[0]
            .buffer_params
            .iter()
            .any(|b| matches!(b, BufferParam::ParticipantCounter)));
    }

    #[test]
    fn threshold_with_non_block_granularity_is_ignored() {
        let mut p = dp_frontend::parse(BASIC).unwrap();
        let m = apply(
            &mut p,
            &AggConfig {
                granularity: AggGranularity::Grid,
                agg_threshold: Some(16),
            },
        );
        assert!(m
            .diagnostics
            .iter()
            .any(|d| d.message.contains("requires block")));
        assert_eq!(p.define("_AGG_THRESHOLD"), None);
    }

    #[test]
    fn parent_with_return_is_skipped() {
        let src = "\
__global__ void child(int* d, int n) { d[0] = n; }
__global__ void parent(int* d, int n) {
    int v = blockIdx.x;
    if (v >= n) { return; }
    child<<<(n + 31) / 32, 32>>>(d, n);
}
";
        let (p, m) = apply_gran(src, AggGranularity::Block);
        assert!(m.agg_sites.is_empty());
        assert!(m
            .diagnostics
            .iter()
            .any(|d| d.message.contains("early return")));
        assert!(p.function("child_agg").is_none());
    }

    #[test]
    fn launch_in_loop_is_skipped() {
        let src = "\
__global__ void child(int* d, int n) { d[0] = n; }
__global__ void parent(int* d, int n) {
    for (int i = 0; i < n; ++i) {
        child<<<(i + 31) / 32, 32>>>(d, i);
    }
}
";
        let (_, m) = apply_gran(src, AggGranularity::Block);
        assert!(m.agg_sites.is_empty());
        assert!(m
            .diagnostics
            .iter()
            .any(|d| d.message.contains("inside a loop")));
    }

    #[test]
    fn child_using_y_dimension_is_skipped() {
        let src = "\
__global__ void child(int* d) { d[blockIdx.x] = threadIdx.y; }
__global__ void parent(int* d, int n) {
    child<<<(n + 31) / 32, 32>>>(d);
}
";
        let (_, m) = apply_gran(src, AggGranularity::Block);
        assert!(m.agg_sites.is_empty());
        assert!(m
            .diagnostics
            .iter()
            .any(|d| d.message.contains("threadIdx.y")));
    }

    #[test]
    fn two_sites_in_one_parent_get_distinct_buffers() {
        let src = "\
__global__ void child(int* d, int n) { d[blockIdx.x] = n; }
__global__ void parent(int* d, int n, int m) {
    if (n > 0) {
        child<<<(n + 31) / 32, 32>>>(d, n);
    }
    if (m > 0) {
        child<<<(m + 31) / 32, 32>>>(d, m);
    }
}
";
        let (p, m) = apply_gran(src, AggGranularity::Block);
        assert_eq!(m.agg_sites.len(), 2);
        let out = print_program(&p);
        assert!(out.contains("_a_ctr0"));
        assert!(out.contains("_a_ctr1"));
        // One shared aggregated child kernel.
        assert_eq!(p.functions().filter(|f| f.name == "child_agg").count(), 1);
    }

    #[test]
    fn output_reparses() {
        for g in [
            AggGranularity::Warp,
            AggGranularity::Block,
            AggGranularity::MultiBlock(8),
            AggGranularity::Grid,
        ] {
            let (p, _) = apply_gran(BASIC, g);
            let out = print_program(&p);
            dp_frontend::parse(&out).unwrap_or_else(|e| panic!("{g}: {}", e.render(&out)));
        }
    }
}
