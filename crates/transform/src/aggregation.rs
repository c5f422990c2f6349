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
use std::collections::HashSet;

/// Name of the multi-block group-size macro.
pub(crate) const AGG_GRANULARITY_MACRO: &str = "_AGG_GRANULARITY";
/// Name of the aggregation-threshold macro (Section V-B).
pub(crate) const AGG_THRESHOLD_MACRO: &str = "_AGG_THRESHOLD";

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
            function: Name::EMPTY,
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

    let parent_names: Vec<Name> = program
        .functions()
        .filter(|f| f.qual == FnQual::Global)
        .map(|f| f.name.clone())
        .collect();

    let mut site_counter = 0usize;
    let mut agg_kernels = AggKernels {
        taken: function_names(program),
        of_child: Vec::new(),
    };
    for parent in parent_names {
        transform_parent(
            program,
            &parent,
            config.granularity,
            agg_threshold,
            &mut site_counter,
            &mut agg_kernels,
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

/// The aggregated kernels the pass has generated: two sites that launch
/// the same child, in one parent or in two, share one.
struct AggKernels {
    /// Every function name in the program or generated: an aggregated
    /// kernel is named fresh against these.
    taken: HashSet<Name>,
    /// Each aggregated child, with the name of its aggregated kernel.
    of_child: Vec<(Name, Name)>,
}

/// One aggregated launch site: its number in the program, the kernel it
/// launched, how many arguments it passed, and the identifiers of its
/// parent, which no name it generates there may take.
struct SiteInfo<'p> {
    id: usize,
    child: Name,
    args: usize,
    used: &'p HashSet<&'p str>,
}

impl SiteInfo<'_> {
    /// The name `base` takes at this site: `_a_g` is `_a_g3` at site 3.
    fn name(&self, base: &str) -> Name {
        fresh_name(Name::from_fmt(format_args!("{base}{}", self.id)), self.used)
    }

    /// The name of argument `j`'s variable or buffer at this site.
    fn arg(&self, base: &str, j: usize) -> Name {
        fresh_name(
            Name::from_fmt(format_args!("{base}{}_{j}", self.id)),
            self.used,
        )
    }
}

/// What [`replace_launches`] carries through one parent's body.
struct Walk<'p> {
    program: &'p Program,
    parent: &'p str,
    used: &'p HashSet<&'p str>,
    next_id: usize,
    sites: Vec<SiteInfo<'p>>,
    diagnostics: Vec<Diagnostic>,
}

fn transform_parent(
    program: &mut Program,
    parent_name: &str,
    granularity: AggGranularity,
    agg_threshold: Option<i64>,
    site_counter: &mut usize,
    agg_kernels: &mut AggKernels,
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
            function: Name::new(parent_name),
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
    let used = idents_in_function(parent);
    let mut walk = Walk {
        program,
        parent: parent_name,
        used: &used,
        next_id: *site_counter,
        sites: Vec::new(),
        diagnostics: Vec::new(),
    };
    for stmt in &mut body {
        replace_launches(stmt, 0, &mut walk);
    }
    *site_counter = walk.next_id;
    manifest.diagnostics.append(&mut walk.diagnostics);

    // Hoisted participation variables at the top of the kernel, the
    // aggregation epilogue per site at its end, the buffer parameters
    // appended to its signature, and the aggregated child kernels.
    let mut new_body = Vec::new();
    let mut epilogue = Vec::new();
    let mut new_params = Vec::new();
    let mut new_kernels: Vec<(Name, Function)> = Vec::new();
    for site in &walk.sites {
        let child_fn = program.function(&site.child).expect("validated");
        // The aggregated child kernel, generated once per child.
        let agg_kernel = match agg_kernels.of_child.iter().find(|(c, _)| *c == site.child) {
            Some((_, kernel)) => kernel.clone(),
            None => {
                let base = Name::from_fmt(format_args!("{}_agg", site.child));
                let name = claim_fresh_name(base, &mut agg_kernels.taken);
                new_kernels.push((site.child.clone(), build_agg_child(name.clone(), child_fn)));
                agg_kernels
                    .of_child
                    .push((site.child.clone(), name.clone()));
                name
            }
        };
        for name in ["_a_g", "_a_b"] {
            new_body.push(Stmt::decl(
                Type::Int,
                site.name(name),
                Some(Expr::int(0, CodeOrigin::AggLogic)),
                CodeOrigin::AggLogic,
            ));
        }
        let mut buffer_params = Vec::new();
        for (j, p) in child_fn.params.iter().enumerate() {
            let arg = site.arg("_a_arg", j);
            new_body.push(Stmt::decl(p.ty.clone(), arg, None, CodeOrigin::AggLogic));
            new_params.push(param(p.ty.clone().ptr_to(), &site.arg("_a_arr", j)));
            buffer_params.push(BufferParam::ArgArray {
                index: j,
                ty: p.ty.clone(),
            });
        }
        epilogue.extend(build_epilogue(
            site,
            &agg_kernel,
            granularity,
            agg_threshold,
        ));

        let mut buffer = |ty: Type, name: &str, kind: BufferParam| {
            new_params.push(param(ty, &site.name(name)));
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

        manifest.agg_sites.push(AggSiteMeta {
            parent: Name::new(parent_name),
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
    for (child, kernel) in new_kernels {
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
fn replace_launches(stmt: &mut Stmt, loop_depth: usize, walk: &mut Walk) {
    match &mut stmt.kind {
        StmtKind::Block(stmts) => {
            for s in stmts {
                replace_launches(s, loop_depth, walk);
            }
            return;
        }
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            replace_launches(then_branch, loop_depth, walk);
            if let Some(e) = else_branch {
                replace_launches(e, loop_depth, walk);
            }
            return;
        }
        StmtKind::For { body, .. }
        | StmtKind::While { body, .. }
        | StmtKind::DoWhile { body, .. } => {
            replace_launches(body, loop_depth + 1, walk);
            return;
        }
        StmtKind::Launch(launch) => {
            if let Err(message) = validate_site(walk.program, launch, loop_depth) {
                walk.diagnostics.push(Diagnostic {
                    pass: "aggregation",
                    function: Name::new(walk.parent),
                    message,
                    span: stmt.span,
                });
                return;
            }
        }
        _ => return,
    }

    let StmtKind::Launch(launch) = std::mem::replace(&mut stmt.kind, StmtKind::Empty) else {
        unreachable!("matched above")
    };
    let site = SiteInfo {
        id: walk.next_id,
        child: launch.kernel,
        args: launch.args.len(),
        used: walk.used,
    };
    walk.next_id += 1;

    // `{ _a_gS = grid; _a_bS = block; _a_argS_j = arg_j; ... }`
    let a = Gen(CodeOrigin::AggLogic);
    let mut stmts = vec![
        a.set(a.id(&site.name("_a_g")), one_dimensional(launch.grid)),
        a.set(a.id(&site.name("_a_b")), one_dimensional(launch.block)),
    ];
    for (j, arg) in launch.args.into_iter().enumerate() {
        stmts.push(a.set(a.id(&site.arg("_a_arg", j)), arg));
    }
    stmt.kind = StmtKind::Block(stmts);
    stmt.origin = CodeOrigin::AggLogic;
    walk.sites.push(site);
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

/// Builds the per-site aggregation epilogue appended to the parent kernel
/// (Fig. 7 lines 12–35): store this thread's launch, then let the group's
/// last thread launch the aggregated child.
fn build_epilogue(
    site: &SiteInfo,
    agg_kernel: &Name,
    granularity: AggGranularity,
    agg_threshold: Option<i64>,
) -> Vec<Stmt> {
    use BinOp::{Add, BitAnd, Div, Eq, Ge, Gt, Mul, Shl, Shr, Sub};
    let a = Gen(CodeOrigin::AggLogic);
    let [g, b, grp, base, pk, pi, sp, pkf, np, tot] = [
        "_a_g", "_a_b", "_a_grp", "_a_base", "_a_pk", "_a_pi", "_a_sp", "_a_pkf", "_a_np", "_a_tot",
    ]
    .map(|n| site.name(n));
    let [scan, barr, ctr, maxb, fin, part, slots] = [
        "_a_scan", "_a_bArr", "_a_ctr", "_a_maxB", "_a_fin", "_a_part", "_a_slots",
    ]
    .map(|n| site.name(n));
    let arrs: Vec<Name> = (0..site.args).map(|j| site.arg("_a_arr", j)).collect();

    let group = match granularity {
        AggGranularity::Warp => {
            let warps = a.bin(
                Div,
                a.bin(Add, a.dot("blockDim", "x"), a.int(31)),
                a.int(32),
            );
            let warp = a.bin(Div, a.dot("threadIdx", "x"), a.int(32));
            a.bin(Add, a.bin(Mul, a.dot("blockIdx", "x"), warps), warp)
        }
        AggGranularity::Block => a.dot("blockIdx", "x"),
        AggGranularity::MultiBlock(_) => {
            a.bin(Div, a.dot("blockIdx", "x"), a.id(AGG_GRANULARITY_MACRO))
        }
        AggGranularity::Grid => a.int(0),
    };
    // `&buffer[_a_grp]`, `buffer[_a_base + _a_pi]`, and the two halves of
    // a packed `(numParents, sumGDim)` counter.
    let of_group = |buffer: &str| a.addr(a.index(buffer, a.id(&grp)));
    let at_slot = |buffer: &str| a.index(buffer, a.bin(Add, a.id(&base), a.id(&pi)));
    let high = |packed: &str| a.cast(Type::Int, a.bin(Shr, a.id(packed), a.int(32)));
    let low = |packed: &str| a.cast(Type::Int, a.bin(BitAnd, a.id(packed), a.int(4294967295)));
    let participates = || a.bin(Gt, a.id(&g), a.int(0));
    let sync = || a.expr(a.call("__syncthreads", vec![]));
    let fence = || a.expr(a.call("__threadfence", vec![]));
    let finished = || {
        a.bin(
            Add,
            a.call("atomicAdd", vec![of_group(&fin), a.int(1)]),
            a.int(1),
        )
    };
    let thread_zero = || a.bin(Eq, a.dot("threadIdx", "x"), a.int(0));

    // Fig. 7 lines 19–20: one atomic adds 1 to numParents and _a_g to sumGDim.
    let one_and_g = a.bin(
        Add,
        a.bin(Shl, a.cast(Type::Long, a.int(1)), a.int(32)),
        a.cast(Type::Long, a.id(&g)),
    );
    let mut store = vec![
        a.decl(
            Type::Long,
            &pk,
            a.call("atomicAdd", vec![of_group(&ctr), one_and_g]),
        ),
        a.decl(Type::Int, &pi, high(&pk)),
        a.decl(Type::Int, &sp, low(&pk)),
    ];
    for (j, arr) in arrs.iter().enumerate() {
        store.push(a.set(at_slot(arr), a.id(&site.arg("_a_arg", j))));
    }
    store.push(a.set(at_slot(&scan), a.bin(Add, a.id(&sp), a.id(&g))));
    store.push(a.set(at_slot(&barr), a.id(&b)));
    store.push(a.expr(a.call("atomicMax", vec![of_group(&maxb), a.id(&b)])));
    let store_phase = a.if_(participates(), store);

    let mut agg_args: Vec<Expr> = (arrs.iter().chain([&scan, &barr]))
        .map(|buffer| a.bin(Add, a.id(buffer), a.id(&base)))
        .collect();
    agg_args.push(a.id(&np));
    let agg_launch = a.launch(
        agg_kernel.clone(),
        a.id(&tot),
        a.index(&maxb, a.id(&grp)),
        agg_args,
    );
    let read_and_launch = vec![
        a.decl(Type::Long, &pkf, a.index(&ctr, a.id(&grp))),
        a.decl(Type::Int, &np, high(&pkf)),
        a.decl(Type::Int, &tot, low(&pkf)),
        a.if_(a.bin(Gt, a.id(&np), a.int(0)), vec![agg_launch]),
    ];

    let completion = match granularity {
        AggGranularity::Warp => {
            let [done, lanes] = ["_a_fn", "_a_wsz"].map(|n| site.name(n));
            let warp_start = a.bin(
                Mul,
                a.bin(Div, a.dot("threadIdx", "x"), a.int(32)),
                a.int(32),
            );
            let width = a.bin(Sub, a.dot("blockDim", "x"), warp_start);
            vec![
                fence(),
                a.decl(Type::Int, &done, finished()),
                a.decl(Type::Int, &lanes, a.call("min", vec![a.int(32), width])),
                a.if_(a.bin(Eq, a.id(&done), a.id(&lanes)), read_and_launch),
            ]
        }
        AggGranularity::Block => vec![sync(), a.if_(thread_zero(), read_and_launch)],
        AggGranularity::MultiBlock(_) => {
            let [done, blocks] = ["_a_nfb", "_a_gb"].map(|n| site.name(n));
            let group_start = a.bin(Mul, a.id(&grp), a.id(AGG_GRANULARITY_MACRO));
            let rest = a.bin(Sub, a.dot("gridDim", "x"), group_start);
            let last_block = vec![
                a.decl(Type::Int, &done, finished()),
                a.decl(
                    Type::Int,
                    &blocks,
                    a.call("min", vec![a.id(AGG_GRANULARITY_MACRO), rest]),
                ),
                a.if_(a.bin(Eq, a.id(&done), a.id(&blocks)), read_and_launch),
            ];
            vec![fence(), sync(), a.if_(thread_zero(), last_block)]
        }
        AggGranularity::Grid => Vec::new(),
    };

    let mut stmts = vec![
        a.decl(Type::Int, &grp, group),
        a.decl(Type::Int, &base, a.bin(Mul, a.id(&grp), a.id(&slots))),
    ];
    let mut aggregate = vec![store_phase];
    aggregate.extend(completion);
    if agg_threshold.is_some() {
        // Section V-B: count participants first; aggregate only when enough
        // parent threads participate, otherwise launch directly.
        let count = a.expr(a.call("atomicAdd", vec![of_group(&part), a.int(1)]));
        let enough = a.bin(Ge, a.index(&part, a.id(&grp)), a.id(AGG_THRESHOLD_MACRO));
        let args = (0..site.args)
            .map(|j| a.id(&site.arg("_a_arg", j)))
            .collect();
        let direct = a.launch(site.child.clone(), a.id(&g), a.id(&b), args);
        let direct = vec![a.if_(participates(), vec![direct])];
        stmts.extend([
            a.if_(participates(), vec![count]),
            sync(),
            a.if_else(enough, aggregate, direct),
        ]);
    } else {
        stmts.extend(aggregate);
    }
    stmts
}

/// Builds the aggregated child kernel with the disaggregation prologue
/// (Fig. 7 lines 01–11): a binary search of the scanned grid dimensions
/// finds the parent whose launch this block belongs to, and the child's
/// parameters and x-dimension builtins are rebound to that launch's.
fn build_agg_child(name: Name, child_fn: &Function) -> Function {
    use BinOp::{Add, Div, Gt, Lt, Sub};
    let d = Gen(CodeOrigin::DisaggLogic);
    // The kernel is the child's parameters and body under generated
    // names: each must be fresh against the child.
    let used = idents_in_function(child_fn);
    let [lo, hi, mid, pi, prev, gd, bx, bd, scan, barr, np] = [
        "_da_lo", "_da_hi", "_da_mid", "_da_pi", "_da_prev", "_da_gd", "_da_bx", "_da_bd",
        "_da_scan", "_da_bArr", "_da_np",
    ]
    .map(|n| fresh_name(n, &used));
    let arrs: Vec<Name> = (0..child_fn.params.len())
        .map(|j| fresh_name(Name::from_fmt(format_args!("_da_arr{j}")), &used))
        .collect();

    let mut params: Vec<Param> = (child_fn.params.iter().zip(&arrs))
        .map(|(p, arr)| param(p.ty.clone().ptr_to(), arr))
        .collect();
    params.extend([
        param(Type::Int.ptr_to(), &scan),
        param(Type::Int.ptr_to(), &barr),
        param(Type::Int, &np),
    ]);

    let search = vec![
        d.decl(
            Type::Int,
            &mid,
            d.bin(Div, d.bin(Add, d.id(&lo), d.id(&hi)), d.int(2)),
        ),
        d.if_else(
            d.bin(Gt, d.index(&scan, d.id(&mid)), d.dot("blockIdx", "x")),
            vec![d.set(d.id(&hi), d.id(&mid))],
            vec![d.set(d.id(&lo), d.bin(Add, d.id(&mid), d.int(1)))],
        ),
    ];
    let mut body = vec![
        d.decl(Type::Int, &lo, d.int(0)),
        d.decl(Type::Int, &hi, d.bin(Sub, d.id(&np), d.int(1))),
        d.while_(d.bin(Lt, d.id(&lo), d.id(&hi)), search),
        d.decl(Type::Int, &pi, d.id(&lo)),
        d.decl(Type::Int, &prev, d.int(0)),
        d.if_(
            d.bin(Gt, d.id(&pi), d.int(0)),
            vec![d.set(d.id(&prev), d.index(&scan, d.bin(Sub, d.id(&pi), d.int(1))))],
        ),
    ];
    for (p, arr) in child_fn.params.iter().zip(&arrs) {
        body.push(d.decl(p.ty.clone(), &p.name, d.index(arr, d.id(&pi))));
    }
    body.extend([
        d.decl(
            Type::Int,
            &gd,
            d.bin(Sub, d.index(&scan, d.id(&pi)), d.id(&prev)),
        ),
        d.decl(
            Type::Int,
            &bx,
            d.bin(Sub, d.dot("blockIdx", "x"), d.id(&prev)),
        ),
        d.decl(Type::Int, &bd, d.index(&barr, d.id(&pi))),
    ]);

    // Child body with x-dimension builtins rebound to the disaggregated
    // values (body keeps its own origin tags).
    let mut child_body = child_fn.body.clone();
    for stmt in &mut child_body {
        replace_builtin_member(stmt, "blockIdx", "x", &bx);
        replace_builtin_member(stmt, "gridDim", "x", &gd);
        replace_builtin_member(stmt, "blockDim", "x", &bd);
    }
    body.push(d.if_(d.bin(Lt, d.dot("threadIdx", "x"), d.id(&bd)), child_body));
    gen_function(FnQual::Global, name, params, body)
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
