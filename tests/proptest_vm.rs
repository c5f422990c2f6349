//! Property tests for the VM: arithmetic agrees with a host-side reference
//! evaluator, atomics are linearizable, the aggregation scan invariant
//! holds on random degree distributions, and a replayed uniform prefix
//! agrees with the reference interpreter on generated kernels.

use dpopt::core::{AggConfig, AggGranularity, Compiler, OptConfig};
use dpopt::vm::bytecode::Instr;
use dpopt::vm::lower::{compile_program, compile_program_unfused};
use dpopt::vm::machine::{DispatchMode, Machine, MachineStats};
use dpopt::vm::{CostModel, ExecLimits, Value};
use proptest::prelude::*;

/// A little integer expression AST mirrored on host and device.
#[derive(Debug, Clone)]
enum E {
    Lit(i32),
    Var(usize),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    Div(Box<E>, Box<E>),
    Min(Box<E>, Box<E>),
    Neg(Box<E>),
    Cmp(Box<E>, Box<E>),
}

fn arb_e() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![
        (-100i32..100).prop_map(E::Lit),
        (0usize..4).prop_map(E::Var),
    ];
    leaf.prop_recursive(5, 48, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Div(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Min(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| E::Neg(Box::new(a))),
            (inner.clone(), inner).prop_map(|(a, b)| E::Cmp(Box::new(a), Box::new(b))),
        ]
    })
}

fn to_source(e: &E) -> String {
    match e {
        E::Lit(v) => format!("({v})"),
        E::Var(i) => format!("v{i}"),
        E::Add(a, b) => format!("({} + {})", to_source(a), to_source(b)),
        E::Sub(a, b) => format!("({} - {})", to_source(a), to_source(b)),
        E::Mul(a, b) => format!("({} * {})", to_source(a), to_source(b)),
        // Guard division: `b*b + 1` is always positive.
        E::Div(a, b) => {
            let bs = to_source(b);
            format!("({} / ({bs} * {bs} + 1))", to_source(a))
        }
        E::Min(a, b) => format!("min({}, {})", to_source(a), to_source(b)),
        E::Neg(a) => format!("(-{})", to_source(a)),
        E::Cmp(a, b) => format!("({} < {})", to_source(a), to_source(b)),
    }
}

fn eval_host(e: &E, vars: &[i64; 4]) -> i64 {
    match e {
        E::Lit(v) => *v as i64,
        E::Var(i) => vars[*i],
        E::Add(a, b) => eval_host(a, vars).wrapping_add(eval_host(b, vars)),
        E::Sub(a, b) => eval_host(a, vars).wrapping_sub(eval_host(b, vars)),
        E::Mul(a, b) => eval_host(a, vars).wrapping_mul(eval_host(b, vars)),
        E::Div(a, b) => {
            let d = eval_host(b, vars);
            eval_host(a, vars).wrapping_div(d.wrapping_mul(d).wrapping_add(1))
        }
        E::Min(a, b) => eval_host(a, vars).min(eval_host(b, vars)),
        E::Neg(a) => -eval_host(a, vars),
        E::Cmp(a, b) => (eval_host(a, vars) < eval_host(b, vars)) as i64,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The VM computes the same integers as a host-side evaluator.
    #[test]
    fn vm_arithmetic_matches_host(
        e in arb_e(),
        vars in [
            -1000i64..1000,
            -1000i64..1000,
            -1000i64..1000,
            -1000i64..1000,
        ],
    ) {
        let src = format!(
            "__global__ void k(int* out, int v0, int v1, int v2, int v3) {{ \
                 out[0] = {}; }}",
            to_source(&e)
        );
        let program = dpopt::frontend::parse(&src)
            .unwrap_or_else(|err| panic!("{}\n{src}", err.render(&src)));
        let mut m = Machine::new(compile_program(&program).unwrap());
        let buf = m.alloc(1);
        m.launch_host(
            "k",
            1,
            1,
            &[
                Value::Int(buf),
                Value::Int(vars[0]),
                Value::Int(vars[1]),
                Value::Int(vars[2]),
                Value::Int(vars[3]),
            ],
        )
        .unwrap();
        m.run_to_quiescence().unwrap();
        let got = m.read_i64s(buf, 1).unwrap()[0];
        prop_assert_eq!(got, eval_host(&e, &vars), "src: {}", src);
    }

    /// atomicAdd over any launch geometry sums exactly once per thread.
    #[test]
    fn atomic_add_is_exact(blocks in 1i64..6, threads in 1i64..65) {
        let src = "__global__ void k(int* ctr) { atomicAdd(&ctr[0], 1); }";
        let program = dpopt::frontend::parse(src).unwrap();
        let mut m = Machine::new(compile_program(&program).unwrap());
        let buf = m.alloc(1);
        m.launch_host("k", blocks, threads, &[Value::Int(buf)]).unwrap();
        m.run_to_quiescence().unwrap();
        prop_assert_eq!(m.read_i64s(buf, 1).unwrap()[0], blocks * threads);
    }

    /// Aggregation invariant on arbitrary degree sequences: the scanned
    /// grid-dimension array is strictly increasing per group and its last
    /// participant entry equals the aggregated grid size.
    #[test]
    fn aggregation_scan_invariant(degrees in prop::collection::vec(0i64..50, 1..24)) {
        let src = "\
__global__ void child(int* d, int n) {
    if (blockIdx.x * blockDim.x + threadIdx.x < n) {
        atomicAdd(&d[0], 1);
    }
}
__global__ void parent(int* d, int* deg, int numV) {
    int v = blockIdx.x * blockDim.x + threadIdx.x;
    if (v < numV) {
        int count = deg[v];
        if (count > 0) {
            child<<<(count + 7) / 8, 8>>>(d, count);
        }
    }
}
";
        let compiled = Compiler::new()
            .config(OptConfig::none().aggregation(AggConfig::new(AggGranularity::Grid)))
            .compile(src)
            .unwrap();
        let mut exec = compiled.executor();
        let d = exec.alloc(1);
        let deg = exec.alloc_i64s(&degrees);
        let n = degrees.len() as i64;
        exec.launch("parent", (n + 7) / 8, 8, &[Value::Int(d), Value::Int(deg), Value::Int(n)])
            .unwrap();
        exec.sync().unwrap();
        // Functional check: total increments = sum of degrees.
        let total: i64 = degrees.iter().sum();
        prop_assert_eq!(exec.read_i64s(d, 1).unwrap()[0], total);
    }
}

// ----------------------------------------------------------------------
// Superinstruction fusion on random straight-line programs
// ----------------------------------------------------------------------

/// One random straight-line statement over locals `v0..v3` and the eight
/// scratch words `d[0..8]`. No control flow, no division (so the only
/// observable behavior is arithmetic + memory state).
fn arb_stmt() -> impl Strategy<Value = String> {
    let var = 0usize..4;
    let cell = 0usize..8;
    let lit = -64i64..64;
    prop_oneof![
        (var.clone(), var.clone(), lit.clone(), 0usize..3).prop_map(|(a, b, c, op)| {
            let op = ["+", "-", "*"][op];
            format!("v{a} = v{b} {op} ({c});")
        }),
        (var.clone(), var.clone(), var.clone(), 0usize..4).prop_map(|(a, b, c, op)| {
            let op = ["+", "-", "*", "<"][op];
            format!("v{a} = v{b} {op} v{c};")
        }),
        (var.clone(), lit.clone()).prop_map(|(a, c)| format!("v{a} += ({c});")),
        (var.clone(), lit).prop_map(|(a, c)| format!("v{a} -= ({c});")),
        var.clone().prop_map(|a| format!("++v{a};")),
        var.clone().prop_map(|a| format!("v{a}++;")),
        var.clone().prop_map(|a| format!("v{a}--;")),
        (cell.clone(), var.clone()).prop_map(|(k, a)| format!("d[{k}] = v{a};")),
        (var.clone(), cell.clone()).prop_map(|(a, k)| format!("v{a} = d[{k}];")),
        (var.clone(), cell, var.clone()).prop_map(|(a, k, b)| format!("v{a} = d[{k}] + v{b};")),
        (var.clone(), var.clone(), var).prop_map(|(a, b, c)| format!("v{a} = min(v{b}, v{c});")),
    ]
}

fn straight_line_program(stmts: &[String]) -> String {
    format!(
        "__global__ void k(int* d) {{ \
             int v0 = 3; int v1 = -7; int v2 = 11; int v3 = 0; \
             {} \
             d[8] = v0; d[9] = v1; d[10] = v2; d[11] = v3; }}",
        stmts.join(" ")
    )
}

/// Net stack effect (pops, pushes) of the primitive instructions that
/// straight-line programs lower to.
fn stack_effect(i: &Instr) -> (i64, i64) {
    match i {
        Instr::PushInt(_) | Instr::LoadLocal(_) => (0, 1),
        Instr::StoreLocal(_) | Instr::Pop => (1, 0),
        Instr::LoadMem | Instr::CastInt | Instr::Un(_) => (1, 1),
        Instr::Bin(_) | Instr::Intrinsic(_) => (2, 1),
        Instr::StoreMem => (2, 0),
        Instr::Dup => (1, 2),
        Instr::RetVoid => (0, 0),
        other => panic!("unexpected instruction in straight-line program: {other:?}"),
    }
}

/// Depth after each instruction of a primitive (unfused) stream. Panics if
/// the depth ever goes negative (an underflow the real machine would trap
/// on).
fn depth_profile(code: &[Instr]) -> Vec<i64> {
    let mut depth = 0i64;
    let mut profile = Vec::new();
    for instr in code {
        assert!(instr.expansion().is_none(), "stream must be primitive");
        let (pops, pushes) = stack_effect(instr);
        depth -= pops;
        assert!(depth >= 0, "stack underflow at {instr:?}");
        depth += pushes;
        profile.push(depth);
    }
    profile
}

/// Walks a fused stream, checking each superinstruction's expansion never
/// underflows and that the depth at every instruction *boundary* equals the
/// unfused stream's depth at the corresponding original-unit index (the
/// depths the machine actually observes — `IncLocal`'s interior is
/// canonicalized and never materialized on the stack). Returns the
/// boundary depths' original-unit indices for the length check.
fn check_fused_depths(fused: &[Instr], unfused_profile: &[i64]) -> usize {
    let mut depth = 0i64;
    let mut original_idx = 0usize;
    for instr in fused {
        let parts = instr.expansion().unwrap_or_else(|| vec![*instr]);
        let mut inner = depth;
        for p in &parts {
            let (pops, pushes) = stack_effect(p);
            inner -= pops;
            assert!(inner >= 0, "stack underflow inside {instr:?}");
            inner += pushes;
        }
        depth = inner;
        original_idx += parts.len();
        assert_eq!(
            depth,
            unfused_profile[original_idx - 1],
            "boundary depth diverged after {instr:?} (original index {original_idx})"
        );
    }
    original_idx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The fusion peephole preserves (a) the per-instruction stack-depth
    /// profile in original units — fused superinstructions expand to
    /// sequences with exactly the depths the unfused stream had — and
    /// (b) the final memory state, statistics, and execution trace.
    #[test]
    fn fusion_preserves_stack_depth_and_memory(
        stmts in prop::collection::vec(arb_stmt(), 1..32),
    ) {
        let src = straight_line_program(&stmts);
        let program = dpopt::frontend::parse(&src)
            .unwrap_or_else(|e| panic!("{}\n{src}", e.render(&src)));
        let fused = compile_program(&program).unwrap();
        let unfused = compile_program_unfused(&program).unwrap();

        // Static invariants: widths conserve the original instruction
        // count, expansions never underflow, and stack depths agree at
        // every superinstruction boundary.
        let fused_code = &fused.by_name("k").unwrap().code;
        let unfused_code = &unfused.by_name("k").unwrap().code;
        let widths: u32 = fused_code.iter().map(|i| i.width()).sum();
        prop_assert_eq!(widths as usize, unfused_code.len());
        let profile = depth_profile(unfused_code);
        prop_assert_eq!(check_fused_depths(fused_code, &profile), unfused_code.len());

        // Dynamic equivalence: same memory, same stats, same trace.
        let run = |module| {
            let mut m = Machine::new(module);
            let d = m.alloc(12);
            m.launch_host("k", 1, 1, &[Value::Int(d)]).unwrap();
            m.run_to_quiescence().unwrap();
            (m.read_i64s(d, 12).unwrap(), m.stats(), m.take_trace())
        };
        let (mem_f, stats_f, trace_f) = run(fused);
        let (mem_u, stats_u, trace_u) = run(unfused);
        prop_assert_eq!(mem_f, mem_u, "memory diverged for:\n{}", src);
        prop_assert_eq!(stats_f, stats_u);
        prop_assert_eq!(trace_f, trace_u, "trace diverged for:\n{}", src);
    }
}

// ----------------------------------------------------------------------
// Uniform-prefix replay on generated kernels
// ----------------------------------------------------------------------

/// One load of a generated kernel's uniform prefix.
#[derive(Debug, Clone)]
enum PrefixLoad {
    /// `d[w]`.
    Word(usize),
    /// `d[d[w]]` (depth 1) or `d[d[d[w]]]` (depth 2): each address is a
    /// value read before.
    Chase(usize, usize),
    /// `64 / d[w]`: fails where `d[w]` is zero.
    Divide(usize),
    /// `tile[w]`, a `__shared__` word.
    Tile(usize),
}

fn arb_prefix_load() -> impl Strategy<Value = PrefixLoad> {
    prop_oneof![
        (0usize..8).prop_map(PrefixLoad::Word),
        (0usize..8, 1usize..3).prop_map(|(w, depth)| PrefixLoad::Chase(w, depth)),
        (0usize..8).prop_map(PrefixLoad::Divide),
        (0usize..8).prop_map(PrefixLoad::Tile),
    ]
}

fn load_source(load: &PrefixLoad) -> String {
    match *load {
        PrefixLoad::Word(w) => format!("d[{w}]"),
        PrefixLoad::Chase(w, depth) => (0..=depth).fold(w.to_string(), |at, _| format!("d[{at}]")),
        PrefixLoad::Divide(w) => format!("(64 / d[{w}])"),
        PrefixLoad::Tile(w) => format!("tile[{w}]"),
    }
}

/// The body's one store: to `d[word]` or `tile[word]`, from the lanes whose
/// bit is set in `lanes`. `value` 0 stores the word's own bits back, 1 a
/// different value (`(old + shift) % 8`), 2 the literal `shift % 8`, which
/// may or may not be what the word holds. Every `d[0..8]` and `tile[0..8]`
/// value stays in `0..8`, so a pointer chase stays in bounds.
#[derive(Debug, Clone)]
struct BodyStore {
    shared: bool,
    word: usize,
    value: usize,
    shift: i64,
    lanes: i64,
}

fn arb_body_store() -> impl Strategy<Value = BodyStore> {
    ((0usize..2, 0usize..8), 0usize..3, 1i64..8, 0i64..4096).prop_map(
        |((shared, word), value, shift, lanes)| BodyStore {
            shared: shared == 1,
            word,
            value,
            shift,
            lanes,
        },
    )
}

/// `k(int* d)`: a uniform prefix folding `loads` into `acc` and branching on
/// it, then — where the first thread index is read — the body's store and a
/// sink for `acc`: `d` (0), the tile (1) or nowhere but the trace (2).
fn replay_kernel(loads: &[PrefixLoad], store: &BodyStore, sink: usize) -> String {
    let prefix: String = loads
        .iter()
        .map(|load| format!("acc = acc * 3 + {}; ", load_source(load)))
        .collect();
    let target = format!(
        "{}[{}]",
        if store.shared { "tile" } else { "d" },
        store.word
    );
    let value = match store.value {
        0 => target.clone(),
        1 => format!("({target} + {}) % 8", store.shift),
        _ => format!("{}", store.shift % 8),
    };
    let sink = [
        "d[16 + blockIdx.x * 16 + threadIdx.x] = acc;",
        "tile[8 + threadIdx.x] = acc;",
        "",
    ][sink];
    format!(
        "__global__ void k(int* d) {{ \
             __shared__ int tile[24]; \
             int acc = blockIdx.x; \
             {prefix} \
             if (acc % 2 == 0) {{ acc = acc / 2; }} else {{ acc = acc * 3 + 1; }} \
             if ((({lanes} >> threadIdx.x) & 1) == 1) {{ {target} = {value}; }} \
             {sink} }}",
        lanes = store.lanes,
    )
}

/// Everything a replay case lets a caller see, each memory word with its
/// bits.
#[derive(Debug, PartialEq)]
struct ReplaySeen {
    outcome: Result<(), String>,
    memory: Vec<String>,
    stats: MachineStats,
    trace: dpopt::vm::ExecutionTrace,
    left: u64,
}

/// Launches `k` twice from the host, so the second grid's prefixes are
/// recorded on an arena the first grid's compares left behind.
fn run_replay_case(
    src: &str,
    d_init: &[i64],
    grid: (i64, i64),
    fuse: bool,
    dispatch: DispatchMode,
    budget: u64,
) -> ReplaySeen {
    let program =
        dpopt::frontend::parse(src).unwrap_or_else(|e| panic!("{}\n{src}", e.render(src)));
    let module = if fuse {
        compile_program(&program).unwrap()
    } else {
        compile_program_unfused(&program).unwrap()
    };
    let limits = ExecLimits {
        max_instructions: budget,
        ..ExecLimits::default()
    };
    let mut m = Machine::with_config(module, CostModel::default(), limits);
    m.set_dispatch(dispatch);
    let mut d = d_init.to_vec();
    d.resize(64, 0);
    let d = m.alloc_i64s(&d);
    for _ in 0..2 {
        m.launch_host("k", grid.0, grid.1, &[Value::Int(d)])
            .unwrap();
    }
    let outcome = m.run_to_quiescence().map_err(|e| e.to_string());
    let words = m.mem.allocated_words();
    ReplaySeen {
        outcome,
        memory: m
            .mem
            .read_range(1, words - 1)
            .unwrap()
            .iter()
            .map(|v| format!("{v:?}"))
            .collect(),
        stats: m.stats(),
        trace: m.take_trace(),
        left: m.instructions_left(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The threaded loop replays a block's uniform prefix where its logged
    /// loads still hold, and compares them only after a store; `Match`
    /// replays nothing. On generated prefixes — direct loads, pointer
    /// chases, divisions and `__shared__` reads — and a body that stores the
    /// same or a different value from a generated set of lanes, both agree
    /// on every memory word's bits, the statistics, the trace, the error
    /// text and the budget left, fused and unfused.
    #[test]
    fn replayed_prefixes_match_the_reference_on_generated_kernels(
        loads in prop::collection::vec(arb_prefix_load(), 0..7),
        store in arb_body_store(),
        sink in 0usize..3,
        d_init in prop::collection::vec(0i64..8, 8..9),
        blocks in 1i64..3,
        threads in 1i64..13,
        budget in (0i64..4, 0i64..3000).prop_map(|(b, n)| if b == 0 { n as u64 } else { u64::MAX }),
    ) {
        let src = replay_kernel(&loads, &store, sink);
        let run = |fuse, dispatch| {
            run_replay_case(&src, &d_init, (blocks, threads), fuse, dispatch, budget)
        };
        // Fused and unfused runs may stop a budget at different instructions
        // (a superinstruction is charged whole), so each is its own reference.
        for fuse in [true, false] {
            let reference = run(fuse, DispatchMode::Match);
            let got = run(fuse, DispatchMode::Threaded);
            prop_assert_eq!(&got, &reference, "fuse={}, budget {}:\n{}", fuse, budget, src);
        }
    }
}
