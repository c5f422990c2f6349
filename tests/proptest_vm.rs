//! Property tests for the VM: arithmetic agrees with a host-side reference
//! evaluator, atomics are linearizable, the aggregation scan invariant
//! holds on random degree distributions, and a replayed uniform prefix, a
//! skipped loop and a skipped lane agree with the reference interpreter on
//! generated kernels.

use dpopt::core::{AggConfig, AggGranularity, Compiler, OptConfig};
use dpopt::vm::bytecode::Instr;
use dpopt::vm::lower::{compile_program, compile_program_unfused};
use dpopt::vm::machine::{DispatchMode, Machine, MachineStats};
use dpopt::vm::{CostModel, ExecLimits, LaunchDim, Value};
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

// ----------------------------------------------------------------------
// Loop skipping on generated counted loops
// ----------------------------------------------------------------------

/// A loop bound, step or guard operand: a constant, parameter `p0` or
/// `p1`, a special register's component, or a component of the `dim3` `g`.
#[derive(Debug, Clone)]
enum Term {
    Const(i64),
    Param(usize),
    Special(usize),
    Member(usize),
}

const SPECIALS: [&str; 6] = [
    "threadIdx.x",
    "blockIdx.x",
    "threadIdx.y",
    "blockDim.x",
    "blockDim.y",
    "gridDim.x",
];

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (-8i64..24).prop_map(Term::Const),
        (0usize..2).prop_map(Term::Param),
        (0usize..6).prop_map(Term::Special),
        (0usize..3).prop_map(Term::Member),
    ]
}

/// A term that is at least 1: `p1`, a dimension, or a component of `g`.
fn arb_step() -> impl Strategy<Value = Term> {
    prop_oneof![
        (1i64..4).prop_map(Term::Const),
        Just(Term::Param(1)),
        (3usize..6).prop_map(Term::Special),
        (0usize..3).prop_map(Term::Member),
    ]
}

fn term_source(t: &Term) -> String {
    match *t {
        Term::Const(v) => format!("({v})"),
        Term::Param(p) => format!("p{p}"),
        Term::Special(s) => SPECIALS[s].into(),
        Term::Member(lane) => format!("g.{}", ["x", "y", "z"][lane]),
    }
}

/// The guard's temporary `e`, computed from the counter `i` each iteration.
#[derive(Debug, Clone)]
enum Temp {
    /// `c * i + b`, a constant `c`: affine.
    Scaled(i64, Term),
    /// `t * i + b`, an invariant `t`: affine.
    Times(Term, Term),
    /// `i * i + b`: not affine.
    Square(Term),
    /// `i / 2 + b`: a division, which is not pure.
    Half(Term),
}

/// Affine three times in four.
fn arb_temp() -> impl Strategy<Value = Temp> {
    prop_oneof![
        ((-3i64..4), arb_term()).prop_map(|(c, b)| Temp::Scaled(c, b)),
        ((-3i64..4), arb_term()).prop_map(|(c, b)| Temp::Scaled(c, b)),
        (arb_term(), arb_term()).prop_map(|(t, b)| Temp::Times(t, b)),
        (arb_term(), arb_term()).prop_map(|(t, b)| Temp::Times(t, b)),
        (arb_term(), arb_term()).prop_map(|(t, b)| Temp::Times(t, b)),
        (arb_term(), arb_term()).prop_map(|(t, b)| Temp::Times(t, b)),
        arb_term().prop_map(Temp::Square),
        arb_term().prop_map(Temp::Half),
    ]
}

/// One generated counted loop with an idle guard.
#[derive(Debug, Clone)]
struct CountedLoop {
    start: Term,
    /// The loop runs from `start` to `start + span + extent`.
    span: Term,
    extent: i64,
    step: Term,
    /// Counts up with `<`/`<=`, or down to `start` with `>`/`>=`.
    up: bool,
    inclusive: bool,
    temp: Temp,
    /// The guard `e <op> operand`, an index into `CMPS`.
    cmp: usize,
    operand: Term,
    /// 2: an accumulator; 3: a float in the guard; 0, 1, 4 and 5: neither.
    extra: usize,
    /// The temporary adds `p2`, which is near `i64::MAX`, so that it may
    /// wrap inside the loop.
    near_max: bool,
    /// The loop sits in a `__device__` function the kernel calls.
    device: bool,
}

const CMPS: [&str; 6] = ["<", "<=", ">", ">=", "==", "!="];

fn arb_counted_loop() -> impl Strategy<Value = CountedLoop> {
    (
        (arb_term(), arb_term(), 0i64..40, arb_step()),
        (0usize..2, 0usize..2, arb_temp()),
        (0usize..6, arb_term(), 0usize..6, (0usize..4, 0usize..2)),
    )
        .prop_map(
            |(
                (start, span, extent, step),
                (up, inclusive, temp),
                (cmp, operand, extra, (near_max, device)),
            )| {
                CountedLoop {
                    start,
                    span,
                    extent,
                    step,
                    up: up == 1,
                    inclusive: inclusive == 1,
                    temp,
                    cmp,
                    operand,
                    extra,
                    near_max: near_max == 0,
                    device: device == 1,
                }
            },
        )
}

/// `k(int* d, int p0, int p1, int p2)`: lane `at` runs the loop and, on
/// the iterations its guard takes, folds `i` into `d[at]`.
fn loop_kernel(l: &CountedLoop) -> String {
    let (start, step) = (term_source(&l.start), term_source(&l.step));
    let bound = format!("{start} + {} + {}", term_source(&l.span), l.extent);
    let eq = if l.inclusive { "=" } else { "" };
    let head = if l.up {
        format!("for (int i = {start}; i <{eq} {bound}; i += {step})")
    } else {
        format!("for (int i = {bound}; i >{eq} {start}; i -= {step})")
    };
    let near = if l.near_max { " + p2" } else { "" };
    let temp = match &l.temp {
        Temp::Scaled(c, b) => format!("int e = ({c}) * i + {}{near};", term_source(b)),
        Temp::Times(t, b) => format!("int e = {} * i + {}{near};", term_source(t), term_source(b)),
        Temp::Square(b) => format!("int e = i * i + {}{near};", term_source(b)),
        Temp::Half(b) => format!("int e = i / 2 + {}{near};", term_source(b)),
    };
    let operand = if l.extra == 3 {
        "fl".to_string()
    } else {
        term_source(&l.operand)
    };
    let (acc, sink) = match l.extra {
        2 => ("acc = acc + i;", "d[32 + at] = acc;"),
        _ => ("", ""),
    };
    let body = format!(
        "int acc = 0; float fl = p0 * 0.5; \
         {head} {{ {temp} {acc} if (e {} {operand}) {{ d[at] = d[at] * 3 + i; }} }} {sink}",
        CMPS[l.cmp]
    );
    let prologue = "dim3 g = dim3(p1, 2, 3); int at = blockIdx.x * blockDim.x + threadIdx.x;";
    if l.device {
        format!(
            "__device__ void body(int* d, int p0, int p1, int p2, dim3 g, int at) {{ {body} }}\n\
             __global__ void k(int* d, int p0, int p1, int p2) {{ {prologue} body(d, p0, p1, p2, g, at); }}"
        )
    } else {
        format!("__global__ void k(int* d, int p0, int p1, int p2) {{ {prologue} {body} }}")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The threaded loop skips the iterations of a loop that all take one
    /// pure, affine path; `Match` runs every one. On generated counted
    /// loops — bounds and steps from constants, parameters, special
    /// registers and a `dim3`; an idle guard on an affine or a nonlinear
    /// temporary, sometimes one that wraps past `i64::MAX`; sometimes an
    /// accumulator or a float — both agree on every memory word's bits, the
    /// statistics, the trace, the error text and the budget left, fused and
    /// unfused.
    #[test]
    fn skipped_loops_match_the_reference_on_generated_kernels(
        l in arb_counted_loop(),
        p0 in -10i64..40,
        p1 in 1i64..4,
        p2 in (i64::MAX - 120)..i64::MAX,
        blocks in 1i64..3,
        threads in 1i64..8,
        budget in (0i64..4, 0i64..3000).prop_map(|(b, n)| if b == 0 { n as u64 } else { u64::MAX }),
    ) {
        let src = loop_kernel(&l);
        let run = |fuse, dispatch| {
            run_loop_case(&src, [p0, p1, p2], 0, (blocks, threads), fuse, dispatch, budget)
        };
        for fuse in [true, false] {
            let reference = run(fuse, DispatchMode::Match);
            let got = run(fuse, DispatchMode::Threaded);
            prop_assert_eq!(&got, &reference, "fuse={}, budget {}:\n{}", fuse, budget, src);
        }
    }
}

/// Runs `k(d, p0, p1, p2)` once on `grid.0` blocks of `grid.1` threads, `d`
/// 64 words, zero but for `d[63]`.
fn run_loop_case(
    src: &str,
    [p0, p1, p2]: [i64; 3],
    d63: i64,
    grid: (i64, impl Into<LaunchDim>),
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
    let mut d = vec![0; 64];
    d[63] = d63;
    let d = m.alloc_i64s(&d);
    m.launch_host(
        "k",
        grid.0,
        grid.1,
        &[
            Value::Int(d),
            Value::Int(p0),
            Value::Int(p1),
            Value::Int(p2),
        ],
    )
    .unwrap();
    let outcome = m.run_to_quiescence().map_err(|e| e.to_string());
    let words = m.mem.allocated_words();
    ReplaySeen {
        outcome,
        memory: (m.mem.read_range(1, words - 1).unwrap().iter())
            .map(|v| format!("{v:?}"))
            .collect(),
        stats: m.stats(),
        trace: m.take_trace(),
        left: m.instructions_left(),
    }
}

// ----------------------------------------------------------------------
// Lane skipping on generated guards
// ----------------------------------------------------------------------

/// A lane kernel's guarded value, computed from the thread index first.
#[derive(Debug, Clone)]
enum LaneTemp {
    /// `threadIdx.x * c + b`: affine.
    Scaled(i64, Term),
    /// `threadIdx.x * t + b`, a term `t`: nonlinear where `t` is
    /// `threadIdx.x`.
    Times(Term, Term),
    /// `threadIdx.x + (threadIdx.z * blockDim.y + threadIdx.y) * blockDim.x
    /// + b`: the lane's index in its block, affine along a row.
    Linear(Term),
    /// `threadIdx.x * threadIdx.x + b`: not affine.
    Square(Term),
    /// `threadIdx.x % 3 + b`: a remainder, which is not pure.
    Rem(Term),
}

/// A constant, a parameter or a special register's component: a guard's
/// terms read no `dim3` local.
fn arb_lane_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (-8i64..24).prop_map(Term::Const),
        (0usize..2).prop_map(Term::Param),
        (0usize..6).prop_map(Term::Special),
    ]
}

/// Affine three times in five.
fn arb_lane_temp() -> impl Strategy<Value = LaneTemp> {
    prop_oneof![
        ((-3i64..4), arb_lane_term()).prop_map(|(c, b)| LaneTemp::Scaled(c, b)),
        ((-3i64..4), arb_lane_term()).prop_map(|(c, b)| LaneTemp::Scaled(c, b)),
        (arb_lane_term(), arb_lane_term()).prop_map(|(t, b)| LaneTemp::Times(t, b)),
        arb_lane_term().prop_map(LaneTemp::Linear),
        arb_lane_term().prop_map(LaneTemp::Linear),
        arb_lane_term().prop_map(LaneTemp::Square),
        arb_lane_term().prop_map(LaneTemp::Rem),
    ]
}

/// One generated kernel whose lanes store under a guard on a value of
/// their thread index.
#[derive(Debug, Clone)]
struct LaneGuard {
    temp: LaneTemp,
    /// The guard `e <op> operand`, an index into `CMPS`.
    cmp: usize,
    operand: Term,
    /// A uniform prefix loads `d[63]` and adds parameters before the
    /// kernel first reads `threadIdx.x`.
    prefix: bool,
    /// The value adds `p2`, which is near `i64::MAX`, so that it may wrap
    /// inside a block.
    near_max: bool,
    /// 1: a float in the guard; 2: a `__shared__` read in it; 3: a barrier
    /// after it; 0 and 4 to 7: none.
    extra: usize,
}

fn arb_lane_guard() -> impl Strategy<Value = LaneGuard> {
    (
        arb_lane_temp(),
        (0usize..6, arb_lane_term()),
        (0usize..2, 0usize..3, 0usize..8),
    )
        .prop_map(
            |(temp, (cmp, operand), (prefix, near_max, extra))| LaneGuard {
                temp,
                cmp,
                operand,
                prefix: prefix == 0,
                near_max: near_max == 0,
                extra,
            },
        )
}

/// `k(int* d, int p0, int p1, int p2)`: a lane whose guard holds folds its
/// value into `d[at]`, `at` its index in the grid.
fn lane_kernel(g: &LaneGuard) -> String {
    let b = |t: &Term| term_source(t);
    let temp = match &g.temp {
        LaneTemp::Scaled(c, t) => format!("threadIdx.x * ({c}) + {}", b(t)),
        LaneTemp::Times(f, t) => format!("threadIdx.x * {} + {}", b(f), b(t)),
        LaneTemp::Linear(t) => format!(
            "threadIdx.x + (threadIdx.z * blockDim.y + threadIdx.y) * blockDim.x + {}",
            b(t)
        ),
        LaneTemp::Square(t) => format!("threadIdx.x * threadIdx.x + {}", b(t)),
        LaneTemp::Rem(t) => format!("threadIdx.x % 3 + {}", b(t)),
    };
    let (prologue, base) = if g.prefix {
        ("int base = d[63] + p0 * blockIdx.x; ", " + base")
    } else {
        ("", "")
    };
    let near = if g.near_max { " + p2" } else { "" };
    let (float, operand) = match g.extra {
        1 => ("float fl = p1 * 0.5; ", "fl".to_string()),
        2 => ("", "tile[1]".to_string()),
        _ => ("", b(&g.operand)),
    };
    let barrier = if g.extra == 3 { "__syncthreads();" } else { "" };
    format!(
        "__global__ void k(int* d, int p0, int p1, int p2) {{ \
             __shared__ int tile[4]; \
             {prologue}int e = {temp}{base}{near}; {float}\
             if (e {} {operand}) {{ \
                 int at = blockIdx.x * 32 + (threadIdx.z * blockDim.y + threadIdx.y) * blockDim.x + threadIdx.x; \
                 d[at] = d[at] * 3 + e; }} \
             {barrier} }}",
        CMPS[g.cmp]
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The threaded loop retires the lanes of a block whose path from their
    /// start point to the kernel's end is pure and affine in `threadIdx.x`;
    /// `Match` runs every one. On generated guards — on an affine or a
    /// nonlinear value of the thread index, `blockIdx`, `blockDim` and the
    /// parameters, sometimes one that wraps past `i64::MAX`, sometimes a
    /// float, a `__shared__` read or a barrier; in 1- to 3-D blocks, with and
    /// without a uniform prefix — both agree on every memory word's bits,
    /// the statistics, the trace, the error text and the budget left, fused
    /// and unfused.
    #[test]
    fn skipped_lanes_match_the_reference_on_generated_kernels(
        g in arb_lane_guard(),
        p0 in -10i64..40,
        p1 in 1i64..4,
        p2 in (i64::MAX - 40)..i64::MAX,
        d63 in -4i64..8,
        blocks in 1i64..3,
        dims in (1i64..9, 1i64..3, 1i64..3, 0usize..3).prop_map(|(x, y, z, n)| match n {
            0 => [x, 1, 1],
            1 => [x, y, 1],
            _ => [x, y, z],
        }),
        budget in (0i64..4, 0i64..2000).prop_map(|(b, n)| if b == 0 { n as u64 } else { u64::MAX }),
    ) {
        let src = lane_kernel(&g);
        let run = |fuse, dispatch| {
            run_loop_case(&src, [p0, p1, p2], d63, (blocks, dims), fuse, dispatch, budget)
        };
        for fuse in [true, false] {
            let reference = run(fuse, DispatchMode::Match);
            let got = run(fuse, DispatchMode::Threaded);
            prop_assert_eq!(&got, &reference, "fuse={}, budget {}:\n{}", fuse, budget, src);
        }
    }
}
