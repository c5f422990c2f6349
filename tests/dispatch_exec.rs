//! The VM determinism contract, property-tested: for random programs
//! with device launches — disjoint writes, cross-block atomic conflicts,
//! or a mix — the threaded dispatcher must produce **bit-identical**
//! `ExecutionTrace` + `MachineStats` + memory to the reference `match`
//! dispatcher, with superinstruction fusion on or off.

use dpopt::vm::lower::{compile_program, compile_program_unfused};
use dpopt::vm::machine::{DispatchMode, Machine, MachineStats};
use dpopt::vm::{ExecutionTrace, Value};
use proptest::prelude::*;

/// Builds a parent/child program over a random degree sequence. Parent
/// threads expand their vertex's slice of `out` serially (disjoint) and
/// launch a child grid over the same slice; children optionally also bump
/// a shared counter with an atomic (`conflict`), which couples blocks
/// through memory in linear block order.
fn program(conflict: bool, child_block: i64) -> String {
    let atomic = if conflict {
        "atomicAdd(&counters[0], 1); atomicMax(&counters[1], base + e);"
    } else {
        ""
    };
    format!(
        "__global__ void child(int* out, int* counters, int base, int count) {{ \
             int e = blockIdx.x * blockDim.x + threadIdx.x; \
             if (e < count) {{ \
                 out[base + e] = out[base + e] * 3 + e; \
                 {atomic} \
             }} }}\n\
         __global__ void parent(int* offsets, int* out, int* counters, int numV) {{ \
             int v = blockIdx.x * blockDim.x + threadIdx.x; \
             if (v < numV) {{ \
                 int begin = offsets[v]; \
                 int count = offsets[v + 1] - begin; \
                 for (int e = 0; e < count; ++e) {{ out[begin + e] = begin + e; }} \
                 if (count > 0) {{ \
                     child<<<(count + {cb} - 1) / {cb}, {cb}>>>(out, counters, begin, count); \
                 }} }} }}",
        cb = child_block
    )
}

struct Observed {
    memory: Vec<i64>,
    stats: MachineStats,
    trace: ExecutionTrace,
}

fn run(
    src: &str,
    degrees: &[i64],
    fuse: bool,
    dispatch: DispatchMode,
    parent_block: i64,
) -> Observed {
    let p = dpopt::frontend::parse(src).unwrap_or_else(|e| panic!("{}\n{src}", e.render(src)));
    let module = if fuse {
        compile_program(&p).unwrap()
    } else {
        compile_program_unfused(&p).unwrap()
    };
    let mut m = Machine::new(module);
    m.set_dispatch(dispatch);
    let mut offsets = vec![0i64];
    for d in degrees {
        offsets.push(offsets.last().unwrap() + d);
    }
    let total: i64 = degrees.iter().sum();
    let offsets_ptr = m.alloc_i64s(&offsets);
    let out = m.alloc((total as usize).max(1));
    let counters = m.alloc_i64s(&[0, -1]);
    let num_v = degrees.len() as i64;
    m.launch_host(
        "parent",
        (num_v + parent_block - 1) / parent_block,
        parent_block,
        &[
            Value::Int(offsets_ptr),
            Value::Int(out),
            Value::Int(counters),
            Value::Int(num_v),
        ],
    )
    .unwrap();
    m.run_to_quiescence().unwrap();
    let words = m.mem.allocated_words();
    Observed {
        memory: m.read_i64s(1, words - 1).unwrap(),
        stats: m.stats(),
        trace: m.take_trace(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The threaded and match dispatchers, with fusion on and off, are
    /// bit-identical on random launch-generating programs — whether blocks
    /// are disjoint or conflict through cross-block atomics.
    #[test]
    fn dispatch_and_fusion_traces_are_bit_identical(
        degrees in prop::collection::vec(0i64..40, 4..24),
        conflict in (0i64..2).prop_map(|v| v == 1),
        parent_block in 1i64..5,
        child_block in 2i64..9,
    ) {
        let src = program(conflict, child_block);
        let reference = run(&src, &degrees, true, DispatchMode::Match, parent_block);
        prop_assert!(reference.stats.instructions > 0);

        for (fuse, dispatch) in [
            (true, DispatchMode::Threaded),
            (false, DispatchMode::Threaded),
            (false, DispatchMode::Match),
        ] {
            let got = run(&src, &degrees, fuse, dispatch, parent_block);
            prop_assert_eq!(
                &got.memory, &reference.memory,
                "memory diverged (fuse={}, {:?})", fuse, dispatch
            );
            prop_assert_eq!(got.stats, reference.stats);
            prop_assert_eq!(
                &got.trace, &reference.trace,
                "trace diverged (fuse={}, {:?})", fuse, dispatch
            );
        }
    }
}

// ----------------------------------------------------------------------
// The instruction budget under block-charged accounting
// ----------------------------------------------------------------------

use dpopt::vm::{CostModel, ExecLimits};

/// Everything a run with a finite budget lets a caller see, failed or not.
#[derive(Debug, PartialEq)]
struct Budgeted {
    /// `Err` carries the full error string.
    outcome: Result<(MachineStats, ExecutionTrace), String>,
    memory: Vec<i64>,
    /// [`Machine::instructions_left`] after the run.
    left: u64,
}

fn run_budgeted(
    src: &str,
    kernel: &str,
    fuse: bool,
    dispatch: DispatchMode,
    budget: u64,
) -> Budgeted {
    let p = dpopt::frontend::parse(src).unwrap_or_else(|e| panic!("{}\n{src}", e.render(src)));
    let module = if fuse {
        compile_program(&p).unwrap()
    } else {
        compile_program_unfused(&p).unwrap()
    };
    let limits = ExecLimits {
        max_instructions: budget,
        ..ExecLimits::default()
    };
    let mut m = Machine::with_config(module, CostModel::default(), limits);
    m.set_dispatch(dispatch);
    let out = m.alloc_i64s(&[7; 8]);
    m.launch_host(kernel, 2, 4, &[Value::Int(out), Value::Int(3)])
        .unwrap();
    let outcome = m.run_to_quiescence().map_err(|e| e.to_string());
    Budgeted {
        memory: m.read_i64s(out, 8).unwrap(),
        left: m.instructions_left(),
        outcome: outcome.map(|()| (m.stats(), m.take_trace())),
    }
}

/// Branches, a loop, a device-function call, shared memory, a barrier and
/// a device-side launch: every kind of basic-block boundary.
const BUDGET_KERNEL: &str = "\
__device__ int tri(int n) { int s = 0; for (int i = 0; i < n; ++i) { s += i; } return s; }
__global__ void child(int* out, int base) { out[base + threadIdx.x] = out[base + threadIdx.x] + 1; }
__global__ void k(int* out, int n) {
    __shared__ int tile[4];
    tile[threadIdx.x] = tri(threadIdx.x + n);
    __syncthreads();
    int v = tile[3 - threadIdx.x];
    if (v % 2 == 0) { out[threadIdx.x] = v; } else { out[threadIdx.x] = 0 - v; }
    if (threadIdx.x == 0 && blockIdx.x == 1) { child<<<1, 4>>>(out, 4); }
}";

/// For **every** budget from 0 to one past what the run needs, the
/// block-charging threaded loop and the per-instruction `match` loop agree
/// on success or failure, the error string, memory, the trace, the
/// statistics and what is left of the budget — fused and unfused. A budget
/// that ends in the middle of a basic block is most of them.
#[test]
fn every_budget_ends_the_same_way_under_both_dispatchers() {
    for fuse in [true, false] {
        let full = run_budgeted(BUDGET_KERNEL, "k", fuse, DispatchMode::Match, u64::MAX);
        let (stats, _) = full.outcome.as_ref().expect("the unlimited run succeeds");
        let total = stats.instructions;
        assert_eq!(full.left, u64::MAX - total);
        assert!(total > 200 && total < 5_000, "{total}");
        let mut failures = 0;
        for budget in 0..=total + 1 {
            let reference = run_budgeted(BUDGET_KERNEL, "k", fuse, DispatchMode::Match, budget);
            let got = run_budgeted(BUDGET_KERNEL, "k", fuse, DispatchMode::Threaded, budget);
            assert_eq!(got, reference, "budget {budget} of {total}, fuse={fuse}");
            match &got.outcome {
                Ok((stats, trace)) => {
                    assert!(budget >= total);
                    assert_eq!(got.left, budget - total);
                    assert_eq!(stats.instructions, trace.instructions());
                }
                Err(message) => {
                    failures += 1;
                    assert!(budget < total, "{message}");
                    assert!(
                        message.contains("instruction budget exhausted"),
                        "{message}"
                    );
                    // An instruction that does not fit is not charged: what
                    // is left is less than one (fused) instruction's width.
                    assert!(got.left < 6, "{} left of {budget}", got.left);
                }
            }
        }
        assert_eq!(failures, total);
    }
}

/// A handler that fails in the middle of a block — an out-of-bounds store
/// between two in-bounds ones — with the budget one short of it, exactly at
/// it and one past it. What `instructions_left` is after a failed run is
/// pinned here: every dispatched instruction was charged, the one that
/// failed included, and nothing after it — although the threaded loop
/// charged the whole block up front.
#[test]
fn a_fault_in_mid_block_leaves_the_same_budget_under_both_dispatchers() {
    let src = "__global__ void k(int* out, int n) { \
                   int a = out[0] + n; \
                   out[1] = a; \
                   out[1000000] = a; \
                   out[2] = a + 1; }";
    for fuse in [true, false] {
        let unlimited = run_budgeted(src, "k", fuse, DispatchMode::Match, u64::MAX);
        let message = unlimited.outcome.unwrap_err();
        assert!(message.contains("out of bounds"), "{message}");
        // Instructions charged up to and including the faulting store.
        let at_fault = u64::MAX - unlimited.left;
        assert!(at_fault > 10);
        for budget in [at_fault - 1, at_fault, at_fault + 1, u64::MAX] {
            let reference = run_budgeted(src, "k", fuse, DispatchMode::Match, budget);
            let got = run_budgeted(src, "k", fuse, DispatchMode::Threaded, budget);
            assert_eq!(
                got, reference,
                "budget {budget}, fault at {at_fault}, fuse={fuse}"
            );
            let message = got.outcome.unwrap_err();
            if budget < at_fault {
                assert!(
                    message.contains("instruction budget exhausted"),
                    "{message}"
                );
            } else {
                assert!(message.contains("out of bounds"), "{message}");
                assert_eq!(got.left, budget - at_fault);
            }
            // Block 0's thread 0 stored `out[1]` and nothing later.
            assert_eq!(got.memory[1..3], [10, 7]);
        }
    }
}

// ----------------------------------------------------------------------
// Each superinstruction against its definition
// ----------------------------------------------------------------------

use dpopt::frontend::ast::{CodeOrigin, FnQual, Type};
use dpopt::vm::bytecode::{BinKind, CompiledFunction, Instr, Module, Special};

/// Runs `code` as the body of `k(int* out)` — four threads, four locals,
/// `out` eight words of 7 — without going through the lowerer or the fuser,
/// so shapes neither of them emits are reachable. Odd slots are tagged
/// `AggLogic`, so a slot charged to the wrong origin shows in the trace.
fn run_hand_built(code: &[Instr], dispatch: DispatchMode, budget: u64) -> Budgeted {
    let mut module = Module::new();
    module.add(CompiledFunction {
        name: "k".into(),
        qual: FnQual::Global,
        param_types: vec![Type::Ptr(Box::new(Type::Int))],
        n_locals: 4,
        code: code.to_vec(),
        origins: (0..code.len())
            .map(|pc| match pc % 2 {
                0 => CodeOrigin::Original,
                _ => CodeOrigin::AggLogic,
            })
            .collect(),
        contains_launch: false,
        shared_words: 0,
    });
    let limits = ExecLimits {
        max_instructions: budget,
        ..ExecLimits::default()
    };
    let mut m = Machine::with_config(module, CostModel::default(), limits);
    m.set_dispatch(dispatch);
    let out = m.alloc_i64s(&[7; 8]);
    m.launch_host("k", 1, 4, &[Value::Int(out)]).unwrap();
    let outcome = m.run_to_quiescence().map_err(|e| e.to_string());
    Budgeted {
        memory: m.read_i64s(out, 8).unwrap(),
        left: m.instructions_left(),
        outcome: outcome.map(|()| (m.stats(), m.take_trace())),
    }
}

/// The threaded loop runs a superinstruction's handler; the reference runs
/// its `Instr::expansion()` through the primitive arms. They must agree on
/// everything a caller can see — success or the error string, memory, the
/// trace, the statistics and what is left of the budget — for every
/// superinstruction, on its error paths, and for every budget up to what
/// the program needs (most of them end inside a fused slot).
#[test]
fn each_superinstruction_matches_its_expansion() {
    use Instr::*;
    // `out[threadIdx.x] = <top of stack>`, for a value computed before it.
    let tid = ReadSpecialComp(Special::ThreadIdx, 0);
    let oob = 1_000_000;
    // (name, code, the error the program must end with)
    let programs: Vec<(&str, Vec<Instr>, Option<&str>)> = vec![
        (
            "BinLocals",
            vec![
                tid,
                StoreLocal(1),
                PushInt(6),
                StoreLocal(2),
                BinLocals(BinKind::Add, 0, 1),
                BinLocals(BinKind::Mul, 1, 2),
                StoreMem,
                RetVoid,
            ],
            None,
        ),
        (
            "BinLocals fails",
            vec![
                PushFloat(1.5),
                StoreLocal(1),
                BinLocals(BinKind::BitAnd, 0, 1),
                RetVoid,
            ],
            Some("bitwise operation on float"),
        ),
        (
            "BinImm",
            vec![
                LoadLocal(0),
                tid,
                Bin(BinKind::Add),
                tid,
                BinImm(BinKind::Shl, 3),
                BinImm(BinKind::Sub, -5),
                StoreMem,
                RetVoid,
            ],
            None,
        ),
        (
            "BinImm(Div, 0) after a store",
            vec![
                LoadLocal(0),
                PushInt(11),
                StoreMem,
                tid,
                BinImm(BinKind::Div, 0),
                RetVoid,
            ],
            Some("integer division by zero"),
        ),
        (
            "BinImm(Shl, _) on a float",
            vec![PushFloat(2.5), BinImm(BinKind::Shl, 1), RetVoid],
            Some("bitwise operation on float"),
        ),
        (
            "IncLocal, on an int and on a float",
            vec![
                tid,
                StoreLocal(1),
                IncLocal(1, 3),
                IncLocal(1, -1),
                PushFloat(0.5),
                StoreLocal(2),
                IncLocal(2, 4),
                IncLocal(0, 4),
                LoadLocal(0),
                LoadLocal(1),
                LoadLocal(2),
                Bin(BinKind::Mul),
                StoreMem,
                RetVoid,
            ],
            None,
        ),
        (
            "LoadLocalMem",
            vec![
                BinLocals(BinKind::Add, 0, 0),
                Pop,
                LoadLocal(0),
                tid,
                Bin(BinKind::Add),
                StoreLocal(1),
                IncLocal(1, 4),
                LoadLocal(1),
                LoadLocalMem(0),
                tid,
                Bin(BinKind::Add),
                StoreMem,
                RetVoid,
            ],
            None,
        ),
        (
            "LoadLocalMem out of bounds",
            vec![
                LoadLocal(0),
                PushInt(3),
                StoreMem,
                PushInt(oob),
                StoreLocal(1),
                LoadLocalMem(1),
                RetVoid,
            ],
            Some("memory access out of bounds: address 1000000"),
        ),
        (
            "StoreLoadLocal",
            vec![
                LoadLocal(0),
                tid,
                Bin(BinKind::Add),
                StoreLoadLocal(1),
                LoadLocal(1),
                StoreMem,
                RetVoid,
            ],
            None,
        ),
        (
            "StoreLoadLocal on an empty stack",
            vec![StoreLoadLocal(1), RetVoid],
            Some("operand stack underflow"),
        ),
        (
            // Threads 0 and 1 fall through, 2 and 3 take the branch; the
            // second one is a shape the fuser never emits (not a
            // comparison: taken when `tid - 3` is zero), is itself a branch
            // target, and jumps to the function's end.
            "CmpBranchLocals, taken and not taken",
            vec![
                tid,
                StoreLocal(1),
                PushInt(2),
                StoreLocal(2),
                PushInt(3),
                StoreLocal(3),
                CmpBranchLocals(BinKind::Lt, 1, 2, 12),
                BinLocals(BinKind::Add, 0, 1),
                PushInt(100),
                StoreMem,
                RetVoid,
                RetVoid,
                CmpBranchLocals(BinKind::Sub, 1, 3, 18),
                BinLocals(BinKind::Add, 0, 1),
                PushInt(200),
                StoreMem,
                Jump(18),
                RetVoid,
            ],
            None,
        ),
        (
            "CmpBranchLocals fails",
            vec![
                PushFloat(1.0),
                StoreLocal(1),
                CmpBranchLocals(BinKind::Shr, 0, 1, 0),
                RetVoid,
            ],
            Some("bitwise operation on float"),
        ),
        (
            // A float is truncated on its way into the local.
            "StoreLocalInt",
            vec![
                LoadLocal(0),
                tid,
                Bin(BinKind::Add),
                PushFloat(9.75),
                StoreLocalInt(1),
                LoadLocal(1),
                StoreMem,
                RetVoid,
            ],
            None,
        ),
        (
            "StoreLocalInt on an empty stack",
            vec![StoreLocalInt(1), RetVoid],
            Some("operand stack underflow"),
        ),
        (
            "SetLocal",
            vec![
                tid,
                BinImm(BinKind::Mul, 5),
                SetLocal(1),
                LoadLocal(0),
                tid,
                Bin(BinKind::Add),
                LoadLocal(1),
                StoreMem,
                RetVoid,
            ],
            None,
        ),
        (
            // The expansion fails in its `Dup`, not in its `StoreLocal`.
            "SetLocal on an empty stack",
            vec![SetLocal(1), RetVoid],
            Some("stack underflow on dup"),
        ),
        (
            // out[tid + 4] = out[tid] + tid, after out[tid] = 20 + tid.
            "LoadMemAt",
            vec![
                tid,
                StoreLocal(1),
                BinLocals(BinKind::Add, 0, 1),
                LoadLocal(1),
                BinImm(BinKind::Add, 20),
                StoreMem,
                BinLocals(BinKind::Add, 0, 1),
                BinImm(BinKind::Add, 4),
                LoadMemAt(0, 1),
                LoadLocal(1),
                Bin(BinKind::Add),
                StoreMem,
                RetVoid,
            ],
            None,
        ),
        (
            "LoadMemAt out of bounds, after a store",
            vec![
                LoadLocal(0),
                PushInt(3),
                StoreMem,
                PushInt(oob),
                StoreLocal(1),
                LoadMemAt(1, 0),
                RetVoid,
            ],
            Some("memory access out of bounds: address 100000"),
        ),
        (
            // The sum is a float; the load truncates it to an address, as
            // `LoadMem` does: out[tid] = out[(int)(out + 2.5)] + 1.
            "LoadMemAt with a float operand",
            vec![
                PushFloat(2.5),
                StoreLocal(1),
                LoadLocal(0),
                tid,
                Bin(BinKind::Add),
                LoadMemAt(0, 1),
                BinImm(BinKind::Add, 1),
                StoreMem,
                RetVoid,
            ],
            None,
        ),
        (
            // Threads 0 and 1 fall through the first, 2 and 3 take it; the
            // second is a shape the fuser never emits (not a comparison:
            // taken when `tid - 3` is zero) and jumps to the function's end.
            "CmpBranch, taken and not taken",
            vec![
                tid,
                StoreLocal(1),
                LoadLocal(1),
                PushInt(2),
                CmpBranch(BinKind::Lt, 10),
                BinLocals(BinKind::Add, 0, 1),
                PushInt(100),
                StoreMem,
                RetVoid,
                RetVoid,
                LoadLocal(1),
                PushInt(3),
                CmpBranch(BinKind::Sub, 18),
                BinLocals(BinKind::Add, 0, 1),
                PushInt(200),
                StoreMem,
                Jump(18),
                RetVoid,
            ],
            None,
        ),
        (
            // The `Jump` lands on the `CmpBranch`: a block leader that is a
            // fused slot, entered with its operands already on the stack.
            "CmpBranch as a branch target",
            vec![
                tid,
                StoreLocal(1),
                LoadLocal(1),
                PushInt(1),
                Jump(6),
                RetVoid,
                CmpBranch(BinKind::Gt, 11),
                BinLocals(BinKind::Add, 0, 1),
                PushInt(300),
                StoreMem,
                RetVoid,
                BinLocals(BinKind::Add, 0, 1),
                PushInt(400),
                StoreMem,
                RetVoid,
            ],
            None,
        ),
        (
            "CmpBranch fails",
            vec![
                PushFloat(1.0),
                PushInt(1),
                CmpBranch(BinKind::BitXor, 0),
                RetVoid,
            ],
            Some("bitwise operation on float"),
        ),
        (
            "CmpBranch on one operand",
            vec![PushInt(1), CmpBranch(BinKind::Lt, 0), RetVoid],
            Some("operand stack underflow"),
        ),
    ];
    for (name, code, error) in programs {
        let reference = run_hand_built(&code, DispatchMode::Match, u64::MAX);
        match (&reference.outcome, error) {
            (Ok(_), None) => assert_ne!(reference.memory, [7; 8], "{name} stores something"),
            (Err(message), Some(expected)) => {
                assert!(message.contains(expected), "{name}: {message}")
            }
            (outcome, _) => panic!("{name}: {outcome:?}"),
        }
        let charged = u64::MAX - reference.left;
        assert!(charged > 0, "{name}");
        for budget in (0..=charged + 1).chain([u64::MAX]) {
            let reference = run_hand_built(&code, DispatchMode::Match, budget);
            let got = run_hand_built(&code, DispatchMode::Threaded, budget);
            assert_eq!(got, reference, "{name}, budget {budget} of {charged}");
        }
    }
}

// ----------------------------------------------------------------------
// Replayed uniform prefixes
// ----------------------------------------------------------------------

use dpopt::vm::machine::DispatchProfile;

/// Everything a run lets a caller see, each memory word with its bits.
#[derive(Debug, PartialEq)]
struct Seen {
    outcome: Result<(MachineStats, ExecutionTrace), String>,
    /// Every allocated word, `Debug`-printed: `-0.0` is not `0.0` here.
    memory: Vec<String>,
    left: u64,
}

/// Runs `k(int* d, float* f, int n)` on two blocks of `threads` threads,
/// `d` 256 words starting with `d_init` and zero after it, `f` four `0.0`s
/// and `n` three, returning what the run shows and what the dispatcher
/// counted.
fn run_prefix_case(
    src: &str,
    d_init: &[i64],
    threads: i64,
    fuse: bool,
    dispatch: DispatchMode,
    budget: u64,
) -> (Seen, DispatchProfile) {
    let p = dpopt::frontend::parse(src).unwrap_or_else(|e| panic!("{}\n{src}", e.render(src)));
    let module = if fuse {
        compile_program(&p).unwrap()
    } else {
        compile_program_unfused(&p).unwrap()
    };
    let limits = ExecLimits {
        max_instructions: budget,
        ..ExecLimits::default()
    };
    let mut m = Machine::with_config(module, CostModel::default(), limits);
    m.set_dispatch(dispatch);
    let mut d = d_init.to_vec();
    d.resize(256, 0);
    let d = m.alloc_i64s(&d);
    let f = m.alloc_f64s(&[0.0; 4]);
    m.launch_host(
        "k",
        2,
        threads,
        &[Value::Int(d), Value::Int(f), Value::Int(3)],
    )
    .unwrap();
    let outcome = m.run_to_quiescence().map_err(|e| e.to_string());
    let words = m.mem.allocated_words();
    let memory = m.mem.read_range(1, words - 1).unwrap();
    let seen = Seen {
        memory: memory.iter().map(|v| format!("{v:?}")).collect(),
        left: m.instructions_left(),
        outcome: outcome.map(|()| (m.stats(), m.take_trace())),
    };
    (seen, m.dispatch_profile())
}

/// The pointer chase `p = d[p]` from 0 to the first zero, whose addresses
/// are each a function of the value read before. Lane 3 shortens the chain,
/// so lane 4 of block 0 records a shorter path; in block 1 the chain is
/// short from the start.
const CHASE: &str = "__global__ void k(int* d, float* f, int n) { \
    int p = 0; int steps = blockIdx.x; \
    while (d[p] != 0) { p = d[p]; steps = steps + 1; } \
    d[200 + blockIdx.x * 8 + threadIdx.x] = steps * 1000 + p; \
    if (threadIdx.x == 3) { d[2] = 0; } }";

/// A chain `0 → 1 → … → len` whose last link is zero.
fn chain(len: i64) -> Vec<i64> {
    (1..=len).chain([0]).collect()
}

/// One replay case: its name, source, the start of `d`, the lanes the
/// threaded loop replays, and whether every budget is run.
struct PrefixCase {
    name: &'static str,
    src: String,
    d_init: Vec<i64>,
    replayed_lanes: u64,
    every_budget: bool,
}

/// The threaded loop, which replays a block's uniform prefix on every lane
/// after the first where each logged load still reads the same bits, must
/// agree with `Match`, which replays nothing, on memory (every bit), the
/// statistics, the trace, the error text and what is left of the budget —
/// fused and unfused. Each case pins how many lanes replayed, so a change
/// that stops replaying (or replays where a load changed) shows.
#[test]
fn replayed_prefixes_match_the_reference() {
    let cases = [
        PrefixCase {
            // Every lane's body rewrites what the prefix read: every replay
            // misses and the lane records afresh.
            name: "prefix reads a word every body rewrites",
            src: "__global__ void k(int* d, float* f, int n) { \
                      int s = d[0] + blockIdx.x; \
                      if (s > 0) { s = s * 2; } \
                      d[200 + blockIdx.x * 8 + threadIdx.x] = s; \
                      d[0] = d[0] + 1; }"
                .into(),
            d_init: vec![5],
            replayed_lanes: 0,
            every_budget: false,
        },
        PrefixCase {
            // Lane 0 stores -0.0 over 0.0; `==` would replay lane 0's +inf
            // on lane 1, whose prefix divides by -0.0.
            name: "a float prefix divides by a negated zero",
            src: "__global__ void k(int* d, float* f, int n) { \
                      float q = 1.0 / f[0]; \
                      if (q > 0.0) { q = 1.0; } else { q = 0.0 - 1.0; } \
                      d[200 + blockIdx.x * 8 + threadIdx.x] = (int)q; \
                      if (threadIdx.x == 0) { f[0] = -f[0]; } }"
                .into(),
            d_init: vec![],
            replayed_lanes: 12,
            every_budget: false,
        },
        PrefixCase {
            // Lane 2 zeroes the divisor: lanes 1 and 2 replay, lane 3
            // records afresh and fails where dispatch would.
            name: "a later lane's prefix divides by zero",
            src: "__global__ void k(int* d, float* f, int n) { \
                      int q = 100 / d[1]; \
                      if (q > 0) { q = q + n; } \
                      d[200 + blockIdx.x * 8 + threadIdx.x] = q; \
                      if (threadIdx.x == 2) { d[1] = 0; } }"
                .into(),
            d_init: vec![0, 7],
            replayed_lanes: 2,
            every_budget: true,
        },
        PrefixCase {
            name: "a data-dependent loop under the log cap",
            src: CHASE.into(),
            d_init: chain(6),
            replayed_lanes: 13,
            every_budget: true,
        },
        PrefixCase {
            // 100 loads: past the cap, so lanes 0 to 3 of block 0 record
            // nothing and each runs the prefix; the chain lane 3 shortens is
            // recorded by lane 4 and replayed by the ten lanes after it.
            name: "a data-dependent loop over the log cap",
            src: CHASE.into(),
            d_init: chain(100),
            replayed_lanes: 10,
            every_budget: false,
        },
        PrefixCase {
            // Lane 2 writes the tile word the prefix reads: lanes 1 and 2
            // replay, lane 3 records afresh, lanes 4 to 7 replay that.
            name: "a prefix reads shared memory an earlier lane wrote",
            src: "__global__ void k(int* d, float* f, int n) { \
                      __shared__ int tile[4]; \
                      int v = tile[1] + blockIdx.x; \
                      if (v > 0) { v = v * 10; } \
                      d[200 + blockIdx.x * 8 + threadIdx.x] = v; \
                      if (threadIdx.x == 2) { tile[1] = 5; } }"
                .into(),
            d_init: vec![],
            replayed_lanes: 12,
            every_budget: false,
        },
        PrefixCase {
            // The round after the barrier starts mid-kernel: no prefix.
            name: "a barrier kernel",
            src: "__global__ void k(int* d, float* f, int n) { \
                      __shared__ int tile[8]; \
                      int base = d[blockIdx.x]; \
                      if (base >= 0) { base = base + n; } \
                      tile[threadIdx.x] = base + threadIdx.x; \
                      __syncthreads(); \
                      d[200 + blockIdx.x * 8 + threadIdx.x] = tile[7 - threadIdx.x]; }"
                .into(),
            d_init: vec![4, 9],
            replayed_lanes: 14,
            every_budget: true,
        },
        PrefixCase {
            // The parent's fourteen, and the child's: its prefix is the two
            // instructions before its `threadIdx.x` read, which three lanes
            // of each of the two child blocks replay.
            name: "a launching kernel",
            src: "__global__ void child(int* d, float* f, int n) { \
                      d[100 + threadIdx.x] = d[100 + threadIdx.x] + n; }\n\
                  __global__ void k(int* d, float* f, int n) { \
                      int c = d[2] + blockIdx.x; \
                      if (c > 0) { c = c + n; } \
                      if (threadIdx.x == 0) { child<<<1, 4>>>(d, f, c); } }"
                .into(),
            d_init: vec![0, 0, 6],
            replayed_lanes: 20,
            every_budget: false,
        },
        PrefixCase {
            // Every lane stores, but never to a word the prefix reads: the
            // store count moves, each compare runs and passes, and every
            // lane after the first replays.
            name: "every body stores beside what the prefix read",
            src: "__global__ void k(int* d, float* f, int n) { \
                      int s = d[0] + d[1] + blockIdx.x; \
                      if (s > 8) { s = s * 2; } \
                      d[200 + blockIdx.x * 8 + threadIdx.x] = s; }"
                .into(),
            d_init: vec![4, 5],
            replayed_lanes: 14,
            every_budget: true,
        },
        PrefixCase {
            // Lane 3 rewrites the logged word with the bits it holds: the
            // compare runs and passes.
            name: "a middle lane rewrites a logged word with the same bits",
            src: "__global__ void k(int* d, float* f, int n) { \
                      int q = d[1] + blockIdx.x; \
                      if (q > 0) { q = q + n; } \
                      d[200 + blockIdx.x * 8 + threadIdx.x] = q; \
                      if (threadIdx.x == 3) { d[1] = 7; } }"
                .into(),
            d_init: vec![0, 7],
            replayed_lanes: 14,
            every_budget: false,
        },
        PrefixCase {
            // Lane 2's `atomicCAS` fails and stores the old value back; lane
            // 5's succeeds, so lane 6 records afresh and lane 7 replays it.
            name: "a failing atomicCAS stores a logged word's bits back",
            src: "__global__ void k(int* d, float* f, int n) { \
                      int q = d[1] + blockIdx.x; \
                      if (q > 7) { q = q + n; } \
                      d[200 + blockIdx.x * 8 + threadIdx.x] = q; \
                      if (threadIdx.x == 2) { atomicCAS(&d[1], 0 - 1, 50); } \
                      if (threadIdx.x == 5) { atomicCAS(&d[1], d[1], d[1] + 1); } }"
                .into(),
            d_init: vec![0, 7],
            replayed_lanes: 12,
            every_budget: false,
        },
        PrefixCase {
            // The prefix reads only `__shared__` words and the body stores
            // only to them; lane 7 copies the tile out. Lane 3 changes the
            // logged word, so lane 4 records afresh and lanes 5 to 7 replay.
            name: "a prefix reads only shared words and lane 3 stores one",
            src: "__global__ void k(int* d, float* f, int n) { \
                      __shared__ int tile[16]; \
                      int v = tile[1] + blockIdx.x; \
                      if (v > 0) { v = v * 10; } \
                      tile[8 + threadIdx.x] = v; \
                      if (threadIdx.x == 3) { tile[1] = 5; } \
                      if (threadIdx.x == 7) { \
                          for (int i = 0; i < 8; ++i) { d[200 + blockIdx.x * 8 + i] = tile[8 + i]; } } }"
                .into(),
            d_init: vec![],
            replayed_lanes: 12,
            every_budget: false,
        },
        PrefixCase {
            // A later grid starts its count at zero. The parent's compares
            // leave the arena's prefix checked at store 15; each child lane
            // stores three times and rewrites the word its prefix read, so
            // every child lane records afresh, lane 5 at store 15.
            name: "a child grid's prefix recorded below an earlier grid's count",
            src: "__global__ void child(int* d, float* f, int n) { \
                      int c = d[1]; \
                      if (c > 0) { c = c + n; } \
                      d[100 + threadIdx.x] = c; \
                      d[1] = d[1] + 1; \
                      d[108 + threadIdx.x] = 1; }\n\
                  __global__ void k(int* d, float* f, int n) { \
                      int s = d[0] + blockIdx.x; \
                      if (s > 0) { s = s * 2; } \
                      d[200 + blockIdx.x * 8 + threadIdx.x] = s; \
                      if (blockIdx.x == 1 && threadIdx.x == 7) { child<<<1, 8>>>(d, f, n); } }"
                .into(),
            d_init: vec![4, 1],
            replayed_lanes: 14,
            every_budget: false,
        },
    ];
    for case in &cases {
        let name = case.name;
        let run = |fuse, dispatch, budget| {
            run_prefix_case(&case.src, &case.d_init, 8, fuse, dispatch, budget)
        };
        for fuse in [true, false] {
            let (reference, counted) = run(fuse, DispatchMode::Match, u64::MAX);
            assert_eq!(counted.replayed_lanes, 0, "{name}: `Match` replays nothing");
            let (got, profile) = run(fuse, DispatchMode::Threaded, u64::MAX);
            assert_eq!(got, reference, "{name}, fuse={fuse}");
            assert_eq!(
                profile.replayed_lanes, case.replayed_lanes,
                "{name}, fuse={fuse}: {profile:?}"
            );
            assert_eq!(
                profile.replayed_lanes == 0,
                profile.replayed_instructions == 0
            );
            if !case.every_budget {
                continue;
            }
            let charged = u64::MAX - reference.left;
            for budget in 0..=charged + 1 {
                let (reference, _) = run(fuse, DispatchMode::Match, budget);
                let (got, _) = run(fuse, DispatchMode::Threaded, budget);
                assert_eq!(
                    got, reference,
                    "{name}, fuse={fuse}, budget {budget} of {charged}"
                );
            }
        }
    }
}

// ----------------------------------------------------------------------
// Lanes parked at a barrier
// ----------------------------------------------------------------------

/// One barrier case, run by `run_prefix_case` on two blocks of `threads`
/// lanes: what `d[i]` must hold afterwards, given `i` and `threads`, and
/// how the run ends — each block's warp cycles and instructions, or the
/// error. The pinned counts were computed by a runner that gave every lane
/// a thread of its own and round-robined all of them: `Match` shares the
/// block runner, so it cannot check the runner's own accounting.
struct ParkedCase {
    name: &'static str,
    src: &'static str,
    threads: i64,
    d: fn(usize, i64) -> i64,
    ends: Result<(&'static [u64], u64), &'static str>,
    every_budget: bool,
}

/// The block and lane a `d` word at `i` belongs to: each block owns 64
/// words below 128 and 64 from 128.
fn block_lane(i: usize) -> (i64, i64) {
    ((i / 64 % 2) as i64, (i % 64) as i64)
}

/// A block's lanes run one at a time in one reused thread; a lane that
/// stops at a barrier is parked in a thread of its own, and each later
/// round runs the parked lanes in thread order. The threaded loop must
/// agree with `Match` on memory, statistics, the trace, the error text and
/// the budget left, fused and unfused. Both must also leave what thread
/// order says: the `atomicAdd` slots handed out after a barrier, and which
/// lanes ran before a fault, depend on the order parked lanes ran in.
#[test]
fn parked_lanes_run_in_thread_order() {
    let cases = [
        ParkedCase {
            name: "lanes return before a barrier the others wait at",
            src: "__global__ void k(int* d, float* f, int n) { \
                      __shared__ int tile[64]; \
                      int t = threadIdx.x; \
                      tile[t] = t * 3 + blockIdx.x; \
                      if (t % 3 == 1) { d[128 + blockIdx.x * 64 + t] = 0 - 1; return; } \
                      __syncthreads(); \
                      int slot = atomicAdd(&d[255], 1); \
                      d[blockIdx.x * 64 + t] = slot * 1000 + tile[(t + 1) % blockDim.x]; }",
            threads: 40,
            d: |i, threads| {
                let (block, t) = block_lane(i);
                let waited = threads - (threads + 1) / 3;
                match i {
                    255 => 2 * waited,
                    _ if t >= threads => 0,
                    0..128 if t % 3 != 1 => {
                        let slot = block * waited + t - (t + 1) / 3;
                        slot * 1000 + (t + 1) % threads * 3 + block
                    }
                    128.. if t % 3 == 1 => -1,
                    _ => 0,
                }
            },
            ends: Ok((&[144, 144], 2059)),
            every_budget: false,
        },
        ParkedCase {
            // `a` is written before the first barrier and read after the
            // second; a quarter of the lanes return between the two.
            name: "two barriers, shared memory read across both",
            src: "__global__ void k(int* d, float* f, int n) { \
                      __shared__ int a[64]; \
                      __shared__ int b[64]; \
                      int t = threadIdx.x; \
                      a[t] = t * 7 + blockIdx.x; \
                      __syncthreads(); \
                      b[t] = a[(t + 1) % blockDim.x] + n; \
                      if (t % 4 == 3) { return; } \
                      __syncthreads(); \
                      int slot = atomicAdd(&d[255], 1); \
                      d[blockIdx.x * 64 + t] = slot * 100000 \
                          + a[blockDim.x - 1 - t] * 100 + b[(t + 4) % blockDim.x]; }",
            threads: 12,
            d: |i, threads| {
                let (block, t) = block_lane(i);
                let waited = threads - (threads + 1) / 4;
                let a = |x: i64| x * 7 + block;
                let b = |x: i64| a((x + 1) % threads) + 3;
                match i {
                    255 => 2 * waited,
                    0..128 if t < threads && t % 4 != 3 => {
                        let slot = block * waited + t - (t + 1) / 4;
                        slot * 100000 + a(threads - 1 - t) * 100 + b((t + 4) % threads)
                    }
                    _ => 0,
                }
            },
            ends: Ok((&[226], 933)),
            every_budget: true,
        },
        ParkedCase {
            // Block 1's lane 21 faults in the round after the barrier: lanes
            // 0 to 20 ran that round before it, and no later lane did.
            name: "a parked lane faults in a later round",
            src: "__global__ void k(int* d, float* f, int n) { \
                      __shared__ int tile[64]; \
                      int t = threadIdx.x; \
                      tile[t] = t + blockIdx.x; \
                      d[128 + blockIdx.x * 64 + t] = 1; \
                      __syncthreads(); \
                      if (blockIdx.x == 1 && t == 21) { d[1000000] = 1; } \
                      d[blockIdx.x * 64 + t] = tile[(t + 1) % blockDim.x] + 1; }",
            threads: 40,
            d: |i, threads| {
                let (block, t) = block_lane(i);
                match i {
                    _ if t >= threads => 0,
                    128.. => 1,
                    _ if block == 1 && t >= 21 => 0,
                    _ => (t + 1) % threads + block + 1,
                }
            },
            ends: Err("out of bounds"),
            every_budget: false,
        },
    ];
    for case in &cases {
        let name = case.name;
        let run = |fuse, dispatch, budget| {
            run_prefix_case(case.src, &[], case.threads, fuse, dispatch, budget).0
        };
        let expected: Vec<String> = (0..256)
            .map(|i| format!("{:?}", Value::Int((case.d)(i, case.threads))))
            .collect();
        for fuse in [true, false] {
            let reference = run(fuse, DispatchMode::Match, u64::MAX);
            let got = run(fuse, DispatchMode::Threaded, u64::MAX);
            assert_eq!(got, reference, "{name}, fuse={fuse}");
            assert_eq!(got.memory[..256], expected[..], "{name}, fuse={fuse}");
            match (&got.outcome, case.ends) {
                (Ok((_, trace)), Ok((warp_cycles, instructions))) => {
                    for block in &trace.grids[0].blocks {
                        assert_eq!(block.warp_cycles, warp_cycles, "{name}");
                        assert_eq!(block.instructions, instructions, "{name}");
                    }
                }
                (Err(message), Err(error)) => {
                    assert!(message.contains(error), "{name}: {message}")
                }
                (outcome, _) => panic!("{name}: {outcome:?}"),
            }
            if !case.every_budget {
                continue;
            }
            let charged = u64::MAX - reference.left;
            for budget in 0..=charged + 1 {
                assert_eq!(
                    run(fuse, DispatchMode::Threaded, budget),
                    run(fuse, DispatchMode::Match, budget),
                    "{name}, fuse={fuse}, budget {budget} of {charged}"
                );
            }
        }
    }
}

/// Lane `t` of a `[bx, by, bz]` block is thread `(t % bx, t / bx % by,
/// t / (bx * by))`. Each lane writes its `threadIdx.{x,y,z}` and linear
/// index before and after a barrier, so the index a parked lane keeps is
/// checked too, on a two-block grid, under both dispatchers, fused and
/// unfused, against memory computed here.
#[test]
fn three_dimensional_blocks_see_their_thread_indices() {
    let src = "__global__ void k(int* d) { \
                   int lin = (threadIdx.z * blockDim.y + threadIdx.y) * blockDim.x + threadIdx.x; \
                   int n = blockDim.x * blockDim.y * blockDim.z; \
                   int at = blockIdx.x * 8 * n + 4 * lin; \
                   d[at] = threadIdx.x; d[at + 1] = threadIdx.y; \
                   d[at + 2] = threadIdx.z; d[at + 3] = lin; \
                   __syncthreads(); \
                   at = at + 4 * n; \
                   d[at] = threadIdx.x; d[at + 1] = threadIdx.y; \
                   d[at + 2] = threadIdx.z; d[at + 3] = lin; }";
    let p = dpopt::frontend::parse(src).unwrap_or_else(|e| panic!("{}\n{src}", e.render(src)));
    for block in [[4, 3, 2], [1, 5, 3], [7, 1, 1], [2, 2, 2]] {
        let [bx, by, bz] = block;
        let n = bx * by * bz;
        // Two blocks, each two phases of `n` lanes' four words.
        let expected: Vec<i64> = (0..2 * 2)
            .flat_map(|_| (0..n).flat_map(|t| [t % bx, t / bx % by, t / (bx * by), t]))
            .collect();
        for fuse in [true, false] {
            for dispatch in [DispatchMode::Threaded, DispatchMode::Match] {
                let module = if fuse {
                    compile_program(&p).unwrap()
                } else {
                    compile_program_unfused(&p).unwrap()
                };
                let mut m = Machine::new(module);
                m.set_dispatch(dispatch);
                let d = m.alloc(expected.len());
                m.launch_host("k", 2, block, &[Value::Int(d)]).unwrap();
                m.run_to_quiescence().unwrap();
                assert_eq!(
                    m.read_i64s(d, expected.len()).unwrap(),
                    expected,
                    "block {block:?}, fuse={fuse}, {dispatch:?}"
                );
            }
        }
    }
}

/// The count that catches a reversal: the generated `_agg` child's prologue
/// — a binary search over the aggregated launch's scanned grid sizes for
/// its parent, then the loads of that parent's arguments, run by every
/// thread of every child block — is most of what an aggregated BFS
/// executes, and the threaded loop replays it up to the first `threadIdx`
/// read. A transform or lowering change that puts a `threadIdx` read into
/// the prologue, a VM change that stops replaying, or a prefix that stops
/// at a block boundary again (before the argument loads) fails here; the
/// run still agrees with `Match` bit for bit.
#[test]
fn an_aggregated_bfs_replays_most_of_its_instructions() {
    use dpopt::core::{AggConfig, AggGranularity, Compiler, OptConfig};
    use dpopt::workloads::benchmarks::{bfs::Bfs, Benchmark};
    use dpopt::workloads::DatasetId;

    // `sweep-cold`'s input: KRON at its floor size.
    let input = DatasetId::Kron.instantiate(0.001, 42);
    let agg = OptConfig::none().aggregation(AggConfig::new(AggGranularity::MultiBlock(8)));
    // (variant, config, the least share of its instructions replayed)
    for (variant, config, least) in [
        ("CDP+A", agg, 0.85),
        ("CDP+C+A", agg.coarsen_factor(16), 0.8),
    ] {
        let run = |dispatch: DispatchMode| {
            let compiled = Compiler::new()
                .config(config)
                .dispatch(dispatch)
                .compile(Bfs.cdp_source())
                .unwrap();
            let mut exec = compiled.executor();
            let levels = Bfs.run(&mut exec, &input).unwrap().ints;
            let m = exec.machine_mut();
            let memory = m.read_i64s(1, m.mem.allocated_words() - 1).unwrap();
            let profile = m.dispatch_profile();
            let report = exec.finish();
            (levels, memory, report.stats, report.trace, profile)
        };
        let threaded = run(DispatchMode::Threaded);
        let reference = run(DispatchMode::Match);
        assert_eq!(threaded.0, reference.0, "{variant}: levels");
        assert_eq!(threaded.1, reference.1, "{variant}: memory");
        assert_eq!(threaded.2, reference.2, "{variant}: stats");
        assert_eq!(threaded.3, reference.3, "{variant}: trace");
        assert_eq!(reference.4.replayed_lanes, 0);
        let profile = threaded.4;
        let share = profile.replayed_instructions as f64 / threaded.2.instructions as f64;
        assert!(
            share >= least,
            "{variant}: {share:.3} of {} instructions replayed ({profile:?})",
            threaded.2.instructions
        );
    }
}
