//! # dp-vm
//!
//! A functional GPU executor for the CUDA-C subset: bytecode, lowering, and
//! an execution machine with grids, blocks, barriers, atomics, shared
//! memory, and **device-side kernel launches** (dynamic parallelism).
//!
//! The VM plays the role of the CUDA toolchain + GPU in the paper's
//! artifact: transformed programs are *actually executed*, so the
//! correctness of every compiler pass is testable end-to-end, and the
//! execution trace (per-warp cycles, per-origin cycle attribution, launch
//! events) feeds the `dp-sim` timing model that reproduces the paper's
//! evaluation.
//!
//! ## The execution hot path
//!
//! Interpreter throughput bounds how many configurations the benchmark
//! harness and autotuner can sweep, so the execution core is engineered
//! around six ideas (measured by `dp-bench`'s `vmbench` binary, tracked
//! in `BENCH_vm.json` at the repo root):
//!
//! 1. **Direct-threaded dispatch, block-charged accounting**: once per
//!    program ([`machine::Image`], shared by every machine that runs it)
//!    every function's instruction stream is decoded into a table of op
//!    slots — a handler function pointer plus pre-resolved
//!    operands — and cut into basic blocks
//!    ([`bytecode::CompiledFunction::block_charges`]), each with its
//!    summed cycles, width and per-origin cycles. The hot loop is an
//!    indirect call per instruction instead of a `match` over the opcode
//!    space, and one charge (budget included) per basic block instead of
//!    one per instruction. Hot binary families are specialized per
//!    [`bytecode::BinKind`]. [`machine::DispatchMode::Match`] selects the
//!    reference interpreter — primitive instructions only, charged one by
//!    one, a superinstruction run as its expansion — for differential tests.
//! 2. **Superinstruction fusion** (`lower::fuse_function`): a peephole
//!    pass collapses hot stack-shuffle sequences (`LoadLocal;LoadLocal;Bin`,
//!    `PushInt;Bin`, the six-instruction `i += k` statement pattern,
//!    `LoadLocal;LoadMem`, `StoreLocal s;LoadLocal s`) into single fused
//!    opcodes. Fusion is *accounting-transparent*: every superinstruction
//!    is charged its expansion's summed cycles and counted as
//!    [`Instr::width`](bytecode::Instr::width) original instructions, so
//!    traces, statistics, and per-origin attribution are byte-identical
//!    with fusion on or off.
//! 3. **Arena-reused thread state**: a block's lanes run one at a time in
//!    one reused `Thread` (frame, locals, operand stack); only a lane
//!    waiting at a barrier keeps one of its own. Threads and the
//!    shared-memory buffer are pooled across blocks and grids, and
//!    call-frame locals are recycled through a per-thread free list, so
//!    steady-state execution allocates nothing. Kernel arguments are
//!    coerced once per grid, not per block.
//! 4. **Uniform-prefix replay**: a kernel's instructions from its entry up
//!    to the first that is not `bytecode::Instr::lane_uniform` are run by
//!    a block's first lane and replayed on each later lane whose logged
//!    loads still read the same bits (see [`machine`], "Dispatch"). They
//!    are compared only when a device store happened since they were last
//!    compared.
//! 5. **Loop skipping** (`skip.rs`): a lane that came round a loop with
//!    a pure way round runs the first block of its next iteration; where
//!    that block leads it on purely, one walk of the iteration, with each
//!    value affine in the iteration number, solves for how many coming
//!    iterations stay on its path — a thresholded child's idle virtual
//!    threads, above all — and the lane jumps past them, charged exactly
//!    what dispatching them would charge.
//! 6. **Lane skipping** (`skip.rs`): at its start point a block's lane
//!    walks on with each value affine in its lane offset; where the walk
//!    reaches the kernel's end through `bytecode::Instr::loop_pure`
//!    instructions only, the lanes its tests admit — a CDP child's idle
//!    tail, above all — are retired together, each charged exactly what
//!    dispatching it would charge. Both skips share the walk's one `step`
//!    over primitives.
//!
//! To add a new superinstruction, see the checklist on
//! `lower::fuse_function`; for a new primitive, the "New opcodes"
//! standing invariant in `ROADMAP.md`.
//!
//! ## Example
//!
//! ```
//! use dp_vm::{lower::compile_program, machine::Machine, Value};
//!
//! let program = dp_frontend::parse(
//!     "__global__ void child(int* d, int base) { d[base + threadIdx.x] = 1; }\n\
//!      __global__ void parent(int* d) { child<<<1, 4>>>(d, threadIdx.x * 4); }",
//! ).unwrap();
//! let mut machine = Machine::new(compile_program(&program).unwrap());
//! let buf = machine.alloc(16);
//! machine.launch_host("parent", 1, 4, &[Value::Int(buf)]).unwrap();
//! machine.run_to_quiescence().unwrap();
//! assert_eq!(machine.read_i64s(buf, 16).unwrap(), vec![1; 16]);
//! ```

pub mod bytecode;
pub(crate) mod error;
pub mod lower;
pub mod machine;
mod memory;
mod ops;
mod reference;
mod skip;
pub mod trace;
pub(crate) mod value;

pub use bytecode::CostModel;
pub use error::{CompileError, ExecError};
pub use lower::compile_program_unfused;
pub use machine::{DispatchMode, ExecLimits, Machine, MachineStats};
pub use trace::{ExecutionTrace, OriginCycles};
pub use value::{LaunchDim, Value};
