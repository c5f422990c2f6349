//! The GPU execution machine: grids, blocks, threads, barriers, the launch
//! queue, and the threaded dispatch loop.
//!
//! Execution is *functionally deterministic*: grids run in FIFO launch
//! order; within a block, threads run in index order between barriers.
//! Timing is not modelled here — the machine produces an
//! [`ExecutionTrace`](crate::trace::ExecutionTrace) that `dp-sim` replays
//! against a hardware model.
//!
//! ## Dispatch
//!
//! The interpreter is **direct-threaded**: when an [`Image`] is built every
//! function's instruction stream is decoded into a table of slots — a
//! function pointer per opcode plus pre-resolved operands (`ops.rs`) — so
//! the hot loop is an indirect call per instruction instead of a `match`
//! over the whole opcode space. The tables never change, so the machines
//! that run one program share its image rather than each building them.
//! Accounting (cycles, width, origin, budget) is static per basic block, so
//! the table also holds one [`BlockCharge`] per block and the loop charges
//! it when it dispatches the block's leader, and nothing otherwise. An
//! opcode that ends a basic block or must observe an exact `thread.cycles`
//! has to say so in [`CompiledFunction::block_charges`].
//!
//! A block's **uniform prefix** — a kernel's instructions from its entry up
//! to the first that reads a thread index or writes outside the thread's
//! frame, such as an aggregated child's search for its parent and the loads
//! of that parent's arguments — stores nothing, so what it computes is
//! decided by the values it loads. `block_charges` makes that first
//! instruction a leader, so the prefix is the [`BlockCharge::uniform`]
//! blocks from the entry and ends at an instruction, not at a block. The
//! first lane runs it and records (`Prefix`); a later lane whose logged
//! addresses hold the same bits when it starts takes the recorded state and
//! is charged, all at once, exactly what dispatching the prefix would
//! charge. The logged loads are compared only when a device store happened
//! since they were last compared: the grid counts its stores, and while the
//! count stands still every logged address holds what it held.
//!
//! Idle work is charged, not run (`skip.rs`): one walk, holding each value
//! as `v0 + n·d` in a step `n`, evaluates the pure instructions a lane has
//! ahead of it and solves each comparison for how many steps come out as
//! step 0 does. Neither skip happens under `Match`.
//!
//! A loop whose coming iterations all take one **pure, affine path** is
//! skipped, not interpreted — a thresholded child's serial loop over its
//! virtual threads is one, where an idle thread (`e >= count`) only tests,
//! computes `e` and loops. A lane that came round such a loop runs the
//! first block of its next iteration as usual; if that block leads it into
//! a pure block, the lane is moved back to where the iteration began, the
//! walk follows one iteration, with the induction variable as the unknown,
//! and the lane's locals are moved past the iterations that stay on that
//! path (and keep every compared value inside `i64`), charged — cycles,
//! instructions, origin cycles and budget — exactly what dispatching them
//! would; at most what the budget covers. Then it runs on as usual. No
//! skip happens while a prefix is recorded.
//!
//! A block's lanes whose **remaining path is pure and affine in
//! `threadIdx.x`** are retired together, not run — a CDP child's idle tail,
//! whose lanes only test `e < count` and return. At its start point (its
//! kernel's entry, or the end of its replayed or recorded prefix) a lane
//! holds what every lane of its block holds but for its thread index, so
//! the walk from there in the lane offset `n` finds the route lane `t`
//! takes and how many lanes from `t` on take it too. If it ends at the
//! kernel's `RetVoid` through pure instructions only, those lanes — up to
//! the row's end, for lanes step in x only, and as many as the budget
//! covers — are retired at once: each is charged its prefix (lane `t`'s is
//! charged already; a later lane's counts as replayed where it would have
//! been) and the route's summed block charges, into its cycles,
//! instructions, origin cycles and the budget. If the walk stops at an
//! instruction it does not evaluate, the lanes it admits reach that
//! instruction the same way: they run as usual, and the next walk is tried
//! after them, so a run of busy lanes pays one walk.
//!
//! A block's lanes run one after another in one reused `Thread`; only a
//! lane that stops at a barrier keeps a thread of its own until it is
//! released (`BlockArena`).
//!
//! [`DispatchMode::Match`] selects the reference interpreter
//! (`reference.rs`): the oracle of the differential tests, `vmbench`'s
//! baseline, and where this loop lands when the budget ends inside a block.
//!
//! The layers: `bytecode.rs` says what an instruction means and costs,
//! `lower.rs` plans, this file is the runtime, `ops.rs` is the backend and
//! `memory.rs` the device memory under it.

use crate::bytecode::*;
use crate::error::ExecError;
pub use crate::memory::Memory;
use crate::ops::{
    build_tables, coerce, load_address, Flow, FuncTable, StepCtx, ThreadedOp, NO_SKIP,
};
use crate::reference::run_thread_match;
use crate::skip::{self, Charge, Route};
use crate::trace::*;
use crate::value::{Dim3Table, LaunchDim, Value, SHARED_SPACE_BASE};
use dp_frontend::ast::{CodeOrigin, FnQual};
use dp_obs::metrics::Histogram;
use std::collections::VecDeque;
use std::sync::Arc;

/// Wall time of one `run_to_quiescence` call (a host launch's full
/// device-side cascade).
static VM_RUN_US: Histogram = Histogram::new("vm.run_us");

/// Execution limits (to keep tests and runaway kernels bounded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecLimits {
    /// Maximum dynamic instructions over the machine's lifetime (see
    /// [`Machine::instructions_left`]).
    pub max_instructions: u64,
    /// Maximum pending (not yet executed) grids, modelling CUDA's pending
    /// launch buffer (the paper sets `cudaLimitDevRuntimePendingLaunchCount`
    /// to avoid overflowing it; we default to a large pool).
    pub max_pending: usize,
    /// Maximum threads per block (hardware limit).
    pub max_threads_per_block: u64,
}

impl Default for ExecLimits {
    fn default() -> Self {
        ExecLimits {
            max_instructions: u64::MAX,
            max_pending: 1 << 22,
            max_threads_per_block: 1024,
        }
    }
}

pub(crate) struct Frame {
    pub(crate) func: FuncId,
    pub(crate) pc: usize,
    pub(crate) locals: Vec<Value>,
}

pub(crate) enum ThreadStatus {
    Running,
    AtBarrier,
    Done,
}

/// One simulated GPU thread. The *current* frame is a direct field (not
/// the top of a `Vec`), so the dispatch loops and op handlers reach
/// `pc`/`locals` without an indirection or `last_mut` check; suspended
/// caller frames live in `callers`.
pub(crate) struct Thread {
    pub(crate) frame: Frame,
    pub(crate) callers: Vec<Frame>,
    pub(crate) stack: Vec<Value>,
    pub(crate) status: ThreadStatus,
    pub(crate) cycles: u64,
    pub(crate) instructions: u64,
    pub(crate) origin_cycles: OriginCycles,
    pub(crate) tidx: [i64; 3],
    /// The lane came round a loop with a skip (`skip.rs`) since one was
    /// last tried: the loop's try point, and the instruction count at which
    /// the lane ends the first block of the iteration it begins. Only such a
    /// lane tries, so a lane that runs a loop once never pays for trying.
    pub(crate) looped: Option<(u32, u64)>,
    /// Locals vectors of popped frames, reused by later calls so steady-state
    /// call/return traffic allocates nothing.
    pub(crate) spare_locals: Vec<Vec<Value>>,
}

impl Default for Thread {
    fn default() -> Self {
        Thread {
            frame: Frame {
                func: 0,
                pc: 0,
                locals: Vec::new(),
            },
            callers: Vec::new(),
            stack: Vec::with_capacity(16),
            status: ThreadStatus::Running,
            cycles: 0,
            instructions: 0,
            origin_cycles: OriginCycles::default(),
            tidx: [0; 3],
            looped: None,
            spare_locals: Vec::new(),
        }
    }
}

impl Thread {
    /// Makes a (possibly previously used) thread lane `tidx` of a `kernel`
    /// block, setting what a replayed prefix does not — the frame's
    /// function, the status and the thread index — and unwinding the frames
    /// a failed run left.
    fn enter(&mut self, kernel: FuncId, tidx: [i64; 3]) {
        while let Some(f) = self.callers.pop() {
            self.spare_locals.push(f.locals);
        }
        self.frame.func = kernel;
        self.status = ThreadStatus::Running;
        self.tidx = tidx;
        self.looped = None;
    }

    /// Starts an entered lane at its kernel's first instruction with fresh
    /// locals and counters, reusing the frame's and stack's allocations.
    fn reset(&mut self, n_locals: u16, args: &[Value]) {
        self.frame.pc = 0;
        self.frame.locals.clear();
        self.frame.locals.resize(n_locals as usize, Value::Int(0));
        self.frame.locals[..args.len()].copy_from_slice(args);
        self.stack.clear();
        self.cycles = 0;
        self.instructions = 0;
        self.origin_cycles = OriginCycles::default();
    }

    /// Pops the current frame, resuming the caller. Returns `false` when
    /// the kernel frame itself returned (the thread is done; the frame and
    /// its locals are kept for reuse by the next `reset`).
    #[inline]
    pub(crate) fn pop_frame(&mut self) -> bool {
        match self.callers.pop() {
            Some(caller) => {
                let done = std::mem::replace(&mut self.frame, caller);
                self.spare_locals.push(done.locals);
                true
            }
            None => false,
        }
    }
}

/// Shared per-instruction return helper: pops the current frame after a
/// (value-less) function end. `true` → resume the caller (`continue
/// 'frames`), `false` → the thread is done.
#[inline]
pub(crate) fn fall_off_end(thread: &mut Thread) -> bool {
    if thread.pop_frame() {
        thread.stack.push(Value::Int(0));
        true
    } else {
        thread.status = ThreadStatus::Done;
        false
    }
}

/// Per-block execution state pooled across the blocks of a grid (and across
/// grids). A block's lanes run one at a time in `lane`; one that stops at a
/// barrier is parked with the thread it stopped in, and `lane` is replaced
/// from `spare`. So a block holds as many threads as lanes wait at one
/// barrier at once, not one per lane, and steady-state execution allocates
/// nothing.
#[derive(Default)]
struct BlockArena {
    /// The thread the next lane runs in.
    lane: Thread,
    /// Lanes waiting at a barrier, in thread order, with their lane index.
    parked: Vec<(usize, Thread)>,
    /// Threads no lane holds.
    spare: Vec<Thread>,
    /// Each lane's cycles when it finished, for the warp maxima.
    cycles: Vec<u64>,
    shared: Vec<Value>,
    prefix: Prefix,
}

/// Most loads a recorded prefix logs; a lane reading more stops recording
/// at the next leader and runs on, and nothing is replayed from it.
const PREFIX_LOADS_MAX: usize = 64;

/// A block's uniform prefix as the lane that last ran it saw it: each load
/// `(address, value)` in order, and the lane's state where it left. The
/// loads are compared again only when a device store happened since they
/// were last compared: until then every logged address holds what it held.
#[derive(Default)]
struct Prefix {
    /// The fields below are a complete recording made in this block.
    recorded: bool,
    loads: Vec<(i64, Value)>,
    /// The grid's store count (`ExecEnv::stores`) when `loads` last held.
    checked_at: u64,
    pc: usize,
    locals: Vec<Value>,
    stack: Vec<Value>,
    cycles: u64,
    instructions: u64,
    origin_cycles: OriginCycles,
}

impl Prefix {
    /// Saves `thread`'s state at the first leader the prefix does not cover.
    /// The lane stored nothing while it logged, so its loads hold at
    /// `stores`.
    fn finish(&mut self, thread: &Thread, stores: u64) {
        self.recorded = self.loads.len() <= PREFIX_LOADS_MAX;
        self.checked_at = stores;
        self.pc = thread.frame.pc;
        self.locals.clone_from(&thread.frame.locals);
        self.stack.clone_from(&thread.stack);
        self.cycles = thread.cycles;
        self.instructions = thread.instructions;
        self.origin_cycles = thread.origin_cycles;
    }

    /// Moves `thread`, a lane just [`Thread::enter`]ed, to where the
    /// recording lane left the prefix — `pc`, locals, stack and counters —
    /// charging what dispatching it would, if the budget covers it and every
    /// logged address still holds the same bits. Else touches nothing and
    /// returns `false`. The addresses are read only when a device store
    /// happened since they were last compared; a compare that passes
    /// refreshes `checked_at`.
    fn replay(&mut self, env: &mut ExecEnv<'_>, thread: &mut Thread, shared: &[Value]) -> bool {
        if !self.recorded || *env.instr_budget < self.instructions {
            return false;
        }
        if env.stores != self.checked_at {
            let unchanged = |&(addr, logged): &(i64, Value)| {
                env.load(addr, shared)
                    .is_ok_and(|now| same_bits(now, logged))
            };
            if !self.loads.iter().all(unchanged) {
                return false;
            }
            self.checked_at = env.stores;
        }
        *env.instr_budget -= self.instructions;
        env.profile.replayed_lanes += 1;
        env.profile.replayed_instructions += self.instructions;
        thread.frame.pc = self.pc;
        thread.frame.locals.clone_from(&self.locals);
        thread.stack.clone_from(&self.stack);
        thread.cycles = self.cycles;
        thread.instructions = self.instructions;
        thread.origin_cycles = self.origin_cycles;
        true
    }
}

/// Equality of the bits: `-0.0` is not `0.0`, and a NaN is itself.
fn same_bits(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// How the interpreter dispatches instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Precomputed function-pointer table per instruction (the default).
    #[default]
    Threaded,
    /// The reference interpreter: a `match` over the primitive
    /// instructions, for differential tests and the `vmbench` baseline.
    Match,
}

// ----------------------------------------------------------------------
// Execution environment: launch queue, statistics, memory access
// ----------------------------------------------------------------------

struct PendingGrid {
    kernel: FuncId,
    grid: [i64; 3],
    block: [i64; 3],
    args: Vec<Value>,
    origin: LaunchOrigin,
    id: usize,
}

/// The machine's FIFO of launched-but-not-yet-executed grids. Grid ids are
/// assigned at enqueue time, so execution order equals id order.
#[derive(Default)]
pub(crate) struct LaunchQueue {
    pending: VecDeque<PendingGrid>,
    next_grid_id: usize,
}

impl LaunchQueue {
    /// Validates a launch (host- or device-side) and appends it to the
    /// queue, returning the new grid's id.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn enqueue(
        &mut self,
        module: &Module,
        limits: &ExecLimits,
        kernel: FuncId,
        grid: [i64; 3],
        block: [i64; 3],
        args: Vec<Value>,
        origin: LaunchOrigin,
    ) -> Result<usize, ExecError> {
        let func = module.function(kernel);
        if func.qual != FnQual::Global {
            return Err(ExecError::new(format!(
                "`{}` is not a __global__ kernel",
                func.name
            )));
        }
        if args.len() != func.param_types.len() {
            return Err(ExecError::new(format!(
                "kernel `{}` takes {} arguments, got {}",
                func.name,
                func.param_types.len(),
                args.len()
            )));
        }
        let threads = dim_product(block, "block")?;
        if threads <= 0 || threads > limits.max_threads_per_block as i64 {
            return Err(ExecError::new(format!(
                "invalid block size {threads} for kernel `{}`",
                func.name
            )));
        }
        if grid.iter().any(|&d| d < 0) {
            return Err(ExecError::new(format!(
                "negative grid dimension for kernel `{}`",
                func.name
            )));
        }
        dim_product(grid, "grid")?;
        if self.pending.len() >= limits.max_pending {
            return Err(ExecError::new(
                "pending launch buffer overflow (raise ExecLimits::max_pending)",
            ));
        }
        let id = self.next_grid_id;
        self.next_grid_id += 1;
        self.pending.push_back(PendingGrid {
            kernel,
            grid,
            block,
            args,
            origin,
            id,
        });
        Ok(id)
    }
}

/// Runtime statistics for a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Grids executed.
    pub grids_executed: u64,
    /// Dynamic instructions executed.
    pub instructions: u64,
    /// Device-side launch instructions that created a grid.
    pub device_launches: u64,
    /// Launches skipped because the grid size was zero.
    pub empty_launches: u64,
}

/// What each dispatcher counts of its own way of working. These differ
/// between the two by design, so they stay out of [`MachineStats`].
///
/// `Match` counts table slots dispatched and how many of them led a basic
/// block (the threaded loop does not pay for this). Their ratio is the
/// number of handler calls the threaded loop makes per block charge
/// (`vmbench`'s `ops_per_block`; `ops` itself is its `dispatched_ops`,
/// which `benchgate` holds down). The threaded loop counts what it did not
/// dispatch: replayed uniform prefixes, skipped loop iterations and
/// skipped lanes (module doc, "Dispatch"), which `Match` never does. A lane
/// retired with its block's idle tail is counted as skipped and, where its
/// prefix would have been replayed, as replayed too.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchProfile {
    /// Table slots dispatched (a fused superinstruction is one; `Match` only).
    pub ops: u64,
    /// Of those, block leaders.
    pub blocks: u64,
    /// Lanes whose uniform prefix the threaded loop replayed.
    pub replayed_lanes: u64,
    /// Instructions those replays charged.
    pub replayed_instructions: u64,
    /// Loop iterations the threaded loop skipped.
    pub skipped_iterations: u64,
    /// Instructions those skips charged.
    pub skipped_instructions: u64,
    /// Lanes the threaded loop retired without running them.
    pub skipped_lanes: u64,
    /// Instructions those retirements charged: each lane's route, and each
    /// lane's prefix but the first of a run's, whose prefix ran before.
    pub skipped_lane_instructions: u64,
}

/// Bytes of one decoded table slot (`vmbench` records it).
pub const THREADED_OP_BYTES: usize = std::mem::size_of::<ThreadedOp>();

/// The disjoint machine borrows the execution loop needs: read-only code,
/// dispatch tables and configuration, global memory, the launch queue, and
/// statistics.
pub(crate) struct ExecEnv<'m> {
    pub(crate) module: &'m Module,
    pub(crate) tables: &'m [FuncTable],
    pub(crate) cost: &'m CostModel,
    pub(crate) limits: &'m ExecLimits,
    dispatch: DispatchMode,
    mem: &'m mut Memory,
    pub(crate) dim3s: &'m mut Dim3Table,
    pub(crate) launches: &'m mut LaunchQueue,
    pub(crate) stats: &'m mut MachineStats,
    pub(crate) profile: &'m mut DispatchProfile,
    pub(crate) instr_budget: &'m mut u64,
    /// Stores this grid has made, global and shared: every device write
    /// goes through `store`, and the host writes only between grids.
    stores: u64,
}

// `load`/`store` are inlined into the memory-op handlers (`ops.rs`, another
// codegen unit — `Memory::read`/`write` are `#[inline]` too): 6–8 % of a cold
// BFS sweep (40 alternating pairs against the out-of-line build). While
// `ExecError` was 48 bytes wide the same inlining *cost* ~7 %: every copy
// carried a by-memory error return.
impl ExecEnv<'_> {
    #[inline]
    pub(crate) fn load(&mut self, addr: i64, shared: &[Value]) -> Result<Value, ExecError> {
        if addr >= SHARED_SPACE_BASE {
            let off = (addr - SHARED_SPACE_BASE) as usize;
            shared.get(off).copied().ok_or_else(|| {
                ExecError::new(format!("shared memory access out of bounds: offset {off}"))
            })
        } else {
            self.mem.read(addr)
        }
    }

    #[inline]
    pub(crate) fn store(
        &mut self,
        addr: i64,
        value: Value,
        shared: &mut [Value],
    ) -> Result<(), ExecError> {
        self.stores += 1;
        if addr >= SHARED_SPACE_BASE {
            let off = (addr - SHARED_SPACE_BASE) as usize;
            match shared.get_mut(off) {
                Some(slot) => {
                    *slot = value;
                    Ok(())
                }
                None => Err(ExecError::new(format!(
                    "shared memory access out of bounds: offset {off}"
                ))),
            }
        } else {
            self.mem.write(addr, value)
        }
    }
}

pub(crate) struct BlockCtx {
    pub(crate) grid_dim: [i64; 3],
    pub(crate) block_dim: [i64; 3],
    pub(crate) block_idx: [i64; 3],
    pub(crate) grid_id: usize,
    pub(crate) linear_block: u64,
}

/// `d[0] * d[1] * d[2]` of a launch configuration; a product beyond `i64`
/// is an error, not a wrap-around.
pub(crate) fn dim_product(d: [i64; 3], what: &str) -> Result<i64, ExecError> {
    d[0].checked_mul(d[1])
        .and_then(|xy| xy.checked_mul(d[2]))
        .ok_or_else(|| ExecError::new(format!("{what} size {d:?} overflows")))
}

pub(crate) fn budget_exhausted() -> ExecError {
    ExecError::new(
        "instruction budget exhausted (possible infinite loop; raise ExecLimits::max_instructions)",
    )
}

// ----------------------------------------------------------------------
// The threaded loop, and a block of threads
// ----------------------------------------------------------------------

/// Runs one thread until it returns, reaches a barrier, or errors —
/// direct-threaded dispatch: per instruction, tail into the opcode's
/// handler through its function pointer; per basic block, charge the
/// block's summed accounting at its leader. Every way into this loop lands
/// on a leader. The per-function table is re-derived only when the frame
/// stack changes.
/// `RECORD` runs a lane from its kernel's entry through the uniform prefix
/// only, logging each load into `prefix`, and returns it still running.
fn run_thread_threaded<const RECORD: bool>(
    env: &mut ExecEnv<'_>,
    thread: &mut Thread,
    block: &BlockCtx,
    shared: &mut [Value],
    btrace: &mut BlockTrace,
    prefix: &mut Prefix,
) -> Result<(), ExecError> {
    let tables = env.tables;
    let mut s = StepCtx {
        env,
        thread,
        block,
        shared,
        btrace,
    };
    'frames: loop {
        let table = &tables[s.thread.frame.func as usize];
        loop {
            let pc = s.thread.frame.pc;
            if RECORD {
                let leader = table.ops.get(pc);
                let uniform = leader.is_some_and(|op| table.charges[op.charge as usize].uniform);
                if !uniform || prefix.loads.len() > PREFIX_LOADS_MAX {
                    prefix.finish(s.thread, s.env.stores);
                    return Ok(());
                }
            }
            let Some(leader) = table.ops.get(pc) else {
                // Fell off the end of a void function.
                if fall_off_end(s.thread) {
                    continue 'frames;
                }
                return Ok(());
            };
            if !RECORD
                && leader.skip != NO_SKIP
                && s.thread.looped == Some((leader.skip, s.thread.instructions))
                && skip::iterations(table, leader.skip, &mut s)
            {
                continue;
            }
            let charge = &table.charges[leader.charge as usize];
            if *s.env.instr_budget < charge.width {
                // The budget ends inside this block: the reference loop
                // charges per instruction and stops at the same one, with
                // the same message, as it always did.
                return run_thread_match(s.env, s.thread, s.block, s.shared, s.btrace);
            }
            *s.env.instr_budget -= charge.width;
            s.thread.cycles += charge.cycles;
            s.thread.instructions += charge.width;
            s.thread.origin_cycles.merge(&charge.origin);
            // Only a block's last instruction reads or writes `pc`.
            let end = pc + charge.len as usize;
            s.thread.frame.pc = end;
            for (i, op) in table.ops[pc..end].iter().enumerate() {
                let load = if RECORD {
                    load_address(op.instr, &s.thread.frame.locals, &s.thread.stack)
                } else {
                    None
                };
                match (op.exec)(op, &mut s) {
                    Ok(Flow::Next) => {
                        if let Some(addr) = load {
                            // The prefix stores nothing: this is what was read.
                            prefix.loads.push((addr, s.env.load(addr, s.shared)?));
                        }
                    }
                    Ok(Flow::Frame) => continue 'frames,
                    Ok(Flow::Yield) => return Ok(()),
                    Err(e) => {
                        // Hand back the budget of the instructions after
                        // the failed one: a failed run leaves `instr_budget`
                        // where per-instruction charging does. (The thread's
                        // own counters die with its block's trace.)
                        let rest = &table.ops[pc + i + 1..end];
                        *s.env.instr_budget +=
                            rest.iter().map(|op| op.instr.width() as u64).sum::<u64>();
                        return Err(e);
                    }
                }
            }
        }
    }
}

/// Runs `thread` until it finishes or stops at a barrier, under the
/// machine's dispatcher.
fn run_lane(
    env: &mut ExecEnv<'_>,
    thread: &mut Thread,
    block: &BlockCtx,
    shared: &mut [Value],
    btrace: &mut BlockTrace,
    prefix: &mut Prefix,
) -> Result<(), ExecError> {
    match env.dispatch {
        DispatchMode::Threaded => {
            run_thread_threaded::<false>(env, thread, block, shared, btrace, prefix)
        }
        DispatchMode::Match => run_thread_match(env, thread, block, shared, btrace),
    }
}

/// Folds finished lane `t`'s counters into its block's.
fn retire(btrace: &mut BlockTrace, cycles: &mut [u64], t: usize, thread: &Thread) {
    cycles[t] = thread.cycles;
    btrace.origin_cycles.merge(&thread.origin_cycles);
    btrace.instructions += thread.instructions;
}

/// Retires up to `lanes` lanes from lane `t`, which all take the idle
/// `route` from the start point `lane` is at to their kernel's end — as
/// many as the budget covers — and returns how many. Each is charged what
/// dispatching it would charge: lane `t` the route, for its prefix is
/// charged; each later one its prefix too, as replayed when `replayed`.
#[allow(clippy::too_many_arguments)]
fn skip_lanes(
    env: &mut ExecEnv<'_>,
    btrace: &mut BlockTrace,
    cycles: &mut [u64],
    t: usize,
    lane: &Thread,
    lanes: u64,
    route: &Charge,
    replayed: bool,
) -> usize {
    let (prefix, each) = (lane.instructions, lane.instructions + route.width);
    let covered = match env.instr_budget.checked_sub(route.width) {
        Some(rest) => rest.checked_div(each).map_or(u64::MAX, |later| later + 1),
        None => 0,
    };
    let k = lanes.min(covered);
    if k == 0 {
        return 0;
    }
    let charged = route.width + (k - 1) * each;
    *env.instr_budget -= charged;
    env.profile.skipped_lanes += k;
    env.profile.skipped_lane_instructions += charged;
    if replayed {
        env.profile.replayed_lanes += k - 1;
        env.profile.replayed_instructions += (k - 1) * prefix;
    }
    let k = k as usize;
    cycles[t..t + k].fill(lane.cycles + route.cycles);
    let mut origin = lane.origin_cycles;
    origin.merge(&route.origin);
    for (to, c) in btrace.origin_cycles.0.iter_mut().zip(origin.0) {
        *to = to.wrapping_add((k as u64).wrapping_mul(c));
    }
    btrace.instructions += k as u64 * each;
    k
}

/// Executes one block to completion against the given environment. The
/// first round runs lanes one at a time, in thread order, in the arena's
/// one working thread, replaying the uniform prefix where it can; a lane
/// that stops at a barrier is parked in its own thread. Each later round
/// releases the barrier and runs the parked lanes in thread order, as a
/// round-robin over every lane would. Then it settles the per-warp and
/// per-origin accounting.
fn run_block(
    env: &mut ExecEnv<'_>,
    arena: &mut BlockArena,
    grid: &PendingGrid,
    coerced_args: &[Value],
    linear_block: u64,
) -> Result<BlockTrace, ExecError> {
    let func = env.module.function(grid.kernel);
    let contains_launch = func.contains_launch;
    let n_locals = func.n_locals;
    let n_threads = (grid.block[0] * grid.block[1] * grid.block[2]) as usize;

    let BlockArena {
        lane,
        parked,
        spare,
        cycles,
        shared,
        prefix,
    } = arena;
    // A block that failed may have left lanes parked.
    spare.extend(parked.drain(..).map(|(_, thread)| thread));
    shared.clear();
    shared.resize(func.shared_words as usize, Value::Int(0));
    cycles.clear();
    cycles.resize(n_threads, 0);
    // Each block records afresh, so `checked_at` is set in this grid before
    // any lane compares it with the grid's store count.
    prefix.recorded = false;
    // Lanes start at the kernel's entry block.
    let table = &env.tables[grid.kernel as usize];
    let threaded = env.dispatch == DispatchMode::Threaded;
    let replays = threaded && table.charges.first().is_some_and(|b| b.uniform);

    let mut btrace = BlockTrace::default();
    let ctx = BlockCtx {
        grid_dim: grid.grid,
        block_dim: grid.block,
        block_idx: linear_to_block_idx(linear_block as i64, grid.grid),
        grid_id: grid.id,
        linear_block,
    };

    // Lane `t`'s thread index, carried `x → y → z` from lane to lane; lanes
    // from `walk_at` on try a walk (`skip.rs`) at their start point.
    let mut tidx = [0i64; 3];
    let mut t = 0;
    let mut walk_at = 0;
    while t < n_threads {
        lane.enter(grid.kernel, tidx);
        if !(replays && prefix.replay(env, lane, shared)) {
            lane.reset(n_locals, coerced_args);
            if replays {
                prefix.loads.clear();
                run_thread_threaded::<true>(env, lane, &ctx, shared, &mut btrace, prefix)?;
            }
        }
        // The lanes from `t` this step settles.
        let mut settled = 0;
        if threaded && t >= walk_at {
            // Lanes step in x only: a route is shared to the row's end.
            let row = (grid.block[0] - tidx[0]) as u64;
            match skip::lanes(table, lane, &ctx, env.dim3s) {
                Route::Idle(admitted, route) => {
                    let replayed = replays && prefix.recorded;
                    let lanes = admitted.min(row);
                    settled =
                        skip_lanes(env, &mut btrace, cycles, t, lane, lanes, &route, replayed);
                    walk_at = t + 1;
                }
                Route::Busy(admitted) => walk_at = t + admitted.min(row) as usize,
            }
        }
        if settled == 0 {
            settled = 1;
            run_lane(env, lane, &ctx, shared, &mut btrace, prefix)?;
            if matches!(lane.status, ThreadStatus::AtBarrier) {
                let next = spare.pop().unwrap_or_default();
                parked.push((t, std::mem::replace(lane, next)));
            } else {
                retire(&mut btrace, cycles, t, lane);
            }
        }
        t += settled;
        tidx[0] += settled as i64;
        if tidx[0] == grid.block[0] {
            tidx[0] = 0;
            tidx[1] += 1;
            if tidx[1] == grid.block[1] {
                tidx[1] = 0;
                tidx[2] += 1;
            }
        }
    }
    // Every lane not finished waits at the barrier: release them. Finished
    // lanes leave `parked` by one in-place compaction per round.
    while !parked.is_empty() {
        let mut kept = 0;
        for i in 0..parked.len() {
            let (t, thread) = &mut parked[i];
            thread.status = ThreadStatus::Running;
            run_lane(env, thread, &ctx, shared, &mut btrace, prefix)?;
            if matches!(thread.status, ThreadStatus::AtBarrier) {
                parked.swap(kept, i);
                kept += 1;
            } else {
                retire(&mut btrace, cycles, *t, thread);
            }
        }
        spare.extend(parked.drain(kept..).map(|(_, thread)| thread));
    }

    // Per-warp cost: max thread cycles within each 32-thread group.
    let presence = if contains_launch {
        env.cost.launch_presence_overhead
    } else {
        0
    };
    for chunk in cycles.chunks(32) {
        let max = chunk.iter().map(|c| c + presence).max().unwrap_or(0);
        btrace.warp_cycles.push(max);
    }
    if presence > 0 {
        btrace
            .origin_cycles
            .add(CodeOrigin::Original, presence * n_threads as u64);
    }
    env.stats.instructions += btrace.instructions;
    Ok(btrace)
}

fn linear_to_block_idx(linear: i64, grid_dim: [i64; 3]) -> [i64; 3] {
    let bx = linear % grid_dim[0];
    let by = (linear / grid_dim[0]) % grid_dim[1];
    let bz = linear / (grid_dim[0] * grid_dim[1]);
    [bx, by, bz]
}

// ----------------------------------------------------------------------
// The machine
// ----------------------------------------------------------------------

/// What a machine runs and never changes: the bytecode, the cost model, and
/// the dispatch tables built from the two (`ops::build_tables`: the decoded
/// slots, the block charges, the purity flags and the loop skips).
///
/// An image is read-only, so any number of machines share one through an
/// `Arc` ([`Machine::from_image`]): a program run many times builds its
/// tables once, and a machine made from a shared image allocates only its
/// own state.
pub struct Image {
    module: Module,
    cost: CostModel,
    tables: Box<[FuncTable]>,
}

impl Image {
    /// Builds the dispatch tables of `module` under `cost`.
    pub fn new(module: Module, cost: CostModel) -> Self {
        let tables = build_tables(&module, &cost);
        Image {
            module,
            cost,
            tables,
        }
    }
}

impl std::fmt::Debug for Image {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Image")
            .field("module", &self.module)
            .field("cost", &self.cost)
            .finish_non_exhaustive()
    }
}

/// The simulated GPU: a shared [`Image`] + memory + launch queue.
pub struct Machine {
    image: Arc<Image>,
    /// Global device memory.
    pub mem: Memory,
    dim3s: Dim3Table,
    limits: ExecLimits,
    launches: LaunchQueue,
    trace: ExecutionTrace,
    stats: MachineStats,
    profile: DispatchProfile,
    instr_budget: u64,
    arena: BlockArena,
    dispatch: DispatchMode,
}

impl Machine {
    /// Creates a machine for a compiled module with default cost model and
    /// limits.
    pub fn new(module: Module) -> Self {
        Machine::with_config(module, CostModel::default(), ExecLimits::default())
    }

    /// Creates a machine with an explicit cost model and limits, building
    /// its own [`Image`].
    pub fn with_config(module: Module, cost: CostModel, limits: ExecLimits) -> Self {
        Machine::from_image(Arc::new(Image::new(module, cost)), limits)
    }

    /// Creates a machine that runs a shared `image`: nothing of the program
    /// is copied or rebuilt.
    pub fn from_image(image: Arc<Image>, limits: ExecLimits) -> Self {
        Machine {
            image,
            mem: Memory::new(),
            dim3s: Dim3Table::default(),
            limits,
            launches: LaunchQueue::default(),
            trace: ExecutionTrace::default(),
            stats: MachineStats::default(),
            profile: DispatchProfile::default(),
            instr_budget: limits.max_instructions,
            arena: BlockArena::default(),
            dispatch: DispatchMode::default(),
        }
    }

    /// Selects the dispatch loop (threaded by default). Both modes are
    /// bit-identical in results and accounting; `Match` exists for
    /// differential tests and the `vmbench` baseline.
    pub fn set_dispatch(&mut self, mode: DispatchMode) {
        self.dispatch = mode;
    }

    /// Statistics so far.
    pub fn stats(&self) -> MachineStats {
        self.stats
    }

    /// What the dispatcher counted so far: slots under `Match`, replays and
    /// skips under `Threaded` (see [`DispatchProfile`]).
    pub fn dispatch_profile(&self) -> DispatchProfile {
        self.profile
    }

    /// What is left of [`ExecLimits::max_instructions`]. Every dispatched
    /// instruction is charged its width before it executes, the one that
    /// fails included; a failed run charges nothing after it, under either
    /// dispatcher. Both run a block's lanes in the same order — thread order,
    /// one round per barrier — so a budget ends at the same lane and
    /// instruction under either. A replayed uniform prefix (see the module
    /// doc), which ends at the kernel's first thread-dependent instruction,
    /// is charged exactly what dispatching it would charge, all at once, and
    /// only when the budget covers all of it. Its logged loads are compared
    /// only when a device store happened since they were last compared, and
    /// comparing charges nothing. Skipped loop iterations are charged the
    /// same way, as many as the budget covers, so a budget that ends inside
    /// a skippable loop ends at the same instruction under either. So are
    /// skipped lanes: a block's lanes are retired only as far as the budget
    /// covers each one whole, prefix and route, so a budget that ends
    /// inside a block's idle tail ends in the first lane it does not cover,
    /// which runs as usual.
    pub fn instructions_left(&self) -> u64 {
        self.instr_budget
    }

    /// Allocates device memory.
    pub fn alloc(&mut self, words: usize) -> i64 {
        self.mem.alloc(words)
    }

    /// Allocates and writes a slice of integers (one bounds check).
    pub fn alloc_i64s(&mut self, values: &[i64]) -> i64 {
        let base = self.mem.alloc(values.len().max(1));
        let dst = self
            .mem
            .slice_mut(base, values.len())
            .expect("freshly allocated");
        for (d, v) in dst.iter_mut().zip(values) {
            *d = Value::Int(*v);
        }
        base
    }

    /// Allocates and writes a slice of floats (one bounds check).
    pub fn alloc_f64s(&mut self, values: &[f64]) -> i64 {
        let base = self.mem.alloc(values.len().max(1));
        let dst = self
            .mem
            .slice_mut(base, values.len())
            .expect("freshly allocated");
        for (d, v) in dst.iter_mut().zip(values) {
            *d = Value::Float(*v);
        }
        base
    }

    /// Reads `len` integers starting at `ptr` (one bounds check).
    pub fn read_i64s(&self, ptr: i64, len: usize) -> Result<Vec<i64>, ExecError> {
        Ok(self
            .mem
            .read_range(ptr, len)?
            .iter()
            .map(|v| v.as_int())
            .collect())
    }

    /// Reads `len` floats starting at `ptr` (one bounds check).
    pub fn read_f64s(&self, ptr: i64, len: usize) -> Result<Vec<f64>, ExecError> {
        Ok(self
            .mem
            .read_range(ptr, len)?
            .iter()
            .map(|v| v.as_float())
            .collect())
    }

    /// Enqueues a host-side kernel launch. Returns the grid id.
    ///
    /// # Errors
    ///
    /// Fails if the kernel is unknown, not `__global__`, or the
    /// configuration violates hardware limits.
    pub fn launch_host(
        &mut self,
        kernel: &str,
        grid: impl Into<LaunchDim>,
        block: impl Into<LaunchDim>,
        args: &[Value],
    ) -> Result<usize, ExecError> {
        let module = &self.image.module;
        let id = module
            .id_of(kernel)
            .ok_or_else(|| ExecError::new(format!("unknown kernel `{kernel}`")))?;
        self.launches.enqueue(
            module,
            &self.limits,
            id,
            grid.into().0,
            block.into().0,
            args.to_vec(),
            LaunchOrigin::Host,
        )
    }

    /// Runs every pending grid (and everything they launch) to completion —
    /// the equivalent of `cudaDeviceSynchronize()`.
    pub fn run_to_quiescence(&mut self) -> Result<(), ExecError> {
        let _span = dp_obs::trace::span("vm.run");
        let started = dp_obs::metrics::now();
        let result = (|| {
            while let Some(grid) = self.launches.pending.pop_front() {
                self.execute_grid(grid)?;
            }
            Ok(())
        })();
        VM_RUN_US.record_since(started);
        result
    }

    /// Takes the accumulated execution trace, leaving an empty one.
    pub fn take_trace(&mut self) -> ExecutionTrace {
        std::mem::take(&mut self.trace)
    }

    fn execute_grid(&mut self, grid: PendingGrid) -> Result<(), ExecError> {
        // Split the machine into disjoint borrows: the run loop reads the
        // module/dispatch tables while mutating memory, the launch queue,
        // and thread state.
        let Machine {
            image,
            mem,
            dim3s,
            limits,
            launches,
            trace,
            stats,
            profile,
            instr_budget,
            arena,
            dispatch,
        } = self;
        let Image {
            module,
            cost,
            tables,
        } = &**image;
        let num_blocks = dim_product(grid.grid, "grid")?;
        let func = module.function(grid.kernel);
        // Coerce kernel arguments to their declared parameter types once per
        // grid — every block (and thread) starts from the same locals image.
        let coerced_args: Vec<Value> = grid
            .args
            .iter()
            .zip(&func.param_types)
            .map(|(arg, ty)| coerce(*arg, ty))
            .collect();
        let mut gtrace = GridTrace {
            id: grid.id,
            kernel: func.name.as_str().to_owned(),
            grid_dim: grid.grid,
            block_dim: grid.block,
            origin: grid.origin,
            // Not reserved up front: `num_blocks` is the launcher's word.
            blocks: Vec::new(),
        };
        let mut env = ExecEnv {
            module,
            tables,
            cost,
            limits,
            dispatch: *dispatch,
            mem,
            dim3s,
            launches,
            stats,
            profile,
            instr_budget,
            stores: 0,
        };
        for linear in 0..num_blocks as u64 {
            gtrace
                .blocks
                .push(run_block(&mut env, arena, &grid, &coerced_args, linear)?);
        }

        env.stats.grids_executed += 1;
        // Grid ids are assigned at enqueue time in FIFO order, so the
        // executed order matches id order.
        debug_assert_eq!(gtrace.id, trace.grids.len());
        trace.grids.push(gtrace);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::compile_program;

    fn machine(src: &str) -> Machine {
        let p = dp_frontend::parse(src).unwrap();
        Machine::new(compile_program(&p).unwrap())
    }

    #[test]
    fn machines_sharing_an_image_keep_their_own_state() {
        let p =
            dp_frontend::parse("__global__ void k(int* d, int v) { d[threadIdx.x] = v; }").unwrap();
        let image = Arc::new(Image::new(
            compile_program(&p).unwrap(),
            CostModel::default(),
        ));
        let run = |v: i64| {
            let mut m = Machine::from_image(Arc::clone(&image), ExecLimits::default());
            let buf = m.alloc(4);
            m.launch_host("k", 1, 4, &[Value::Int(buf), Value::Int(v)])
                .unwrap();
            m.run_to_quiescence().unwrap();
            (m.read_i64s(buf, 4).unwrap(), m.stats())
        };
        let (first, stats) = run(3);
        let (second, again) = run(5);
        assert_eq!((first, second), (vec![3; 4], vec![5; 4]));
        assert_eq!(stats, again, "each machine counts only its own run");
        assert_eq!(Arc::strong_count(&image), 1, "the machines released it");
    }

    #[test]
    fn simple_kernel_writes_memory() {
        let mut m = machine("__global__ void k(int* d) { d[threadIdx.x] = threadIdx.x * 2; }");
        let buf = m.alloc(8);
        m.launch_host("k", 1, 8, &[Value::Int(buf)]).unwrap();
        m.run_to_quiescence().unwrap();
        assert_eq!(
            m.read_i64s(buf, 8).unwrap(),
            vec![0, 2, 4, 6, 8, 10, 12, 14]
        );
    }

    #[test]
    fn grid_and_block_indexing() {
        let mut m = machine(
            "__global__ void k(int* d, int n) { \
                 int i = blockIdx.x * blockDim.x + threadIdx.x; \
                 if (i < n) { d[i] = i; } }",
        );
        let buf = m.alloc(100);
        m.launch_host("k", 4, 32, &[Value::Int(buf), Value::Int(100)])
            .unwrap();
        m.run_to_quiescence().unwrap();
        let data = m.read_i64s(buf, 100).unwrap();
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as i64));
    }

    #[test]
    fn loops_and_floats() {
        let mut m = machine(
            "__global__ void k(float* out, int n) { \
                 float sum = 0.0; \
                 for (int i = 0; i < n; ++i) { sum += (float)i * 0.5; } \
                 out[0] = sum; }",
        );
        let buf = m.alloc(1);
        m.launch_host("k", 1, 1, &[Value::Int(buf), Value::Int(10)])
            .unwrap();
        m.run_to_quiescence().unwrap();
        assert_eq!(m.read_f64s(buf, 1).unwrap()[0], 22.5);
    }

    #[test]
    fn device_function_calls() {
        let mut m = machine(
            "__device__ int square(int x) { return x * x; }\n\
             __global__ void k(int* d) { d[threadIdx.x] = square(threadIdx.x); }",
        );
        let buf = m.alloc(4);
        m.launch_host("k", 1, 4, &[Value::Int(buf)]).unwrap();
        m.run_to_quiescence().unwrap();
        assert_eq!(m.read_i64s(buf, 4).unwrap(), vec![0, 1, 4, 9]);
    }

    #[test]
    fn recursion_works() {
        let mut m = machine(
            "__device__ int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }\n\
             __global__ void k(int* d) { d[0] = fact(6); }",
        );
        let buf = m.alloc(1);
        m.launch_host("k", 1, 1, &[Value::Int(buf)]).unwrap();
        m.run_to_quiescence().unwrap();
        assert_eq!(m.read_i64s(buf, 1).unwrap()[0], 720);
    }

    #[test]
    fn atomics_are_deterministic() {
        let mut m = machine("__global__ void k(int* counter) { atomicAdd(&counter[0], 1); }");
        let buf = m.alloc(1);
        m.launch_host("k", 4, 64, &[Value::Int(buf)]).unwrap();
        m.run_to_quiescence().unwrap();
        assert_eq!(m.read_i64s(buf, 1).unwrap()[0], 256);
    }

    #[test]
    fn atomic_max_min_cas() {
        let mut m = machine(
            "__global__ void k(int* d) { \
                 atomicMax(&d[0], threadIdx.x); \
                 atomicMin(&d[1], threadIdx.x); \
                 atomicCAS(&d[2], 0, threadIdx.x + 100); }",
        );
        let buf = m.alloc(3);
        m.mem.write(buf + 1, Value::Int(999)).unwrap();
        m.launch_host("k", 1, 8, &[Value::Int(buf)]).unwrap();
        m.run_to_quiescence().unwrap();
        let d = m.read_i64s(buf, 3).unwrap();
        assert_eq!(d[0], 7);
        assert_eq!(d[1], 0);
        assert_eq!(d[2], 100, "only thread 0's CAS succeeds");
    }

    #[test]
    fn syncthreads_orders_phases() {
        // Thread 0 writes after the barrier what thread 7 wrote before it.
        let mut m = machine(
            "__global__ void k(int* d) { \
                 __shared__ int tile[8]; \
                 tile[threadIdx.x] = threadIdx.x * 10; \
                 __syncthreads(); \
                 d[threadIdx.x] = tile[7 - threadIdx.x]; }",
        );
        let buf = m.alloc(8);
        m.launch_host("k", 1, 8, &[Value::Int(buf)]).unwrap();
        m.run_to_quiescence().unwrap();
        assert_eq!(
            m.read_i64s(buf, 8).unwrap(),
            vec![70, 60, 50, 40, 30, 20, 10, 0]
        );
    }

    #[test]
    fn dynamic_launch_executes_child() {
        let mut m = machine(
            "__global__ void child(int* d, int base) { d[base + threadIdx.x] = 1; }\n\
             __global__ void parent(int* d) { child<<<1, 4>>>(d, threadIdx.x * 4); }",
        );
        let buf = m.alloc(16);
        m.launch_host("parent", 1, 4, &[Value::Int(buf)]).unwrap();
        m.run_to_quiescence().unwrap();
        assert_eq!(m.read_i64s(buf, 16).unwrap(), vec![1; 16]);
        assert_eq!(m.stats().device_launches, 4);
        let trace = m.take_trace();
        assert_eq!(trace.grids.len(), 5);
        assert_eq!(trace.device_launches(), 4);
    }

    #[test]
    fn zero_sized_launch_is_noop() {
        let mut m = machine(
            "__global__ void child(int* d) { d[0] = 99; }\n\
             __global__ void parent(int* d, int n) { child<<<n, 32>>>(d); }",
        );
        let buf = m.alloc(1);
        m.launch_host("parent", 1, 1, &[Value::Int(buf), Value::Int(0)])
            .unwrap();
        m.run_to_quiescence().unwrap();
        assert_eq!(m.read_i64s(buf, 1).unwrap()[0], 0);
        assert_eq!(m.stats().empty_launches, 1);
        assert_eq!(m.stats().device_launches, 0);
    }

    #[test]
    fn nested_launches_two_levels() {
        let mut m = machine(
            "__global__ void leaf(int* d) { atomicAdd(&d[0], 1); }\n\
             __global__ void mid(int* d) { leaf<<<1, 2>>>(d); }\n\
             __global__ void root(int* d) { mid<<<2, 1>>>(d); }",
        );
        let buf = m.alloc(1);
        m.launch_host("root", 1, 1, &[Value::Int(buf)]).unwrap();
        m.run_to_quiescence().unwrap();
        // root → 2 mid blocks × 1 thread → 2 leaf launches × 2 threads.
        assert_eq!(m.read_i64s(buf, 1).unwrap()[0], 4);
    }

    #[test]
    fn dim3_launch_configuration() {
        let mut m = machine(
            "__global__ void k(int* d) { \
                 int i = (blockIdx.y * gridDim.x + blockIdx.x) * blockDim.x + threadIdx.x; \
                 d[i] = blockIdx.y; }",
        );
        let buf = m.alloc(24);
        m.launch_host("k", [3, 2, 1], 4, &[Value::Int(buf)])
            .unwrap();
        m.run_to_quiescence().unwrap();
        let d = m.read_i64s(buf, 24).unwrap();
        assert_eq!(d[0], 0);
        assert_eq!(d[23], 1);
    }

    #[test]
    fn out_of_bounds_access_errors() {
        let mut m = machine("__global__ void k(int* d) { d[1000000] = 1; }");
        let buf = m.alloc(4);
        m.launch_host("k", 1, 1, &[Value::Int(buf)]).unwrap();
        let err = m.run_to_quiescence().unwrap_err();
        assert!(err.to_string().contains("out of bounds"));
    }

    #[test]
    fn division_by_zero_errors() {
        let mut m = machine("__global__ void k(int* d, int z) { d[0] = 5 / z; }");
        let buf = m.alloc(1);
        m.launch_host("k", 1, 1, &[Value::Int(buf), Value::Int(0)])
            .unwrap();
        assert!(m.run_to_quiescence().is_err());
    }

    #[test]
    fn infinite_loop_hits_budget() {
        let p =
            dp_frontend::parse("__global__ void k(int* d) { while (true) { d[0] = 1; } }").unwrap();
        let module = compile_program(&p).unwrap();
        let limits = ExecLimits {
            max_instructions: 10_000,
            ..Default::default()
        };
        let mut m = Machine::with_config(module, CostModel::default(), limits);
        let buf = m.alloc(1);
        m.launch_host("k", 1, 1, &[Value::Int(buf)]).unwrap();
        let err = m.run_to_quiescence().unwrap_err();
        assert!(err.to_string().contains("instruction budget"));
    }

    #[test]
    fn budget_is_consumed_in_block_order_across_a_grid() {
        let p = dp_frontend::parse(
            "__global__ void k(int* d) { d[blockIdx.x * blockDim.x + threadIdx.x] = 1; }",
        )
        .unwrap();
        let module = compile_program(&p).unwrap();
        let run = |max_instructions: u64| {
            let limits = ExecLimits {
                max_instructions,
                ..Default::default()
            };
            let mut m = Machine::with_config(module.clone(), CostModel::default(), limits);
            let d = m.alloc(256);
            m.launch_host("k", 8, 32, &[Value::Int(d)]).unwrap();
            let result = m.run_to_quiescence();
            (result, m.read_i64s(d, 256).unwrap(), m.stats().instructions)
        };
        let (result, mem, needed) = run(u64::MAX);
        result.unwrap();
        assert_eq!(mem, vec![1; 256]);
        // A budget of exactly the grid's instruction count suffices.
        let (result, mem, _) = run(needed);
        result.unwrap();
        assert_eq!(mem, vec![1; 256]);
        // One instruction short: every thread but the last one finished.
        let (result, mem, _) = run(needed - 1);
        assert!(result
            .unwrap_err()
            .to_string()
            .contains("instruction budget"));
        assert_eq!(mem[..255], [1; 255][..]);
    }

    #[test]
    fn oversized_block_rejected() {
        let mut m = machine("__global__ void k(int* d) { d[0] = 1; }");
        let buf = m.alloc(1);
        assert!(m.launch_host("k", 1, 2048, &[Value::Int(buf)]).is_err());
    }

    #[test]
    fn trace_records_warp_cycles_and_divergence() {
        // Thread 31 does far more work; warp max must reflect it.
        let mut m = machine(
            "__global__ void k(int* d) { \
                 if (threadIdx.x == 31) { \
                     int s = 0; \
                     for (int i = 0; i < 1000; ++i) { s += i; } \
                     d[0] = s; \
                 } }",
        );
        let buf = m.alloc(1);
        m.launch_host("k", 1, 64, &[Value::Int(buf)]).unwrap();
        m.run_to_quiescence().unwrap();
        let trace = m.take_trace();
        let block = &trace.grids[0].blocks[0];
        assert_eq!(block.warp_cycles.len(), 2);
        assert!(
            block.warp_cycles[0] > 10 * block.warp_cycles[1],
            "divergent warp should dominate: {:?}",
            block.warp_cycles
        );
    }

    #[test]
    fn launch_presence_overhead_is_charged() {
        let src_with = "__global__ void c(int* d) { d[0] = 1; }\n\
                        __global__ void k(int* d, int n) { if (n > 1000) { c<<<1, 1>>>(d); } d[1] = 2; }";
        let src_without = "__global__ void k(int* d, int n) { d[1] = 2; }";
        let run = |src: &str| {
            let mut m = machine(src);
            let buf = m.alloc(2);
            m.launch_host("k", 1, 32, &[Value::Int(buf), Value::Int(0)])
                .unwrap();
            m.run_to_quiescence().unwrap();
            let t = m.take_trace();
            t.grids[0].blocks[0].warp_cycles[0]
        };
        let with = run(src_with);
        let without = run(src_without);
        assert!(
            with > without + CostModel::default().launch_presence_overhead / 2,
            "kernel containing a (never-executed) launch must be slower: {with} vs {without}"
        );
    }

    #[test]
    fn fusion_is_trace_transparent() {
        // Fused and unfused execution of the same program must agree on
        // results, statistics, and the entire execution trace (warp cycles,
        // per-origin attribution, launch records).
        let src = "__global__ void child(int* d, int n) { \
                       int i = blockIdx.x * blockDim.x + threadIdx.x; \
                       if (i < n) { atomicAdd(&d[i], i * 3 + 1); } }\n\
                   __global__ void parent(int* d, int* deg, int numV) { \
                       int v = blockIdx.x * blockDim.x + threadIdx.x; \
                       if (v < numV) { \
                           int count = deg[v]; \
                           float acc = 0.0; \
                           for (int j = 0; j < count; ++j) { acc += (float)j * 0.5; } \
                           d[numV + v] = (int)acc; \
                           if (count > 0) { child<<<(count + 3) / 4, 4>>>(d, count); } } }";
        let run = |fuse: bool| {
            let p = dp_frontend::parse(src).unwrap();
            let module =
                crate::lower::compile_program_with(&p, crate::lower::LowerOptions { fuse })
                    .unwrap();
            let mut m = Machine::new(module);
            let d = m.alloc(32);
            let deg = m.alloc_i64s(&[3, 0, 7, 1, 5, 2]);
            m.launch_host(
                "parent",
                2,
                4,
                &[Value::Int(d), Value::Int(deg), Value::Int(6)],
            )
            .unwrap();
            m.run_to_quiescence().unwrap();
            let out = m.read_i64s(d, 32).unwrap();
            let stats = m.stats();
            (out, stats, m.take_trace())
        };
        let (out_f, stats_f, trace_f) = run(true);
        let (out_u, stats_u, trace_u) = run(false);
        assert_eq!(out_f, out_u);
        assert_eq!(stats_f, stats_u, "stats count original instruction units");
        assert_eq!(trace_f, trace_u, "traces must be byte-identical");
        assert!(stats_f.instructions > 0, "stats.instructions is populated");
        assert_eq!(stats_f.instructions, trace_f.instructions());
    }

    #[test]
    fn huge_custom_cost_models_are_supported() {
        // CostModel fields are public u64s; per-instruction costs beyond
        // u32 must accumulate, not panic at machine construction.
        let p = dp_frontend::parse("__global__ void k(int* d) { d[0] = d[0] + 1; }").unwrap();
        let cost = CostModel {
            mem: 5_000_000_000,
            ..CostModel::default()
        };
        let mut m = Machine::with_config(compile_program(&p).unwrap(), cost, ExecLimits::default());
        let buf = m.alloc(1);
        m.launch_host("k", 1, 1, &[Value::Int(buf)]).unwrap();
        m.run_to_quiescence().unwrap();
        let trace = m.take_trace();
        assert!(trace.grids[0].blocks[0].critical_warp_cycles() > 10_000_000_000);
    }

    #[test]
    fn bulk_memory_ops_match_scalar_semantics() {
        let mut mem = Memory::new();
        let base = mem.alloc(8);
        mem.fill(base, 8, Value::Int(7)).unwrap();
        assert_eq!(mem.read(base + 3).unwrap(), Value::Int(7));
        mem.write_range(base + 1, &[Value::Int(1), Value::Int(2)])
            .unwrap();
        assert_eq!(
            mem.read_range(base, 4).unwrap(),
            &[Value::Int(7), Value::Int(1), Value::Int(2), Value::Int(7)]
        );
        // Empty operations succeed anywhere, as the scalar loop did.
        mem.fill(base + 8, 0, Value::Int(0)).unwrap();
        assert_eq!(mem.read_range(base, 0).unwrap(), &[]);
        // One-past-the-end and null ranges fail with a single check.
        assert!(mem.fill(base, 9, Value::Int(0)).is_err());
        assert!(mem.read_range(0, 1).is_err());
        assert!(mem
            .write_range(base + 7, &[Value::Int(0), Value::Int(0)])
            .is_err());
        assert!(mem.fill(-4, 2, Value::Int(0)).is_err());
    }

    #[test]
    fn origin_cycles_sum_to_block_totals() {
        let mut m = machine(
            "__global__ void k(int* d) { \
                 for (int i = 0; i < 10; ++i) { d[threadIdx.x] += i; } }",
        );
        let buf = m.alloc(32);
        m.launch_host("k", 1, 32, &[Value::Int(buf)]).unwrap();
        m.run_to_quiescence().unwrap();
        let trace = m.take_trace();
        let block = &trace.grids[0].blocks[0];
        assert!(block.origin_cycles.total() > 0);
        assert_eq!(
            block.origin_cycles.get(CodeOrigin::Original),
            block.origin_cycles.total(),
            "untransformed code is all Original"
        );
    }

    // ------------------------------------------------------------------
    // Dispatch-mode × fusion determinism
    // ------------------------------------------------------------------

    /// The determinism matrix: fusion on/off × dispatch threaded/match
    /// must agree bit-exactly on memory, statistics, and the entire
    /// execution trace — on a disjoint-write kernel, a cross-block atomic
    /// kernel, a barrier/shared-memory kernel, and a device-launching
    /// kernel.
    #[test]
    fn dispatch_and_fusion_matrix_is_bit_identical() {
        struct Case {
            name: &'static str,
            src: &'static str,
            kernel: &'static str,
            grid: i64,
            block: i64,
            words: usize,
        }
        let cases = [
            Case {
                name: "disjoint",
                src: "__global__ void k(int* d) { \
                          int i = blockIdx.x * blockDim.x + threadIdx.x; \
                          int acc = 0; \
                          for (int j = 0; j < 16; ++j) { acc = acc + i * j - (acc >> 1); } \
                          d[i] = acc; }",
                kernel: "k",
                grid: 8,
                block: 16,
                words: 128,
            },
            Case {
                name: "conflicting",
                src: "__global__ void k(int* d) { \
                          int old = atomicAdd(&d[0], threadIdx.x + 1); \
                          atomicMax(&d[1], old); \
                          d[2 + blockIdx.x] = old; }",
                kernel: "k",
                grid: 8,
                block: 8,
                words: 16,
            },
            Case {
                name: "barrier",
                src: "__global__ void k(int* d) { \
                          __shared__ int tile[16]; \
                          tile[threadIdx.x] = threadIdx.x * 3 + blockIdx.x; \
                          __syncthreads(); \
                          d[blockIdx.x * 16 + threadIdx.x] = tile[15 - threadIdx.x]; }",
                kernel: "k",
                grid: 8,
                block: 16,
                words: 128,
            },
            Case {
                name: "launching",
                src: "__global__ void child(int* d, int base, int n) { \
                          int i = blockIdx.x * blockDim.x + threadIdx.x; \
                          if (i < n) { d[base + i] = d[base + i] + 1; } }\n\
                      __global__ void k(int* d) { \
                          if (threadIdx.x == 0) { \
                              child<<<2, 8>>>(d, blockIdx.x * 16, 16); } }",
                kernel: "k",
                grid: 8,
                block: 4,
                words: 128,
            },
        ];
        for case in cases {
            // Every observable output of one (fusion, dispatch) configuration.
            let run = |fuse: bool, dispatch: DispatchMode| {
                let p = dp_frontend::parse(case.src).unwrap();
                let module =
                    crate::lower::compile_program_with(&p, crate::lower::LowerOptions { fuse })
                        .unwrap();
                let mut m = Machine::new(module);
                m.set_dispatch(dispatch);
                let d = m.alloc(case.words);
                m.launch_host(case.kernel, case.grid, case.block, &[Value::Int(d)])
                    .unwrap();
                m.run_to_quiescence().unwrap();
                (
                    m.read_i64s(d, case.words).unwrap(),
                    m.stats(),
                    m.take_trace(),
                )
            };
            let reference = run(true, DispatchMode::Threaded);
            for fuse in [true, false] {
                for dispatch in [DispatchMode::Threaded, DispatchMode::Match] {
                    let got = run(fuse, dispatch);
                    assert_eq!(
                        got.0, reference.0,
                        "{}: memory diverged (fuse={fuse}, {dispatch:?})",
                        case.name
                    );
                    assert_eq!(
                        got.1, reference.1,
                        "{}: stats diverged (fuse={fuse}, {dispatch:?})",
                        case.name
                    );
                    assert_eq!(
                        got.2, reference.2,
                        "{}: trace diverged (fuse={fuse}, {dispatch:?})",
                        case.name
                    );
                }
            }
        }
    }

    #[test]
    fn launch_ids_follow_linear_block_order() {
        let src = "__global__ void child(int* d, int slot) { atomicAdd(&d[slot], 1); }\n\
                   __global__ void k(int* d) { \
                       if (threadIdx.x == 0) { child<<<1, 4>>>(d, blockIdx.x); } }";
        let run = |dispatch: DispatchMode| {
            let p = dp_frontend::parse(src).unwrap();
            let mut m = Machine::new(compile_program(&p).unwrap());
            m.set_dispatch(dispatch);
            let d = m.alloc(16);
            m.launch_host("k", 8, 8, &[Value::Int(d)]).unwrap();
            m.run_to_quiescence().unwrap();
            (m.read_i64s(d, 8).unwrap(), m.take_trace())
        };
        let (mem, trace) = run(DispatchMode::Threaded);
        let (match_mem, match_trace) = run(DispatchMode::Match);
        assert_eq!(mem, vec![4; 8]);
        assert_eq!(match_mem, mem);
        assert_eq!(match_trace, trace);
        // Child grid ids follow the parent in linear block order.
        for (i, g) in trace.grids.iter().enumerate() {
            assert_eq!(g.id, i);
        }
        let children: Vec<usize> = trace.grids[0]
            .blocks
            .iter()
            .flat_map(|b| b.launches.iter().map(|l| l.child_grid))
            .collect();
        assert_eq!(children, (1..9).collect::<Vec<_>>());
    }

    #[test]
    fn errors_leave_the_same_partial_state_under_both_dispatch_modes() {
        // Block 5 faults in its thread 8, after blocks 0..5 and its own
        // threads 0..8 ran to completion.
        let src = "__global__ void k(int* d) { \
                       if (blockIdx.x == 5 && threadIdx.x == 8) { d[1000000] = 1; } \
                       d[blockIdx.x * blockDim.x + threadIdx.x] = 1; }";
        let run = |dispatch: DispatchMode| {
            let p = dp_frontend::parse(src).unwrap();
            let mut m = Machine::new(compile_program(&p).unwrap());
            m.set_dispatch(dispatch);
            let d = m.alloc(256);
            m.launch_host("k", 8, 16, &[Value::Int(d)]).unwrap();
            let err = m.run_to_quiescence().unwrap_err().to_string();
            (err, m.read_i64s(d, 256).unwrap())
        };
        let (err, mem) = run(DispatchMode::Threaded);
        let (match_err, match_mem) = run(DispatchMode::Match);
        assert_eq!(err, match_err);
        assert!(err.contains("out of bounds"));
        // The faulting block's *partial* writes (and every earlier
        // block's writes) survive identically.
        assert_eq!(mem, match_mem, "post-error memory must match");
        assert_eq!(mem[..5 * 16], [1; 80][..], "blocks before the fault ran");
        assert_eq!(mem[80..88], [1; 8][..], "partial writes survive");
        assert_eq!(mem[88..], [0; 168][..], "nothing ran after the fault");
    }
}
