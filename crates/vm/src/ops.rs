//! The threaded interpreter's backend: decoded table slots, one handler
//! per opcode, and the value semantics the handlers and the reference
//! interpreter compute with.
//!
//! A handler runs after its basic block was charged ([`crate::machine`])
//! and touches no accounting. What a handler calls per instruction lives
//! here or is `#[inline]` where it is defined: the release profile has no
//! LTO, and an out-of-line `ExecEnv::load` measured 5–8 % of a cold sweep.
//!
//! A new opcode is a handler and a row in [`threaded_op`]; a primitive
//! also gets an arm in `reference.rs`, a superinstruction never does. A
//! superinstruction's handler is its expansion with the operand-stack
//! traffic between the parts removed, and nothing else: what a caller can
//! see of it — the value, which error and its text — is the expansion's,
//! shapes the fuser never emits included (`tests/dispatch_exec.rs`). What a
//! dispatched slot costs beyond its handler's work — the indirect call, the
//! `Result` return, `Vec` push and pop — is what fusion removes.

use crate::bytecode::*;
use crate::error::ExecError;
use crate::machine::{dim_product, fall_off_end, BlockCtx, ExecEnv, Frame, Thread, ThreadStatus};
use crate::skip;
use crate::trace::{BlockTrace, LaunchOrigin, LaunchRecord};
use crate::value::Value;
use dp_frontend::ast::Type;

/// Outcome of one op handler.
pub(crate) enum Flow {
    /// Fall through to the next instruction.
    Next,
    /// The frame stack changed (call/return) — re-enter the frame loop.
    Frame,
    /// The thread yielded (barrier) or finished.
    Yield,
}

type OpResult = Result<Flow, ExecError>;
type OpFn = fn(&ThreadedOp, &mut StepCtx<'_, '_>) -> OpResult;

/// One decoded instruction slot: handler pointer, pre-resolved operands,
/// and the block it leads (if any). Built once per function at machine
/// construction.
#[derive(Clone, Copy)]
pub(crate) struct ThreadedOp {
    pub(crate) exec: OpFn,
    /// The original instruction — used by the reference interpreter (which
    /// also asks it for its cost and width) and by handlers with cold or
    /// many-variant payloads (atomics, intrinsics, special registers).
    pub(crate) instr: Instr,
    /// Integer immediate / float bits / branch target (CmpBranchLocals).
    imm: i64,
    /// First operand: local slot, jump target, FuncId, lane.
    a: u32,
    /// Second operand: local slot, argument count.
    b: u32,
    /// Index into [`FuncTable::charges`] of the basic block this slot
    /// leads, or [`NOT_A_LEADER`].
    pub(crate) charge: u32,
    /// The try point of the loop whose skip is tried at this slot
    /// (`skip.rs`), or [`NO_SKIP`].
    pub(crate) skip: u32,
}

pub(crate) const NOT_A_LEADER: u32 = u32::MAX;
pub(crate) const NO_SKIP: u32 = u32::MAX;

// Splitting a slot into a 32-byte hot half and a cold side array for
// `Match` measured under 1 % on a cold sweep: not built.
const _: () = assert!(std::mem::size_of::<ThreadedOp>() == 48);

/// One function's dispatch table.
pub(crate) struct FuncTable {
    pub(crate) ops: Box<[ThreadedOp]>,
    pub(crate) charges: Box<[BlockCharge]>,
    /// Per block: it holds only what a walk evaluates (`skip.rs`),
    /// [`Instr::loop_pure`] instructions and `RetVoid`.
    pub(crate) pure: Box<[bool]>,
}

/// Borrow bundle passed to op handlers — the whole mutable per-step state,
/// split so handlers can touch disjoint fields without re-borrowing.
pub(crate) struct StepCtx<'a, 'm> {
    pub(crate) env: &'a mut ExecEnv<'m>,
    pub(crate) thread: &'a mut Thread,
    pub(crate) block: &'a BlockCtx,
    pub(crate) shared: &'a mut [Value],
    pub(crate) btrace: &'a mut BlockTrace,
}

pub(crate) fn pop(stack: &mut Vec<Value>) -> Result<Value, ExecError> {
    stack
        .pop()
        .ok_or_else(|| ExecError::new("operand stack underflow"))
}

/// Every [`BinKind`], in declaration order. A handler specialized per kind
/// takes the kind's index here as its const parameter `K`, which
/// constant-folds `bin_op(BIN_KINDS[K as usize], ..)` into one operation.
const BIN_KINDS: [BinKind; 16] = {
    use BinKind::*;
    [
        Add, Sub, Mul, Div, Rem, Lt, Le, Gt, Ge, Eq, Ne, BitAnd, BitOr, BitXor, Shl, Shr,
    ]
};

const _: () = {
    let mut k = 0;
    while k < BIN_KINDS.len() {
        assert!(BIN_KINDS[k] as usize == k);
        k += 1;
    }
};

/// Selects the per-kind specialization of a const-generic handler.
macro_rules! select_bin {
    ($kind:expr, $f:ident) => {{
        const BY_KIND: [OpFn; 16] = [
            $f::<0>, $f::<1>, $f::<2>, $f::<3>, $f::<4>, $f::<5>, $f::<6>, $f::<7>, $f::<8>,
            $f::<9>, $f::<10>, $f::<11>, $f::<12>, $f::<13>, $f::<14>, $f::<15>,
        ];
        BY_KIND[$kind as usize]
    }};
}

fn op_push_int(op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    s.thread.stack.push(Value::Int(op.imm));
    Ok(Flow::Next)
}

fn op_push_float(op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    s.thread
        .stack
        .push(Value::Float(f64::from_bits(op.imm as u64)));
    Ok(Flow::Next)
}

fn op_load_local(op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    let v = s.thread.frame.locals[op.a as usize];
    s.thread.stack.push(v);
    Ok(Flow::Next)
}

fn op_store_local(op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    let v = pop(&mut s.thread.stack)?;
    s.thread.frame.locals[op.a as usize] = v;
    Ok(Flow::Next)
}

fn op_load_mem(_op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    let addr = pop(&mut s.thread.stack)?.as_int();
    let v = s.env.load(addr, s.shared)?;
    s.thread.stack.push(v);
    Ok(Flow::Next)
}

fn op_store_mem(_op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    let v = pop(&mut s.thread.stack)?;
    let addr = pop(&mut s.thread.stack)?.as_int();
    s.env.store(addr, v, s.shared)?;
    Ok(Flow::Next)
}

fn op_bin<const K: u8>(_op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    let b = pop(&mut s.thread.stack)?;
    let a = pop(&mut s.thread.stack)?;
    s.thread.stack.push(bin_op(BIN_KINDS[K as usize], a, b)?);
    Ok(Flow::Next)
}

fn op_un(op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    let Instr::Un(kind) = op.instr else {
        unreachable!("op_un bound to non-Un instruction")
    };
    let a = pop(&mut s.thread.stack)?;
    s.thread.stack.push(un_op(kind, a));
    Ok(Flow::Next)
}

fn op_cast_int(_op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    let a = pop(&mut s.thread.stack)?;
    s.thread.stack.push(Value::Int(a.as_int()));
    Ok(Flow::Next)
}

fn op_cast_float(_op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    let a = pop(&mut s.thread.stack)?;
    s.thread.stack.push(Value::Float(a.as_float()));
    Ok(Flow::Next)
}

fn op_jump(op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    s.thread.frame.pc = op.a as usize;
    Ok(Flow::Next)
}

/// The back edge of a loop with a skip: the lane has come round it, and
/// ends the first block of its next iteration `imm` instructions on.
fn op_jump_back(op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    s.thread.looped = Some((op.b, s.thread.instructions + op.imm as u64));
    s.thread.frame.pc = op.a as usize;
    Ok(Flow::Next)
}

fn op_jump_if_zero(op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    if !pop(&mut s.thread.stack)?.is_truthy() {
        s.thread.frame.pc = op.a as usize;
    }
    Ok(Flow::Next)
}

fn op_jump_if_non_zero(op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    if pop(&mut s.thread.stack)?.is_truthy() {
        s.thread.frame.pc = op.a as usize;
    }
    Ok(Flow::Next)
}

fn op_call(op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    push_frame(s.thread, s.env.module, op.a, op.b as usize)?;
    Ok(Flow::Frame)
}

fn op_ret(_op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    let v = pop(&mut s.thread.stack)?;
    if s.thread.pop_frame() {
        s.thread.stack.push(v);
        Ok(Flow::Frame)
    } else {
        s.thread.status = ThreadStatus::Done;
        Ok(Flow::Yield)
    }
}

fn op_ret_void(_op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    if fall_off_end(s.thread) {
        Ok(Flow::Frame)
    } else {
        Ok(Flow::Yield)
    }
}

fn op_launch(op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    launch(s.env, s.thread, s.block, s.btrace, op.a, op.b as usize)?;
    Ok(Flow::Next)
}

fn op_sync(_op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    s.thread.status = ThreadStatus::AtBarrier;
    Ok(Flow::Yield)
}

fn op_fence(_op: &ThreadedOp, _s: &mut StepCtx) -> OpResult {
    // Blocks execute one after another, so fences are functional no-ops;
    // the cycle cost was already charged.
    Ok(Flow::Next)
}

fn op_atomic(op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    let Instr::Atomic(kind) = op.instr else {
        unreachable!("op_atomic bound to non-Atomic instruction")
    };
    atomic(s.env, &mut s.thread.stack, s.shared, kind)?;
    Ok(Flow::Next)
}

fn op_intrinsic1(op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    let Instr::Intrinsic(i) = op.instr else {
        unreachable!("op_intrinsic1 bound to non-Intrinsic instruction")
    };
    let a = pop(&mut s.thread.stack)?;
    s.thread.stack.push(intrinsic1(i, a));
    Ok(Flow::Next)
}

fn op_intrinsic2(op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    let Instr::Intrinsic(i) = op.instr else {
        unreachable!("op_intrinsic2 bound to non-Intrinsic instruction")
    };
    let b = pop(&mut s.thread.stack)?;
    let a = pop(&mut s.thread.stack)?;
    s.thread.stack.push(intrinsic2(i, a, b));
    Ok(Flow::Next)
}

/// The value of a builtin special register for one thread of one block.
pub(crate) fn special(sp: Special, thread: &Thread, block: &BlockCtx) -> [i64; 3] {
    match sp {
        Special::ThreadIdx => thread.tidx,
        Special::BlockIdx => block.block_idx,
        Special::BlockDim => block.block_dim,
        Special::GridDim => block.grid_dim,
    }
}

fn op_read_special(op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    let Instr::ReadSpecial(sp) = op.instr else {
        unreachable!("op_read_special bound to non-ReadSpecial instruction")
    };
    let d = special(sp, s.thread, s.block);
    s.thread.stack.push(s.env.dim3s.intern(d));
    Ok(Flow::Next)
}

fn op_read_special_comp(op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    let Instr::ReadSpecialComp(sp, lane) = op.instr else {
        unreachable!("op_read_special_comp bound to non-ReadSpecialComp instruction")
    };
    let d = special(sp, s.thread, s.block);
    s.thread.stack.push(Value::Int(d[lane as usize]));
    Ok(Flow::Next)
}

fn op_make_dim3(_op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    let z = pop(&mut s.thread.stack)?.as_int();
    let y = pop(&mut s.thread.stack)?.as_int();
    let x = pop(&mut s.thread.stack)?.as_int();
    s.thread.stack.push(s.env.dim3s.intern([x, y, z]));
    Ok(Flow::Next)
}

fn op_dim3_member(op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    let d = s.env.dim3s.resolve(pop(&mut s.thread.stack)?);
    s.thread.stack.push(Value::Int(d[op.a as usize]));
    Ok(Flow::Next)
}

fn op_dim3_set_member(op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    let v = pop(&mut s.thread.stack)?.as_int();
    let mut d = s.env.dim3s.resolve(pop(&mut s.thread.stack)?);
    d[op.a as usize] = v;
    s.thread.stack.push(s.env.dim3s.intern(d));
    Ok(Flow::Next)
}

fn op_pop(_op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    pop(&mut s.thread.stack)?;
    Ok(Flow::Next)
}

fn op_dup(_op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    let v = *s
        .thread
        .stack
        .last()
        .ok_or_else(|| ExecError::new("stack underflow on dup"))?;
    s.thread.stack.push(v);
    Ok(Flow::Next)
}

fn op_swap(_op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    let n = s.thread.stack.len();
    if n < 2 {
        return Err(ExecError::new("stack underflow on swap"));
    }
    s.thread.stack.swap(n - 1, n - 2);
    Ok(Flow::Next)
}

// Fused superinstructions: each handler replicates the exact observable
// semantics (including error cases) of its expansion — see
// `Instr::expansion`. Accounting was already charged from the table.

fn op_bin_locals<const K: u8>(op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    let a = s.thread.frame.locals[op.a as usize];
    let b = s.thread.frame.locals[op.b as usize];
    s.thread.stack.push(bin_op(BIN_KINDS[K as usize], a, b)?);
    Ok(Flow::Next)
}

fn op_bin_imm<const K: u8>(op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    let a = pop(&mut s.thread.stack)?;
    s.thread
        .stack
        .push(bin_op(BIN_KINDS[K as usize], a, Value::Int(op.imm))?);
    Ok(Flow::Next)
}

fn op_inc_local(op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    let slot = op.a as usize;
    let old = s.thread.frame.locals[slot];
    s.thread.frame.locals[slot] = bin_op(BinKind::Add, old, Value::Int(op.imm))?;
    Ok(Flow::Next)
}

fn op_load_local_mem(op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    let addr = s.thread.frame.locals[op.a as usize].as_int();
    let v = s.env.load(addr, s.shared)?;
    s.thread.stack.push(v);
    Ok(Flow::Next)
}

fn op_cmp_branch_locals<const K: u8>(op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    let a = s.thread.frame.locals[op.a as usize];
    let b = s.thread.frame.locals[op.b as usize];
    if !bin_op(BIN_KINDS[K as usize], a, b)?.is_truthy() {
        s.thread.frame.pc = op.imm as usize;
    }
    Ok(Flow::Next)
}

fn op_store_load_local(op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    let v = *s
        .thread
        .stack
        .last()
        .ok_or_else(|| ExecError::new("operand stack underflow"))?;
    s.thread.frame.locals[op.a as usize] = v;
    Ok(Flow::Next)
}

fn op_store_local_int(op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    let v = pop(&mut s.thread.stack)?;
    s.thread.frame.locals[op.a as usize] = Value::Int(v.as_int());
    Ok(Flow::Next)
}

fn op_set_local(op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    // The expansion fails in its `Dup`, so the text is that one's.
    let v = s
        .thread
        .stack
        .pop()
        .ok_or_else(|| ExecError::new("stack underflow on dup"))?;
    s.thread.frame.locals[op.a as usize] = v;
    Ok(Flow::Next)
}

fn op_load_mem_at(op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    let a = s.thread.frame.locals[op.a as usize];
    let b = s.thread.frame.locals[op.b as usize];
    let addr = bin_op(BinKind::Add, a, b)?.as_int();
    let v = s.env.load(addr, s.shared)?;
    s.thread.stack.push(v);
    Ok(Flow::Next)
}

fn op_cmp_branch<const K: u8>(op: &ThreadedOp, s: &mut StepCtx) -> OpResult {
    let b = pop(&mut s.thread.stack)?;
    let a = pop(&mut s.thread.stack)?;
    if !bin_op(BIN_KINDS[K as usize], a, b)?.is_truthy() {
        s.thread.frame.pc = op.a as usize;
    }
    Ok(Flow::Next)
}

/// The address `instr` is about to load from, read off its operands; `None`
/// if it reads no memory (or lacks operands, and fails by itself). Every
/// lane-uniform load is here (`fused_instructions_cost_their_expansion`).
pub(crate) fn load_address(instr: Instr, locals: &[Value], stack: &[Value]) -> Option<i64> {
    match instr {
        Instr::LoadMem => stack.last().map(Value::as_int),
        Instr::LoadLocalMem(s) => Some(locals[s as usize].as_int()),
        Instr::LoadMemAt(a, b) => {
            let sum = bin_op(BinKind::Add, locals[a as usize], locals[b as usize]);
            sum.ok().map(|v| v.as_int())
        }
        _ => None,
    }
}

/// Decodes one instruction into its table slot: the handler, then the
/// operands it reads as `a`, `b` and `imm`.
fn threaded_op(instr: Instr) -> ThreadedOp {
    let (exec, a, b, imm): (OpFn, u32, u32, i64) = match instr {
        Instr::PushInt(v) => (op_push_int, 0, 0, v),
        Instr::PushFloat(v) => (op_push_float, 0, 0, v.to_bits() as i64),
        Instr::LoadLocal(s) => (op_load_local, s as u32, 0, 0),
        Instr::StoreLocal(s) => (op_store_local, s as u32, 0, 0),
        Instr::LoadMem => (op_load_mem, 0, 0, 0),
        Instr::StoreMem => (op_store_mem, 0, 0, 0),
        Instr::Bin(k) => (select_bin!(k, op_bin), 0, 0, 0),
        Instr::Un(_) => (op_un, 0, 0, 0),
        Instr::CastInt => (op_cast_int, 0, 0, 0),
        Instr::CastFloat => (op_cast_float, 0, 0, 0),
        Instr::Jump(t) => (op_jump, t, 0, 0),
        Instr::JumpIfZero(t) => (op_jump_if_zero, t, 0, 0),
        Instr::JumpIfNonZero(t) => (op_jump_if_non_zero, t, 0, 0),
        Instr::Call(id, n) => (op_call, id, n as u32, 0),
        Instr::Ret => (op_ret, 0, 0, 0),
        Instr::RetVoid => (op_ret_void, 0, 0, 0),
        Instr::Launch(id, n) => (op_launch, id, n as u32, 0),
        Instr::Sync => (op_sync, 0, 0, 0),
        Instr::Fence => (op_fence, 0, 0, 0),
        Instr::Atomic(_) => (op_atomic, 0, 0, 0),
        Instr::Intrinsic(Intrinsic::Min | Intrinsic::Max | Intrinsic::Pow) => {
            (op_intrinsic2, 0, 0, 0)
        }
        Instr::Intrinsic(_) => (op_intrinsic1, 0, 0, 0),
        Instr::ReadSpecial(_) => (op_read_special, 0, 0, 0),
        Instr::ReadSpecialComp(..) => (op_read_special_comp, 0, 0, 0),
        Instr::MakeDim3 => (op_make_dim3, 0, 0, 0),
        Instr::Dim3Member(lane) => (op_dim3_member, lane as u32, 0, 0),
        Instr::Dim3SetMember(lane) => (op_dim3_set_member, lane as u32, 0, 0),
        Instr::Pop => (op_pop, 0, 0, 0),
        Instr::Dup => (op_dup, 0, 0, 0),
        Instr::Swap => (op_swap, 0, 0, 0),
        Instr::BinLocals(k, a, b) => (select_bin!(k, op_bin_locals), a as u32, b as u32, 0),
        Instr::BinImm(k, v) => (select_bin!(k, op_bin_imm), 0, 0, v),
        Instr::IncLocal(s, d) => (op_inc_local, s as u32, 0, d),
        Instr::LoadLocalMem(s) => (op_load_local_mem, s as u32, 0, 0),
        Instr::CmpBranchLocals(k, a, b, t) => (
            select_bin!(k, op_cmp_branch_locals),
            a as u32,
            b as u32,
            t as i64,
        ),
        Instr::StoreLoadLocal(s) => (op_store_load_local, s as u32, 0, 0),
        Instr::StoreLocalInt(s) => (op_store_local_int, s as u32, 0, 0),
        Instr::SetLocal(s) => (op_set_local, s as u32, 0, 0),
        Instr::LoadMemAt(a, b) => (op_load_mem_at, a as u32, b as u32, 0),
        Instr::CmpBranch(k, t) => (select_bin!(k, op_cmp_branch), t, 0, 0),
    };
    ThreadedOp {
        exec,
        instr,
        imm,
        a,
        b,
        charge: NOT_A_LEADER,
        skip: NO_SKIP,
    }
}

/// Builds the per-function dispatch tables: one decoded slot per
/// instruction, one charge per basic block carrying the cost model's
/// cycles and the fusion-transparent width/origin accounting, and one skip
/// per summarised loop.
pub(crate) fn build_tables(module: &Module, cost: &CostModel) -> Box<[FuncTable]> {
    module
        .functions
        .iter()
        .map(|f| {
            let mut ops: Box<[ThreadedOp]> = f.code.iter().map(|i| threaded_op(*i)).collect();
            let charges: Box<[BlockCharge]> = f.block_charges(cost).into();
            for (i, block) in charges.iter().enumerate() {
                ops[block.start as usize].charge = i as u32;
            }
            let pure: Box<[bool]> = (charges.iter())
                .map(|b| {
                    f.code[b.start as usize..][..b.len as usize]
                        .iter()
                        .all(|i| i.loop_pure() || *i == Instr::RetVoid)
                })
                .collect();
            for (at, back, width, then) in skip::loops(f, &charges, &pure) {
                for pc in then {
                    let op = &mut ops[pc as usize];
                    if op.skip == NO_SKIP {
                        op.skip = at;
                    }
                }
                let op = &mut ops[back as usize];
                (op.exec, op.b, op.imm) = (op_jump_back, at, width as i64);
            }
            FuncTable { ops, charges, pure }
        })
        .collect()
}

// Multi-step device operations: one body each, called by the handlers above
// and by the reference interpreter's arms.

/// `Call`: pops `nargs` arguments into the locals of a new frame for `id`
/// (coerced to the callee's parameter types) and suspends the caller.
pub(crate) fn push_frame(
    thread: &mut Thread,
    module: &Module,
    id: FuncId,
    nargs: usize,
) -> Result<(), ExecError> {
    let callee = &module.functions[id as usize];
    let mut locals = thread.spare_locals.pop().unwrap_or_default();
    locals.clear();
    locals.resize(callee.n_locals as usize, Value::Int(0));
    for i in (0..nargs).rev() {
        let v = pop(&mut thread.stack)?;
        locals[i] = coerce(v, &callee.param_types[i]);
    }
    if thread.callers.len() + 1 > 512 {
        return Err(ExecError::new("device call stack overflow"));
    }
    let new_frame = Frame {
        func: id,
        pc: 0,
        locals,
    };
    let caller = std::mem::replace(&mut thread.frame, new_frame);
    thread.callers.push(caller);
    Ok(())
}

/// `Launch`: pops `nargs` arguments, the block and the grid dimension, and
/// enqueues the child grid — or counts an empty launch. Reads
/// `thread.cycles`, which is why a `Launch` is a basic block of its own.
pub(crate) fn launch(
    env: &mut ExecEnv<'_>,
    thread: &mut Thread,
    block: &BlockCtx,
    btrace: &mut BlockTrace,
    id: FuncId,
    nargs: usize,
) -> Result<(), ExecError> {
    let mut args = vec![Value::Int(0); nargs];
    for i in (0..nargs).rev() {
        args[i] = pop(&mut thread.stack)?;
    }
    let block_dim = env.dim3s.resolve(pop(&mut thread.stack)?);
    let grid_dim = env.dim3s.resolve(pop(&mut thread.stack)?);
    if dim_product(grid_dim, "grid")? <= 0 {
        env.stats.empty_launches += 1;
        return Ok(());
    }
    let origin = LaunchOrigin::Device {
        parent_grid: block.grid_id,
        parent_block: block.linear_block,
        issue_cycles: thread.cycles,
    };
    let child = env.launches.enqueue(
        env.module, env.limits, id, grid_dim, block_dim, args, origin,
    )?;
    btrace.launches.push(LaunchRecord {
        child_grid: child,
        issue_cycles: thread.cycles,
    });
    env.stats.device_launches += 1;
    Ok(())
}

/// `Atomic`: `[addr, operand] -> [old]` (CAS: `[addr, cmp, val] -> [old]`).
/// Threads run one at a time, so load-modify-store is atomic as it stands.
pub(crate) fn atomic(
    env: &mut ExecEnv<'_>,
    stack: &mut Vec<Value>,
    shared: &mut [Value],
    kind: AtomicOp,
) -> Result<(), ExecError> {
    let old = match kind {
        AtomicOp::Cas => {
            let val = pop(stack)?;
            let cmp = pop(stack)?;
            let addr = pop(stack)?.as_int();
            let old = env.load(addr, shared)?;
            let new = if old == cmp { val } else { old };
            env.store(addr, new, shared)?;
            old
        }
        _ => {
            let operand = pop(stack)?;
            let addr = pop(stack)?.as_int();
            let old = env.load(addr, shared)?;
            let new = atomic_apply(kind, old, operand)?;
            env.store(addr, new, shared)?;
            old
        }
    };
    stack.push(old);
    Ok(())
}

pub(crate) fn coerce(v: Value, ty: &Type) -> Value {
    match ty {
        Type::Int | Type::UInt | Type::Long | Type::ULong | Type::Bool => Value::Int(v.as_int()),
        Type::Float | Type::Double => Value::Float(v.as_float()),
        Type::Dim3 => v.to_dim3(),
        Type::Ptr(_) | Type::Void => v,
    }
}

pub(crate) fn bin_op(kind: BinKind, a: Value, b: Value) -> Result<Value, ExecError> {
    use BinKind::*;
    if a.is_float() || b.is_float() {
        let (x, y) = (a.as_float(), b.as_float());
        let v = match kind {
            Add => Value::Float(x + y),
            Sub => Value::Float(x - y),
            Mul => Value::Float(x * y),
            Div => Value::Float(x / y),
            Rem => Value::Float(x % y),
            Lt => Value::from(x < y),
            Le => Value::from(x <= y),
            Gt => Value::from(x > y),
            Ge => Value::from(x >= y),
            Eq => Value::from(x == y),
            Ne => Value::from(x != y),
            BitAnd | BitOr | BitXor | Shl | Shr => {
                return Err(ExecError::new("bitwise operation on float"))
            }
        };
        return Ok(v);
    }
    let (x, y) = (a.as_int(), b.as_int());
    let v = match kind {
        Add => Value::Int(x.wrapping_add(y)),
        Sub => Value::Int(x.wrapping_sub(y)),
        Mul => Value::Int(x.wrapping_mul(y)),
        Div => {
            if y == 0 {
                return Err(ExecError::new("integer division by zero"));
            }
            Value::Int(x.wrapping_div(y))
        }
        Rem => {
            if y == 0 {
                return Err(ExecError::new("integer remainder by zero"));
            }
            Value::Int(x.wrapping_rem(y))
        }
        Lt => Value::from(x < y),
        Le => Value::from(x <= y),
        Gt => Value::from(x > y),
        Ge => Value::from(x >= y),
        Eq => Value::from(x == y),
        Ne => Value::from(x != y),
        BitAnd => Value::Int(x & y),
        BitOr => Value::Int(x | y),
        BitXor => Value::Int(x ^ y),
        Shl => Value::Int(x.wrapping_shl((y & 63) as u32)),
        Shr => Value::Int(x.wrapping_shr((y & 63) as u32)),
    };
    Ok(v)
}

pub(crate) fn un_op(kind: UnKind, a: Value) -> Value {
    match kind {
        UnKind::Neg => match a {
            Value::Float(f) => Value::Float(-f),
            other => Value::Int(other.as_int().wrapping_neg()),
        },
        UnKind::Not => Value::from(!a.is_truthy()),
        UnKind::BitNot => Value::Int(!a.as_int()),
    }
}

fn atomic_apply(op: AtomicOp, old: Value, operand: Value) -> Result<Value, ExecError> {
    let v = match op {
        AtomicOp::Add => bin_op(BinKind::Add, old, operand)?,
        AtomicOp::Sub => bin_op(BinKind::Sub, old, operand)?,
        AtomicOp::Max => {
            if old.is_float() || operand.is_float() {
                Value::Float(old.as_float().max(operand.as_float()))
            } else {
                Value::Int(old.as_int().max(operand.as_int()))
            }
        }
        AtomicOp::Min => {
            if old.is_float() || operand.is_float() {
                Value::Float(old.as_float().min(operand.as_float()))
            } else {
                Value::Int(old.as_int().min(operand.as_int()))
            }
        }
        AtomicOp::Exch => operand,
        AtomicOp::Or => Value::Int(old.as_int() | operand.as_int()),
        AtomicOp::And => Value::Int(old.as_int() & operand.as_int()),
        AtomicOp::Cas => unreachable!("handled separately"),
    };
    Ok(v)
}

pub(crate) fn intrinsic1(i: Intrinsic, a: Value) -> Value {
    match i {
        Intrinsic::Abs => match a {
            Value::Float(f) => Value::Float(f.abs()),
            other => Value::Int(other.as_int().wrapping_abs()),
        },
        Intrinsic::Sqrt => Value::Float(a.as_float().sqrt()),
        Intrinsic::Ceil => Value::Float(a.as_float().ceil()),
        Intrinsic::Floor => Value::Float(a.as_float().floor()),
        Intrinsic::Exp => Value::Float(a.as_float().exp()),
        Intrinsic::Log => Value::Float(a.as_float().ln()),
        _ => unreachable!("binary intrinsic"),
    }
}

pub(crate) fn intrinsic2(i: Intrinsic, a: Value, b: Value) -> Value {
    match i {
        Intrinsic::Min => {
            if a.is_float() || b.is_float() {
                Value::Float(a.as_float().min(b.as_float()))
            } else {
                Value::Int(a.as_int().min(b.as_int()))
            }
        }
        Intrinsic::Max => {
            if a.is_float() || b.is_float() {
                Value::Float(a.as_float().max(b.as_float()))
            } else {
                Value::Int(a.as_int().max(b.as_int()))
            }
        }
        Intrinsic::Pow => Value::Float(a.as_float().powf(b.as_float())),
        _ => unreachable!("unary intrinsic"),
    }
}
