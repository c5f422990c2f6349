//! Bytecode definitions and the per-instruction cost model.
//!
//! The VM is a stack machine. Each instruction slot has a parallel
//! [`CodeOrigin`](dp_frontend::CodeOrigin) entry recording which pipeline
//! stage the source statement came from; the execution engine accumulates
//! cycles per origin, which is how the paper's Fig. 10 execution-time
//! breakdown is produced.

use crate::trace::OriginCycles;
use dp_frontend::ast::{CodeOrigin, FnQual, Name, Type};
use std::collections::HashMap;

/// Index of a compiled function within a [`Module`].
pub type FuncId = u32;

/// Binary operation kinds (typed dynamically by operand values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinKind {
    /// `+` (also pointer arithmetic).
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (integer division when both operands are integers).
    Div,
    /// `%`
    Rem,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
}

/// Unary operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnKind {
    /// Arithmetic negation.
    Neg,
    /// Logical not (yields 0/1).
    Not,
    /// Bitwise complement.
    BitNot,
}

/// Atomic read-modify-write operations on memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicOp {
    /// `atomicAdd` — returns the old value.
    Add,
    /// `atomicSub`
    Sub,
    /// `atomicMax`
    Max,
    /// `atomicMin`
    Min,
    /// `atomicExch`
    Exch,
    /// `atomicCAS` — `[addr, compare, val] -> [old]`.
    Cas,
    /// `atomicOr`
    Or,
    /// `atomicAnd`
    And,
}

/// Math intrinsics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intrinsic {
    /// `min(a, b)` (int or float by operands).
    Min,
    /// `max(a, b)`
    Max,
    /// `abs` / `fabs` / `fabsf`
    Abs,
    /// `sqrt` / `sqrtf`
    Sqrt,
    /// `ceil` / `ceilf`
    Ceil,
    /// `floor` / `floorf`
    Floor,
    /// `exp` / `expf`
    Exp,
    /// `log` / `logf`
    Log,
    /// `pow` / `powf`
    Pow,
}

/// Builtin special registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Special {
    /// `threadIdx` (whole dim3).
    ThreadIdx,
    /// `blockIdx`
    BlockIdx,
    /// `blockDim`
    BlockDim,
    /// `gridDim`
    GridDim,
}

/// VM instructions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// Push an integer constant.
    PushInt(i64),
    /// Push a float constant.
    PushFloat(f64),
    /// Push local slot.
    LoadLocal(u16),
    /// Pop into local slot.
    StoreLocal(u16),
    /// `[addr] -> [value]` — load from global/shared memory.
    LoadMem,
    /// `[addr, value] -> []` — store to global/shared memory.
    StoreMem,
    /// Binary operation `[a, b] -> [a op b]`.
    Bin(BinKind),
    /// Unary operation `[a] -> [op a]`.
    Un(UnKind),
    /// Truncate to integer.
    CastInt,
    /// Convert to float.
    CastFloat,
    /// Unconditional jump to instruction index.
    Jump(u32),
    /// Pop; jump if zero/false.
    JumpIfZero(u32),
    /// Pop; jump if non-zero/true.
    JumpIfNonZero(u32),
    /// Call function with `n` arguments popped from the stack
    /// (first argument pushed first).
    Call(FuncId, u8),
    /// Return with the top of stack as value.
    Ret,
    /// Return from a void function.
    RetVoid,
    /// Dynamic kernel launch: `[grid, block, arg0..argN-1] -> []`.
    Launch(FuncId, u8),
    /// `__syncthreads()` — block-wide barrier.
    Sync,
    /// `__threadfence()` — memory fence (functional no-op, costed).
    Fence,
    /// Atomic op `[addr, operand] -> [old]` (CAS: `[addr, cmp, val]`).
    Atomic(AtomicOp),
    /// Math intrinsic (operand count fixed per intrinsic).
    Intrinsic(Intrinsic),
    /// Push a builtin special register (whole `dim3`).
    ReadSpecial(Special),
    /// Push component `lane` (0..3) of a builtin special register.
    ReadSpecialComp(Special, u8),
    /// `[x, y, z] -> [dim3]`.
    MakeDim3,
    /// `[dim3] -> [component]`.
    Dim3Member(u8),
    /// `[dim3, v] -> [dim3']` with component `lane` replaced.
    Dim3SetMember(u8),
    /// Discard top of stack.
    Pop,
    /// Duplicate top of stack.
    Dup,
    /// Swap the two top stack entries.
    Swap,

    // ------------------------------------------------------------------
    // Fused superinstructions. These are emitted only by the peephole
    // fusion pass ([`crate::lower::fuse_function`]); the lowerer itself
    // never produces them. Each one is *accounting-transparent*: it is
    // charged the summed cycles of its expansion ([`Instr::cost`]) and
    // counted as [`Instr::width`] dynamic instructions, so traces, stats,
    // and per-origin cycle attribution are identical with fusion on or off.
    // ------------------------------------------------------------------
    /// Fused `LoadLocal(a); LoadLocal(b); Bin(op)` — push `locals[a] op locals[b]`.
    BinLocals(BinKind, u16, u16),
    /// Fused `PushInt(v); Bin(op)` — replace top of stack `a` with `a op v`.
    BinImm(BinKind, i64),
    /// Fused local increment: `locals[slot] += v` with no net stack effect.
    /// Canonical expansion is the prefix form
    /// `LoadLocal; PushInt; Bin(Add); Dup; StoreLocal; Pop`; the fuser also
    /// recognizes the postfix ordering and `Bin(Sub)` (with `v` negated),
    /// whose costs and widths are identical.
    IncLocal(u16, i64),
    /// Fused `LoadLocal(slot); LoadMem` — push `mem[locals[slot]]`.
    LoadLocalMem(u16),
    /// Fused compare-and-branch:
    /// `LoadLocal(a); LoadLocal(b); Bin(cmp); JumpIfZero(target)` — jump to
    /// `target` when `locals[a] cmp locals[b]` is false, with no net stack
    /// effect. Only comparison [`BinKind`]s are fused (the loop-condition
    /// shape `while (i < n)` / `for (...; i < n; ...)`).
    CmpBranchLocals(BinKind, u16, u16, u32),
    /// Fused `StoreLocal(slot); LoadLocal(slot)` — store the top of stack
    /// into the local and leave the value on the stack (store-then-reload,
    /// the `int x = e; use(x);` shape common in lowered accumulator
    /// updates).
    StoreLoadLocal(u16),
    /// Fused `CastInt; StoreLocal(slot)` — truncate the top of stack to an
    /// integer and pop it into the local (the tail of every `int x = e;`).
    StoreLocalInt(u16),
    /// Fused `Dup; StoreLocal(slot); Pop` — pop the top of stack into the
    /// local (the tail of every assignment *statement* `x = e;`).
    SetLocal(u16),
    /// Fused `LoadLocal(a); LoadLocal(b); Bin(Add); LoadMem` — push
    /// `mem[locals[a] + locals[b]]` (the indexed load `p[i]`).
    LoadMemAt(u16, u16),
    /// Fused `Bin(cmp); JumpIfZero(target)` — compare the two values on top
    /// of the stack and jump to `target` when the comparison is false. The
    /// fuser emits it for comparison [`BinKind`]s only.
    CmpBranch(BinKind, u32),
}

/// A superinstruction's parts ([`Instr::expansion`]), held inline:
/// [`Instr::IncLocal`]'s six are the most.
#[derive(Clone, Copy)]
struct Parts {
    len: u8,
    parts: [Instr; 6],
}

impl Parts {
    #[inline]
    fn of(parts: &[Instr]) -> Parts {
        let mut all = [Instr::Pop; 6];
        all[..parts.len()].copy_from_slice(parts);
        Parts {
            len: parts.len() as u8,
            parts: all,
        }
    }
}

impl std::ops::Deref for Parts {
    type Target = [Instr];

    fn deref(&self) -> &[Instr] {
        &self.parts[..self.len as usize]
    }
}

impl Instr {
    /// The original instruction sequence a fused superinstruction replaces
    /// (`None` for primitive instructions), held inline: asking allocates
    /// nothing.
    ///
    /// The expansion is the *canonical* form: [`Instr::IncLocal`] expands to
    /// the prefix/`Add` sequence even when it was fused from the postfix or
    /// `Sub` variant (all variants have identical cost classes, so the
    /// accounting is unaffected). [`Instr::cost`] and [`Instr::width`] are
    /// this expansion's sums, which is what keeps fused execution
    /// trace-identical to unfused execution.
    #[inline]
    pub fn expansion(&self) -> Option<impl std::ops::Deref<Target = [Instr]>> {
        use Instr::*;
        let parts = match *self {
            BinLocals(op, a, b) => Parts::of(&[LoadLocal(a), LoadLocal(b), Bin(op)]),
            BinImm(op, v) => Parts::of(&[PushInt(v), Bin(op)]),
            IncLocal(slot, v) => Parts::of(&[
                LoadLocal(slot),
                PushInt(v),
                Bin(BinKind::Add),
                Dup,
                StoreLocal(slot),
                Pop,
            ]),
            LoadLocalMem(slot) => Parts::of(&[LoadLocal(slot), LoadMem]),
            CmpBranchLocals(op, a, b, target) => {
                Parts::of(&[LoadLocal(a), LoadLocal(b), Bin(op), JumpIfZero(target)])
            }
            StoreLoadLocal(slot) => Parts::of(&[StoreLocal(slot), LoadLocal(slot)]),
            StoreLocalInt(slot) => Parts::of(&[CastInt, StoreLocal(slot)]),
            SetLocal(slot) => Parts::of(&[Dup, StoreLocal(slot), Pop]),
            LoadMemAt(a, b) => Parts::of(&[LoadLocal(a), LoadLocal(b), Bin(BinKind::Add), LoadMem]),
            CmpBranch(op, target) => Parts::of(&[Bin(op), JumpIfZero(target)]),
            _ => return None,
        };
        Some(parts)
    }

    /// The instruction index this instruction may jump to (block cutting and
    /// the fuser ask here). Read off a copy through
    /// [`Instr::branch_target_mut`], which holds the one list of opcodes
    /// that carry a jump target.
    pub fn branch_target(&self) -> Option<u32> {
        let mut copy = *self;
        copy.branch_target_mut().copied()
    }

    /// The jump target, to rewrite it. A new jumping opcode is a row here
    /// and nowhere else; it then ends a basic block.
    pub fn branch_target_mut(&mut self) -> Option<&mut u32> {
        match self {
            Instr::Jump(t)
            | Instr::JumpIfZero(t)
            | Instr::JumpIfNonZero(t)
            | Instr::CmpBranchLocals(.., t)
            | Instr::CmpBranch(_, t) => Some(t),
            _ => None,
        }
    }

    /// Whether it reads no thread index and writes nothing outside the
    /// thread's frame and operand stack (a load is uniform: a replayed prefix
    /// checks what it read, `machine.rs` "Dispatch"). A superinstruction is
    /// lane-uniform exactly when every part of its expansion is.
    pub fn lane_uniform(&self) -> bool {
        match self {
            Instr::PushInt(_)
            | Instr::PushFloat(_)
            | Instr::LoadLocal(_)
            | Instr::StoreLocal(_)
            | Instr::LoadMem
            | Instr::Bin(_)
            | Instr::Un(_)
            | Instr::CastInt
            | Instr::CastFloat
            | Instr::Jump(_)
            | Instr::JumpIfZero(_)
            | Instr::JumpIfNonZero(_)
            | Instr::Fence
            | Instr::Intrinsic(_)
            | Instr::Dim3Member(_)
            | Instr::Pop
            | Instr::Dup
            | Instr::Swap
            | Instr::BinLocals(..)
            | Instr::BinImm(..)
            | Instr::IncLocal(..)
            | Instr::LoadLocalMem(_)
            | Instr::CmpBranchLocals(..)
            | Instr::StoreLoadLocal(_)
            | Instr::StoreLocalInt(_)
            | Instr::SetLocal(_)
            | Instr::LoadMemAt(..)
            | Instr::CmpBranch(..) => true,
            Instr::ReadSpecialComp(sp, _) => *sp != Special::ThreadIdx,
            // Memory writes, the frame stack, barriers and launches; and the
            // three that intern into the machine's dim3 table.
            Instr::StoreMem
            | Instr::Atomic(_)
            | Instr::Launch(..)
            | Instr::Call(..)
            | Instr::Ret
            | Instr::RetVoid
            | Instr::Sync
            | Instr::ReadSpecial(_)
            | Instr::MakeDim3
            | Instr::Dim3SetMember(_) => false,
        }
    }

    /// Whether the walk that skips idle loop iterations and lanes
    /// (`skip.rs`) may evaluate it: it reads and writes only the frame's
    /// locals and the operand stack, and what it computes from `Int`s is a
    /// wrapping sum, difference, product or comparison — so a path of these
    /// is affine when its products are. A primitive that is pure has a rule
    /// in the walk's one `step`. A superinstruction is pure exactly when
    /// every part of its expansion is, and needs no rule: the walk runs its
    /// expansion.
    pub fn loop_pure(&self) -> bool {
        use BinKind::*;
        match self {
            Instr::PushInt(_)
            | Instr::LoadLocal(_)
            | Instr::StoreLocal(_)
            | Instr::CastInt
            | Instr::Jump(_)
            | Instr::JumpIfZero(_)
            | Instr::JumpIfNonZero(_)
            | Instr::ReadSpecialComp(..)
            | Instr::Dim3Member(_)
            | Instr::Pop
            | Instr::Dup
            | Instr::Swap
            | Instr::IncLocal(..)
            | Instr::StoreLoadLocal(_)
            | Instr::StoreLocalInt(_)
            | Instr::SetLocal(_)
            | Instr::Un(UnKind::Neg) => true,
            Instr::Bin(k)
            | Instr::BinLocals(k, ..)
            | Instr::BinImm(k, _)
            | Instr::CmpBranchLocals(k, ..)
            | Instr::CmpBranch(k, _) => {
                matches!(k, Add | Sub | Mul | Lt | Le | Gt | Ge | Eq | Ne)
            }
            // Memory, the frame stack, barriers and launches, the dim3
            // table, floats, intrinsics, and operations that are not affine.
            Instr::PushFloat(_)
            | Instr::LoadMem
            | Instr::StoreMem
            | Instr::Un(UnKind::Not | UnKind::BitNot)
            | Instr::CastFloat
            | Instr::Call(..)
            | Instr::Ret
            | Instr::RetVoid
            | Instr::Launch(..)
            | Instr::Sync
            | Instr::Fence
            | Instr::Atomic(_)
            | Instr::Intrinsic(_)
            | Instr::ReadSpecial(_)
            | Instr::MakeDim3
            | Instr::Dim3SetMember(_)
            | Instr::LoadLocalMem(_)
            | Instr::LoadMemAt(..) => false,
        }
    }

    /// How many original (pre-fusion) instructions this instruction counts
    /// as: 1 for primitives, the expansion length for superinstructions.
    pub fn width(&self) -> u32 {
        match self {
            Instr::IncLocal(..) => 6,
            Instr::CmpBranchLocals(..) | Instr::LoadMemAt(..) => 4,
            Instr::BinLocals(..) | Instr::SetLocal(_) => 3,
            Instr::BinImm(..)
            | Instr::LoadLocalMem(_)
            | Instr::StoreLoadLocal(_)
            | Instr::StoreLocalInt(_)
            | Instr::CmpBranch(..) => 2,
            _ => 1,
        }
    }

    /// Cycles charged for one execution of this instruction under `model` —
    /// for fused instructions, the sum over the expansion.
    ///
    /// Both are written out, not computed from [`Instr::expansion`]: a
    /// machine is built per request and asks these of every instruction
    /// (twice, once for the slot and once for its block).
    /// `fused_instructions_cost_their_expansion` holds the two spellings
    /// together.
    pub fn cost(&self, model: &CostModel) -> u64 {
        let bin = |op: BinKind| model.cycles(Instr::Bin(op).cost_class());
        match *self {
            Instr::IncLocal(..) => 6 * model.alu,
            Instr::CmpBranchLocals(op, ..) => 2 * model.alu + bin(op) + model.branch,
            Instr::BinLocals(op, ..) => 2 * model.alu + bin(op),
            Instr::BinImm(op, _) => model.alu + bin(op),
            Instr::LoadLocalMem(_) => model.alu + model.mem,
            Instr::StoreLoadLocal(_) | Instr::StoreLocalInt(_) => 2 * model.alu,
            Instr::SetLocal(_) => 3 * model.alu,
            Instr::LoadMemAt(..) => 2 * model.alu + bin(BinKind::Add) + model.mem,
            Instr::CmpBranch(op, _) => bin(op) + model.branch,
            _ => model.cycles(self.cost_class()),
        }
    }

    /// The cost class used by the timing model.
    ///
    /// Fused superinstructions report their *dominant* component's class
    /// (the operation, not the operand moves); the execution machine does
    /// not use this for them — it charges [`Instr::cost`], the sum over the
    /// expansion.
    pub fn cost_class(&self) -> CostClass {
        match self {
            Instr::PushInt(_)
            | Instr::PushFloat(_)
            | Instr::LoadLocal(_)
            | Instr::StoreLocal(_)
            | Instr::Pop
            | Instr::Dup
            | Instr::Swap
            | Instr::ReadSpecial(_)
            | Instr::ReadSpecialComp(..)
            | Instr::MakeDim3
            | Instr::Dim3Member(_)
            | Instr::Dim3SetMember(_)
            | Instr::CastInt
            | Instr::CastFloat => CostClass::Alu,
            Instr::Bin(BinKind::Mul) => CostClass::Mul,
            Instr::Bin(BinKind::Div) | Instr::Bin(BinKind::Rem) => CostClass::Div,
            Instr::Bin(_) | Instr::Un(_) => CostClass::Alu,
            Instr::LoadMem | Instr::StoreMem => CostClass::Mem,
            Instr::Jump(_) | Instr::JumpIfZero(_) | Instr::JumpIfNonZero(_) => CostClass::Branch,
            Instr::Call(..) | Instr::Ret | Instr::RetVoid => CostClass::Call,
            Instr::Launch(..) => CostClass::Launch,
            Instr::Sync => CostClass::Sync,
            Instr::Fence => CostClass::Fence,
            Instr::Atomic(_) => CostClass::Atomic,
            Instr::Intrinsic(_) => CostClass::Intrinsic,
            Instr::BinLocals(op, ..) | Instr::BinImm(op, _) => Instr::Bin(*op).cost_class(),
            Instr::IncLocal(..) => CostClass::Alu,
            Instr::LoadLocalMem(_) | Instr::LoadMemAt(..) => CostClass::Mem,
            Instr::CmpBranchLocals(..) | Instr::CmpBranch(..) => CostClass::Branch,
            Instr::StoreLoadLocal(_) | Instr::StoreLocalInt(_) | Instr::SetLocal(_) => {
                CostClass::Alu
            }
        }
    }
}

/// Instruction cost classes (cycles assigned by [`CostModel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostClass {
    /// Simple ALU / register moves.
    Alu,
    /// Integer/float multiply.
    Mul,
    /// Divide / remainder.
    Div,
    /// Global/shared memory access.
    Mem,
    /// Branches.
    Branch,
    /// Function call/return.
    Call,
    /// The device-side launch instruction sequence.
    Launch,
    /// Barrier.
    Sync,
    /// Memory fence.
    Fence,
    /// Atomic RMW.
    Atomic,
    /// Math intrinsics.
    Intrinsic,
}

/// Cycles charged per instruction, by class. Defaults are V100-flavoured
/// relative latencies (absolute scale is set by the simulator clock).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// ALU ops.
    pub alu: u64,
    /// Multiplies.
    pub mul: u64,
    /// Divisions.
    pub div: u64,
    /// Memory accesses (amortized global-memory cost).
    pub mem: u64,
    /// Branches.
    pub branch: u64,
    /// Call/return overhead.
    pub call: u64,
    /// Device-side launch instruction sequence executed by the launching
    /// thread (API overhead, not queueing delay — that is the simulator's
    /// launch pipe).
    pub launch: u64,
    /// Barrier.
    pub sync: u64,
    /// Fence.
    pub fence: u64,
    /// Atomic RMW (contention is not modelled per-address).
    pub atomic: u64,
    /// Math intrinsics.
    pub intrinsic: u64,
    /// Fixed per-thread overhead charged in kernels that contain a launch
    /// instruction, even if the launch never executes. Models the extra
    /// generated instructions the paper observes in Section VIII-D.
    pub launch_presence_overhead: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            alu: 1,
            mul: 2,
            div: 10,
            mem: 12,
            branch: 1,
            call: 4,
            launch: 220,
            sync: 8,
            fence: 12,
            atomic: 24,
            intrinsic: 6,
            launch_presence_overhead: 60,
        }
    }
}

impl CostModel {
    /// Cycles for one instruction of the given class.
    pub fn cycles(&self, class: CostClass) -> u64 {
        match class {
            CostClass::Alu => self.alu,
            CostClass::Mul => self.mul,
            CostClass::Div => self.div,
            CostClass::Mem => self.mem,
            CostClass::Branch => self.branch,
            CostClass::Call => self.call,
            CostClass::Launch => self.launch,
            CostClass::Sync => self.sync,
            CostClass::Fence => self.fence,
            CostClass::Atomic => self.atomic,
            CostClass::Intrinsic => self.intrinsic,
        }
    }
}

/// A compiled function.
#[derive(Debug, Clone)]
pub struct CompiledFunction {
    /// Function name.
    pub name: Name,
    /// CUDA qualifier.
    pub qual: FnQual,
    /// Declared parameter types (used for call coercions, e.g. `int → dim3`).
    pub param_types: Vec<Type>,
    /// Number of local slots (including parameters, which occupy the first
    /// `param_types.len()` slots).
    pub n_locals: u16,
    /// Instruction stream.
    pub code: Vec<Instr>,
    /// Per-instruction origin tags (same length as `code`).
    pub origins: Vec<CodeOrigin>,
    /// Whether the function contains a `Launch` instruction.
    pub contains_launch: bool,
    /// Words of shared memory the function's `__shared__` declarations need.
    pub shared_words: u32,
}

/// The summed accounting of one basic block: what executing it from its
/// leader to its last instruction charges a thread. Everything here is
/// static, so the execution machine charges a block once, at its leader,
/// instead of once per instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockCharge {
    /// Index of the block's first instruction (its leader).
    pub start: u32,
    /// Instruction slots in the block.
    pub len: u32,
    /// Sum of [`Instr::cost`].
    pub cycles: u64,
    /// Sum of [`Instr::width`] (original, pre-fusion instructions).
    pub width: u64,
    /// `cycles` split by the slots' origin tags.
    pub origin: OriginCycles,
    /// Every slot is [`Instr::lane_uniform`].
    pub uniform: bool,
}

impl CompiledFunction {
    /// Cuts the instruction stream into basic blocks, in order, and sums
    /// each one's accounting under `cost`.
    ///
    /// A leader is: instruction 0; every branch target and the instruction
    /// after a branch; the instruction after a `Call`, `Ret`, `RetVoid` or
    /// `Sync` (where a thread resumes). A `Launch` is a block of its own:
    /// it records the thread's cycle count, which therefore has to be
    /// exact when it runs. In a kernel, the first instruction that is not
    /// [`Instr::lane_uniform`] in a block the uniform prefix reaches is a
    /// leader too, so a replayed prefix ends where the kernel first depends
    /// on its thread (`cut_uniform_prefix`).
    pub fn block_charges(&self, cost: &CostModel) -> Vec<BlockCharge> {
        let mut leader = vec![false; self.code.len() + 1];
        leader[0] = true;
        for (pc, instr) in self.code.iter().enumerate() {
            if let Some(t) = instr.branch_target() {
                if let Some(l) = leader.get_mut(t as usize) {
                    *l = true;
                }
                leader[pc + 1] = true;
            }
            match *instr {
                Instr::Call(..) | Instr::Ret | Instr::RetVoid | Instr::Sync => {
                    leader[pc + 1] = true;
                }
                Instr::Launch(..) => {
                    leader[pc] = true;
                    leader[pc + 1] = true;
                }
                _ => {}
            }
        }
        if self.qual == FnQual::Global {
            self.cut_uniform_prefix(&mut leader);
        }
        let mut blocks: Vec<BlockCharge> = Vec::new();
        for (pc, (instr, origin)) in self.code.iter().zip(&self.origins).enumerate() {
            if leader[pc] {
                blocks.push(BlockCharge {
                    start: pc as u32,
                    len: 0,
                    cycles: 0,
                    width: 0,
                    origin: OriginCycles::default(),
                    uniform: true,
                });
            }
            let block = blocks.last_mut().expect("instruction 0 is a leader");
            let cycles = instr.cost(cost);
            block.len += 1;
            block.cycles += cycles;
            block.width += instr.width() as u64;
            block.origin.add(*origin, cycles);
            block.uniform &= instr.lane_uniform();
        }
        blocks
    }

    /// Makes the uniform prefix end at an instruction, not at a block: walks
    /// from instruction 0 through the blocks all of whose instructions are
    /// lane-uniform (to a block's branch target, and to its fall-through
    /// unless it ends in a `Jump`), and where the walk reaches a block that
    /// starts uniform and later reads a thread index or writes outside the
    /// frame, cuts it there. A superinstruction is uniform only if all of its
    /// expansion is, so a cut never falls inside one.
    fn cut_uniform_prefix(&self, leader: &mut [bool]) {
        let len = self.code.len();
        let mut seen = vec![false; len];
        let mut work = vec![0];
        while let Some(start) = work.pop() {
            if start >= len || std::mem::replace(&mut seen[start], true) {
                continue;
            }
            let end = (start + 1..len).find(|&pc| leader[pc]).unwrap_or(len);
            match (start..end).find(|&pc| !self.code[pc].lane_uniform()) {
                Some(pc) => leader[pc] = true,
                None => {
                    let last = self.code[end - 1];
                    work.extend(last.branch_target().map(|t| t as usize));
                    if !matches!(last, Instr::Jump(_)) {
                        work.push(end);
                    }
                }
            }
        }
    }
}

/// A compiled translation unit.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// Functions, indexed by [`FuncId`].
    pub functions: Vec<CompiledFunction>,
    by_name: HashMap<Name, FuncId>,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Self {
        Module::default()
    }

    /// Adds a function, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if a function with the same name already exists.
    pub fn add(&mut self, func: CompiledFunction) -> FuncId {
        let id = self.functions.len() as FuncId;
        let prev = self.by_name.insert(func.name.clone(), id);
        assert!(prev.is_none(), "duplicate function `{}`", func.name);
        self.functions.push(func);
        id
    }

    /// Looks up a function id by name.
    pub fn id_of(&self, name: &str) -> Option<FuncId> {
        self.by_name.get(name).copied()
    }

    /// The function for an id.
    pub fn function(&self, id: FuncId) -> &CompiledFunction {
        &self.functions[id as usize]
    }

    /// The function by name.
    pub fn by_name(&self, name: &str) -> Option<&CompiledFunction> {
        self.id_of(name).map(|id| self.function(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_classes_cover_instructions() {
        assert_eq!(Instr::PushInt(1).cost_class(), CostClass::Alu);
        assert_eq!(Instr::Bin(BinKind::Div).cost_class(), CostClass::Div);
        assert_eq!(Instr::LoadMem.cost_class(), CostClass::Mem);
        assert_eq!(Instr::Launch(0, 2).cost_class(), CostClass::Launch);
        assert_eq!(Instr::Atomic(AtomicOp::Add).cost_class(), CostClass::Atomic);
    }

    #[test]
    fn fused_instructions_cost_their_expansion() {
        // No two classes alike, so a cycle taken from the wrong one shows.
        let m = CostModel {
            alu: 2,
            mul: 3,
            div: 5,
            mem: 7,
            branch: 11,
            ..CostModel::default()
        };
        for (fused, width, uniform) in [
            (Instr::BinLocals(BinKind::Mul, 0, 1), 3, true),
            (Instr::BinImm(BinKind::Div, 7), 2, true),
            (Instr::IncLocal(2, 1), 6, true),
            (Instr::LoadLocalMem(0), 2, true),
            (Instr::CmpBranchLocals(BinKind::Lt, 0, 1, 9), 4, true),
            (Instr::StoreLoadLocal(3), 2, true),
            (Instr::StoreLocalInt(3), 2, true),
            (Instr::SetLocal(3), 3, true),
            (Instr::LoadMemAt(0, 1), 4, true),
            (Instr::CmpBranch(BinKind::Rem, 9), 2, true),
        ] {
            let parts = fused.expansion().expect("fused ops expand");
            assert_eq!(fused.width(), width);
            assert_eq!(parts.len() as u32, width);
            let expanded_cost: u64 = parts.iter().map(|p| m.cycles(p.cost_class())).sum();
            assert_eq!(fused.cost(&m), expanded_cost);
            assert_eq!(fused.lane_uniform(), uniform, "{fused:?}");
            assert_eq!(
                uniform,
                parts.iter().all(Instr::lane_uniform),
                "{fused:?} is lane-uniform exactly when its expansion is"
            );
            assert_eq!(
                fused.loop_pure(),
                parts.iter().all(Instr::loop_pure),
                "{fused:?} is loop-pure exactly when its expansion is"
            );
            // A recorded prefix logs a fused slot's load, if it has one.
            let operands = [crate::value::Value::Int(1); 4];
            let logged = crate::ops::load_address(fused, &operands, &operands).is_some();
            let loads = parts.iter().filter(|p| **p == Instr::LoadMem).count();
            assert_eq!(logged as usize, loads, "{fused:?}");
            // What the reference interpreter's walk over an expansion
            // relies on: the parts are primitive, none changes the frame,
            // yields or launches, and only the last may write `pc`.
            assert!(
                parts.iter().all(|p| p.expansion().is_none()),
                "expansion is primitive"
            );
            assert!(
                !parts.iter().any(|p| matches!(
                    p,
                    Instr::Call(..) | Instr::Ret | Instr::RetVoid | Instr::Sync | Instr::Launch(..)
                )),
                "{fused:?}"
            );
            let (last, before) = parts.split_last().expect("an expansion is not empty");
            assert!(
                before.iter().all(|p| p.branch_target().is_none()),
                "{fused:?} branches before its last part"
            );
            assert_eq!(fused.branch_target(), last.branch_target());
        }
        assert_eq!(Instr::Bin(BinKind::Add).width(), 1);
        assert_eq!(Instr::LoadMem.cost(&m), m.mem);
    }

    #[test]
    fn the_uniform_prefix_is_cut_where_it_first_depends_on_the_thread() {
        use Instr::*;
        let tid = ReadSpecialComp(Special::ThreadIdx, 0);
        let code = vec![
            LoadLocal(0),
            JumpIfZero(6),
            // Reached from the entry: cut at the `threadIdx` read.
            BinLocals(BinKind::Add, 0, 1),
            tid,
            BinImm(BinKind::Lt, 3),
            JumpIfZero(13),
            // Reached from the entry and uniform; its `Jump` skips 9.
            PushInt(2),
            SetLocal(1),
            Jump(11),
            // A loop body entered only by the back-edge at 12: not cut.
            PushInt(4),
            tid,
            tid,
            JumpIfNonZero(9),
            // Reached only through the `threadIdx` branch at 5: not cut.
            PushInt(5),
            tid,
            Bin(BinKind::Add),
            RetVoid,
        ];
        let kernel = CompiledFunction {
            name: "k".into(),
            qual: FnQual::Global,
            param_types: vec![],
            n_locals: 2,
            origins: (0..code.len())
                .map(|pc| [CodeOrigin::Original, CodeOrigin::AggLogic][pc % 2])
                .collect(),
            code,
            contains_launch: false,
            shared_words: 0,
        };
        let cost = CostModel {
            alu: 2,
            branch: 11,
            ..CostModel::default()
        };
        let starts = |f: &CompiledFunction| -> Vec<u32> {
            f.block_charges(&cost).iter().map(|b| b.start).collect()
        };
        assert_eq!(starts(&kernel), [0, 2, 3, 6, 9, 11, 13]);
        let blocks = kernel.block_charges(&cost);
        let uniform: Vec<bool> = blocks.iter().map(|b| b.uniform).collect();
        assert_eq!(uniform, [true, true, false, true, false, false, false]);
        // Only a kernel's entry starts a prefix.
        let device = CompiledFunction {
            qual: FnQual::Device,
            ..kernel.clone()
        };
        assert_eq!(starts(&device), [0, 2, 6, 9, 11, 13]);
        // Cutting splits the sums and changes none of them.
        let mut origin = OriginCycles::default();
        for (instr, og) in kernel.code.iter().zip(&kernel.origins) {
            origin.add(*og, instr.cost(&cost));
        }
        let width: u64 = kernel.code.iter().map(|i| i.width() as u64).sum();
        let mut charged = OriginCycles::default();
        for b in &blocks {
            charged.merge(&b.origin);
        }
        assert_eq!(charged, origin);
        assert_eq!(blocks.iter().map(|b| b.cycles).sum::<u64>(), origin.total());
        assert_eq!(blocks.iter().map(|b| b.width).sum::<u64>(), width);
    }

    #[test]
    fn default_cost_model_is_consistent() {
        let m = CostModel::default();
        assert!(m.cycles(CostClass::Launch) > m.cycles(CostClass::Alu));
        assert!(m.cycles(CostClass::Mem) > m.cycles(CostClass::Alu));
        assert_eq!(m.cycles(CostClass::Div), m.div);
    }

    #[test]
    fn module_lookup() {
        let mut m = Module::new();
        let id = m.add(CompiledFunction {
            name: "k".into(),
            qual: FnQual::Global,
            param_types: vec![],
            n_locals: 0,
            code: vec![Instr::RetVoid],
            origins: vec![CodeOrigin::Original],
            contains_launch: false,
            shared_words: 0,
        });
        assert_eq!(m.id_of("k"), Some(id));
        assert!(m.by_name("missing").is_none());
        assert_eq!(m.function(id).name, "k");
    }

    #[test]
    #[should_panic(expected = "duplicate function")]
    fn duplicate_names_panic() {
        let mut m = Module::new();
        let f = CompiledFunction {
            name: "k".into(),
            qual: FnQual::Global,
            param_types: vec![],
            n_locals: 0,
            code: vec![],
            origins: vec![],
            contains_launch: false,
            shared_words: 0,
        };
        m.add(f.clone());
        m.add(f);
    }
}
