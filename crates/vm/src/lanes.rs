//! Lane skipping: the lanes of a kernel block whose remaining path is pure
//! and affine in `threadIdx.x` are retired together, each charged what
//! dispatching it would charge, and none of them runs.
//!
//! At its start point — its kernel's entry, or the end of its replayed or
//! recorded uniform prefix — a lane holds what every other lane of its
//! block holds there, but for its thread index. [`walk`] runs on from
//! there with each value held as `v0 + n·d`, an affine form in the lane
//! offset `n`, where lane `t + n` reads `threadIdx.x = t + n`. The walk
//! evaluates only what [`Instr::loop_pure`] accepts (fused forms
//! included), reads the lane's locals and operand stack, which must hold
//! `Int`s, and takes at each branch the direction lane `t` takes. Wrapping
//! `+`, `-` and `*` are a ring's, so every value is `v0 + n·d` modulo 2^64
//! as long as no product has two factors that depend on `n`; a comparison
//! or a branch on a value that depends on `n` is a test, and solving it
//! ([`first_exit`]) says for how many lanes from `t` on it comes out as it
//! does for `t` and keeps its operands inside `i64`, where the form is the
//! value exactly. Those lanes agree on every comparison, so its result is
//! a constant from then on.
//!
//! A walk that reaches the kernel's `RetVoid` is an [`Route::Idle`] route:
//! the lanes every test admits take it and nothing else, and `run_block`
//! retires them at once. One that stops — at a load, a store, an atomic, a
//! launch, a barrier, a call, a float, a division, a product of two
//! lane-dependent factors, or after [`BLOCKS_MAX`] blocks — is a
//! [`Route::Busy`] one: the lanes every test so far admits reach the same
//! instruction the same way, so they run as usual and the next walk is
//! tried at the lane after them. A walk allocates nothing.

use crate::bytecode::{BinKind, BlockCharge, Instr, Special, UnKind};
use crate::loops::{compare, first_exit};
use crate::machine::{BlockCtx, Thread};
use crate::ops::{special, FuncTable};
use crate::trace::OriginCycles;
use crate::value::Value;

/// Most basic blocks a walk charges before it gives up.
const BLOCKS_MAX: u32 = 32;

/// Most operand-stack slots a walk holds.
const STACK_MAX: usize = 16;

/// Most locals a walk writes.
const WRITES_MAX: usize = 16;

/// A value at lane `t + n`: `v0 + n·d`, modulo 2^64.
#[derive(Debug, Clone, Copy, Default)]
struct Affine {
    v0: i64,
    d: i64,
}

impl Affine {
    const fn int(v: i64) -> Affine {
        Affine { v0: v, d: 0 }
    }
}

/// What an idle route charges each lane that takes it, from its start
/// point on: the summed [`BlockCharge`]s of the blocks it enters.
#[derive(Debug, Default)]
pub(crate) struct Charge {
    pub(crate) cycles: u64,
    pub(crate) width: u64,
    pub(crate) origin: OriginCycles,
}

/// Where a walk from a lane's start point ended, and how many lanes from it
/// on, itself among them, take the same route there.
#[derive(Debug)]
pub(crate) enum Route {
    /// At its kernel's `RetVoid`: the route is pure, and charges `Charge`.
    Idle(u64, Charge),
    /// At an instruction the walk does not evaluate.
    Busy(u64),
}

/// One walk: the operand stack, the locals it wrote, and the lanes its
/// tests admit so far.
struct Walk<'t> {
    thread: &'t Thread,
    block: &'t BlockCtx,
    stack: [Affine; STACK_MAX],
    len: usize,
    writes: [(u16, Affine); WRITES_MAX],
    written: usize,
    lanes: i128,
}

/// What one instruction did to the walk.
enum Step {
    Next,
    Jump(u32),
    Return,
}

/// Walks the lane in `thread`, at its start point in a kernel whose table
/// is `table`, to the end of its route (module doc).
pub(crate) fn walk(table: &FuncTable, thread: &Thread, block: &BlockCtx) -> Route {
    let mut w = Walk {
        thread,
        block,
        stack: [Affine::default(); STACK_MAX],
        len: 0,
        writes: [(0, Affine::default()); WRITES_MAX],
        written: 0,
        lanes: i128::MAX,
    };
    for v in &thread.stack {
        match *v {
            Value::Int(v) if w.push(Affine::int(v)).is_some() => {}
            _ => return Route::Busy(w.admitted()),
        }
    }
    let mut charge = Charge::default();
    let mut pc = thread.frame.pc;
    for _ in 0..BLOCKS_MAX {
        // Falling off the end of the kernel returns, and charges nothing.
        let Some(leader) = table.ops.get(pc) else {
            return Route::Idle(w.admitted(), charge);
        };
        let block = &table.charges[leader.charge as usize];
        let end = pc + block.len as usize;
        let mut next = end;
        for op in &table.ops[pc..end] {
            match w.step(op.instr) {
                Some(Step::Next) => {}
                Some(Step::Jump(to)) => next = to as usize,
                Some(Step::Return) => {
                    charge.add(block);
                    return Route::Idle(w.admitted(), charge);
                }
                None => return Route::Busy(w.admitted()),
            }
        }
        charge.add(block);
        pc = next;
    }
    Route::Busy(w.admitted())
}

impl Charge {
    fn add(&mut self, block: &BlockCharge) {
        self.cycles += block.cycles;
        self.width += block.width;
        self.origin.merge(&block.origin);
    }
}

impl Walk<'_> {
    /// The lanes every test so far admits, lane `t` among them.
    fn admitted(&self) -> u64 {
        self.lanes.min(u64::MAX as i128) as u64
    }

    fn push(&mut self, v: Affine) -> Option<()> {
        *self.stack.get_mut(self.len)? = v;
        self.len += 1;
        Some(())
    }

    fn pop(&mut self) -> Option<Affine> {
        self.len = self.len.checked_sub(1)?;
        Some(self.stack[self.len])
    }

    fn top(&self) -> Option<Affine> {
        self.stack[..self.len].last().copied()
    }

    /// Local `slot`: what the walk wrote there, or the lane's `Int`.
    fn load(&self, slot: u16) -> Option<Affine> {
        let written = &self.writes[..self.written];
        if let Some(&(_, v)) = written.iter().find(|(s, _)| *s == slot) {
            return Some(v);
        }
        match *self.thread.frame.locals.get(slot as usize)? {
            Value::Int(v) => Some(Affine::int(v)),
            _ => None,
        }
    }

    fn store(&mut self, slot: u16, v: Affine) -> Option<()> {
        self.thread.frame.locals.get(slot as usize)?;
        let written = &mut self.writes[..self.written];
        if let Some(entry) = written.iter_mut().find(|(s, _)| *s == slot) {
            entry.1 = v;
            return Some(());
        }
        *self.writes.get_mut(self.written)? = (slot, v);
        self.written += 1;
        Some(())
    }

    /// `a kind b`: a sum, difference or product with an invariant factor,
    /// or a comparison, which is a test when either operand depends on `n`
    /// and a constant for the lanes it admits. `None` for anything else.
    fn bin(&mut self, kind: BinKind, a: Affine, b: Affine) -> Option<Affine> {
        use BinKind::*;
        Some(match kind {
            Add => Affine {
                v0: a.v0.wrapping_add(b.v0),
                d: a.d.wrapping_add(b.d),
            },
            Sub => Affine {
                v0: a.v0.wrapping_sub(b.v0),
                d: a.d.wrapping_sub(b.d),
            },
            Mul if a.d == 0 || b.d == 0 => Affine {
                v0: a.v0.wrapping_mul(b.v0),
                d: (a.v0.wrapping_mul(b.d)).wrapping_add(a.d.wrapping_mul(b.v0)),
            },
            Lt | Le | Gt | Ge | Eq | Ne => Affine::int(self.test(kind, a, b) as i64),
            _ => return None,
        })
    }

    /// `a kind b` at lane `t`, narrowing the admitted lanes to those where
    /// it comes out the same.
    fn test(&mut self, kind: BinKind, a: Affine, b: Affine) -> bool {
        let holds = compare(kind, a.v0, b.v0);
        if a.d != 0 || b.d != 0 {
            let exit = first_exit(kind, holds, (a.v0, a.d), (b.v0, b.d));
            self.lanes = self.lanes.min(exit);
        }
        holds
    }

    /// A conditional branch to `to` on `v`, taken when `v` is non-zero
    /// exactly when `nonzero`.
    fn branch(&mut self, v: Affine, to: u32, nonzero: bool) -> Step {
        let zero = Affine::int(0);
        if self.test(BinKind::Ne, v, zero) == nonzero {
            Step::Jump(to)
        } else {
            Step::Next
        }
    }

    /// Evaluates one instruction of the route; `None` where the walk stops:
    /// an instruction it does not evaluate, a value that is not what the
    /// instruction needs, or a stack that is empty or full.
    fn step(&mut self, instr: Instr) -> Option<Step> {
        match instr {
            Instr::PushInt(v) => self.push(Affine::int(v))?,
            Instr::LoadLocal(slot) => {
                let v = self.load(slot)?;
                self.push(v)?;
            }
            Instr::StoreLocal(slot) | Instr::StoreLocalInt(slot) | Instr::SetLocal(slot) => {
                // `CastInt` is the identity on an `Int`, and every value
                // here is one.
                let v = self.pop()?;
                self.store(slot, v)?;
            }
            Instr::StoreLoadLocal(slot) => {
                let v = self.top()?;
                self.store(slot, v)?;
            }
            Instr::IncLocal(slot, by) => {
                let v = self.load(slot)?;
                let v = self.bin(BinKind::Add, v, Affine::int(by))?;
                self.store(slot, v)?;
            }
            Instr::Bin(kind) => {
                let b = self.pop()?;
                let a = self.pop()?;
                let v = self.bin(kind, a, b)?;
                self.push(v)?;
            }
            Instr::BinImm(kind, imm) => {
                let a = self.pop()?;
                let v = self.bin(kind, a, Affine::int(imm))?;
                self.push(v)?;
            }
            Instr::BinLocals(kind, a, b) => {
                let (a, b) = (self.load(a)?, self.load(b)?);
                let v = self.bin(kind, a, b)?;
                self.push(v)?;
            }
            Instr::Un(UnKind::Neg) => {
                let a = self.pop()?;
                self.push(Affine {
                    v0: a.v0.wrapping_neg(),
                    d: a.d.wrapping_neg(),
                })?;
            }
            Instr::CastInt => {
                self.top()?;
            }
            // An `Int` is the dim3 `(v, 1, 1)`.
            Instr::Dim3Member(lane) => {
                let a = self.pop()?;
                self.push(if lane == 0 { a } else { Affine::int(1) })?;
            }
            Instr::ReadSpecialComp(Special::ThreadIdx, 0) => self.push(Affine {
                v0: self.thread.tidx[0],
                d: 1,
            })?,
            // Lanes step in x only: every other component is the block's.
            Instr::ReadSpecialComp(sp, lane) => {
                let v = special(sp, self.thread, self.block)[lane as usize];
                self.push(Affine::int(v))?;
            }
            Instr::Pop => {
                self.pop()?;
            }
            Instr::Dup => {
                let v = self.top()?;
                self.push(v)?;
            }
            Instr::Swap => {
                let b = self.pop()?;
                let a = self.pop()?;
                self.push(b)?;
                self.push(a)?;
            }
            Instr::Jump(to) => return Some(Step::Jump(to)),
            Instr::JumpIfZero(to) => {
                let v = self.pop()?;
                return Some(self.branch(v, to, false));
            }
            Instr::JumpIfNonZero(to) => {
                let v = self.pop()?;
                return Some(self.branch(v, to, true));
            }
            Instr::CmpBranch(kind, to) => {
                let b = self.pop()?;
                let a = self.pop()?;
                return Some(self.cmp_branch(kind, a, b, to));
            }
            Instr::CmpBranchLocals(kind, a, b, to) => {
                let (a, b) = (self.load(a)?, self.load(b)?);
                return Some(self.cmp_branch(kind, a, b, to));
            }
            Instr::RetVoid => return Some(Step::Return),
            _ => return None,
        }
        Some(Step::Next)
    }

    /// Jumps to `to` when `a kind b` is false.
    fn cmp_branch(&mut self, kind: BinKind, a: Affine, b: Affine, to: u32) -> Step {
        if self.test(kind, a, b) {
            Step::Next
        } else {
            Step::Jump(to)
        }
    }
}
