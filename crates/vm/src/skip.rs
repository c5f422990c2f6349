//! Skipping idle work: a run of loop iterations, or of a block's lanes,
//! whose path is pure and affine in its index is charged what dispatching
//! it would charge, and does not run.
//!
//! Both are one problem: an iteration and a lane are each one step `n` of a
//! parallel-for (Moses et al.). A walk runs on from where a lane is with
//! each value held as `v0 + n·d`, an affine form in `n`. Its one `step`
//! knows primitives only: what [`Instr::loop_pure`] accepts, and a kernel's
//! `RetVoid`; a superinstruction runs as its [`Instr::expansion`]. It reads
//! the lane's locals, which must hold `Int`s or a `dim3` that only
//! `Dim3Member` reads, and takes at each branch the direction step 0
//! takes. Wrapping `+`, `-` and `*` are a ring's, so every value is
//! `v0 + n·d` modulo 2^64 as long as no product has two factors that depend
//! on `n`. A comparison, or a branch on a value, that depends on `n` is a
//! test: solving it ([`first_exit`]) says for how many steps from 0 on it
//! comes out as it does at 0 and keeps its operands inside `i64`, where the
//! form is the value exactly. The steps every test admits agree on every
//! comparison, so each result is a constant for them. A walk allocates
//! nothing, does not begin a block holding anything else (a load, a store,
//! an atomic, a launch, a barrier, a call, a float, a division), and stops
//! at a product of two factors that depend on `n` or at its
//! [`BLOCKS_MAX`]th block.
//!
//! **Lanes** ([`lanes`]). Lane `t + n` reads `threadIdx.x = t + n`. At its
//! start point — its kernel's entry, or the end of its replayed or recorded
//! uniform prefix — a lane holds what every other lane of its block holds
//! there, but for its thread index. A walk from there that reaches the
//! kernel's end is a [`Route::Idle`] route: the lanes every test admits take
//! it and nothing else, and `run_block` retires them at once. One that
//! stops is a [`Route::Busy`] one: the lanes every test so far admits reach
//! the same instruction the same way, so they run as usual and the next
//! walk is tried at the lane after them.
//!
//! **Loop iterations** ([`iterations`]). At table build, [`loops`] finds
//! each loop with a pure way round: its head is the target of a backward
//! `Jump`, and its try point, where an iteration begins, the head's in-loop
//! successor. Its first blocks are the try point's and each pure one that
//! alone leads into, up to a branch. The back edge notes, in the thread's
//! `looped`, the instruction count at which the lane will end them; they
//! run as usual, and a lane that reaches a pure block at exactly that count
//! came straight from them, and tries. So a loop a lane runs once costs
//! nothing, a busy iteration costs a comparison, and of a run of idle
//! iterations the loop's first and last are interpreted. A try moves the
//! lane back to the try point, so the first blocks must not read a local
//! they write before writing it (where they do, a lane tries at the try
//! point itself). It walks one iteration round, going back once, with every
//! value constant, to find the induction variable — the one local the
//! iteration reads before writing it, every other local it writes being
//! written first — and its step `s`; the stack must end where it began and
//! never be read below that. A second walk reads the induction variable as
//! `iv + n·s`, so every value is affine in the iteration number `n`, and
//! the variable must end it as `iv + (n+1)·s`. The lane's locals move to
//! where `k` iterations leave them, `k` being the first a test fails at (or
//! what the budget covers); it is uncharged the first blocks and charged `k`
//! times the iteration's summed block charges, and then runs on as usual.

use crate::bytecode::{BinKind, BlockCharge, CompiledFunction, Instr, Special, UnKind};
use crate::machine::{BlockCtx, Thread};
use crate::ops::{special, FuncTable, StepCtx};
use crate::trace::OriginCycles;
use crate::value::{Dim3Table, Value};

/// Most basic blocks a walk charges before it gives up.
const BLOCKS_MAX: usize = 32;

/// Most operand-stack slots a walk holds.
const STACK_MAX: usize = 8;

/// Most locals a walk reads or writes.
const LOCALS_MAX: usize = 16;

/// A value at step `n`: `v0 + n·d`, modulo 2^64.
#[derive(Debug, Clone, Copy)]
struct Affine {
    v0: i64,
    d: i64,
}

impl Affine {
    const fn int(v: i64) -> Affine {
        Affine { v0: v, d: 0 }
    }

    fn at(self, n: u64) -> i64 {
        self.v0.wrapping_add((n as i64).wrapping_mul(self.d))
    }
}

/// What a walk holds in a stack slot or a local.
#[derive(Debug, Clone, Copy)]
enum Val {
    Int(Affine),
    /// A `dim3` read from a local, which only `Dim3Member` takes apart.
    Dim3(Value),
}

/// A local the walk read or wrote: what it holds now, whether the walk
/// read it from the frame, and whether the walk wrote it.
#[derive(Debug, Clone, Copy)]
struct Local {
    slot: u16,
    v: Val,
    read: bool,
    written: bool,
}

/// What the steps `n` count.
#[derive(Clone, Copy)]
enum Steps {
    /// Lane offsets: `threadIdx.x` steps by 1.
    Lanes,
    /// Iterations: local `slot` steps by `s`, once the walk that finds them
    /// has; before it, every value is iteration 0's.
    Iterations(Option<(u16, i64)>),
}

/// What a walk charges each step that takes it: the summed
/// [`BlockCharge`]s of the blocks it entered.
#[derive(Debug, Default)]
pub(crate) struct Charge {
    pub(crate) cycles: u64,
    pub(crate) width: u64,
    pub(crate) origin: OriginCycles,
}

impl Charge {
    fn add(&mut self, block: &BlockCharge) {
        self.cycles += block.cycles;
        self.width += block.width;
        self.origin.merge(&block.origin);
    }
}

/// Where a walk from a lane's start point ended, and how many lanes from it
/// on, itself among them, take the same route there.
#[derive(Debug)]
pub(crate) enum Route {
    /// At its kernel's end: the route is pure, and charges `Charge`.
    Idle(u64, Charge),
    /// At an instruction the walk does not evaluate.
    Busy(u64),
}

/// What one instruction did to the walk.
enum Step {
    Next,
    Jump(u32),
    Return,
}

/// How a walk's blocks ended.
#[derive(PartialEq)]
enum Exit {
    /// Back at the block it started from.
    Round,
    /// Out of the function.
    Return,
}

/// One walk: the operand stack, the locals it read and wrote, the steps
/// its tests admit so far, and the blocks it entered.
struct Walk<'t> {
    thread: &'t Thread,
    block: &'t BlockCtx,
    dim3s: &'t Dim3Table,
    steps: Steps,
    stack: [Val; STACK_MAX],
    len: usize,
    locals: [Local; LOCALS_MAX],
    used: usize,
    admitted: i128,
    /// Indices into the table's charges.
    entered: [u32; BLOCKS_MAX],
    blocks: usize,
    /// Where the lane is: the blocks the walk entered before it first
    /// reached that leader, and the stack's depth there.
    then: usize,
    first: Option<(usize, usize)>,
}

impl<'t> Walk<'t> {
    fn new(thread: &'t Thread, block: &'t BlockCtx, dim3s: &'t Dim3Table, steps: Steps) -> Self {
        let none = Local {
            slot: 0,
            v: Val::Int(Affine::int(0)),
            read: false,
            written: false,
        };
        Walk {
            thread,
            block,
            dim3s,
            steps,
            stack: [none.v; STACK_MAX],
            len: 0,
            locals: [none; LOCALS_MAX],
            used: 0,
            admitted: i128::MAX,
            entered: [0; BLOCKS_MAX],
            blocks: 0,
            then: thread.frame.pc,
            first: None,
        }
    }

    /// The steps every test so far admits, step 0 among them.
    fn admitted(&self) -> u64 {
        self.admitted.min(u64::MAX as i128) as u64
    }

    /// Walks whole blocks of `table` from leader `pc` until the function
    /// returns or, where `round`, the walk comes back to `pc`, going back
    /// once: to the loop's head, and so round; `None` where it stops.
    fn run(&mut self, table: &FuncTable, pc: usize, round: bool) -> Option<Exit> {
        let (mut at, mut back) = (pc, false);
        loop {
            // Falling off the end of a void function returns, and charges
            // nothing.
            let Some(leader) = table.ops.get(at) else {
                return Some(Exit::Return);
            };
            if at == self.then && self.first.is_none() {
                self.first = Some((self.blocks, self.len));
            }
            // A block the walk cannot get through is not begun.
            if !table.pure[leader.charge as usize] || self.blocks == BLOCKS_MAX {
                return None;
            }
            self.entered[self.blocks] = leader.charge;
            self.blocks += 1;
            let end = at + table.charges[leader.charge as usize].len as usize;
            let mut next = end;
            for op in &table.ops[at..end] {
                let parts = op.instr.expansion();
                for &part in parts.as_deref().unwrap_or(std::slice::from_ref(&op.instr)) {
                    match self.step(part)? {
                        Step::Next => {}
                        Step::Jump(to) => next = to as usize,
                        Step::Return => return Some(Exit::Return),
                    }
                }
            }
            if round && next <= at && std::mem::replace(&mut back, true) {
                return None;
            }
            at = next;
            if round && at == pc {
                return Some(Exit::Round);
            }
        }
    }

    /// Walks one iteration from `pc` round to it, leaving the stack as it
    /// found it.
    fn round(&mut self, table: &FuncTable, pc: usize) -> bool {
        self.run(table, pc, true) == Some(Exit::Round) && self.len == 0
    }

    /// What the first `n` blocks entered charge.
    fn charge(&self, table: &FuncTable, n: usize) -> Charge {
        let mut charge = Charge::default();
        for &b in &self.entered[..n] {
            charge.add(&table.charges[b as usize]);
        }
        charge
    }

    fn push(&mut self, v: Val) -> Option<()> {
        *self.stack.get_mut(self.len)? = v;
        self.len += 1;
        Some(())
    }

    fn pop(&mut self) -> Option<Val> {
        self.len = self.len.checked_sub(1)?;
        Some(self.stack[self.len])
    }

    fn pop_int(&mut self) -> Option<Affine> {
        match self.pop()? {
            Val::Int(a) => Some(a),
            Val::Dim3(_) => None,
        }
    }

    fn push_int(&mut self, a: Affine) -> Option<()> {
        self.push(Val::Int(a))
    }

    fn local(&mut self, slot: u16) -> Option<&mut Local> {
        self.locals[..self.used].iter_mut().find(|l| l.slot == slot)
    }

    fn remember(&mut self, local: Local) -> Option<()> {
        *self.locals.get_mut(self.used)? = local;
        self.used += 1;
        Some(())
    }

    /// Local `slot`: what the walk wrote there, or the lane's value.
    fn load(&mut self, slot: u16) -> Option<Val> {
        if let Some(l) = self.local(slot) {
            return Some(l.v);
        }
        let v = match *self.thread.frame.locals.get(slot as usize)? {
            Value::Int(v) => Val::Int(match self.steps {
                Steps::Iterations(Some((iv, s))) if iv == slot => Affine { v0: v, d: s },
                _ => Affine::int(v),
            }),
            v @ Value::Dim3 { .. } => Val::Dim3(v),
            Value::Float(_) => return None,
        };
        // Only a loop's walk asks which locals it read before writing them.
        if let Steps::Iterations(_) = self.steps {
            self.remember(Local {
                slot,
                v,
                read: true,
                written: false,
            })?;
        }
        Some(v)
    }

    fn store(&mut self, slot: u16, v: Val) -> Option<()> {
        self.thread.frame.locals.get(slot as usize)?;
        if let Some(l) = self.local(slot) {
            l.v = v;
            l.written = true;
            return Some(());
        }
        self.remember(Local {
            slot,
            v,
            read: false,
            written: true,
        })
    }

    /// `a kind b`: a sum, difference or product with an invariant factor,
    /// or a comparison, which is a test when either operand depends on `n`
    /// and a constant for the steps it admits. `None` for anything else.
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

    /// `a kind b` at step 0, narrowing the admitted steps to those where it
    /// comes out the same.
    fn test(&mut self, kind: BinKind, a: Affine, b: Affine) -> bool {
        let holds = compare(kind, a.v0, b.v0);
        if a.d != 0 || b.d != 0 {
            let exit = first_exit(kind, holds, (a.v0, a.d), (b.v0, b.d));
            self.admitted = self.admitted.min(exit);
        }
        holds
    }

    /// Evaluates one primitive instruction; `None` where the walk stops: an
    /// instruction it does not evaluate, a value that is not what the
    /// instruction needs, or a stack that is empty or full.
    fn step(&mut self, instr: Instr) -> Option<Step> {
        match instr {
            Instr::PushInt(v) => self.push_int(Affine::int(v))?,
            Instr::LoadLocal(slot) => {
                let v = self.load(slot)?;
                self.push(v)?;
            }
            Instr::StoreLocal(slot) => {
                let v = self.pop()?;
                self.store(slot, v)?;
            }
            // The identity on an `Int`.
            Instr::CastInt => {
                let a = self.pop_int()?;
                self.push_int(a)?;
            }
            Instr::Bin(kind) => {
                let b = self.pop_int()?;
                let a = self.pop_int()?;
                let v = self.bin(kind, a, b)?;
                self.push_int(v)?;
            }
            Instr::Un(UnKind::Neg) => {
                let a = self.pop_int()?;
                self.push_int(Affine {
                    v0: a.v0.wrapping_neg(),
                    d: a.d.wrapping_neg(),
                })?;
            }
            // An `Int` is the dim3 `(v, 1, 1)`.
            Instr::Dim3Member(lane) => {
                let v = match self.pop()? {
                    Val::Int(a) if lane == 0 => a,
                    Val::Int(_) => Affine::int(1),
                    Val::Dim3(v) => Affine::int(self.dim3s.resolve(v)[lane as usize]),
                };
                self.push_int(v)?;
            }
            // Lanes step in x only: every other component is the block's.
            Instr::ReadSpecialComp(sp, lane) => {
                let v0 = special(sp, self.thread, self.block)[lane as usize];
                let x = sp == Special::ThreadIdx && lane == 0;
                let d = matches!(self.steps, Steps::Lanes) && x;
                self.push_int(Affine { v0, d: d as i64 })?;
            }
            Instr::Pop => {
                self.pop()?;
            }
            Instr::Dup => {
                let v = self.pop()?;
                self.push(v)?;
                self.push(v)?;
            }
            Instr::Swap => {
                let b = self.pop()?;
                let a = self.pop()?;
                self.push(b)?;
                self.push(a)?;
            }
            Instr::Jump(to) => return Some(Step::Jump(to)),
            Instr::JumpIfZero(to) | Instr::JumpIfNonZero(to) => {
                let v = self.pop_int()?;
                let nonzero = self.test(BinKind::Ne, v, Affine::int(0));
                return Some(if nonzero == matches!(instr, Instr::JumpIfNonZero(_)) {
                    Step::Jump(to)
                } else {
                    Step::Next
                });
            }
            Instr::RetVoid => return Some(Step::Return),
            _ => return None,
        }
        Some(Step::Next)
    }
}

/// Walks the lane in `thread`, at its start point in a kernel whose table
/// is `table`, to the end of its route (module doc).
pub(crate) fn lanes(
    table: &FuncTable,
    thread: &Thread,
    block: &BlockCtx,
    dim3s: &Dim3Table,
) -> Route {
    let mut w = Walk::new(thread, block, dim3s, Steps::Lanes);
    for v in &thread.stack {
        match *v {
            Value::Int(v) if w.push_int(Affine::int(v)).is_some() => {}
            _ => return Route::Busy(w.admitted()),
        }
    }
    match w.run(table, thread.frame.pc, false) {
        Some(_) => Route::Idle(w.admitted(), w.charge(table, w.blocks)),
        None => Route::Busy(w.admitted()),
    }
}

/// Moves the lane in `s`, which came round the loop whose try point is
/// `at` and reached a block its first block goes on to straight from that
/// block (module doc), back to the try point and past the coming iterations
/// that all take the path it takes — as many as the budget covers — and
/// charges them: cycles, instructions, origin cycles and budget, exactly
/// what dispatching them would. Returns whether it moved the lane, which
/// touches nothing else when it cannot. Out of line, so the dispatch loop
/// holds only its tests.
#[inline(never)]
pub(crate) fn iterations(table: &FuncTable, at: u32, s: &mut StepCtx<'_, '_>) -> bool {
    s.thread.looped = None;
    let at = at as usize;
    let (thread, dim3s) = (&*s.thread, &*s.env.dim3s);
    // The induction variable: the one local the iteration carries.
    let mut w = Walk::new(thread, s.block, dim3s, Steps::Iterations(None));
    if !w.round(table, at) {
        return false;
    }
    let mut carried = w.locals[..w.used].iter().filter(|l| l.read && l.written);
    let (Some(&iv), None) = (carried.next(), carried.next()) else {
        return false;
    };
    let (Value::Int(v0), Val::Int(next)) = (thread.frame.locals[iv.slot as usize], iv.v) else {
        return false;
    };
    let step = next.v0.wrapping_sub(v0);
    let mut w = Walk::new(
        thread,
        s.block,
        dim3s,
        Steps::Iterations(Some((iv.slot, step))),
    );
    if !w.round(table, at) {
        return false;
    }
    let locals = &w.locals[..w.used];
    match locals.iter().find(|l| l.slot == iv.slot) {
        Some(Local {
            v: Val::Int(next), ..
        }) if next.d == step => {}
        _ => return false,
    }
    // The first blocks ran and were charged: what they left on the stack
    // is dropped with them, and the budget before them is what the skipped
    // iterations may spend.
    let Some((n, left)) = w.first else {
        return false;
    };
    let Some(depth) = s.thread.stack.len().checked_sub(left) else {
        return false;
    };
    let (first, charge) = (w.charge(table, n), w.charge(table, w.blocks));
    let budget = *s.env.instr_budget + first.width;
    let k = w.admitted().min(budget / charge.width);
    if k == 0 {
        return false;
    }
    let (locals, used) = (w.locals, w.used);
    // Each local the iteration writes holds what iteration `k - 1` left.
    for l in locals[..used].iter().filter(|l| l.written) {
        s.thread.frame.locals[l.slot as usize] = match l.v {
            Val::Int(a) => Value::Int(a.at(k - 1)),
            Val::Dim3(v) => v,
        };
    }
    let width = k * charge.width;
    *s.env.instr_budget = budget - width;
    s.env.profile.skipped_iterations += k;
    s.env.profile.skipped_instructions += width;
    let t = &mut *s.thread;
    t.frame.pc = at;
    t.stack.truncate(depth);
    t.instructions = t.instructions - first.width + width;
    t.cycles = (t.cycles.wrapping_sub(first.cycles)).wrapping_add(k.wrapping_mul(charge.cycles));
    for ((to, c), f) in (t.origin_cycles.0.iter_mut())
        .zip(charge.origin.0)
        .zip(first.origin.0)
    {
        *to = to.wrapping_sub(f).wrapping_add(k.wrapping_mul(c));
    }
    true
}

/// The loops of `f` with a pure way round (module doc): each one's try
/// point, back edge, the instructions from the back edge to the end of its
/// first blocks, and the leaders a lane tries at: the pure blocks the first
/// blocks go on to, or the try point where there are none. A loop's try
/// point is its head's fall-through where the head ends in a branch out of
/// the loop, and its head otherwise. A function without a backward `Jump`
/// costs one scan of its code.
pub(crate) fn loops(
    f: &CompiledFunction,
    charges: &[BlockCharge],
    pure: &[bool],
) -> Vec<(u32, u32, u64, Vec<u32>)> {
    let backs = (f.code.iter().enumerate()).filter_map(|(pc, instr)| match *instr {
        Instr::Jump(head) if head as usize <= pc => Some((head, pc as u32)),
        _ => None,
    });
    let mut found = Vec::new();
    for (head, back) in backs {
        let block = |pc: u32| charges.binary_search_by_key(&pc, |b| b.start).ok();
        let Some(h) = block(head) else {
            continue;
        };
        let end = charges[h].start + charges[h].len;
        let at = match f.code[end as usize - 1] {
            Instr::Jump(_) => head,
            last => match last.branch_target() {
                Some(out) if out > back => end,
                _ => head,
            },
        };
        let Some(a) = block(at) else {
            continue;
        };
        if !pure_way_round(&f.code, charges, pure, a) {
            continue;
        }
        // The iteration's first blocks: the try point's, and each pure one
        // it alone leads into, up to one that branches. A lane is tried
        // where they lead on purely; where running them again would not
        // compute what they computed, there are none, and it is tried at
        // the try point.
        let mut first = vec![a];
        while let [None, Some(t)] | [Some(t), None] = successors(&f.code, &charges[first[0]]) {
            match block(t) {
                Some(b) if pure[b] && !first.contains(&b) && first.len() < BLOCKS_MAX => {
                    first.insert(0, b)
                }
                _ => break,
            }
        }
        let code = |b: &usize| &f.code[charges[*b].start as usize..][..charges[*b].len as usize];
        if !reruns(first.iter().rev().flat_map(code)) {
            first.clear();
        }
        let then: Vec<u32> = match first.first() {
            Some(&last) => (successors(&f.code, &charges[last]).into_iter().flatten())
                .filter(|&t| block(t).is_some_and(|b| pure[b] && !first.contains(&b)))
                .collect(),
            None => vec![at],
        };
        let head = if a == h { 0 } else { charges[h].width };
        let width = head + first.iter().map(|&b| charges[b].width).sum::<u64>();
        found.push((at, back, width, then));
    }
    found
}

/// Where control may go after `block`: its branch target and its
/// fall-through.
fn successors(code: &[Instr], block: &BlockCharge) -> [Option<u32>; 2] {
    let end = block.start + block.len;
    match code[end as usize - 1] {
        Instr::RetVoid => [None, None],
        Instr::Jump(t) => [Some(t), None],
        last => [last.branch_target(), Some(end)],
    }
}

/// Whether straight-line code, run again over the locals it left, computes
/// what it computed: it reads no local before writing it that it writes.
fn reruns<'c>(code: impl Iterator<Item = &'c Instr>) -> bool {
    let (mut read, mut written) = (Vec::new(), Vec::new());
    for instr in code {
        let parts = instr.expansion();
        for part in parts.as_deref().unwrap_or(std::slice::from_ref(instr)) {
            match *part {
                Instr::LoadLocal(slot) if !written.contains(&slot) => read.push(slot),
                Instr::StoreLocal(slot) if read.contains(&slot) => return false,
                Instr::StoreLocal(slot) => written.push(slot),
                _ => {}
            }
        }
    }
    true
}

/// Whether a path of pure blocks leads from block `at` back to it.
fn pure_way_round(code: &[Instr], charges: &[BlockCharge], pure: &[bool], at: usize) -> bool {
    let mut seen = vec![false; charges.len()];
    let mut todo = vec![at];
    while let Some(b) = todo.pop() {
        if !pure[b] {
            continue;
        }
        for to in successors(code, &charges[b]).into_iter().flatten() {
            let Ok(next) = charges.binary_search_by_key(&to, |c| c.start) else {
                continue;
            };
            if next == at {
                return true;
            }
            if !std::mem::replace(&mut seen[next], true) {
                todo.push(next);
            }
        }
    }
    false
}

/// The first `n ≥ 1` at which `x kind y` stops being `want`, or an operand
/// leaves `i64`, where each operand is `v0 + n·d` given as `(v0, d)` and the
/// test holds at `n = 0`; `i128::MAX` if there is none.
fn first_exit(kind: BinKind, want: bool, x: (i64, i64), y: (i64, i64)) -> i128 {
    let ((x0, dx), (y0, dy)) = ((x.0 as i128, x.1 as i128), (y.0 as i128, y.1 as i128));
    let (z0, dz) = (x0 - y0, dx - dy);
    // `x - y` must stay `≥ 0`, `≤ 0`, `> 0`, `< 0`, `= 0` or `≠ 0`; the
    // first four as `w0 + n·dw ≥ 0`.
    use BinKind::*;
    let at_least = |w0: i128, dw: i128| if dw >= 0 { i128::MAX } else { w0 / -dw + 1 };
    let exit = match (kind, want) {
        (Lt, true) | (Ge, false) => at_least(-z0 - 1, -dz),
        (Lt, false) | (Ge, true) => at_least(z0, dz),
        (Le, true) | (Gt, false) => at_least(-z0, -dz),
        (Le, false) | (Gt, true) => at_least(z0 - 1, dz),
        (Eq, true) | (Ne, false) if dz != 0 => 1,
        (Eq, false) | (Ne, true) if dz != 0 && z0 % dz == 0 && -z0 / dz > 0 => -z0 / dz,
        _ => i128::MAX,
    };
    exit.min(leaves_i64(x0, dx)).min(leaves_i64(y0, dy))
}

/// The first `n` at which `a0 + n·d` is outside `i64`; `i128::MAX` if never.
fn leaves_i64(a0: i128, d: i128) -> i128 {
    match d {
        0 => i128::MAX,
        d if d > 0 => (i64::MAX as i128 - a0) / d + 1,
        d => (a0 - i64::MIN as i128) / -d + 1,
    }
}

/// `x kind y` for a comparison `kind`.
fn compare(kind: BinKind, x: i64, y: i64) -> bool {
    match kind {
        BinKind::Lt => x < y,
        BinKind::Le => x <= y,
        BinKind::Gt => x > y,
        BinKind::Ge => x >= y,
        BinKind::Eq => x == y,
        _ => x != y,
    }
}
