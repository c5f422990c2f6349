//! Loop skipping: a lane in a loop whose coming iterations all take one
//! pure, affine path moves past them at once, and is charged what
//! dispatching them would charge.
//!
//! At table build, [`loop_skips`] looks for each loop head's *pure path*:
//! the basic blocks from the head back to it through a backward `Jump`,
//! every instruction [`Instr::loop_pure`]. At each conditional branch the
//! path takes the one direction that stays pure and gets back to the head;
//! a head with no such path, or more than one, gets no summary. Abstractly
//! interpreting the path once turns it into [`Node`]s — the values it
//! computes, in order — and the [`Test`]s its branches make. It is kept
//! only if every value is affine in the iteration number `n`:
//!
//! - exactly one local, the induction variable, carries a value from one
//!   iteration into the next, and the path adds an invariant to it;
//! - every other local the path writes is written before the path reads it;
//! - no product has two factors that depend on `n`;
//! - a comparison's result is only ever branched on;
//! - the stack ends where it began and is never read below that.
//!
//! A skip is tried only where it can pay. The path is rotated to start at
//! the block it takes after the head's loop test, so a lane that leaves the
//! loop never tries; and only a lane that came round the loop tries: the
//! path's back edge sets the thread's `looped` flag and trying clears it.
//! So a loop that a lane runs once — a coarsened child's grid-stride loop,
//! most often — evaluates nothing, and of a run of idle iterations the
//! loop's first and last are interpreted.
//!
//! At run time ([`LoopSkip::skip`]) the nodes are evaluated at `n = 0` and
//! `n = 1` with the wrapping operations of `ops.rs`. Wrapping `+`, `-` and
//! `*` are a ring's, so every value is `v0 + n·d` modulo 2^64, and it is
//! that exactly while it stays inside `i64`. Solving each test in `i128`
//! gives `k`, the first iteration at which a test leaves the path or one of
//! its operands would leave `i64`. The lane's locals move to where `k`
//! iterations leave them, it is charged `k` times the path's summed block
//! charges, and then it runs on as usual.

use crate::bytecode::{BinKind, BlockCharge, CompiledFunction, Instr, Special, UnKind};
use crate::ops::{special, StepCtx};
use crate::trace::OriginCycles;
use crate::value::Value;

/// Most values a summarised path computes; a node's index fits a `u8`.
const NODES_MAX: usize = 32;

/// Most blocks the search for a head's pure path enters before giving up.
const VISITS_MAX: u32 = 256;

/// One value an iteration computes, from values computed before it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Node {
    Const(i64),
    /// A local the path does not write, read as a scalar: it must hold an
    /// `Int`.
    Local(u16),
    /// Component `lane` of a local the path does not write, read by
    /// `Dim3Member`: it must hold an `Int` or a `dim3`.
    Member(u16, u8),
    Special(Special, u8),
    /// The induction variable where the iteration starts.
    Iv,
    Add(u8, u8),
    Sub(u8, u8),
    Mul(u8, u8),
    Neg(u8),
}

/// A branch of the path: the lane stays on the path while `x kind y` is
/// `want`. `ready` is the later of the two nodes, after which the test can
/// be made.
#[derive(Debug, Clone, Copy)]
struct Test {
    kind: BinKind,
    x: u8,
    y: u8,
    want: bool,
    ready: u8,
}

/// A loop's summary: where a skip is tried, how to evaluate one iteration
/// of its pure path, and what dispatching that path charges.
#[derive(Debug)]
pub(crate) struct LoopSkip {
    /// The leader a skip is tried at.
    pub(crate) at: u32,
    /// The path's back edge, a `Jump` to the head.
    pub(crate) back: u32,
    nodes: Box<[Node]>,
    /// By `ready`, so that evaluating `n = 0` stops at the first test that
    /// fails.
    tests: Box<[Test]>,
    /// The induction variable's slot, and the node it ends an iteration
    /// holding.
    iv: u16,
    next: u8,
    /// Every local the path writes, the induction variable included, and
    /// the node it ends an iteration holding.
    writes: Box<[(u16, u8)]>,
    /// The path's blocks' summed [`BlockCharge`]s.
    cycles: u64,
    width: u64,
    origin: OriginCycles,
}

/// The summarised loops of `f`, at most one tried at each leader. A loop's
/// head is the target of a backward `Jump`; a function without one costs
/// one scan of its code.
pub(crate) fn loop_skips(f: &CompiledFunction, charges: &[BlockCharge]) -> Vec<LoopSkip> {
    let mut heads: Vec<u32> = (f.code.iter().enumerate())
        .filter_map(|(pc, instr)| match *instr {
            Instr::Jump(t) if t as usize <= pc => Some(t),
            _ => None,
        })
        .collect();
    if heads.is_empty() {
        return Vec::new();
    }
    heads.sort_unstable();
    heads.dedup();
    let cfg = Cfg {
        code: &f.code,
        charges,
        pure: (charges.iter())
            .map(|b| {
                f.code[b.start as usize..][..b.len as usize]
                    .iter()
                    .all(Instr::loop_pure)
            })
            .collect(),
    };
    let mut skips: Vec<LoopSkip> = Vec::new();
    for head in heads {
        if let Some(skip) = cfg.summarise(head, f.n_locals) {
            if skips.iter().all(|taken| taken.at != skip.at) {
                skips.push(skip);
            }
        }
    }
    skips
}

/// A function's basic blocks, as the search for a pure path sees them.
struct Cfg<'f> {
    code: &'f [Instr],
    charges: &'f [BlockCharge],
    /// Per block: every instruction is [`Instr::loop_pure`].
    pure: Vec<bool>,
}

impl Cfg<'_> {
    /// The block led by instruction `pc`, if `pc` is a leader.
    fn block(&self, pc: u32) -> Option<usize> {
        self.charges.binary_search_by_key(&pc, |b| b.start).ok()
    }

    /// One past block `b`'s last instruction.
    fn end(&self, b: usize) -> u32 {
        self.charges[b].start + self.charges[b].len
    }

    /// Where control goes after block `b`: its branch target, then its
    /// fall-through. A branch to its own fall-through has one successor.
    fn successors(&self, b: usize) -> [Option<u32>; 2] {
        let end = self.end(b);
        match self.code[end as usize - 1] {
            Instr::Jump(t) => [Some(t), None],
            last => match last.branch_target() {
                Some(t) if t != end => [Some(t), Some(end)],
                _ => [Some(end), None],
            },
        }
    }

    /// The summary of the loop at `head`, if it has one. Where the head
    /// ends in the loop's test, a skip is tried at the block the path takes
    /// after it, so a lane leaving the loop never tries; the path is
    /// rotated to start there, and an iteration runs from that block round
    /// to it again.
    fn summarise(&self, head: u32, n_locals: u16) -> Option<LoopSkip> {
        let head = self.block(head)?;
        let mut path = self.pure_path(head)?;
        let back = self.end(*path.last()?) - 1;
        if !matches!(self.code[self.end(head) as usize - 1], Instr::Jump(_))
            && self.successors(head)[1].is_some()
        {
            path.rotate_left(1);
        }
        let parts = |b: usize| {
            let block = &self.code[self.charges[b].start as usize..self.end(b) as usize];
            block
                .iter()
                .flat_map(|i| i.expansion().unwrap_or_else(|| vec![*i]))
        };
        let mut writes = vec![false; n_locals as usize];
        for part in path.iter().flat_map(|&b| parts(b)) {
            if let Instr::StoreLocal(slot) = part {
                *writes.get_mut(slot as usize)? = true;
            }
        }
        let mut walk = Walk {
            nodes: Vec::new(),
            degree: Vec::new(),
            tests: Vec::new(),
            stack: Vec::new(),
            current: vec![None; n_locals as usize],
            writes,
            iv: None,
        };
        for (i, &b) in path.iter().enumerate() {
            // Where the path goes from `b`: the next block, round to the first.
            let next = self.charges[path[(i + 1) % path.len()]].start;
            let target = self.code[self.end(b) as usize - 1].branch_target();
            // Whether the path takes a conditional branch ending `b`.
            let taken = target.filter(|&t| t != self.end(b)).map(|t| t == next);
            for part in parts(b) {
                walk.step(part, taken)?;
            }
        }
        let charged = path.iter().map(|&b| &self.charges[b]);
        let mut origin = OriginCycles::default();
        charged.clone().for_each(|b| origin.merge(&b.origin));
        walk.finish(
            (self.charges[path[0]].start, back),
            charged.clone().map(|b| b.cycles).sum(),
            charged.map(|b| b.width).sum(),
            origin,
        )
    }

    /// The one pure path from block `head` back to it through a backward
    /// `Jump`, as block indices; `None` if there is none or more than one,
    /// or if the search gives up.
    fn pure_path(&self, head: usize) -> Option<Vec<usize>> {
        if !self.pure[head] {
            return None;
        }
        let mut on_path = vec![false; self.charges.len()];
        on_path[head] = true;
        let mut search = Search {
            cfg: self,
            head,
            path: vec![head],
            on_path,
            found: None,
            visits: 0,
        };
        search.walk(head).then_some(())?;
        search.found
    }
}

/// A depth-first search of the simple pure paths from a loop head.
struct Search<'c, 'f> {
    cfg: &'c Cfg<'f>,
    head: usize,
    path: Vec<usize>,
    on_path: Vec<bool>,
    found: Option<Vec<usize>>,
    visits: u32,
}

impl Search<'_, '_> {
    /// Extends the path, which ends at block `b`, in every pure direction.
    /// `false` gives up: a second path, or too many visits.
    fn walk(&mut self, b: usize) -> bool {
        self.visits += 1;
        if self.visits > VISITS_MAX {
            return false;
        }
        let head = self.cfg.charges[self.head].start;
        let end = self.cfg.end(b);
        for to in self.cfg.successors(b).into_iter().flatten() {
            if to == head && to < end && matches!(self.cfg.code[end as usize - 1], Instr::Jump(_)) {
                if self.found.replace(self.path.clone()).is_some() {
                    return false;
                }
                continue;
            }
            let Some(next) = self.cfg.block(to) else {
                continue;
            };
            if self.on_path[next] || !self.cfg.pure[next] {
                continue;
            }
            self.on_path[next] = true;
            self.path.push(next);
            let go_on = self.walk(next);
            self.path.pop();
            self.on_path[next] = false;
            if !go_on {
                return false;
            }
        }
        true
    }
}

/// What the abstract interpreter holds in an operand-stack slot.
#[derive(Debug, Clone, Copy)]
enum Val {
    Node(u8),
    /// A local the path does not write, not yet read as a scalar, so that
    /// `Dim3Member` may read it as a `dim3`.
    Slot(u16),
    /// A comparison's result, which only a branch may consume.
    Cmp(BinKind, u8, u8),
}

/// One abstract iteration of a pure path.
struct Walk {
    nodes: Vec<Node>,
    /// Per node: 0 if it is invariant, 1 if it is affine in `n`.
    degree: Vec<u8>,
    tests: Vec<Test>,
    stack: Vec<Val>,
    /// Per local: the node it holds, once the path wrote it.
    current: Vec<Option<u8>>,
    /// Per local: the path writes it.
    writes: Vec<bool>,
    /// The induction variable's slot and its `Iv` node.
    iv: Option<(u16, u8)>,
}

impl Walk {
    /// Appends `node`, or finds an equal leaf. `None` past [`NODES_MAX`] or
    /// for a product of two affine factors.
    fn node(&mut self, node: Node) -> Option<u8> {
        let deg = |n: u8| self.degree[n as usize];
        let degree = match node {
            Node::Const(_) | Node::Local(_) | Node::Member(..) | Node::Special(..) => {
                if let Some(at) = self.nodes.iter().position(|&m| m == node) {
                    return Some(at as u8);
                }
                0
            }
            Node::Iv => 1,
            Node::Add(a, b) | Node::Sub(a, b) => deg(a).max(deg(b)),
            Node::Mul(a, b) => deg(a) + deg(b),
            Node::Neg(a) => deg(a),
        };
        if degree > 1 || self.nodes.len() == NODES_MAX {
            return None;
        }
        self.nodes.push(node);
        self.degree.push(degree);
        Some(self.nodes.len() as u8 - 1)
    }

    /// A stack value as a node: a comparison's result is not one.
    fn value(&mut self, v: Val) -> Option<u8> {
        match v {
            Val::Node(n) => Some(n),
            Val::Slot(slot) => self.node(Node::Local(slot)),
            Val::Cmp(..) => None,
        }
    }

    fn pop_value(&mut self) -> Option<u8> {
        let v = self.stack.pop()?;
        self.value(v)
    }

    fn push_node(&mut self, node: Node) -> Option<()> {
        let n = self.node(node)?;
        self.stack.push(Val::Node(n));
        Some(())
    }

    /// A read of local `slot`. A local the path writes and reads before it
    /// writes it carries a value into the next iteration: only one may.
    fn load(&mut self, slot: u16) -> Option<Val> {
        if let Some(n) = *self.current.get(slot as usize)? {
            return Some(Val::Node(n));
        }
        if !self.writes[slot as usize] {
            return Some(Val::Slot(slot));
        }
        match self.iv {
            Some((iv, n)) if iv == slot => Some(Val::Node(n)),
            Some(_) => None,
            None => {
                let n = self.node(Node::Iv)?;
                self.iv = Some((slot, n));
                Some(Val::Node(n))
            }
        }
    }

    /// Interprets one primitive instruction of the path. `taken` says which
    /// way the path leaves a conditional branch that ends its block.
    fn step(&mut self, instr: Instr, taken: Option<bool>) -> Option<()> {
        use BinKind::*;
        match instr {
            Instr::PushInt(v) => self.push_node(Node::Const(v))?,
            Instr::LoadLocal(slot) => {
                let v = self.load(slot)?;
                self.stack.push(v);
            }
            Instr::StoreLocal(slot) => {
                let n = self.pop_value()?;
                self.current[slot as usize] = Some(n);
            }
            Instr::Bin(kind @ (Add | Sub | Mul)) => {
                let b = self.pop_value()?;
                let a = self.pop_value()?;
                self.push_node(match kind {
                    Add => Node::Add(a, b),
                    Sub => Node::Sub(a, b),
                    _ => Node::Mul(a, b),
                })?;
            }
            Instr::Bin(kind @ (Lt | Le | Gt | Ge | Eq | Ne)) => {
                let b = self.pop_value()?;
                let a = self.pop_value()?;
                self.stack.push(Val::Cmp(kind, a, b));
            }
            Instr::Un(UnKind::Neg) => {
                let a = self.pop_value()?;
                self.push_node(Node::Neg(a))?;
            }
            // The identity on an `Int`, and every value here is one.
            Instr::CastInt => {
                let a = self.pop_value()?;
                self.stack.push(Val::Node(a));
            }
            Instr::Dim3Member(lane) => match self.stack.pop()? {
                Val::Slot(slot) => self.push_node(Node::Member(slot, lane))?,
                _ => return None,
            },
            Instr::ReadSpecialComp(sp, lane) => self.push_node(Node::Special(sp, lane))?,
            Instr::Dup => match *self.stack.last()? {
                Val::Cmp(..) => return None,
                v => self.stack.push(v),
            },
            Instr::Pop => {
                if let Val::Cmp(..) = self.stack.pop()? {
                    return None;
                }
            }
            Instr::Swap => {
                let n = self.stack.len();
                if n < 2 {
                    return None;
                }
                self.stack.swap(n - 1, n - 2);
            }
            Instr::Jump(_) => {}
            Instr::JumpIfZero(_) | Instr::JumpIfNonZero(_) => {
                let v = self.stack.pop()?;
                // A branch to its own fall-through tests nothing.
                let Some(taken) = taken else {
                    return Some(());
                };
                let want = taken == matches!(instr, Instr::JumpIfNonZero(_));
                let (kind, x, y) = match v {
                    Val::Cmp(kind, x, y) => (kind, x, y),
                    other => (Ne, self.value(other)?, self.node(Node::Const(0))?),
                };
                let ready = x.max(y);
                self.tests.push(Test {
                    kind,
                    x,
                    y,
                    want,
                    ready,
                });
            }
            _ => return None,
        }
        Some(())
    }

    /// The summary, if the iteration is affine with one induction variable
    /// that the path steps by an invariant, and leaves the stack as it was.
    fn finish(
        self,
        (at, back): (u32, u32),
        cycles: u64,
        width: u64,
        origin: OriginCycles,
    ) -> Option<LoopSkip> {
        let (iv, iv_node) = self.iv?;
        let next = self.current[iv as usize]?;
        let invariant = |n: u8| self.degree[n as usize] == 0;
        let steps = match self.nodes[next as usize] {
            Node::Add(a, b) => (a == iv_node && invariant(b)) || (b == iv_node && invariant(a)),
            Node::Sub(a, b) => a == iv_node && invariant(b),
            _ => false,
        };
        if !steps || !self.stack.is_empty() {
            return None;
        }
        let mut tests = self.tests;
        tests.sort_by_key(|t| t.ready);
        let writes = (self.current.iter().enumerate())
            .filter_map(|(slot, n)| Some((slot as u16, (*n)?)))
            .collect();
        Some(LoopSkip {
            at,
            back,
            nodes: self.nodes.into(),
            tests: tests.into(),
            iv,
            next,
            writes,
            cycles,
            width,
            origin,
        })
    }
}

impl Test {
    fn holds(&self, v: &[i64]) -> bool {
        compare(self.kind, v[self.x as usize], v[self.y as usize]) == self.want
    }

    /// The first iteration `n ≥ 1` at which the test leaves the path or an
    /// operand leaves `i64`, given their values at `n = 0` (where the test
    /// holds) and `n = 1`; `i128::MAX` if there is none.
    fn first_exit(&self, v0: &[i64], v1: &[i64]) -> i128 {
        let line = |n: u8| {
            let (a, b) = (v0[n as usize], v1[n as usize]);
            (a, b.wrapping_sub(a))
        };
        first_exit(self.kind, self.want, line(self.x), line(self.y))
    }
}

/// The first `n ≥ 1` at which `x kind y` stops being `want`, or an operand
/// leaves `i64`, where each operand is `v0 + n·d` given as `(v0, d)` and the
/// test holds at `n = 0`; `i128::MAX` if there is none. Loop skipping solves
/// its tests over iterations with it, lane skipping (`lanes.rs`) over lanes.
pub(crate) fn first_exit(kind: BinKind, want: bool, x: (i64, i64), y: (i64, i64)) -> i128 {
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
pub(crate) fn compare(kind: BinKind, x: i64, y: i64) -> bool {
    match kind {
        BinKind::Lt => x < y,
        BinKind::Le => x <= y,
        BinKind::Gt => x > y,
        BinKind::Ge => x >= y,
        BinKind::Eq => x == y,
        _ => x != y,
    }
}

impl LoopSkip {
    /// Evaluates one iteration's nodes into `vals`, the induction variable
    /// starting at `iv`, making each of `tests` as soon as it can be made;
    /// `None` if one fails or a local read is not of the kind a node needs.
    fn eval(
        &self,
        vals: &mut [i64; NODES_MAX],
        iv: i64,
        s: &StepCtx<'_, '_>,
        mut tests: &[Test],
    ) -> Option<()> {
        let locals = &s.thread.frame.locals;
        for (i, node) in self.nodes.iter().enumerate() {
            vals[i] = match *node {
                Node::Const(v) => v,
                Node::Local(slot) => match locals[slot as usize] {
                    Value::Int(v) => v,
                    _ => return None,
                },
                Node::Member(slot, lane) => match locals[slot as usize] {
                    v @ (Value::Int(_) | Value::Dim3 { .. }) => {
                        s.env.dim3s.resolve(v)[lane as usize]
                    }
                    Value::Float(_) => return None,
                },
                Node::Special(sp, lane) => special(sp, s.thread, s.block)[lane as usize],
                Node::Iv => iv,
                Node::Add(a, b) => vals[a as usize].wrapping_add(vals[b as usize]),
                Node::Sub(a, b) => vals[a as usize].wrapping_sub(vals[b as usize]),
                Node::Mul(a, b) => vals[a as usize].wrapping_mul(vals[b as usize]),
                Node::Neg(a) => vals[a as usize].wrapping_neg(),
            };
            while let [test, rest @ ..] = tests {
                if test.ready as usize != i {
                    break;
                }
                if !test.holds(vals) {
                    return None;
                }
                tests = rest;
            }
        }
        Some(())
    }

    /// Moves the lane in `s`, which came round the loop to where a skip is
    /// tried, past the coming iterations that all take the pure path — as
    /// many as the budget covers — and charges them: cycles, instructions,
    /// origin cycles and budget, exactly what dispatching them would.
    /// Touches nothing else when the next iteration leaves the path. Out of
    /// line, so the dispatch loop holds only its two tests.
    #[inline(never)]
    pub(crate) fn skip(&self, s: &mut StepCtx<'_, '_>) {
        if !std::mem::take(&mut s.thread.looped) {
            return;
        }
        let Value::Int(iv) = s.thread.frame.locals[self.iv as usize] else {
            return;
        };
        let mut v0 = [0; NODES_MAX];
        if self.eval(&mut v0, iv, s, &self.tests).is_none() {
            return;
        }
        let mut v1 = [0; NODES_MAX];
        if self.eval(&mut v1, v0[self.next as usize], s, &[]).is_none() {
            return;
        }
        let covered = (*s.env.instr_budget / self.width) as i128;
        let k = (self.tests.iter())
            .map(|t| t.first_exit(&v0, &v1))
            .fold(covered, i128::min) as u64;
        if k == 0 {
            return;
        }
        // Each local the path writes holds what iteration `k - 1` left in it.
        let last = k - 1;
        for &(slot, n) in self.writes.iter() {
            let (a, b) = (v0[n as usize], v1[n as usize]);
            let v = a.wrapping_add((last as i64).wrapping_mul(b.wrapping_sub(a)));
            s.thread.frame.locals[slot as usize] = Value::Int(v);
        }
        let width = k * self.width;
        *s.env.instr_budget -= width;
        s.env.profile.skipped_iterations += k;
        s.env.profile.skipped_instructions += width;
        let t = &mut *s.thread;
        t.instructions += width;
        t.cycles = t.cycles.wrapping_add(k.wrapping_mul(self.cycles));
        for (to, c) in t.origin_cycles.0.iter_mut().zip(self.origin.0) {
            *to = to.wrapping_add(k.wrapping_mul(c));
        }
    }
}
