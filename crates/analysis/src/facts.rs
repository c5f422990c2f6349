//! What a pass asks of a function, answered from one walk of its body.
//!
//! The passes ask every function the same few questions: does it launch,
//! does it return, which builtin dimensions does it read and how, which
//! names that a pass might generate does it already use, which functions
//! does it call, and what in it keeps a kernel from being serialized. A
//! [`ProgramFacts`] answers all of them for every function of a program
//! from one walk of each body, and a pass asks it instead of walking the
//! tree again for each question, launch site and child. [`BodyFacts`] is
//! its answer for one function.
//!
//! The summaries of all functions share a handful of vectors, so that
//! summarizing a program allocates about as often as one function would.
//! A summary describes the body it was made from: a pass that rewrites a
//! function and then asks about it something the rewrite changed makes a
//! new one with [`ProgramFacts::refresh`].

use crate::registry::LaunchSite;
use crate::transformable::Blocker;
use dp_frontend::ast::*;
use dp_frontend::Span;
use std::ops::Range;

/// The builtin dimension variables whose uses a summary records.
const BUILTINS: [&str; 4] = ["gridDim", "blockDim", "blockIdx", "threadIdx"];

/// The members of a builtin dimension variable a summary records.
const AXES: [&str; 3] = ["x", "y", "z"];

/// The room the shared list of `_` names takes when it first needs any:
/// more than the 13 a T+C+A compile of BFS summarizes for its aggregation.
const TAKEN_ROOM: usize = 16;

fn builtin(name: &str) -> Option<usize> {
    BUILTINS.iter().position(|b| *b == name)
}

fn builtin_index(base: &str) -> usize {
    builtin(base).unwrap_or_else(|| panic!("`{base}` is not a builtin dimension"))
}

/// Whether a launch dimension is 1-D: an `int` expression, or a `dim3`
/// whose y and z are the literal 1.
pub fn is_one_dimensional(dim: &Expr) -> bool {
    match &dim.kind {
        ExprKind::Dim3Ctor(args) => args
            .iter()
            .skip(1)
            .all(|a| matches!(a.kind, ExprKind::IntLit(1))),
        _ => true,
    }
}

/// A launch statement of a body.
#[derive(Debug, Clone)]
struct Launch {
    kernel: Name,
    span: Span,
    one_dimensional_grid: bool,
}

/// One function's summary; its lists are ranges of [`ProgramFacts`]'
/// shared vectors.
#[derive(Debug, Clone)]
struct Summary {
    name: Name,
    qual: FnQual,
    /// Its launch statements, in the order [`crate::launch_sites`] lists
    /// them.
    launches: Range<usize>,
    /// The function's name, its parameters, its declared names and every
    /// identifier it uses, if they start with `_`: the names a pass mints
    /// all do, so no other name can capture one. Sorted, each once.
    taken: Range<usize>,
    /// The functions of the program it calls (not launches), each once,
    /// in the order of its first call.
    callees: Range<usize>,
    /// What in it blocks serializing a kernel that reaches it, in the
    /// order [`crate::serialization_blockers`] reports it.
    blockers: Range<usize>,
    has_return: bool,
    /// Bit `i` is set when `BUILTINS[i]` is used as a whole value.
    whole: u8,
    /// Bit `3 * i + a` is set when `BUILTINS[i].AXES[a]` is read.
    members: u16,
}

/// The summary of every function of a program, each made in one walk of
/// its body.
#[derive(Debug, Clone, Default)]
pub struct ProgramFacts {
    /// In program order, then each function first summarized by
    /// [`ProgramFacts::refresh`] in the order it was.
    funcs: Vec<Summary>,
    launches: Vec<Launch>,
    taken: Vec<Name>,
    callees: Vec<Name>,
    blockers: Vec<Blocker>,
}

/// What the passes ask of one function, read from its summary.
#[derive(Debug, Clone, Copy)]
pub struct BodyFacts<'a> {
    facts: &'a ProgramFacts,
    summary: &'a Summary,
}

impl<'a> BodyFacts<'a> {
    /// The function's name.
    pub fn name(&self) -> &'a Name {
        &self.summary.name
    }

    fn launch_list(&self) -> &'a [Launch] {
        &self.facts.launches[self.summary.launches.clone()]
    }

    fn taken(&self) -> &'a [Name] {
        &self.facts.taken[self.summary.taken.clone()]
    }

    fn callees(&self) -> &'a [Name] {
        &self.facts.callees[self.summary.callees.clone()]
    }

    fn blockers(&self) -> &'a [Blocker] {
        &self.facts.blockers[self.summary.blockers.clone()]
    }

    /// Whether the body launches a kernel (at any depth).
    pub fn has_launch(&self) -> bool {
        !self.summary.launches.is_empty()
    }

    /// Whether the body launches `kernel`.
    pub fn launches(&self, kernel: &str) -> bool {
        self.launch_list().iter().any(|l| l.kernel == kernel)
    }

    /// Whether the body launches `kernel` with a grid that is not 1-D.
    pub fn launches_multi_dimensional(&self, kernel: &str) -> bool {
        self.launch_list()
            .iter()
            .any(|l| l.kernel == kernel && !l.one_dimensional_grid)
    }

    /// Whether any statement of the body is a `return` (at any depth).
    pub fn has_return(&self) -> bool {
        self.summary.has_return
    }

    /// Whether the body uses the builtin `base` (`gridDim`, `blockDim`,
    /// `blockIdx` or `threadIdx`) as a whole value, not through a member:
    /// `f(gridDim)`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not one of the four.
    pub fn uses_whole(&self, base: &str) -> bool {
        self.summary.whole & 1 << builtin_index(base) != 0
    }

    /// Whether the body reads `base.field` for a builtin `base` and a
    /// `field` of `x`, `y` or `z`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not a builtin or `field` not an axis.
    pub fn uses_member(&self, base: &str, field: &str) -> bool {
        let axis = AXES
            .iter()
            .position(|a| *a == field)
            .unwrap_or_else(|| panic!("`{field}` is not an axis"));
        self.summary.members & 1 << (3 * builtin_index(base) + axis) != 0
    }

    /// Whether `name`, which starts with `_`, is the function's name, a
    /// parameter, a declared name or an identifier of the body: a local a
    /// pass generates in the function must not be.
    pub fn is_taken(&self, name: &str) -> bool {
        debug_assert!(name.starts_with('_'), "only `_` names are kept: `{name}`");
        self.taken()
            .binary_search_by(|n| n.as_str().cmp(name))
            .is_ok()
    }
}

impl ProgramFacts {
    /// Summarizes every function of `program`, one walk each.
    pub fn of(program: &Program) -> ProgramFacts {
        let mut facts = ProgramFacts {
            funcs: Vec::with_capacity(program.functions().count()),
            ..ProgramFacts::default()
        };
        for func in program.functions() {
            facts.summarize(program, func);
        }
        facts
    }

    /// Summarizes just the functions `root` reaches through direct calls,
    /// `root` included: what [`serialization_blockers`] reads.
    ///
    /// [`serialization_blockers`]: crate::serialization_blockers
    pub(crate) fn reachable_from(program: &Program, root: &str) -> ProgramFacts {
        let mut facts = ProgramFacts::default();
        if let Some(func) = program.function(root) {
            facts.summarize(program, func);
        }
        let mut i = 0;
        while i < facts.funcs.len() {
            for c in facts.funcs[i].callees.clone() {
                if let Some(func) = program.function(&facts.callees[c]) {
                    if facts.get(&func.name).is_none() {
                        facts.summarize(program, func);
                    }
                }
            }
            i += 1;
        }
        facts
    }

    /// Every function's summary, as of the latest [`refresh`](Self::refresh).
    pub fn functions(&self) -> impl Iterator<Item = BodyFacts<'_>> {
        self.funcs.iter().map(move |summary| BodyFacts {
            facts: self,
            summary,
        })
    }

    /// The summary of the function named `name`.
    pub fn get(&self, name: &str) -> Option<BodyFacts<'_>> {
        let summary = self.funcs.iter().find(|f| f.name == name)?;
        Some(BodyFacts {
            facts: self,
            summary,
        })
    }

    /// Summarizes `program`'s function `name` again, after a pass rewrote
    /// it, or for the first time, after a pass added it. (The old summary's
    /// lists stay in the shared vectors, unread.)
    ///
    /// # Panics
    ///
    /// Panics if `program` has no function `name`.
    pub fn refresh(&mut self, program: &Program, name: &str) {
        let func = program
            .function(name)
            .unwrap_or_else(|| panic!("no function `{name}` to summarize"));
        let summary = self.walk(program, func);
        match self.funcs.iter_mut().find(|f| f.name == name) {
            Some(old) => *old = summary,
            None => self.funcs.push(summary),
        }
    }

    fn summarize(&mut self, program: &Program, func: &Function) {
        let summary = self.walk(program, func);
        self.funcs.push(summary);
    }

    /// Walks `func` once, appending its lists to the shared vectors.
    fn walk(&mut self, program: &Program, func: &Function) -> Summary {
        let (launches, taken, callees, blockers) = (
            self.launches.len(),
            self.taken.len(),
            self.callees.len(),
            self.blockers.len(),
        );
        let mut walk = Walk {
            facts: self,
            program,
            name: &func.name,
            taken,
            callees,
            blockers,
            has_return: false,
            whole: 0,
            members: 0,
        };
        walk.take(&func.name);
        for p in &func.params {
            walk.take(&p.name);
        }
        for stmt in &func.body {
            let first = walk.facts.blockers.len();
            walk.stmt(stmt, first);
        }
        let (has_return, whole, members) = (walk.has_return, walk.whole, walk.members);
        Summary {
            name: func.name.clone(),
            qual: func.qual,
            launches: launches..self.launches.len(),
            taken: taken..self.taken.len(),
            callees: callees..self.callees.len(),
            blockers: blockers..self.blockers.len(),
            has_return,
            whole,
            members,
        }
    }

    /// Every launch statement, as [`crate::launch_sites`] lists them.
    pub fn launch_sites(&self) -> impl Iterator<Item = LaunchSite> + '_ {
        self.funcs.iter().flat_map(move |f| {
            self.launches[f.launches.clone()]
                .iter()
                .map(move |launch| LaunchSite {
                    parent: f.name.clone(),
                    kernel: launch.kernel.clone(),
                    from_device: matches!(f.qual, FnQual::Global | FnQual::Device),
                    span: launch.span,
                })
        })
    }

    /// The functions `root` reaches through direct calls, `root` first and
    /// then breadth first, each callee in the order of its first call.
    /// Launches are not calls.
    pub(crate) fn reachable(&self, root: &str) -> Vec<BodyFacts<'_>> {
        let mut reached: Vec<BodyFacts> = self.get(root).into_iter().collect();
        let mut i = 0;
        while i < reached.len() {
            for callee in reached[i].callees() {
                if let Some(f) = self.get(callee) {
                    if !reached.iter().any(|r| std::ptr::eq(r.summary, f.summary)) {
                        reached.push(f);
                    }
                }
            }
            i += 1;
        }
        reached
    }

    /// The edges [`ProgramFacts::reachable`] follows out of `name`: the
    /// functions here it calls, in the order of their first calls.
    #[cfg(test)]
    pub(crate) fn direct_callees(&self, name: &str) -> Vec<&str> {
        let callees = self.get(name).map_or(&[][..], |f| f.callees());
        callees
            .iter()
            .filter(|c| self.get(c).is_some())
            .map(|c| c.as_str())
            .collect()
    }

    /// Every reason `kernel` cannot be serialized, as
    /// [`crate::serialization_blockers`] reports them.
    pub fn serialization_blockers(&self, kernel: &str) -> Vec<Blocker> {
        if self.get(kernel).is_none() {
            return vec![Blocker::MissingDefinition {
                kernel: Name::new(kernel),
            }];
        }
        let mut blockers = Vec::new();
        for func in self.reachable(kernel) {
            blockers.extend(func.blockers().iter().cloned());
        }
        blockers
    }
}

/// One walk of a body, appending its lists to the shared vectors.
struct Walk<'w> {
    facts: &'w mut ProgramFacts,
    /// The program the function is in: a call is an edge only to one of
    /// its functions.
    program: &'w Program,
    name: &'w Name,
    /// Where the function's `taken`, `callees` and `blockers` begin.
    taken: usize,
    callees: usize,
    blockers: usize,
    has_return: bool,
    whole: u8,
    members: u16,
}

impl Walk<'_> {
    fn take(&mut self, name: &Name) {
        if !name.starts_with('_') {
            return;
        }
        let taken = &mut self.facts.taken;
        if let Err(at) = taken[self.taken..].binary_search(name) {
            if taken.capacity() == 0 {
                // A program's `_` names are few, and every pass after the
                // first sees some: make room for them at once.
                taken.reserve_exact(TAKEN_ROOM);
            }
            taken.insert(self.taken + at, name.clone());
        }
    }

    /// Records `stmt` and everything in it: statements before the ones
    /// they contain, and each statement's expressions before its nested
    /// statements, the order of `for_each_stmt` and `for_each_stmt_expr`.
    /// `first` is where the blockers of the body's top-level statement
    /// holding `stmt` begin.
    fn stmt(&mut self, stmt: &Stmt, first: usize) {
        match &stmt.kind {
            StmtKind::Decl(decl) => {
                if decl.shared {
                    self.shared(first);
                }
                for d in &decl.declarators {
                    self.take(&d.name);
                    if let Some(len) = &d.array_len {
                        self.expr(len);
                    }
                    if let Some(init) = &d.init {
                        self.expr(init);
                    }
                }
            }
            StmtKind::Expr(e) => self.expr(e),
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.expr(cond);
                self.stmt(then_branch, first);
                if let Some(e) = else_branch {
                    self.stmt(e, first);
                }
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(c) = cond {
                    self.expr(c);
                }
                if let Some(s) = step {
                    self.expr(s);
                }
                if let Some(i) = init {
                    self.stmt(i, first);
                }
                self.stmt(body, first);
            }
            StmtKind::While { cond, body } | StmtKind::DoWhile { body, cond } => {
                self.expr(cond);
                self.stmt(body, first);
            }
            StmtKind::Return(value) => {
                self.has_return = true;
                if let Some(e) = value {
                    self.expr(e);
                }
            }
            StmtKind::Block(stmts) => {
                for s in stmts {
                    self.stmt(s, first);
                }
            }
            StmtKind::Launch(launch) => {
                self.facts.launches.push(Launch {
                    kernel: launch.kernel.clone(),
                    span: stmt.span,
                    one_dimensional_grid: is_one_dimensional(&launch.grid),
                });
                self.expr(&launch.grid);
                self.expr(&launch.block);
                if let Some(s) = &launch.shmem {
                    self.expr(s);
                }
                if let Some(s) = &launch.stream {
                    self.expr(s);
                }
                for arg in &launch.args {
                    self.expr(arg);
                }
            }
            StmtKind::Break | StmtKind::Continue | StmtKind::Empty => {}
        }
    }

    /// Records `expr` and its subexpressions, children first.
    fn expr(&mut self, expr: &Expr) {
        match &expr.kind {
            ExprKind::IntLit(_) | ExprKind::FloatLit(_) | ExprKind::BoolLit(_) => {}
            ExprKind::Ident(name) => {
                self.take(name);
                if let Some(i) = builtin(name) {
                    self.whole |= 1 << i;
                }
            }
            ExprKind::Member(base, field) => match base.kind.as_ident().and_then(builtin) {
                // `blockIdx.x` reads a member; `blockIdx` alone is a whole use.
                Some(i) => {
                    if let Some(axis) = AXES.iter().position(|a| field == a) {
                        self.members |= 1 << (3 * i + axis);
                    }
                }
                None => self.expr(base),
            },
            ExprKind::Binary(_, lhs, rhs)
            | ExprKind::Assign(_, lhs, rhs)
            | ExprKind::Index(lhs, rhs) => {
                self.expr(lhs);
                self.expr(rhs);
            }
            ExprKind::Unary(_, operand)
            | ExprKind::IncDec { operand, .. }
            | ExprKind::Cast(_, operand) => self.expr(operand),
            ExprKind::Ternary(c, t, e) => {
                self.expr(c);
                self.expr(t);
                self.expr(e);
            }
            ExprKind::Dim3Ctor(args) => {
                for arg in args {
                    self.expr(arg);
                }
            }
            ExprKind::Call(name, args) => {
                for arg in args {
                    self.expr(arg);
                }
                self.call(name);
            }
        }
    }

    fn call(&mut self, name: &Name) {
        if SYNC_INTRINSICS.contains(&name.as_str()) {
            let blocker = Blocker::SyncIntrinsic {
                intrinsic: name.clone(),
                in_function: self.name.clone(),
            };
            if !self.facts.blockers[self.blockers..].contains(&blocker) {
                self.facts.blockers.push(blocker);
            }
        }
        let callees = &self.facts.callees[self.callees..];
        if !callees.contains(name) && self.program.function(name).is_some() {
            self.facts.callees.push(name.clone());
        }
    }

    /// A `__shared__` declaration in the top-level statement whose blockers
    /// begin at `first`: a top-level statement reports its shared memory
    /// before its synchronization.
    fn shared(&mut self, first: usize) {
        let blocker = Blocker::SharedMemory {
            in_function: self.name.clone(),
        };
        if !self.facts.blockers[self.blockers..].contains(&blocker) {
            self.facts.blockers.insert(first, blocker);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use dp_frontend::parse;
    use dp_transform::{apply_pipeline, AggConfig, AggGranularity, OptConfig};
    use std::collections::HashSet;

    /// The seventeen configurations `tests/compile_identity.rs` pins: none,
    /// T, C, all, then A / T+A / T+C+A at each granularity, then block
    /// granularity with an aggregation threshold.
    fn configs() -> Vec<OptConfig> {
        let mut out = vec![
            OptConfig::none(),
            OptConfig::none().threshold(128),
            OptConfig::none().coarsen_factor(16),
            OptConfig::all(),
        ];
        for g in [
            AggGranularity::Warp,
            AggGranularity::Block,
            AggGranularity::MultiBlock(8),
            AggGranularity::Grid,
        ] {
            let agg = AggConfig::new(g);
            out.push(OptConfig::none().aggregation(agg));
            out.push(OptConfig::none().threshold(128).aggregation(agg));
            out.push(
                OptConfig::none()
                    .threshold(128)
                    .coarsen_factor(16)
                    .aggregation(agg),
            );
        }
        out.push(
            OptConfig::none()
                .threshold(128)
                .coarsen_factor(16)
                .aggregation(AggConfig {
                    granularity: AggGranularity::Block,
                    agg_threshold: Some(32),
                }),
        );
        out
    }

    /// Checks every answer the summaries of `program` give against the
    /// walk that answered it before.
    fn agrees_with_the_oracles(program: &Program, what: &str) {
        let facts = ProgramFacts::of(program);
        let sites: Vec<LaunchSite> = facts.launch_sites().collect();
        assert_eq!(sites, crate::launch_sites(program), "{what}");
        let mut names: Vec<&str> = program.functions().map(|f| f.name.as_str()).collect();
        for func in program.functions() {
            let f = facts.get(&func.name).unwrap();
            let at = format!("{what}, `{}`", func.name);
            assert_eq!(f.has_launch(), oracle::contains_launch(&func.body), "{at}");
            assert_eq!(f.has_return(), oracle::contains_return(&func.body), "{at}");
            for base in BUILTINS {
                let whole = oracle::uses_builtin_whole(&func.body, base);
                assert_eq!(f.uses_whole(base), whole, "{at}: {base}");
                for field in AXES {
                    let member = oracle::uses_builtin_member(&func.body, base, field);
                    assert_eq!(f.uses_member(base, field), member, "{at}: {base}.{field}");
                }
            }
            let mut taken: Vec<&str> = oracle::idents_in_function(func).into_iter().collect();
            taken.sort_unstable();
            let got: Vec<&str> = f.taken().iter().map(|n| n.as_str()).collect();
            assert_eq!(got, taken, "{at}");
            for name in taken
                .iter()
                .chain(&["_", "_a_g0", "_threads0", "_s_bx", "_zzz"])
            {
                let want = oracle::idents_in_function(func).contains(name);
                assert_eq!(f.is_taken(name), want, "{at}: {name}");
            }
            for launch in f.launch_list() {
                let multi = oracle::launches_multi_dimensional(&func.body, &launch.kernel);
                assert!(f.launches(&launch.kernel), "{at}");
                assert_eq!(
                    f.launches_multi_dimensional(&launch.kernel),
                    multi,
                    "{at}: {}",
                    launch.kernel
                );
            }
            let callees: HashSet<&str> = facts.direct_callees(&func.name).into_iter().collect();
            let want = oracle::direct_callees(program, func);
            assert_eq!(callees, want.iter().map(|n| n.as_str()).collect(), "{at}");
        }
        names.push("_no_such_kernel");
        for kernel in names {
            let at = format!("{what}, blockers of `{kernel}`");
            let got = facts.serialization_blockers(kernel);
            assert_eq!(got, crate::serialization_blockers(program, kernel), "{at}");
            let want = oracle::serialization_blockers(program, kernel);
            let reached: HashSet<&str> = facts
                .reachable(kernel)
                .iter()
                .map(|f| f.name().as_str())
                .collect();
            let want_reached: HashSet<&str> = oracle::reachable_functions(program, kernel)
                .iter()
                .map(|f| f.name.as_str())
                .collect();
            assert_eq!(reached, want_reached, "{at}");
            // The oracle takes functions in hash order: where the blockers
            // come from more than one function, only the set is fixed.
            let functions: HashSet<Option<&Name>> = want
                .iter()
                .map(|b| match b {
                    Blocker::SyncIntrinsic { in_function, .. }
                    | Blocker::SharedMemory { in_function } => Some(in_function),
                    Blocker::MissingDefinition { .. } => None,
                })
                .collect();
            if functions.len() <= 1 {
                assert_eq!(got, want, "{at}");
            } else {
                assert_eq!(got.len(), want.len(), "{at}");
                assert!(want.iter().all(|b| got.contains(b)), "{at}");
            }
        }
    }

    /// `source` as parsed, and as each configuration transforms it.
    fn agrees_on_source_and_every_transform(source: &str, what: &str) {
        let program = parse(source).unwrap_or_else(|e| panic!("{what}: {}", e.render(source)));
        agrees_with_the_oracles(&program, what);
        for (i, config) in configs().iter().enumerate() {
            let mut transformed = program.clone();
            apply_pipeline(&mut transformed, config);
            agrees_with_the_oracles(&transformed, &format!("{what} under config {i}"));
        }
    }

    #[test]
    fn summaries_answer_as_the_walks_did_on_every_workload() {
        assert_eq!(configs().len(), 17);
        for bench in dp_workloads::benchmarks::all_benchmarks() {
            for (kind, source) in [
                ("cdp", bench.cdp_source()),
                ("nocdp", bench.no_cdp_source()),
            ] {
                agrees_on_source_and_every_transform(source, &format!("{}/{kind}", bench.name()));
            }
        }
    }

    /// Programs the workloads do not have: names a pass would generate
    /// already in use, a builtin passed whole, a child reading `blockIdx.y`,
    /// a kernel that launches itself, synchronization two calls down,
    /// shared memory in a callee, and a statement that synchronizes before
    /// it declares shared memory.
    const HAND: &str = "\
__device__ int dims(dim3 g) { return g.x; }
__device__ void deep() { __syncthreads(); }
__device__ void mid(int* d) { deep(); d[0] = 1; }
__device__ int tile() { __shared__ int t[4]; t[0] = 1; return t[0]; }
__device__ int both(int n) { if (n > 0) { __syncwarp(); __shared__ int s[2]; s[0] = n; } return n; }
__global__ void whole(int* d, int n) { d[blockIdx.x] = dims(gridDim) + n; }
__global__ void ychild(int* d, int n) { d[blockIdx.y] = n; }
__global__ void synced(int* d, int n) { mid(d); d[1] = tile() + both(n); }
__global__ void selfish(int* d, int n) {
    int _a_g0 = n - 1;
    if (n > 0) {
        selfish<<<(_a_g0 + 31) / 32, 32>>>(d, _a_g0);
    }
}
__global__ void child(int* d, int n) {
    int _threads0 = blockIdx.x * blockDim.x + threadIdx.x;
    if (_threads0 < n) {
        d[_threads0] = tile();
    }
}
__global__ void parent(int* d, int* off, int n) {
    int v = blockIdx.x * blockDim.x + threadIdx.x;
    int _threads0 = v;
    if (v < n) {
        int count = off[v + 1] - off[v];
        child<<<(count + 31) / 32, 32>>>(d, count);
        whole<<<(count + 63) / 64, 64>>>(d, count);
        ychild<<<dim3((count + 31) / 32, 2, 1), 32>>>(d, _threads0);
        synced<<<(count + 31) / 32, 32>>>(d, count);
        selfish<<<(count + 31) / 32, 32>>>(d, count);
    }
}
__device__ void dparent(int* d, int n) { child<<<(n + 31) / 32, 32>>>(d, n); }
void host_main(int* d, int* off, int n) {
    parent<<<(n + 255) / 256, 256>>>(d, off, n);
}
";

    #[test]
    fn summaries_answer_as_the_walks_did_on_hand_cases() {
        agrees_on_source_and_every_transform(HAND, "hand cases");
        let p = parse(HAND).unwrap();
        let facts = ProgramFacts::of(&p);
        assert!(facts.get("whole").unwrap().uses_whole("gridDim"));
        assert!(facts.get("ychild").unwrap().uses_member("blockIdx", "y"));
        assert!(facts
            .get("parent")
            .unwrap()
            .launches_multi_dimensional("ychild"));
        assert!(facts.get("parent").unwrap().is_taken("_threads0"));
        assert!(facts.get("selfish").unwrap().is_taken("_a_g0"));
        // `synced` calls `mid`, `tile` and `both`, and `mid` calls `deep`:
        // breadth first, and `both`'s statement reports its shared memory
        // before the synchronization written ahead of it.
        let shared = |f: &str| Blocker::SharedMemory {
            in_function: f.into(),
        };
        let sync = |i: &str, f: &str| Blocker::SyncIntrinsic {
            intrinsic: i.into(),
            in_function: f.into(),
        };
        assert_eq!(
            facts.serialization_blockers("synced"),
            [
                shared("tile"),
                shared("both"),
                sync("__syncwarp", "both"),
                sync("__syncthreads", "deep"),
            ]
        );
    }
}
