//! Lowering from the CUDA-subset AST to VM bytecode, plus the peephole
//! superinstruction-fusion pass.
//!
//! The lowering is deliberately simple (no optimization): the VM's purpose
//! is *faithful instruction accounting*, so every source-level operation
//! should cost what comparable SASS would cost, not what an optimizing
//! compiler could reduce it to. Origin tags flow from statements and
//! expressions onto the emitted instructions.
//!
//! Fusion (`fuse_function`) does not change that accounting: it collapses
//! hot stack-shuffle sequences into single superinstructions that are
//! *costed and counted as their expansions* (see
//! [`Instr::expansion`](crate::bytecode::Instr::expansion)), so it speeds up
//! the interpreter without perturbing traces, statistics, or per-origin
//! cycle attribution. [`compile_program`] fuses by default; use
//! [`compile_program_unfused`] (or [`LowerOptions`]) for the
//! reference-semantics baseline.

use crate::bytecode::*;
use crate::error::CompileError;
use crate::value::SHARED_SPACE_BASE;
use dp_frontend::ast::{self, CodeOrigin, ExprKind, Name, Program, StmtKind, Type};
use std::collections::HashMap;

/// Compiles a program to a [`Module`].
///
/// # Errors
///
/// Returns a [`CompileError`] for constructs outside the executable subset
/// (local arrays, address-of scalars, unknown identifiers, …).
///
/// # Examples
///
/// ```
/// let p = dp_frontend::parse(
///     "__global__ void k(int* d) { d[threadIdx.x] = threadIdx.x * 2; }").unwrap();
/// let module = dp_vm::lower::compile_program(&p).unwrap();
/// assert!(module.by_name("k").is_some());
/// ```
pub fn compile_program(program: &Program) -> Result<Module, CompileError> {
    compile_program_with(program, LowerOptions::default())
}

/// Compiles a program without the superinstruction-fusion pass.
///
/// The unfused module executes identically (same results, same
/// [`ExecutionTrace`](crate::trace::ExecutionTrace), same statistics) but
/// dispatches every original instruction individually — it is the baseline
/// the `vmbench` binary measures fusion against.
pub fn compile_program_unfused(program: &Program) -> Result<Module, CompileError> {
    compile_program_with(program, LowerOptions { fuse: false })
}

/// Knobs for [`compile_program_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowerOptions {
    /// Run the peephole superinstruction-fusion pass (default `true`).
    pub fuse: bool,
}

impl Default for LowerOptions {
    fn default() -> Self {
        LowerOptions { fuse: true }
    }
}

/// Compiles a program with explicit [`LowerOptions`].
///
/// # Errors
///
/// Same as [`compile_program`].
pub fn compile_program_with(
    program: &Program,
    options: LowerOptions,
) -> Result<Module, CompileError> {
    let mut module = Module::new();
    let mut ids: HashMap<Name, FuncId> = HashMap::new();
    let functions: Vec<&ast::Function> = program.functions().collect();
    // Pre-assign ids so forward references and recursion work.
    for (i, f) in functions.iter().enumerate() {
        if ids.insert(f.name.clone(), i as FuncId).is_some() {
            return Err(CompileError::new(format!(
                "duplicate function `{}`",
                f.name
            )));
        }
    }
    let defines: HashMap<Name, i64> = program
        .items
        .iter()
        .filter_map(|item| match item {
            ast::Item::Define { name, value } => Some((name.clone(), *value)),
            _ => None,
        })
        .collect();

    for f in &functions {
        let mut compiled = Lowerer::new(f, &ids, &defines, &functions)
            .lower()
            .map_err(|e| e.in_function(&f.name))?;
        if options.fuse {
            fuse_function(&mut compiled);
        }
        module.add(compiled);
    }
    Ok(module)
}

// ----------------------------------------------------------------------
// Superinstruction fusion
// ----------------------------------------------------------------------

/// Fuses hot instruction sequences into superinstructions, in place.
///
/// A window of instructions is fused only when (a) it matches one of the
/// patterns below, (b) every instruction in it carries the same
/// [`CodeOrigin`] tag (so per-origin cycle attribution is exact, not
/// approximated), and (c) no jump lands *inside* the window (jumps to the
/// window's first instruction are fine and are remapped). Jump targets are
/// rewritten through an old-index → new-index map afterwards.
///
/// Patterns, longest first:
///
/// | window | superinstruction |
/// |---|---|
/// | `LoadLocal s; PushInt k; Bin ±; Dup; StoreLocal s; Pop` | `IncLocal(s, ±k)` |
/// | `LoadLocal s; Dup; PushInt k; Bin ±; StoreLocal s; Pop` | `IncLocal(s, ±k)` |
/// | `LoadLocal a; LoadLocal b; Bin cmp; JumpIfZero t` | `CmpBranchLocals(cmp, a, b, t)` |
/// | `LoadLocal a; LoadLocal b; Bin Add; LoadMem` | `LoadMemAt(a, b)` |
/// | `LoadLocal a; LoadLocal b; Bin op` | `BinLocals(op, a, b)` |
/// | `Dup; StoreLocal s; Pop` | `SetLocal(s)` |
/// | `LoadLocal s; LoadMem` | `LoadLocalMem(s)` |
/// | `PushInt v; Bin op` | `BinImm(op, v)` |
/// | `StoreLocal s; LoadLocal s` | `StoreLoadLocal(s)` |
/// | `CastInt; StoreLocal s` | `StoreLocalInt(s)` |
/// | `Bin cmp; JumpIfZero t` | `CmpBranch(cmp, t)` |
///
/// `StoreLoadLocal` additionally looks one window ahead: it is skipped when
/// the `LoadLocal` it would consume starts a wider (≥ 3 instruction)
/// pattern, so `int v = e; if (v < n)` keeps its more valuable
/// `CmpBranchLocals` fusion. `StoreLocalInt` looks ahead the same way and
/// leaves its `StoreLocal` to a `StoreLoadLocal` that would take it (two
/// slots either way).
///
/// `StoreLocalInt`, `SetLocal`, `LoadMemAt` and `CmpBranch` were picked by
/// a dynamic count of dispatched windows on a cold BFS/KRON sweep, not by
/// eye (ROADMAP item 6 has the count and what it says not to build).
///
/// To add a new superinstruction: the opcode with its [`Instr::expansion`],
/// `cost`, `width` and `cost_class` in `bytecode.rs` (and a row in
/// [`Instr::branch_target_mut`] if it jumps — that makes it end a basic
/// block and has the fuser remap its target), an arm in
/// [`Instr::lane_uniform`] saying whether it is lane-uniform (exactly when
/// its whole expansion is; if it loads, a row in `ops::load_address`), a
/// row in `fused_instructions_cost_their_expansion`, a match arm in `try_fuse_at`
/// here, one handler plus its decode row in `ops.rs`, and rows in
/// `tests/dispatch_exec.rs`'s hand-built table for the success case and
/// every error its expansion can raise. Nothing in `reference.rs`: the
/// reference interpreter runs the expansion, so the differential suites
/// check the handler against that definition, error cases included. A
/// pattern earns its place with a count of the window and ≥ 3 % on
/// `sweep-cold` by itself; `benchgate` then holds `dispatched_ops` down.
pub(crate) fn fuse_function(f: &mut CompiledFunction) {
    let n = f.code.len();
    // Instruction indices some jump lands on (code.len() is a valid target
    // for loops that end the function).
    let mut is_target = vec![false; n + 1];
    for t in f.code.iter().filter_map(Instr::branch_target) {
        is_target[t as usize] = true;
    }

    let mut code = Vec::with_capacity(n);
    let mut origins = Vec::with_capacity(n);
    // map[old index] = new index; interior indices of fused windows keep
    // the window's new index but are never jump targets (checked above).
    let mut map = vec![0u32; n + 1];
    let mut i = 0;
    while i < n {
        map[i] = code.len() as u32;
        let width = match try_fuse_at(&f.code[i..], &f.origins[i..], &is_target[i + 1..]) {
            Some((fused, width)) => {
                map[i..i + width].fill(code.len() as u32);
                code.push(fused);
                width
            }
            None => {
                code.push(f.code[i]);
                1
            }
        };
        origins.push(f.origins[i]);
        i += width;
    }
    map[n] = code.len() as u32;

    for t in code.iter_mut().filter_map(Instr::branch_target_mut) {
        *t = map[*t as usize];
    }
    f.code = code;
    f.origins = origins;
}

/// Tries to fuse a window starting at `code[0]`; returns the
/// superinstruction and the window width. `targets_after` holds the
/// jump-target flags for the instructions *after* the window start.
fn try_fuse_at(
    code: &[Instr],
    origins: &[CodeOrigin],
    targets_after: &[bool],
) -> Option<(Instr, usize)> {
    use Instr::*;
    let fusible = |width: usize| {
        code.len() >= width
            && origins[1..width].iter().all(|o| *o == origins[0])
            && targets_after[..width - 1].iter().all(|t| !t)
    };
    let inc_delta = |op: BinKind, k: i64| match op {
        BinKind::Add => Some(k),
        // `x - k` and `x + (-k)` are exact-identical for both integer
        // (wrapping) and IEEE float semantics; i64::MIN has no negation.
        BinKind::Sub if k != i64::MIN => Some(-k),
        _ => None,
    };

    if fusible(6) {
        // Prefix `±±x` / compound `x ±= k` statement...
        if let [LoadLocal(s), PushInt(k), Bin(op), Dup, StoreLocal(s2), Pop, ..] = *code {
            if s == s2 {
                if let Some(delta) = inc_delta(op, k) {
                    return Some((IncLocal(s, delta), 6));
                }
            }
        }
        // ...and the postfix `x±±` ordering (same cost classes).
        if let [LoadLocal(s), Dup, PushInt(k), Bin(op), StoreLocal(s2), Pop, ..] = *code {
            if s == s2 {
                if let Some(delta) = inc_delta(op, k) {
                    return Some((IncLocal(s, delta), 6));
                }
            }
        }
    }
    let is_cmp = |op: BinKind| {
        matches!(
            op,
            BinKind::Lt | BinKind::Le | BinKind::Gt | BinKind::Ge | BinKind::Eq | BinKind::Ne
        )
    };
    if fusible(4) {
        // Loop-condition shape: compare two locals, branch when false.
        if let [LoadLocal(a), LoadLocal(b), Bin(op), JumpIfZero(t), ..] = *code {
            if is_cmp(op) {
                return Some((CmpBranchLocals(op, a, b, t), 4));
            }
        }
        // `p[i]` with both in locals.
        if let [LoadLocal(a), LoadLocal(b), Bin(BinKind::Add), LoadMem, ..] = *code {
            return Some((LoadMemAt(a, b), 4));
        }
    }
    if fusible(3) {
        if let [LoadLocal(a), LoadLocal(b), Bin(op), ..] = *code {
            return Some((BinLocals(op, a, b), 3));
        }
        // The tail of an assignment statement, `x = e;`.
        if let [Dup, StoreLocal(s), Pop, ..] = *code {
            return Some((SetLocal(s), 3));
        }
    }
    if fusible(2) {
        // The tail of `int x = e;`. Where the store is reloaded at once,
        // `StoreLoadLocal` keeps it: two slots either way.
        if let [CastInt, StoreLocal(s), ..] = *code {
            if try_fuse_at(&code[1..], &origins[1..], &targets_after[1..]).is_none() {
                return Some((StoreLocalInt(s), 2));
            }
        }
        // A comparison whose operands are already on the stack.
        if let [Bin(op), JumpIfZero(t), ..] = *code {
            if is_cmp(op) {
                return Some((CmpBranch(op, t), 2));
            }
        }
        if let [LoadLocal(s), LoadMem, ..] = *code {
            return Some((LoadLocalMem(s), 2));
        }
        if let [PushInt(v), Bin(op), ..] = *code {
            return Some((BinImm(op, v), 2));
        }
        if let [StoreLocal(s), LoadLocal(s2), ..] = *code {
            // Store-then-reload. Greedy left-to-right scanning would let
            // this width-2 window swallow the first instruction of a wider
            // pattern starting at the reload (e.g. the 4-wide
            // `CmpBranchLocals`); only fuse when that costs nothing.
            let steals_wider_window = try_fuse_at(&code[1..], &origins[1..], &targets_after[1..])
                .is_some_and(|(_, width)| width >= 3);
            if s == s2 && !steals_wider_window {
                return Some((StoreLoadLocal(s), 2));
            }
        }
    }
    None
}

struct LoopCtx {
    break_patches: Vec<usize>,
    continue_patches: Vec<usize>,
}

struct Lowerer<'a> {
    func: &'a ast::Function,
    ids: &'a HashMap<Name, FuncId>,
    defines: &'a HashMap<Name, i64>,
    functions: &'a [&'a ast::Function],
    code: Vec<Instr>,
    origins: Vec<CodeOrigin>,
    /// Every local in scope with its slot, innermost last: a lookup
    /// searches from the back, so an inner declaration shadows an outer.
    locals: Vec<(Name, u16)>,
    /// Where each open block's locals start in `locals`.
    scope_starts: Vec<usize>,
    shared: HashMap<Name, u32>,
    shared_words: u32,
    next_slot: u16,
    tmp_slot: Option<u16>,
    loops: Vec<LoopCtx>,
    contains_launch: bool,
}

impl<'a> Lowerer<'a> {
    fn new(
        func: &'a ast::Function,
        ids: &'a HashMap<Name, FuncId>,
        defines: &'a HashMap<Name, i64>,
        functions: &'a [&'a ast::Function],
    ) -> Self {
        Lowerer {
            func,
            ids,
            defines,
            functions,
            code: Vec::new(),
            origins: Vec::new(),
            locals: Vec::new(),
            scope_starts: Vec::new(),
            shared: HashMap::new(),
            shared_words: 0,
            next_slot: 0,
            tmp_slot: None,
            loops: Vec::new(),
            contains_launch: false,
        }
    }

    fn lower(mut self) -> Result<CompiledFunction, CompileError> {
        for param in &self.func.params {
            let slot = self.alloc_slot();
            self.locals.push((param.name.clone(), slot));
        }
        for stmt in &self.func.body {
            self.stmt(stmt)?;
        }
        if !matches!(self.code.last(), Some(Instr::Ret) | Some(Instr::RetVoid)) {
            self.emit(Instr::RetVoid, CodeOrigin::Original);
        }
        Ok(CompiledFunction {
            name: self.func.name.clone(),
            qual: self.func.qual,
            param_types: self.func.params.iter().map(|p| p.ty.clone()).collect(),
            n_locals: self.next_slot,
            code: self.code,
            origins: self.origins,
            contains_launch: self.contains_launch,
            shared_words: self.shared_words,
        })
    }

    fn alloc_slot(&mut self) -> u16 {
        let slot = self.next_slot;
        self.next_slot = self
            .next_slot
            .checked_add(1)
            .expect("too many locals in one function");
        slot
    }

    fn tmp(&mut self) -> u16 {
        if let Some(t) = self.tmp_slot {
            t
        } else {
            let t = self.alloc_slot();
            self.tmp_slot = Some(t);
            t
        }
    }

    fn emit(&mut self, instr: Instr, origin: CodeOrigin) -> usize {
        self.code.push(instr);
        self.origins.push(origin);
        self.code.len() - 1
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        let instr = &mut self.code[at];
        match instr.branch_target_mut() {
            Some(t) => *t = target,
            None => panic!("patching non-jump {instr:?}"),
        }
    }

    fn lookup(&self, name: &str) -> Option<u16> {
        let (_, slot) = self.locals.iter().rev().find(|(local, _)| local == name)?;
        Some(*slot)
    }

    fn open_scope(&mut self) {
        self.scope_starts.push(self.locals.len());
    }

    fn close_scope(&mut self) {
        let start = self.scope_starts.pop().expect("a scope is open");
        self.locals.truncate(start);
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn stmt(&mut self, stmt: &ast::Stmt) -> Result<(), CompileError> {
        let og = stmt.origin;
        match &stmt.kind {
            StmtKind::Decl(decl) => self.decl(decl, og),
            StmtKind::Expr(e) => {
                self.expr(e)?;
                self.emit(Instr::Pop, og);
                Ok(())
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.expr(cond)?;
                let j_else = self.emit(Instr::JumpIfZero(0), og);
                self.stmt(then_branch)?;
                match else_branch {
                    Some(els) => {
                        let j_end = self.emit(Instr::Jump(0), og);
                        let else_at = self.here();
                        self.patch(j_else, else_at);
                        self.stmt(els)?;
                        let end = self.here();
                        self.patch(j_end, end);
                    }
                    None => {
                        let end = self.here();
                        self.patch(j_else, end);
                    }
                }
                Ok(())
            }
            StmtKind::While { cond, body } => {
                let top = self.here();
                self.expr(cond)?;
                let j_exit = self.emit(Instr::JumpIfZero(0), og);
                self.loops.push(LoopCtx {
                    break_patches: vec![],
                    continue_patches: vec![],
                });
                self.stmt(body)?;
                let ctx = self.loops.pop().unwrap();
                for at in ctx.continue_patches {
                    self.patch(at, top);
                }
                self.emit(Instr::Jump(top), og);
                let end = self.here();
                self.patch(j_exit, end);
                for at in ctx.break_patches {
                    self.patch(at, end);
                }
                Ok(())
            }
            StmtKind::DoWhile { body, cond } => {
                let top = self.here();
                self.loops.push(LoopCtx {
                    break_patches: vec![],
                    continue_patches: vec![],
                });
                self.stmt(body)?;
                let ctx = self.loops.pop().unwrap();
                let cond_at = self.here();
                for at in ctx.continue_patches {
                    self.patch(at, cond_at);
                }
                self.expr(cond)?;
                self.emit(Instr::JumpIfNonZero(top), og);
                let end = self.here();
                for at in ctx.break_patches {
                    self.patch(at, end);
                }
                Ok(())
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.open_scope();
                if let Some(init) = init {
                    self.stmt(init)?;
                }
                let top = self.here();
                let j_exit = match cond {
                    Some(c) => {
                        self.expr(c)?;
                        Some(self.emit(Instr::JumpIfZero(0), og))
                    }
                    None => None,
                };
                self.loops.push(LoopCtx {
                    break_patches: vec![],
                    continue_patches: vec![],
                });
                self.stmt(body)?;
                let ctx = self.loops.pop().unwrap();
                let step_at = self.here();
                for at in ctx.continue_patches {
                    self.patch(at, step_at);
                }
                if let Some(step) = step {
                    self.expr(step)?;
                    self.emit(Instr::Pop, og);
                }
                self.emit(Instr::Jump(top), og);
                let end = self.here();
                if let Some(at) = j_exit {
                    self.patch(at, end);
                }
                for at in ctx.break_patches {
                    self.patch(at, end);
                }
                self.close_scope();
                Ok(())
            }
            StmtKind::Return(value) => {
                match value {
                    Some(e) => {
                        self.expr(e)?;
                        self.emit(Instr::Ret, og);
                    }
                    None => {
                        self.emit(Instr::RetVoid, og);
                    }
                }
                Ok(())
            }
            StmtKind::Break => {
                let at = self.emit(Instr::Jump(0), og);
                self.loops
                    .last_mut()
                    .ok_or_else(|| CompileError::new("`break` outside a loop"))?
                    .break_patches
                    .push(at);
                Ok(())
            }
            StmtKind::Continue => {
                let at = self.emit(Instr::Jump(0), og);
                self.loops
                    .last_mut()
                    .ok_or_else(|| CompileError::new("`continue` outside a loop"))?
                    .continue_patches
                    .push(at);
                Ok(())
            }
            StmtKind::Block(stmts) => {
                self.open_scope();
                for s in stmts {
                    self.stmt(s)?;
                }
                self.close_scope();
                Ok(())
            }
            StmtKind::Launch(launch) => self.launch(launch, og),
            StmtKind::Empty => Ok(()),
        }
    }

    fn decl(&mut self, decl: &ast::VarDecl, og: CodeOrigin) -> Result<(), CompileError> {
        for d in &decl.declarators {
            if decl.shared {
                let words = match &d.array_len {
                    Some(len) => self.const_eval(len).ok_or_else(|| {
                        CompileError::new(format!(
                            "__shared__ array `{}` needs a constant size",
                            d.name
                        ))
                    })?,
                    None => 1,
                };
                if words < 0 {
                    return Err(CompileError::new(format!(
                        "__shared__ array `{}` has negative size",
                        d.name
                    )));
                }
                self.shared.insert(d.name.clone(), self.shared_words);
                self.shared_words += words as u32;
                if d.init.is_some() {
                    return Err(CompileError::new(format!(
                        "__shared__ `{}` cannot have an initializer",
                        d.name
                    )));
                }
                continue;
            }
            if d.array_len.is_some() {
                return Err(CompileError::new(format!(
                    "local array `{}` is not supported (only __shared__ arrays)",
                    d.name
                )));
            }
            let slot = self.alloc_slot();
            if let Some(init) = &d.init {
                self.expr(init)?;
                self.emit_conversion(&decl.ty, og);
                self.emit(Instr::StoreLocal(slot), og);
            }
            self.locals.push((d.name.clone(), slot));
        }
        Ok(())
    }

    /// Numeric conversion on initialization/assignment per declared type.
    fn emit_conversion(&mut self, ty: &Type, og: CodeOrigin) {
        match ty {
            Type::Int | Type::UInt | Type::Long | Type::ULong | Type::Bool => {
                self.emit(Instr::CastInt, og);
            }
            Type::Float | Type::Double => {
                self.emit(Instr::CastFloat, og);
            }
            // Pointers are integer addresses; dim3 coercion happens at use.
            Type::Ptr(_) | Type::Dim3 | Type::Void => {}
        }
    }

    fn launch(&mut self, launch: &ast::LaunchStmt, og: CodeOrigin) -> Result<(), CompileError> {
        let id = *self.ids.get(&launch.kernel).ok_or_else(|| {
            CompileError::new(format!("launch of undefined kernel `{}`", launch.kernel))
        })?;
        let target = self.functions[id as usize];
        if target.qual != ast::FnQual::Global {
            return Err(CompileError::new(format!(
                "`{}` is not a __global__ kernel",
                launch.kernel
            )));
        }
        if target.params.len() != launch.args.len() {
            return Err(CompileError::new(format!(
                "kernel `{}` takes {} arguments, launch passes {}",
                launch.kernel,
                target.params.len(),
                launch.args.len()
            )));
        }
        self.expr(&launch.grid)?;
        self.expr(&launch.block)?;
        // Shared-memory size and stream arguments are parsed but not
        // modelled (per-thread default streams assumed, as in the paper).
        for arg in &launch.args {
            self.expr(arg)?;
        }
        self.emit(Instr::Launch(id, launch.args.len() as u8), og);
        self.contains_launch = true;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn expr(&mut self, e: &ast::Expr) -> Result<(), CompileError> {
        let og = e.origin;
        match &e.kind {
            ExprKind::IntLit(v) => {
                self.emit(Instr::PushInt(*v), og);
                Ok(())
            }
            ExprKind::FloatLit(v) => {
                self.emit(Instr::PushFloat(*v), og);
                Ok(())
            }
            ExprKind::BoolLit(b) => {
                self.emit(Instr::PushInt(*b as i64), og);
                Ok(())
            }
            ExprKind::Ident(name) => self.ident(name, og),
            ExprKind::Binary(op, lhs, rhs) => self.binary(*op, lhs, rhs, og),
            ExprKind::Unary(op, operand) => match op {
                ast::UnOp::Neg => {
                    self.expr(operand)?;
                    self.emit(Instr::Un(UnKind::Neg), og);
                    Ok(())
                }
                ast::UnOp::Not => {
                    self.expr(operand)?;
                    self.emit(Instr::Un(UnKind::Not), og);
                    Ok(())
                }
                ast::UnOp::BitNot => {
                    self.expr(operand)?;
                    self.emit(Instr::Un(UnKind::BitNot), og);
                    Ok(())
                }
                ast::UnOp::Deref => {
                    self.expr(operand)?;
                    self.emit(Instr::LoadMem, og);
                    Ok(())
                }
                ast::UnOp::AddrOf => self.addr(operand),
            },
            ExprKind::IncDec {
                inc,
                prefix,
                operand,
            } => self.inc_dec(*inc, *prefix, operand, og),
            ExprKind::Assign(op, lhs, rhs) => self.assign(*op, lhs, rhs, og),
            ExprKind::Ternary(c, t, f) => {
                self.expr(c)?;
                let j_else = self.emit(Instr::JumpIfZero(0), og);
                self.expr(t)?;
                let j_end = self.emit(Instr::Jump(0), og);
                let else_at = self.here();
                self.patch(j_else, else_at);
                self.expr(f)?;
                let end = self.here();
                self.patch(j_end, end);
                Ok(())
            }
            ExprKind::Call(name, args) => self.call(name, args, og),
            ExprKind::Index(base, idx) => {
                self.index_addr(base, idx)?;
                self.emit(Instr::LoadMem, og);
                Ok(())
            }
            ExprKind::Member(base, field) => {
                let lane = dim3_lane(field)
                    .ok_or_else(|| CompileError::new(format!("unknown member `.{field}`")))?;
                if let ExprKind::Ident(name) = &base.kind {
                    if let Some(special) = special_of(name) {
                        if self.lookup(name).is_none() {
                            self.emit(Instr::ReadSpecialComp(special, lane), og);
                            return Ok(());
                        }
                    }
                }
                self.expr(base)?;
                self.emit(Instr::Dim3Member(lane), og);
                Ok(())
            }
            ExprKind::Cast(ty, operand) => {
                self.expr(operand)?;
                self.emit_conversion(ty, og);
                Ok(())
            }
            ExprKind::Dim3Ctor(args) => {
                for i in 0..3 {
                    match args.get(i) {
                        Some(a) => {
                            self.expr(a)?;
                            self.emit(Instr::CastInt, og);
                        }
                        None => {
                            self.emit(Instr::PushInt(1), og);
                        }
                    }
                }
                self.emit(Instr::MakeDim3, og);
                Ok(())
            }
        }
    }

    fn ident(&mut self, name: &str, og: CodeOrigin) -> Result<(), CompileError> {
        if let Some(slot) = self.lookup(name) {
            self.emit(Instr::LoadLocal(slot), og);
            return Ok(());
        }
        if let Some(offset) = self.shared.get(name) {
            self.emit(Instr::PushInt(SHARED_SPACE_BASE + *offset as i64), og);
            return Ok(());
        }
        if let Some(special) = special_of(name) {
            self.emit(Instr::ReadSpecial(special), og);
            return Ok(());
        }
        if let Some(value) = self.defines.get(name) {
            self.emit(Instr::PushInt(*value), og);
            return Ok(());
        }
        Err(CompileError::new(format!("unknown identifier `{name}`")))
    }

    fn binary(
        &mut self,
        op: ast::BinOp,
        lhs: &ast::Expr,
        rhs: &ast::Expr,
        og: CodeOrigin,
    ) -> Result<(), CompileError> {
        use ast::BinOp as B;
        match op {
            B::LogAnd => {
                self.expr(lhs)?;
                let j_false = self.emit(Instr::JumpIfZero(0), og);
                self.expr(rhs)?;
                let j_false2 = self.emit(Instr::JumpIfZero(0), og);
                self.emit(Instr::PushInt(1), og);
                let j_end = self.emit(Instr::Jump(0), og);
                let false_at = self.here();
                self.patch(j_false, false_at);
                self.patch(j_false2, false_at);
                self.emit(Instr::PushInt(0), og);
                let end = self.here();
                self.patch(j_end, end);
                Ok(())
            }
            B::LogOr => {
                self.expr(lhs)?;
                let j_true = self.emit(Instr::JumpIfNonZero(0), og);
                self.expr(rhs)?;
                let j_true2 = self.emit(Instr::JumpIfNonZero(0), og);
                self.emit(Instr::PushInt(0), og);
                let j_end = self.emit(Instr::Jump(0), og);
                let true_at = self.here();
                self.patch(j_true, true_at);
                self.patch(j_true2, true_at);
                self.emit(Instr::PushInt(1), og);
                let end = self.here();
                self.patch(j_end, end);
                Ok(())
            }
            _ => {
                self.expr(lhs)?;
                self.expr(rhs)?;
                self.emit(Instr::Bin(bin_kind(op)), og);
                Ok(())
            }
        }
    }

    /// Address of an lvalue: `a[i]`, `*p`, or a `__shared__` array name.
    fn addr(&mut self, e: &ast::Expr) -> Result<(), CompileError> {
        match &e.kind {
            ExprKind::Index(base, idx) => self.index_addr(base, idx),
            ExprKind::Unary(ast::UnOp::Deref, inner) => self.expr(inner),
            ExprKind::Ident(name) if self.shared.contains_key(name) => {
                let off = self.shared[name];
                self.emit(Instr::PushInt(SHARED_SPACE_BASE + off as i64), e.origin);
                Ok(())
            }
            _ => Err(CompileError::new(
                "cannot take the address of this expression (only memory lvalues)",
            )),
        }
    }

    fn index_addr(&mut self, base: &ast::Expr, idx: &ast::Expr) -> Result<(), CompileError> {
        self.expr(base)?;
        self.expr(idx)?;
        self.emit(Instr::Bin(BinKind::Add), idx.origin);
        Ok(())
    }

    fn inc_dec(
        &mut self,
        inc: bool,
        prefix: bool,
        operand: &ast::Expr,
        og: CodeOrigin,
    ) -> Result<(), CompileError> {
        let kind = if inc { BinKind::Add } else { BinKind::Sub };
        if let ExprKind::Ident(name) = &operand.kind {
            if let Some(slot) = self.lookup(name) {
                if prefix {
                    self.emit(Instr::LoadLocal(slot), og);
                    self.emit(Instr::PushInt(1), og);
                    self.emit(Instr::Bin(kind), og);
                    self.emit(Instr::Dup, og);
                    self.emit(Instr::StoreLocal(slot), og);
                } else {
                    self.emit(Instr::LoadLocal(slot), og);
                    self.emit(Instr::Dup, og);
                    self.emit(Instr::PushInt(1), og);
                    self.emit(Instr::Bin(kind), og);
                    self.emit(Instr::StoreLocal(slot), og);
                }
                return Ok(());
            }
        }
        // Memory lvalue.
        let tmp = self.tmp();
        self.addr(operand)?; // [a]
        self.emit(Instr::Dup, og); // [a, a]
        self.emit(Instr::LoadMem, og); // [a, old]
        if prefix {
            self.emit(Instr::PushInt(1), og);
            self.emit(Instr::Bin(kind), og); // [a, new]
            self.emit(Instr::Dup, og); // [a, new, new]
            self.emit(Instr::StoreLocal(tmp), og); // [a, new]
            self.emit(Instr::StoreMem, og); // []
        } else {
            self.emit(Instr::Dup, og); // [a, old, old]
            self.emit(Instr::StoreLocal(tmp), og); // [a, old]
            self.emit(Instr::PushInt(1), og);
            self.emit(Instr::Bin(kind), og); // [a, new]
            self.emit(Instr::StoreMem, og); // []
        }
        self.emit(Instr::LoadLocal(tmp), og);
        Ok(())
    }

    fn assign(
        &mut self,
        op: ast::AssignOp,
        lhs: &ast::Expr,
        rhs: &ast::Expr,
        og: CodeOrigin,
    ) -> Result<(), CompileError> {
        // Local scalar.
        if let ExprKind::Ident(name) = &lhs.kind {
            if let Some(slot) = self.lookup(name) {
                match op.bin_op() {
                    None => self.expr(rhs)?,
                    Some(b) => {
                        self.emit(Instr::LoadLocal(slot), og);
                        self.expr(rhs)?;
                        self.emit(Instr::Bin(bin_kind(b)), og);
                    }
                }
                self.emit(Instr::Dup, og);
                self.emit(Instr::StoreLocal(slot), og);
                return Ok(());
            }
            return Err(CompileError::new(format!(
                "assignment to unknown identifier `{name}`"
            )));
        }
        // dim3 member on a local: `v.x = e`.
        if let ExprKind::Member(base, field) = &lhs.kind {
            let lane = dim3_lane(field)
                .ok_or_else(|| CompileError::new(format!("unknown member `.{field}`")))?;
            if let ExprKind::Ident(name) = &base.kind {
                if let Some(slot) = self.lookup(name) {
                    let tmp = self.tmp();
                    self.emit(Instr::LoadLocal(slot), og); // [d3]
                    match op.bin_op() {
                        None => self.expr(rhs)?,
                        Some(b) => {
                            self.emit(Instr::LoadLocal(slot), og);
                            self.emit(Instr::Dim3Member(lane), og);
                            self.expr(rhs)?;
                            self.emit(Instr::Bin(bin_kind(b)), og);
                        }
                    } // [d3, v]
                    self.emit(Instr::Dup, og); // [d3, v, v]
                    self.emit(Instr::StoreLocal(tmp), og); // [d3, v]
                    self.emit(Instr::Dim3SetMember(lane), og); // [d3']
                    self.emit(Instr::StoreLocal(slot), og); // []
                    self.emit(Instr::LoadLocal(tmp), og); // [v]
                    return Ok(());
                }
            }
            return Err(CompileError::new(
                "member assignment requires a local dim3 variable",
            ));
        }
        // Memory lvalue: `a[i] = e` or `*p = e`.
        let tmp = self.tmp();
        self.addr(lhs)?; // [a]
        match op.bin_op() {
            None => {
                self.expr(rhs)?; // [a, v]
            }
            Some(b) => {
                self.emit(Instr::Dup, og); // [a, a]
                self.emit(Instr::LoadMem, og); // [a, old]
                self.expr(rhs)?;
                self.emit(Instr::Bin(bin_kind(b)), og); // [a, v]
            }
        }
        self.emit(Instr::Dup, og); // [a, v, v]
        self.emit(Instr::StoreLocal(tmp), og); // [a, v]
        self.emit(Instr::StoreMem, og); // []
        self.emit(Instr::LoadLocal(tmp), og); // [v]
        Ok(())
    }

    fn call(&mut self, name: &str, args: &[ast::Expr], og: CodeOrigin) -> Result<(), CompileError> {
        // Synchronization intrinsics.
        match name {
            "__syncthreads" => {
                self.emit(Instr::Sync, og);
                self.emit(Instr::PushInt(0), og);
                return Ok(());
            }
            "__threadfence" | "__threadfence_block" | "__threadfence_system" => {
                self.emit(Instr::Fence, og);
                self.emit(Instr::PushInt(0), og);
                return Ok(());
            }
            _ => {}
        }
        // Atomics: first argument is an address (written `&lvalue` or a
        // pointer-valued expression).
        if let Some(atomic) = atomic_of(name) {
            let want = if atomic == AtomicOp::Cas { 3 } else { 2 };
            if args.len() != want {
                return Err(CompileError::new(format!(
                    "`{name}` takes {want} arguments, got {}",
                    args.len()
                )));
            }
            match &args[0].kind {
                ExprKind::Unary(ast::UnOp::AddrOf, inner) => self.addr(inner)?,
                _ => self.expr(&args[0])?,
            }
            for a in &args[1..] {
                self.expr(a)?;
            }
            self.emit(Instr::Atomic(atomic), og);
            return Ok(());
        }
        // Math intrinsics.
        if let Some((intrinsic, arity)) = intrinsic_of(name) {
            if args.len() != arity {
                return Err(CompileError::new(format!(
                    "`{name}` takes {arity} arguments, got {}",
                    args.len()
                )));
            }
            for a in args {
                self.expr(a)?;
            }
            self.emit(Instr::Intrinsic(intrinsic), og);
            return Ok(());
        }
        // User function.
        let Some(&id) = self.ids.get(name) else {
            return Err(CompileError::new(format!(
                "call to unknown function `{name}`"
            )));
        };
        let target = self.functions[id as usize];
        if target.qual == ast::FnQual::Global {
            return Err(CompileError::new(format!(
                "kernel `{name}` must be launched with <<<...>>>, not called"
            )));
        }
        if target.params.len() != args.len() {
            return Err(CompileError::new(format!(
                "`{name}` takes {} arguments, got {}",
                target.params.len(),
                args.len()
            )));
        }
        for a in args {
            self.expr(a)?;
        }
        self.emit(Instr::Call(id, args.len() as u8), og);
        Ok(())
    }

    fn const_eval(&self, e: &ast::Expr) -> Option<i64> {
        match &e.kind {
            ExprKind::IntLit(v) => Some(*v),
            ExprKind::Ident(name) => self.defines.get(name).copied(),
            ExprKind::Binary(op, a, b) => {
                let a = self.const_eval(a)?;
                let b = self.const_eval(b)?;
                match op {
                    ast::BinOp::Add => Some(a + b),
                    ast::BinOp::Sub => Some(a - b),
                    ast::BinOp::Mul => Some(a * b),
                    ast::BinOp::Div if b != 0 => Some(a / b),
                    _ => None,
                }
            }
            ExprKind::Cast(_, inner) => self.const_eval(inner),
            _ => None,
        }
    }
}

fn bin_kind(op: ast::BinOp) -> BinKind {
    use ast::BinOp as B;
    match op {
        B::Add => BinKind::Add,
        B::Sub => BinKind::Sub,
        B::Mul => BinKind::Mul,
        B::Div => BinKind::Div,
        B::Rem => BinKind::Rem,
        B::Lt => BinKind::Lt,
        B::Le => BinKind::Le,
        B::Gt => BinKind::Gt,
        B::Ge => BinKind::Ge,
        B::Eq => BinKind::Eq,
        B::Ne => BinKind::Ne,
        B::BitAnd => BinKind::BitAnd,
        B::BitOr => BinKind::BitOr,
        B::BitXor => BinKind::BitXor,
        B::Shl => BinKind::Shl,
        B::Shr => BinKind::Shr,
        B::LogAnd | B::LogOr => unreachable!("lowered with jumps"),
    }
}

fn special_of(name: &str) -> Option<Special> {
    match name {
        "threadIdx" => Some(Special::ThreadIdx),
        "blockIdx" => Some(Special::BlockIdx),
        "blockDim" => Some(Special::BlockDim),
        "gridDim" => Some(Special::GridDim),
        _ => None,
    }
}

fn dim3_lane(field: &str) -> Option<u8> {
    match field {
        "x" => Some(0),
        "y" => Some(1),
        "z" => Some(2),
        _ => None,
    }
}

fn atomic_of(name: &str) -> Option<AtomicOp> {
    match name {
        "atomicAdd" => Some(AtomicOp::Add),
        "atomicSub" => Some(AtomicOp::Sub),
        "atomicMax" => Some(AtomicOp::Max),
        "atomicMin" => Some(AtomicOp::Min),
        "atomicExch" => Some(AtomicOp::Exch),
        "atomicCAS" => Some(AtomicOp::Cas),
        "atomicOr" => Some(AtomicOp::Or),
        "atomicAnd" => Some(AtomicOp::And),
        _ => None,
    }
}

fn intrinsic_of(name: &str) -> Option<(Intrinsic, usize)> {
    match name {
        "min" | "fminf" | "fmin" => Some((Intrinsic::Min, 2)),
        "max" | "fmaxf" | "fmax" => Some((Intrinsic::Max, 2)),
        "abs" | "fabs" | "fabsf" => Some((Intrinsic::Abs, 1)),
        "sqrt" | "sqrtf" => Some((Intrinsic::Sqrt, 1)),
        "ceil" | "ceilf" => Some((Intrinsic::Ceil, 1)),
        "floor" | "floorf" => Some((Intrinsic::Floor, 1)),
        "exp" | "expf" => Some((Intrinsic::Exp, 1)),
        "log" | "logf" => Some((Intrinsic::Log, 1)),
        "pow" | "powf" => Some((Intrinsic::Pow, 2)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the peephole fusion pass over every function of a module in place.
    fn fuse_module(module: &mut Module) {
        for f in &mut module.functions {
            fuse_function(f);
        }
    }

    fn compile(src: &str) -> Module {
        compile_program(&dp_frontend::parse(src).unwrap()).unwrap()
    }

    fn compile_err(src: &str) -> CompileError {
        compile_program(&dp_frontend::parse(src).unwrap()).unwrap_err()
    }

    #[test]
    fn lowers_simple_kernel() {
        let m = compile("__global__ void k(int* d) { d[threadIdx.x] = 1; }");
        let f = m.by_name("k").unwrap();
        assert_eq!(f.param_types, vec![Type::Int.ptr_to()]);
        assert!(f.code.contains(&Instr::StoreMem));
        assert!(f
            .code
            .contains(&Instr::ReadSpecialComp(Special::ThreadIdx, 0)));
        assert!(matches!(f.code.last(), Some(Instr::RetVoid)));
        assert_eq!(f.code.len(), f.origins.len());
    }

    #[test]
    fn launch_sets_flag_and_checks_arity() {
        let m = compile(
            "__global__ void c(int n) { }\n\
             __global__ void p(int n) { c<<<n, 32>>>(n); }",
        );
        assert!(m.by_name("p").unwrap().contains_launch);
        assert!(!m.by_name("c").unwrap().contains_launch);
        let e = compile_err(
            "__global__ void c(int n) { }\n\
             __global__ void p(int n) { c<<<n, 32>>>(n, n); }",
        );
        assert!(e.to_string().contains("takes 1 arguments"));
    }

    #[test]
    fn launching_undefined_kernel_fails() {
        let e = compile_err("__global__ void p(int n) { nope<<<n, 32>>>(n); }");
        assert!(e.to_string().contains("undefined kernel"));
    }

    #[test]
    fn calling_a_kernel_fails() {
        let e = compile_err(
            "__global__ void c(int n) { }\n\
             __global__ void p(int n) { c(n); }",
        );
        assert!(e.to_string().contains("must be launched"));
    }

    #[test]
    fn unknown_identifier_fails() {
        let e = compile_err("__global__ void k(int* d) { d[0] = mystery; }");
        assert!(e.to_string().contains("unknown identifier `mystery`"));
    }

    #[test]
    fn defines_are_inlined() {
        let m = compile("#define _THRESHOLD 99\n__global__ void k(int* d) { d[0] = _THRESHOLD; }");
        let f = m.by_name("k").unwrap();
        assert!(f.code.contains(&Instr::PushInt(99)));
    }

    #[test]
    fn local_array_is_rejected() {
        let e = compile_err("__global__ void k(int* d) { int tmp[4]; d[0] = tmp[0]; }");
        assert!(e.to_string().contains("local array"));
    }

    #[test]
    fn shared_array_allocates_space() {
        let m =
            compile("__global__ void k(int* d) { __shared__ int t[32]; t[0] = 1; d[0] = t[0]; }");
        let f = m.by_name("k").unwrap();
        assert_eq!(f.shared_words, 32);
    }

    #[test]
    fn shared_size_uses_defines() {
        let m = compile(
            "#define TILE 16\n__global__ void k(int* d) { __shared__ float t[TILE * 2]; d[0] = (int)t[0]; }",
        );
        assert_eq!(m.by_name("k").unwrap().shared_words, 32);
    }

    #[test]
    fn atomics_lower_with_addr_of() {
        let m = compile("__global__ void k(int* d) { int old = atomicAdd(&d[0], 1); d[1] = old; }");
        let f = m.by_name("k").unwrap();
        assert!(f.code.contains(&Instr::Atomic(AtomicOp::Add)));
    }

    #[test]
    fn atomic_on_pointer_value() {
        let m = compile("__global__ void k(int* d) { atomicMax(d, 5); }");
        assert!(m
            .by_name("k")
            .unwrap()
            .code
            .contains(&Instr::Atomic(AtomicOp::Max)));
    }

    #[test]
    fn intrinsics_check_arity() {
        let e = compile_err("__global__ void k(int* d) { d[0] = min(1); }");
        assert!(e.to_string().contains("takes 2 arguments"));
    }

    #[test]
    fn break_outside_loop_fails() {
        let e = compile_err("__global__ void k(int* d) { break; }");
        assert!(e.to_string().contains("outside a loop"));
    }

    #[test]
    fn origin_tags_flow_to_instructions() {
        use dp_frontend::visit::walk_stmt_mut;
        let mut p = dp_frontend::parse("__global__ void k(int* d) { d[0] = 1; }").unwrap();
        let f = p.function_mut("k").unwrap();
        for s in &mut f.body {
            walk_stmt_mut(s, &mut |st| st.origin = CodeOrigin::AggLogic);
            dp_frontend::visit::walk_stmt_exprs_mut(s, &mut |e| e.origin = CodeOrigin::AggLogic);
        }
        let m = compile_program(&p).unwrap();
        let f = m.by_name("k").unwrap();
        // Everything except the implicit RetVoid carries the tag.
        let tagged = f
            .origins
            .iter()
            .filter(|o| **o == CodeOrigin::AggLogic)
            .count();
        assert_eq!(tagged, f.origins.len() - 1);
    }

    // ------------------------------------------------------------------
    // Superinstruction fusion
    // ------------------------------------------------------------------

    fn compile_unfused(src: &str) -> Module {
        compile_program_with(
            &dp_frontend::parse(src).unwrap(),
            LowerOptions { fuse: false },
        )
        .unwrap()
    }

    /// A two-local kernel of exactly this code, for the fuser alone.
    fn hand_built(code: Vec<Instr>, origins: Vec<CodeOrigin>) -> CompiledFunction {
        CompiledFunction {
            name: "k".into(),
            qual: dp_frontend::ast::FnQual::Global,
            param_types: vec![],
            n_locals: 2,
            code,
            origins,
            contains_launch: false,
            shared_words: 0,
        }
    }

    #[test]
    fn fusion_emits_superinstructions() {
        let src = "__global__ void k(int* d, int n) { \
                       int s = 0; \
                       for (int i = 0; i < n; ++i) { s = s + d[i] * 3; } \
                       d[0] = s; }";
        let fused = compile(src);
        let unfused = compile_unfused(src);
        let f = fused.by_name("k").unwrap();
        let u = unfused.by_name("k").unwrap();
        assert!(f.code.len() < u.code.len(), "fusion must shrink the stream");
        assert!(
            f.code.iter().any(|i| matches!(i, Instr::IncLocal(..))),
            "loop step fuses"
        );
        assert!(
            f.code
                .iter()
                .any(|i| matches!(i, Instr::CmpBranchLocals(BinKind::Lt, ..))),
            "loop condition fuses into compare-and-branch"
        );
        assert!(
            f.code
                .iter()
                .any(|i| matches!(i, Instr::BinImm(BinKind::Mul, 3))),
            "immediate multiply fuses"
        );
        assert!(
            u.code.iter().all(|i| i.expansion().is_none()),
            "unfused stream is primitive"
        );
        // Widths conserve the original instruction count.
        let total: u32 = f.code.iter().map(|i| i.width()).sum();
        assert_eq!(total as usize, u.code.len());
    }

    #[test]
    fn fusion_respects_origin_and_jump_boundaries() {
        let mk = |origins, code| hand_built(code, origins);
        let window = vec![
            Instr::LoadLocal(0),
            Instr::LoadLocal(1),
            Instr::Bin(BinKind::Add),
            Instr::RetVoid,
        ];

        // Same origin everywhere: the window fuses.
        let mut f = mk(vec![CodeOrigin::Original; 4], window.clone());
        fuse_function(&mut f);
        assert_eq!(f.code[0], Instr::BinLocals(BinKind::Add, 0, 1));

        // Mixed origins inside the window: attribution would be wrong, so
        // the window must not fuse.
        let mut f = mk(
            vec![
                CodeOrigin::Original,
                CodeOrigin::AggLogic,
                CodeOrigin::AggLogic,
                CodeOrigin::Original,
            ],
            window.clone(),
        );
        fuse_function(&mut f);
        assert_eq!(f.code, window);

        // A jump landing inside the window also blocks fusion (and gets
        // remapped consistently).
        let mut f = mk(
            vec![CodeOrigin::Original; 5],
            vec![
                Instr::Jump(2),
                Instr::LoadLocal(0),
                Instr::LoadLocal(1),
                Instr::Bin(BinKind::Add),
                Instr::RetVoid,
            ],
        );
        fuse_function(&mut f);
        assert!(
            f.code.contains(&Instr::Jump(2)),
            "jump into the would-be window must survive: {:?}",
            f.code
        );
        assert!(
            !f.code.iter().any(|i| matches!(i, Instr::BinLocals(..))),
            "window with an interior jump target must not fuse: {:?}",
            f.code
        );
    }

    #[test]
    fn compare_branch_fuses_loop_conditions() {
        let src = "__global__ void k(int* d, int n) { \
                       int s = 0; \
                       while (s < n) { s = s + d[s]; } \
                       d[0] = s; }";
        let fused = compile(src);
        let unfused = compile_unfused(src);
        let f = fused.by_name("k").unwrap();
        let u = unfused.by_name("k").unwrap();
        let cmp_branch = f
            .code
            .iter()
            .find_map(|i| match i {
                Instr::CmpBranchLocals(op, a, b, t) => Some((*op, *a, *b, *t)),
                _ => None,
            })
            .expect("while condition fuses");
        let (op, _, _, t) = cmp_branch;
        assert_eq!(op, BinKind::Lt);
        assert!((t as usize) <= f.code.len(), "branch target in range");
        // Width accounting conserves the original instruction count.
        let total: u32 = f.code.iter().map(|i| i.width()).sum();
        assert_eq!(total as usize, u.code.len());
        // Non-comparison ops must not fuse with a following branch.
        let src_add = "__global__ void k(int* d, int a, int b) { \
                           if (a + b) { d[0] = 1; } }";
        let m = compile(src_add);
        assert!(
            !m.by_name("k")
                .unwrap()
                .code
                .iter()
                .any(|i| matches!(i, Instr::CmpBranchLocals(..))),
            "arithmetic condition stays BinLocals + JumpIfZero"
        );
    }

    #[test]
    fn fusion_remaps_jump_targets() {
        let src = "__global__ void k(int* d, int n) { \
                       int s = 0; \
                       while (s < n) { s = s + 1; } \
                       d[0] = s; }";
        let m = compile(src);
        let f = m.by_name("k").unwrap();
        for instr in &f.code {
            if let Instr::Jump(t) | Instr::JumpIfZero(t) | Instr::JumpIfNonZero(t) = instr {
                assert!((*t as usize) <= f.code.len(), "target {t} out of range");
            }
        }
        assert_eq!(f.code.len(), f.origins.len());
    }

    #[test]
    fn store_load_fuses_store_then_reload() {
        // `int v = e; if (v > 0)` accumulator shape: the store-then-reload
        // collapses (the following `v > 0` only offers a 2-wide BinImm, so
        // the lookahead guard allows it), and widths still conserve the
        // original count.
        let src = "__global__ void k(int* d) { \
                       int count = d[0]; \
                       if (count > 0) { d[1] = count; } }";
        let fused = compile(src);
        let unfused = compile_unfused(src);
        let f = fused.by_name("k").unwrap();
        let u = unfused.by_name("k").unwrap();
        assert!(
            f.code.iter().any(|i| matches!(i, Instr::StoreLoadLocal(_))),
            "store-then-reload fuses: {:?}",
            f.code
        );
        let total: u32 = f.code.iter().map(|i| i.width()).sum();
        assert_eq!(total as usize, u.code.len());
    }

    #[test]
    fn store_load_yields_to_wider_windows() {
        // `int v = ...; if (v < n)` — the reload starts a 4-wide
        // CmpBranchLocals window, which is worth more than StoreLoadLocal;
        // the lookahead guard must leave it alone.
        let src = "__global__ void k(int* d, int n) { \
                       int v = d[0]; \
                       if (v < n) { d[1] = v; } }";
        let f = compile(src);
        let code = &f.by_name("k").unwrap().code;
        assert!(
            code.iter()
                .any(|i| matches!(i, Instr::CmpBranchLocals(BinKind::Lt, ..))),
            "compare-and-branch must win: {code:?}"
        );
        assert!(
            !code.iter().any(|i| matches!(i, Instr::StoreLoadLocal(_))),
            "store-load must not steal the compare's first load: {code:?}"
        );
    }

    #[test]
    fn store_load_respects_loop_jump_targets() {
        // `for (int i = 0; ...)`: the loop back-edge lands on the reload
        // that begins the condition, so the store-then-reload across the
        // loop header must not fuse.
        let src = "__global__ void k(int* d, int n) { \
                       for (int i = 0; i < n; ++i) { d[i] = i; } }";
        let f = compile(src);
        let code = &f.by_name("k").unwrap().code;
        assert!(
            code.iter()
                .any(|i| matches!(i, Instr::CmpBranchLocals(BinKind::Lt, ..))),
            "loop condition keeps its fusion: {code:?}"
        );
        for instr in code {
            if let Instr::Jump(t)
            | Instr::JumpIfZero(t)
            | Instr::JumpIfNonZero(t)
            | Instr::CmpBranchLocals(.., t) = instr
            {
                assert!((*t as usize) <= code.len());
            }
        }
    }

    #[test]
    fn binary_search_loop_fuses_the_counted_windows() {
        // The shape of the generated `_agg` kernel's parent lookup: the four
        // windows a dynamic count of dispatched slots picked.
        let src = "__global__ void k(int* p, int n) { \
                       int lo = 0; int hi = n; \
                       while (lo < hi) { \
                           int mid = (lo + hi) / 2; \
                           if (p[mid] > threadIdx.x) { hi = mid; } else { lo = mid + 1; } } \
                       p[0] = lo; }";
        let fused = compile(src);
        let unfused = compile_unfused(src);
        let code = &fused.by_name("k").unwrap().code;
        for want in [
            Instr::StoreLocalInt(4),
            Instr::LoadMemAt(0, 4),
            Instr::SetLocal(3),
            Instr::SetLocal(2),
        ] {
            assert!(code.contains(&want), "{want:?} missing: {code:?}");
        }
        assert!(
            code.iter()
                .any(|i| matches!(i, Instr::CmpBranch(BinKind::Gt, _))),
            "a comparison of stack operands fuses with its branch: {code:?}"
        );
        let total: u32 = code.iter().map(|i| i.width()).sum();
        assert_eq!(total as usize, unfused.by_name("k").unwrap().code.len());
        // An arithmetic condition is no comparison: it keeps its `JumpIfZero`.
        let m = compile("__global__ void k(int* d) { if (d[0] + threadIdx.x) { d[1] = 1; } }");
        let code = &m.by_name("k").unwrap().code;
        assert!(!code.iter().any(|i| matches!(i, Instr::CmpBranch(..))));
    }

    #[test]
    fn counted_windows_respect_origin_and_jump_boundaries() {
        use Instr::*;
        let mk = hand_built;
        let windows = [
            (vec![CastInt, StoreLocal(1)], StoreLocalInt(1)),
            (vec![Dup, StoreLocal(1), Pop], SetLocal(1)),
            (
                vec![LoadLocal(0), LoadLocal(1), Bin(BinKind::Add), LoadMem],
                LoadMemAt(0, 1),
            ),
            (
                vec![Bin(BinKind::Ge), JumpIfZero(0)],
                CmpBranch(BinKind::Ge, 0),
            ),
        ];
        for (window, fused) in windows {
            let w = window.len();
            let mut code = window.clone();
            code.push(RetVoid);

            let mut f = mk(code.clone(), vec![CodeOrigin::Original; w + 1]);
            fuse_function(&mut f);
            assert_eq!(f.code, [fused, RetVoid]);
            assert_eq!(f.origins.len(), 2);

            for inside in 1..w {
                // The origin changes inside the window: fusing it would
                // charge one origin for the other's instructions.
                let mut origins = vec![CodeOrigin::Original; w + 1];
                origins[inside..w].fill(CodeOrigin::AggLogic);
                let mut f = mk(code.clone(), origins);
                fuse_function(&mut f);
                assert!(!f.code.contains(&fused), "{fused:?} at {inside}");
                assert_eq!(f.code.iter().map(|i| i.width()).sum::<u32>(), w as u32 + 1);

                // A jump lands inside the window: it must still find the
                // instruction it named.
                let mut jumped = code.clone();
                jumped.push(Jump(inside as u32));
                let mut f = mk(jumped, vec![CodeOrigin::Original; w + 2]);
                fuse_function(&mut f);
                assert!(!f.code.contains(&fused), "{fused:?} at {inside}");
                let Some(Jump(t)) = f.code.last() else {
                    panic!("{:?}", f.code)
                };
                let landed = f.code[*t as usize];
                let first = landed.expansion().map_or(landed, |parts| parts[0]);
                assert_eq!(first, window[inside], "{fused:?} at {inside}");
            }
        }
    }

    #[test]
    fn fuse_module_is_idempotent() {
        let src = "__global__ void k(int* d, int n) { \
                       for (int i = 0; i < n; ++i) { d[i] = d[i] + 1; } }";
        let mut m = compile(src);
        let before: Vec<Instr> = m.by_name("k").unwrap().code.clone();
        fuse_module(&mut m);
        assert_eq!(m.by_name("k").unwrap().code, before);
    }

    #[test]
    fn scopes_shadow_and_expire() {
        // `i` in the loop shadows nothing; using it after the loop fails.
        let e = compile_err(
            "__global__ void k(int* d) { for (int i = 0; i < 4; ++i) { d[i] = i; } d[0] = i; }",
        );
        assert!(e.to_string().contains("unknown identifier `i`"));
    }

    #[test]
    fn duplicate_functions_rejected() {
        let e = compile_err("__device__ int f() { return 1; }\n__device__ int f() { return 2; }");
        assert!(e.to_string().contains("duplicate function"));
    }
}
