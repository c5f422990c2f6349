//! Abstract syntax tree for the CUDA-C subset.
//!
//! Every expression and statement carries a [`Span`] (pointing into the
//! original source, or [`Span::SYNTH`] for pass-generated code) and a
//! [`CodeOrigin`] tag. Origin tags are how the execution-time breakdown of
//! the paper's Fig. 10 is produced: the VM attributes each executed
//! instruction to the origin of the statement it was lowered from.

pub use crate::name::Name;
use crate::span::Span;
use std::fmt;

/// Which part of the compilation pipeline produced a piece of code.
///
/// `Original` marks user-written code; the other variants mark code
/// synthesized by the optimization passes and are used by the simulator to
/// attribute execution time (paper Fig. 10 categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CodeOrigin {
    /// User-written code.
    #[default]
    Original,
    /// The `if (_threads >= _THRESHOLD)` check inserted by thresholding.
    ThresholdCheck,
    /// The serialized child body executed by the parent thread
    /// (counted as *parent work* in the breakdown).
    ThresholdSerial,
    /// Loop machinery inserted by the coarsening pass.
    CoarsenLoop,
    /// Parent-side aggregation logic (scan, max, arg stores, counters).
    AggLogic,
    /// Child-side disaggregation logic (binary search, config loads).
    DisaggLogic,
}

impl fmt::Display for CodeOrigin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CodeOrigin::Original => "original",
            CodeOrigin::ThresholdCheck => "threshold-check",
            CodeOrigin::ThresholdSerial => "threshold-serial",
            CodeOrigin::CoarsenLoop => "coarsen-loop",
            CodeOrigin::AggLogic => "aggregation",
            CodeOrigin::DisaggLogic => "disaggregation",
        };
        f.write_str(s)
    }
}

/// Scalar and pointer types of the subset.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// `void` (function returns only).
    Void,
    /// `bool`.
    Bool,
    /// `int` (also `signed`, `short`, `char` map here; all 64-bit in the VM).
    Int,
    /// `unsigned int` / `unsigned` / `size_t`.
    UInt,
    /// `long long` / `long`.
    Long,
    /// `unsigned long long`.
    ULong,
    /// `float` (f64 in the VM; precision difference documented).
    Float,
    /// `double`.
    Double,
    /// CUDA `dim3` (three unsigned components, default 1).
    Dim3,
    /// Pointer to another type.
    Ptr(Box<Type>),
}

impl Type {
    /// Whether the type is an integer type (bool counts as integer).
    pub fn is_integer(&self) -> bool {
        matches!(
            self,
            Type::Bool | Type::Int | Type::UInt | Type::Long | Type::ULong
        )
    }

    /// Whether the type is a floating-point type.
    pub fn is_float(&self) -> bool {
        matches!(self, Type::Float | Type::Double)
    }

    /// Creates a pointer to this type.
    pub fn ptr_to(self) -> Type {
        Type::Ptr(Box::new(self))
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => f.write_str("void"),
            Type::Bool => f.write_str("bool"),
            Type::Int => f.write_str("int"),
            Type::UInt => f.write_str("unsigned int"),
            Type::Long => f.write_str("long long"),
            Type::ULong => f.write_str("unsigned long long"),
            Type::Float => f.write_str("float"),
            Type::Double => f.write_str("double"),
            Type::Dim3 => f.write_str("dim3"),
            Type::Ptr(inner) => write!(f, "{inner}*"),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
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
    /// `&&`
    LogAnd,
    /// `||`
    LogOr,
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

impl BinOp {
    /// C source text of the operator.
    pub fn as_str(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::LogAnd => "&&",
            BinOp::LogOr => "||",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `-`
    Neg,
    /// `!`
    Not,
    /// `~`
    BitNot,
    /// `*` (pointer dereference)
    Deref,
    /// `&` (address-of)
    AddrOf,
}

impl UnOp {
    /// C source text of the operator.
    pub fn as_str(&self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
            UnOp::BitNot => "~",
            UnOp::Deref => "*",
            UnOp::AddrOf => "&",
        }
    }
}

/// Compound assignment operators (`=` is `AssignOp::Assign`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignOp {
    /// `=`
    Assign,
    /// `+=`
    Add,
    /// `-=`
    Sub,
    /// `*=`
    Mul,
    /// `/=`
    Div,
    /// `%=`
    Rem,
    /// `&=`
    And,
    /// `|=`
    Or,
    /// `^=`
    Xor,
    /// `<<=`
    Shl,
    /// `>>=`
    Shr,
}

impl AssignOp {
    /// C source text of the operator.
    pub fn as_str(&self) -> &'static str {
        match self {
            AssignOp::Assign => "=",
            AssignOp::Add => "+=",
            AssignOp::Sub => "-=",
            AssignOp::Mul => "*=",
            AssignOp::Div => "/=",
            AssignOp::Rem => "%=",
            AssignOp::And => "&=",
            AssignOp::Or => "|=",
            AssignOp::Xor => "^=",
            AssignOp::Shl => "<<=",
            AssignOp::Shr => ">>=",
        }
    }

    /// The binary operator a compound assignment applies, if any.
    pub fn bin_op(&self) -> Option<BinOp> {
        match self {
            AssignOp::Assign => None,
            AssignOp::Add => Some(BinOp::Add),
            AssignOp::Sub => Some(BinOp::Sub),
            AssignOp::Mul => Some(BinOp::Mul),
            AssignOp::Div => Some(BinOp::Div),
            AssignOp::Rem => Some(BinOp::Rem),
            AssignOp::And => Some(BinOp::BitAnd),
            AssignOp::Or => Some(BinOp::BitOr),
            AssignOp::Xor => Some(BinOp::BitXor),
            AssignOp::Shl => Some(BinOp::Shl),
            AssignOp::Shr => Some(BinOp::Shr),
        }
    }
}

/// An expression with span and origin metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// The expression payload.
    pub kind: ExprKind,
    /// Source location (synthetic for generated code).
    pub span: Span,
    /// Which pipeline stage produced this expression.
    pub origin: CodeOrigin,
}

// An expression stays 64 bytes: a name stored inline must not grow it.
const _: () = assert!(std::mem::size_of::<Expr>() == 64);

impl Expr {
    /// Creates an expression with the given span and `Original` origin.
    pub fn new(kind: ExprKind, span: Span) -> Expr {
        Expr {
            kind,
            span,
            origin: CodeOrigin::Original,
        }
    }

    /// Creates a synthetic expression tagged with `origin`.
    pub fn synth(kind: ExprKind, origin: CodeOrigin) -> Expr {
        Expr {
            kind,
            span: Span::SYNTH,
            origin,
        }
    }

    /// Shorthand for a synthetic identifier expression.
    pub fn ident(name: impl Into<Name>, origin: CodeOrigin) -> Expr {
        Expr::synth(ExprKind::Ident(name.into()), origin)
    }

    /// Shorthand for a synthetic integer literal.
    pub fn int(value: i64, origin: CodeOrigin) -> Expr {
        Expr::synth(ExprKind::IntLit(value), origin)
    }

    /// Shorthand for a synthetic binary expression.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr, origin: CodeOrigin) -> Expr {
        Expr::synth(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), origin)
    }

    /// Shorthand for a synthetic `base.field` member access.
    pub fn member(base: Expr, field: impl Into<Name>, origin: CodeOrigin) -> Expr {
        Expr::synth(ExprKind::Member(Box::new(base), field.into()), origin)
    }

    /// Shorthand for a synthetic call expression.
    pub fn call(name: impl Into<Name>, args: Vec<Expr>, origin: CodeOrigin) -> Expr {
        Expr::synth(ExprKind::Call(name.into(), args), origin)
    }

    /// Shorthand for a synthetic `base[index]` expression.
    pub fn index(base: Expr, index: Expr, origin: CodeOrigin) -> Expr {
        Expr::synth(ExprKind::Index(Box::new(base), Box::new(index)), origin)
    }
}

/// Expression payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// Float literal.
    FloatLit(f64),
    /// `true` / `false`.
    BoolLit(bool),
    /// Variable or builtin reference (`threadIdx` etc. are plain idents).
    Ident(Name),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Prefix unary operation.
    Unary(UnOp, Box<Expr>),
    /// `++x` / `x++` / `--x` / `x--`; `inc` selects ++ vs --.
    IncDec {
        /// `true` for `++`, `false` for `--`.
        inc: bool,
        /// `true` for prefix form.
        prefix: bool,
        /// The lvalue operand.
        operand: Box<Expr>,
    },
    /// Assignment (simple or compound); lhs must be an lvalue.
    Assign(AssignOp, Box<Expr>, Box<Expr>),
    /// `cond ? a : b`.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Direct call `f(args)`; builtins are resolved by name downstream.
    Call(Name, Vec<Expr>),
    /// `base[index]`.
    Index(Box<Expr>, Box<Expr>),
    /// `base.field` (dim3 components).
    Member(Box<Expr>, Name),
    /// `(type) expr`.
    Cast(Type, Box<Expr>),
    /// `dim3(x)`, `dim3(x, y)`, `dim3(x, y, z)`.
    Dim3Ctor(Vec<Expr>),
}

impl ExprKind {
    /// Returns the identifier name if this is a plain identifier.
    pub fn as_ident(&self) -> Option<&str> {
        match self {
            ExprKind::Ident(name) => Some(name),
            _ => None,
        }
    }
}

/// A single declared variable within a declaration statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Declarator {
    /// Variable name.
    pub name: Name,
    /// `Some(len)` for array declarations `T name[len]` (only allowed with
    /// `__shared__` or constant length local arrays).
    pub array_len: Option<Expr>,
    /// Optional initializer.
    pub init: Option<Expr>,
}

/// A declaration statement, e.g. `const int a = 1, b = 2;`.
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    /// Declared base type (pointer layers live in the type itself).
    pub ty: Type,
    /// `__shared__` qualifier.
    pub shared: bool,
    /// `const` qualifier (informational; the subset does not enforce it).
    pub is_const: bool,
    /// One or more declared names.
    pub declarators: Vec<Declarator>,
}

/// A statement with span and origin metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// The statement payload.
    pub kind: StmtKind,
    /// Source location (synthetic for generated code).
    pub span: Span,
    /// Which pipeline stage produced this statement.
    pub origin: CodeOrigin,
}

impl Stmt {
    /// Creates a statement with the given span and `Original` origin.
    pub fn new(kind: StmtKind, span: Span) -> Stmt {
        Stmt {
            kind,
            span,
            origin: CodeOrigin::Original,
        }
    }

    /// Creates a synthetic statement tagged with `origin`.
    pub fn synth(kind: StmtKind, origin: CodeOrigin) -> Stmt {
        Stmt {
            kind,
            span: Span::SYNTH,
            origin,
        }
    }

    /// Shorthand for a synthetic expression statement.
    pub fn expr(expr: Expr, origin: CodeOrigin) -> Stmt {
        Stmt::synth(StmtKind::Expr(expr), origin)
    }

    /// Shorthand for a synthetic single-declarator declaration.
    pub fn decl(ty: Type, name: impl Into<Name>, init: Option<Expr>, origin: CodeOrigin) -> Stmt {
        Stmt::synth(
            StmtKind::Decl(VarDecl {
                ty,
                shared: false,
                is_const: false,
                declarators: vec![Declarator {
                    name: name.into(),
                    array_len: None,
                    init,
                }],
            }),
            origin,
        )
    }
}

/// Statement payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// Variable declaration.
    Decl(VarDecl),
    /// Expression evaluated for side effects.
    Expr(Expr),
    /// `if (cond) then else els`.
    If {
        /// Branch condition.
        cond: Expr,
        /// Taken when `cond` is non-zero.
        then_branch: Box<Stmt>,
        /// Taken otherwise, if present.
        else_branch: Option<Box<Stmt>>,
    },
    /// `for (init; cond; step) body`.
    For {
        /// Declaration or expression statement, if present.
        init: Option<Box<Stmt>>,
        /// Loop condition (absent means `true`).
        cond: Option<Expr>,
        /// Step expression.
        step: Option<Expr>,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `while (cond) body`.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `do body while (cond);`.
    DoWhile {
        /// Loop body.
        body: Box<Stmt>,
        /// Loop condition.
        cond: Expr,
    },
    /// `return expr?;`.
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `{ ... }`
    Block(Vec<Stmt>),
    /// Kernel launch `kernel<<<grid, block[, shmem[, stream]]>>>(args);`.
    Launch(LaunchStmt),
    /// `;`
    Empty,
}

/// A dynamic (or host-side) kernel launch statement.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchStmt {
    /// Name of the launched kernel.
    pub kernel: Name,
    /// Grid dimension expression (int or dim3).
    pub grid: Expr,
    /// Block dimension expression (int or dim3).
    pub block: Expr,
    /// Optional dynamic shared memory size (parsed, not modelled).
    pub shmem: Option<Expr>,
    /// Optional stream argument (parsed, not modelled; per-thread default
    /// streams are assumed as in the paper's methodology).
    pub stream: Option<Expr>,
    /// Kernel arguments.
    pub args: Vec<Expr>,
}

/// Function qualifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FnQual {
    /// `__global__` — a kernel.
    Global,
    /// `__device__` — device-side function.
    Device,
    /// `__host__` or unqualified — host-side function.
    Host,
}

impl fmt::Display for FnQual {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FnQual::Global => f.write_str("__global__"),
            FnQual::Device => f.write_str("__device__"),
            FnQual::Host => f.write_str("__host__"),
        }
    }
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter type.
    pub ty: Type,
    /// Parameter name.
    pub name: Name,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Kernel/device/host qualifier.
    pub qual: FnQual,
    /// Return type.
    pub ret: Type,
    /// Function name.
    pub name: Name,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Body statements (the subset requires definitions, not declarations).
    pub body: Vec<Stmt>,
    /// Source span of the whole definition.
    pub span: Span,
}

impl Function {
    /// Whether this is a `__global__` kernel.
    pub fn is_kernel(&self) -> bool {
        self.qual == FnQual::Global
    }
}

/// Top-level program items.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A function definition.
    Function(Function),
    /// A `#define NAME <integer>` object macro (understood, re-printed).
    Define {
        /// Macro name.
        name: Name,
        /// Integer value.
        value: i64,
    },
    /// Any other preprocessor line, preserved verbatim.
    Directive(String),
}

/// A parsed translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Items in source order.
    pub items: Vec<Item>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Iterates over the function definitions.
    pub fn functions(&self) -> impl Iterator<Item = &Function> {
        self.items.iter().filter_map(|item| match item {
            Item::Function(f) => Some(f),
            _ => None,
        })
    }

    /// Iterates mutably over the function definitions.
    pub fn functions_mut(&mut self) -> impl Iterator<Item = &mut Function> {
        self.items.iter_mut().filter_map(|item| match item {
            Item::Function(f) => Some(f),
            _ => None,
        })
    }

    /// Finds a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions().find(|f| f.name == name)
    }

    /// Finds a function by name, mutably.
    pub fn function_mut(&mut self, name: &str) -> Option<&mut Function> {
        self.functions_mut().find(|f| f.name == name)
    }

    /// Looks up a `#define` integer macro value.
    pub fn define(&self, name: &str) -> Option<i64> {
        self.items.iter().find_map(|item| match item {
            Item::Define { name: n, value } if n == name => Some(*value),
            _ => None,
        })
    }

    /// Inserts or replaces a `#define NAME value` at the top of the program.
    pub fn set_define(&mut self, name: &str, value: i64) {
        for item in &mut self.items {
            if let Item::Define { name: n, value: v } = item {
                if n == name {
                    *v = value;
                    return;
                }
            }
        }
        self.items.insert(
            0,
            Item::Define {
                name: name.into(),
                value,
            },
        );
    }
}

/// The reserved builtin index/dimension variable names.
pub const BUILTIN_DIM_VARS: [&str; 4] = ["threadIdx", "blockIdx", "blockDim", "gridDim"];

/// Names treated as barrier/warp-synchronization intrinsics when deciding
/// transformability (paper Section III-C).
pub const SYNC_INTRINSICS: [&str; 8] = [
    "__syncthreads",
    "__syncwarp",
    "__shfl_sync",
    "__shfl_up_sync",
    "__shfl_down_sync",
    "__shfl_xor_sync",
    "__ballot_sync",
    "__activemask",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_predicates() {
        assert!(Type::Int.is_integer());
        assert!(Type::UInt.is_integer());
        assert!(!Type::Float.is_integer());
        assert!(Type::Double.is_float());
        assert!(!Type::Dim3.is_float());
        assert_eq!(Type::Int.ptr_to(), Type::Ptr(Box::new(Type::Int)));
    }

    #[test]
    fn type_display() {
        assert_eq!(Type::Ptr(Box::new(Type::Float)).to_string(), "float*");
        assert_eq!(
            Type::Ptr(Box::new(Type::Ptr(Box::new(Type::Int)))).to_string(),
            "int**"
        );
        assert_eq!(Type::ULong.to_string(), "unsigned long long");
    }

    #[test]
    fn assign_op_decomposition() {
        assert_eq!(AssignOp::Assign.bin_op(), None);
        assert_eq!(AssignOp::Add.bin_op(), Some(BinOp::Add));
        assert_eq!(AssignOp::Shr.bin_op(), Some(BinOp::Shr));
    }

    #[test]
    fn expr_builders_are_synthetic() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::ident("a", CodeOrigin::AggLogic),
            Expr::int(1, CodeOrigin::AggLogic),
            CodeOrigin::AggLogic,
        );
        assert!(e.span.is_synthetic());
        assert_eq!(e.origin, CodeOrigin::AggLogic);
    }

    #[test]
    fn program_function_lookup() {
        let mut p = Program::new();
        p.items.push(Item::Function(Function {
            qual: FnQual::Global,
            ret: Type::Void,
            name: "k".into(),
            params: vec![],
            body: vec![],
            span: Span::SYNTH,
        }));
        assert!(p.function("k").is_some());
        assert!(p.function("k").unwrap().is_kernel());
        assert!(p.function("missing").is_none());
        assert_eq!(p.functions().count(), 1);
    }

    #[test]
    fn program_defines() {
        let mut p = Program::new();
        assert_eq!(p.define("_THRESHOLD"), None);
        p.set_define("_THRESHOLD", 128);
        assert_eq!(p.define("_THRESHOLD"), Some(128));
        p.set_define("_THRESHOLD", 256);
        assert_eq!(p.define("_THRESHOLD"), Some(256));
        // Replacement did not duplicate.
        let count = p
            .items
            .iter()
            .filter(|i| matches!(i, Item::Define { .. }))
            .count();
        assert_eq!(count, 1);
    }

    #[test]
    fn origin_display_names() {
        assert_eq!(CodeOrigin::Original.to_string(), "original");
        assert_eq!(CodeOrigin::DisaggLogic.to_string(), "disaggregation");
    }
}
