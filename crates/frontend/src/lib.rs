//! # dp-frontend
//!
//! Frontend for the CUDA-C subset used by the dynamic-parallelism
//! optimization framework (a Rust reproduction of *"A Compiler Framework for
//! Optimizing Dynamic Parallelism on GPUs"*, CGO 2022).
//!
//! The crate provides:
//!
//! - [`lexer::lex`] — hand-written lexer producing `token::Token`s that
//!   borrow the source text (an identifier is a slice of it, never a copy),
//! - [`parser::parse`] — recursive-descent parser producing an
//!   [`ast::Program`]; the AST owns its names, so it outlives the source,
//! - [`Name`] — the identifier every node, analysis and pass holds: a name
//!   of up to 22 bytes is stored inline, so parsing a program or making a
//!   fresh name does not allocate a string per identifier, and it hashes,
//!   compares and prints exactly as its `str` does,
//! - [`printer::print_program`] — pretty-printer back to `.cu`-subset text,
//!   written into one `String`,
//! - [`visit`] — AST walkers shared by the analyses and passes.
//!
//! Together these make each optimization a *source-to-source* stage exactly
//! like the paper's Clang passes: `.cu` text in, `.cu` text out, composable
//! in any order (paper Section VI).
//!
//! ## Example
//!
//! ```
//! use dp_frontend::{parser::parse, printer::print_program};
//!
//! let source = "__global__ void child(int* data, int n) { \
//!                   int i = blockIdx.x * blockDim.x + threadIdx.x; \
//!                   if (i < n) { data[i] = i; } }";
//! let program = parse(source)?;
//! let kernel = program.function("child").unwrap();
//! assert!(kernel.is_kernel());
//! let printed = print_program(&program);
//! assert!(printed.contains("__global__"));
//! # Ok::<(), dp_frontend::ParseError>(())
//! ```

pub mod ast;
pub(crate) mod error;
pub mod lexer;
pub(crate) mod name;
pub mod parser;
pub mod printer;
pub mod span;
pub(crate) mod token;
pub mod visit;

pub use ast::{Expr, Stmt};
pub use error::ParseError;
pub use name::Name;
pub use parser::parse;
pub use printer::print_program;
pub use span::Span;
