//! # dp-core
//!
//! The high-level API of the dynamic-parallelism optimization framework:
//!
//! - [`Compiler`] — parse CUDA-subset source, apply the thresholding /
//!   coarsening / aggregation passes (paper Fig. 8a), pretty-print the
//!   transformed source, and lower to executable bytecode;
//! - [`Executor`] — a simulated GPU with the KLAP-runtime analogue that
//!   provisions aggregation buffers and performs grid-granularity
//!   aggregated launches from the host;
//! - [`RunReport`] — the functional trace plus host events, replayable
//!   against a [`TimingParams`] hardware model.
//!
//! ```
//! use dp_core::{Compiler, OptConfig, TimingParams};
//! use dp_vm::Value;
//!
//! let compiled = Compiler::new()
//!     .config(OptConfig::none().threshold(8))
//!     .compile(
//!         "__global__ void c(int* d, int n) { \
//!              int i = blockIdx.x * blockDim.x + threadIdx.x; \
//!              if (i < n) { d[i] = 1; } }\n\
//!          __global__ void p(int* d, int n) { \
//!              if (threadIdx.x == 0) { c<<<(n + 31) / 32, 32>>>(d, n); } }",
//!     )?;
//! let mut exec = compiled.executor();
//! let d = exec.alloc(100);
//! exec.launch("p", 1, 32, &[Value::Int(d), Value::Int(100)])?;
//! exec.sync()?;
//! assert_eq!(exec.read_i64s(d, 100)?, vec![1; 100]);
//! let report = exec.finish();
//! let timing = report.simulate(&TimingParams::default());
//! assert!(timing.total_us > 0.0);
//! # Ok::<(), dp_core::Error>(())
//! ```

pub(crate) mod compiler;
pub(crate) mod error;
pub(crate) mod executor;

pub use compiler::{Compiled, Compiler, SharedCompiled};
pub use dp_sim::{HostEvent, SimResult, TimingParams};
pub use dp_transform::{AggConfig, AggGranularity, OptConfig};
pub use dp_vm::machine::DispatchMode;
pub use error::{Error, Result};
pub use executor::{Executor, RunReport};
