//! # dp-workloads
//!
//! The paper's evaluation workloads: synthetic substitutes for the Table-I
//! datasets ([`datasets`]) and the seven nested-parallelism benchmarks
//! ([`benchmarks`]), each in a CDP and a No-CDP version with a shared host
//! driver and verifier.
//!
//! ```
//! use dp_workloads::benchmarks::{run_variant, Variant, BenchInput};
//! use dp_workloads::benchmarks::bfs::Bfs;
//! use dp_workloads::datasets::graphs::rmat;
//! use dp_core::OptConfig;
//!
//! let input = BenchInput::Graph(rmat(6, 4, 1));
//! let cdp = run_variant(&Bfs, Variant::Cdp(OptConfig::none()), &input).unwrap();
//! let opt = run_variant(&Bfs, Variant::Cdp(OptConfig::all()), &input).unwrap();
//! assert_eq!(cdp.output, opt.output); // optimizations preserve semantics
//! ```

pub mod benchmarks;
pub mod datasets;

pub use benchmarks::{all_benchmarks, BenchInput, BenchOutput, Benchmark};
pub use datasets::{datasets_for, describe, input_kind_for, DatasetId};
