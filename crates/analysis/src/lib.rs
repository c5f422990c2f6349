//! # dp-analysis
//!
//! Static analyses supporting the dynamic-parallelism optimization passes:
//!
//! - `registry` — kernels, launch sites, and the device call graph,
//! - `transformable` — can a child kernel be serialized? (paper §III-C),
//! - `threads` — desired-thread-count extraction from ceiling-division
//!   grid-dimension expressions (paper §III-D, Fig. 4).
//!
//! All analyses operate on the `dp-frontend` AST and are purely syntactic,
//! matching the paper's source-to-source Clang implementation.

pub(crate) mod registry;
pub(crate) mod threads;
pub(crate) mod transformable;

pub use registry::{launch_sites, LaunchSite};
pub use threads::extract_thread_count;
pub use transformable::serialization_blockers;
