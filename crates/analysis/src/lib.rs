//! # dp-analysis
//!
//! Static analyses supporting the dynamic-parallelism optimization passes:
//!
//! - `facts` — one walk per function body answers every question the
//!   passes ask of it: launches, returns, builtin uses, taken names,
//!   callees and serialization blockers,
//! - `registry` — launch sites,
//! - `transformable` — can a child kernel be serialized? (paper §III-C),
//! - `threads` — desired-thread-count extraction from ceiling-division
//!   grid-dimension expressions (paper §III-D, Fig. 4).
//!
//! All analyses operate on the `dp-frontend` AST and are purely syntactic,
//! matching the paper's source-to-source Clang implementation.

pub(crate) mod facts;
#[cfg(test)]
mod oracle;
pub(crate) mod registry;
pub(crate) mod threads;
pub(crate) mod transformable;

pub use facts::{is_one_dimensional, BodyFacts, ProgramFacts};
pub use registry::{launch_sites, LaunchSite};
pub use threads::extract_thread_count;
pub use transformable::serialization_blockers;
