//! # dp-pool
//!
//! The process-wide worker budget every parallel layer draws from. As the
//! paper's thresholding launches a child grid only when the launch pays
//! and otherwise runs the work in the parent, a job here gets a thread of
//! its own only while a token is free, and otherwise runs inline.
//!
//! [`jobs`] resolves the job count once per process; [`Pool::shared`]
//! holds it minus one as tokens (the caller's own thread is the one more).
//! [`Pool::scope`] is the `std::thread::scope` shape: jobs borrow stack
//! data, none outlives the call, every token is free again when it
//! returns, and a job's panic is re-raised there. A pool thread takes no
//! token, so nested submissions run inline. Nothing waits for a token, so
//! there is no queue and [`JobClass`] orders nothing (`benchmark/` names
//! it; ROADMAP item 2 (f)).
//!
//! ## Checklist for adding a new parallel layer
//!
//! 1. Size concurrency from [`jobs::configured_jobs`], never a fresh env
//!    read.
//! 2. Submit with [`Scope::spawn_as`] on [`Pool::shared`], never
//!    `std::thread::spawn`/`scope` (`tests/no_raw_threads.rs`).
//! 3. Run one loop on the caller and size helpers from
//!    [`Pool::idle_workers`]: a spawn that finds no token runs inline.
//! 4. Merge results in a canonical order, never in completion order.

pub mod jobs;
pub(crate) mod pool;

pub use pool::{JobClass, Pool, Scope};
