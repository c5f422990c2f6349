//! # dp-pool
//!
//! The process-wide worker-thread substrate: one budget, shared by every
//! parallel layer in the workspace, whose jobs claim a parked worker or
//! run inline.
//!
//! The paper's core move is amortizing launch overhead by aggregating many
//! small child grids into fewer larger ones; this crate is the software
//! analogue applied to our own runtime. Spawning a fresh worker set per
//! sweep generation pays a thread-spawn tax on every small unit of work,
//! so instead every layer draws from a single lazily-initialized,
//! panic-surviving, process-lifetime pool:
//!
//! - [`jobs`] owns the `DPOPT_JOBS` convention and the job count.
//!   Resolution happens **once per process** with the precedence
//!   `--jobs` flag ([`jobs::resolve_jobs`]) > `DPOPT_JOBS` env >
//!   available parallelism.
//! - [`Pool::shared`] is the process-lifetime pool, sized to the resolved
//!   budget minus the caller's own thread. The sweep engine's generation
//!   runner and the shard scheduler's daemon drivers schedule onto it —
//!   both claim-gated ([`Scope::spawn_as`]), so it lends idle workers and
//!   nothing waits in its queue. The serve daemon runs an execution on
//!   the thread that admitted it and the VM never sees the pool.
//! - [`Pool::scope`] lets callers borrow stack data into pool jobs (the
//!   `std::thread::scope` shape, minus the per-call spawns). Submissions
//!   from *inside* a pool worker degrade to inline execution instead of
//!   queueing behind themselves, so the pool can never deadlock on nested
//!   parallelism and nested layers stay sequential.
//! - Every submission is **claim-gated**: a job is queued only after a
//!   parked worker has been promised to it, and otherwise runs inline on
//!   the submitting thread, so no job ever waits behind another and one
//!   FIFO queue is the whole scheduler. [`JobClass`] orders nothing; it
//!   stays in the signatures because `benchmark/` names it (ROADMAP item
//!   2 (f)). [`Pool::stats`] snapshots threads, parked workers and queued
//!   jobs. Serve's `stats.pool` still writes `steals` and `yields` as 0
//!   for the benchmark's reader; the pool has neither.
//!
//! ## Checklist for adding a new parallel layer
//!
//! 1. Size your concurrency from the shared budget
//!    ([`jobs::configured_jobs`] or `Pool::shared().threads() + 1`), never
//!    from a fresh env read.
//! 2. Submit work with [`Pool::scope`] and [`Scope::spawn_as`] on
//!    [`Pool::shared`] — never `std::thread::spawn`/`std::thread::scope`
//!    (grep-enforced by `crates/pool/tests/no_raw_threads.rs`).
//! 3. Have the *caller* participate (run one worker loop itself) and size
//!    helper submissions from [`Pool::available_workers`] — a spawn no
//!    parked worker can take runs inline, so a busy pool means graceful
//!    degradation to sequential execution, not queueing.
//! 4. Keep results deterministic at any worker count: merge in a
//!    canonical order, never in completion order.

pub mod jobs;
pub(crate) mod pool;

pub use pool::{JobClass, Pool, Scope};
