//! # dp-pool
//!
//! The process-wide worker-thread substrate: one budget, one pool, shared
//! by every parallel layer in the workspace.
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
//!   nothing waits in its queues. The serve daemon runs an execution on
//!   the thread that admitted it and the VM never sees the pool.
//! - [`Pool::scope`] lets callers borrow stack data into pool jobs (the
//!   `std::thread::scope` shape, minus the per-call spawns). Submissions
//!   from *inside* a pool worker degrade to inline execution instead of
//!   queueing behind themselves, so the pool can never deadlock on nested
//!   parallelism and nested layers stay sequential.
//! - Scheduling is **class-aware** ([`JobClass`]): jobs land in per-worker
//!   deques and idle workers steal across slots, draining every
//!   [`JobClass::Interactive`] queue (fleet drivers) before any
//!   [`JobClass::Bulk`] queue (sweep generations, benches). A bulk job
//!   may call [`checkpoint`] to hand its worker to one waiting interactive
//!   job; no layer does — with every submission claim-gated no job waits,
//!   and `steals` and `yields` read 0 on every measured workload.
//!   [`Pool::stats`] snapshots depths/steals/yields as one [`PoolStats`].
//!
//! ## Checklist for adding a new parallel layer
//!
//! 1. Size your concurrency from the shared budget
//!    ([`jobs::configured_jobs`] or `Pool::shared().threads() + 1`), never
//!    from a fresh env read.
//! 2. Submit work with [`Pool::scope`]/`Pool::run_as` on
//!    [`Pool::shared`] — never `std::thread::spawn`/`std::thread::scope`
//!    (grep-enforced by `crates/pool/tests/no_raw_threads.rs`).
//! 3. Pick the [`JobClass`] deliberately: `Interactive` only for work a
//!    human or a remote daemon is blocked on; everything else is `Bulk`.
//! 4. Have the *caller* participate (run one worker loop itself) and size
//!    helper submissions from [`Pool::available_workers`] — spawns are
//!    claim-gated anyway, so a busy pool means graceful degradation to
//!    sequential execution, not queueing.
//! 5. Keep results deterministic at any worker count: merge in a
//!    canonical order, never in completion order.

pub mod jobs;
pub(crate) mod pool;

pub use pool::{checkpoint, JobClass, Pool, Scope};
