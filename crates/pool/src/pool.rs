//! The persistent worker pool: per-worker deques, work stealing, and two
//! scheduling classes.
//!
//! [`Pool::shared`] is the process-lifetime instance every parallel layer
//! in the workspace schedules onto (sweep generations, shard daemon
//! drivers); it owns the whole `DPOPT_JOBS` budget for
//! the life of the process, so there is nothing left to reserve. A
//! dedicated pool ([`Pool::new`]) remains available for a layer that
//! genuinely needs its own workers — its threads *also* mark themselves as
//! pool workers, so nesting detection spans every pool in the process.
//!
//! Scheduling is class-aware. Every submission carries a [`JobClass`]:
//! [`JobClass::Interactive`] for latency-sensitive work (fleet drivers)
//! and [`JobClass::Bulk`] for throughput work (sweep generations,
//! benches). Jobs land in per-worker deque slots via a
//! round-robin cursor; a worker pops its own slot from the front and
//! *steals* from the back of every other slot, always draining every
//! interactive queue in the pool before touching any bulk queue. A
//! long-running bulk job can additionally call [`checkpoint`] at natural
//! boundaries to run one waiting interactive job inline — cooperative
//! yielding for the worst case where every worker is pinned under bulk
//! work. [`Pool::stats`] snapshots the whole scheduler (per-class depths,
//! steals, yields) for dp-obs and serve's `stats` op.
//!
//! Three properties keep the substrate safe to share:
//!
//! - **Panic survival.** A panicking job is caught on the worker; the
//!   thread lives on to serve the next job, and [`Pool::run_as`]/[`Scope`]
//!   surface the payload to the submitter.
//! - **Nested submission degrades inline.** Work submitted *from* a pool
//!   worker (any pool) runs inline on that worker instead of queueing —
//!   the pool can never deadlock on itself, and nested parallel layers
//!   become sequential exactly like the old budget-exhaustion path.
//! - **Zero-worker pools degrade inline.** `DPOPT_JOBS=1` yields a shared
//!   pool with no workers; everything runs on the submitting thread.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

use dp_obs::metrics::{Counter, Histogram};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Time from queue send to worker dequeue — the backlog signal.
static QUEUE_WAIT_US: Histogram = Histogram::new("pool.queue_wait_us");
/// Wall time of the job body itself (queued and inline alike).
static JOB_RUN_US: Histogram = Histogram::new("pool.job_run_us");
static JOBS_QUEUED: Counter = Counter::new("pool.jobs.queued");
static JOBS_INLINE: Counter = Counter::new("pool.jobs.inline");
/// Jobs a worker popped from another worker's slot.
static STEALS: Counter = Counter::new("pool.steals");
/// Interactive jobs run inside a bulk job's [`checkpoint`].
static YIELDS: Counter = Counter::new("pool.yields");

/// Scheduling class of a submitted job.
///
/// Workers drain every [`Interactive`](JobClass::Interactive) queue in the
/// pool before touching any [`Bulk`](JobClass::Bulk) queue, so interactive
/// work is never queued behind bulk backlog — at worst it waits for one
/// in-flight job per worker (and [`checkpoint`] shortens even that).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobClass {
    /// Latency-sensitive work: fleet drivers. Dequeued
    /// and stolen before any bulk job anywhere in the pool.
    Interactive,
    /// Throughput work: sweep generations, benches.
    Bulk,
}

impl JobClass {
    /// Number of classes — the per-slot deque array is indexed by class.
    const COUNT: usize = 2;

    fn idx(self) -> usize {
        match self {
            JobClass::Interactive => 0,
            JobClass::Bulk => 1,
        }
    }
}

/// Runs a job inline on the submitting thread with the same observability
/// envelope a queued job gets on a worker: a `pool.job` span (parented to
/// the caller's current span) and a run-time sample. Keeping the envelope
/// identical is what makes trace trees connected at any worker count —
/// on a one-CPU host the shared pool has zero workers and *every* job
/// takes this path.
#[inline]
fn observe_inline<T>(f: impl FnOnce() -> T) -> T {
    JOBS_INLINE.incr();
    let _span = dp_obs::trace::span_with("pool.job", &[("inline", "1")]);
    let run = dp_obs::metrics::now();
    let out = f();
    JOB_RUN_US.record_since(run);
    out
}

thread_local! {
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Which pool this worker thread belongs to, and its slot index —
    /// what [`checkpoint`] needs to pull a waiting interactive job.
    static WORKER_CTX: RefCell<Option<WorkerCtx>> = const { RefCell::new(None) };
    /// Guard against a yielded job itself yielding (unbounded recursion).
    static IN_CHECKPOINT: Cell<bool> = const { Cell::new(false) };
}

struct WorkerCtx {
    shared: Arc<Shared>,
    slot: usize,
}

/// Whether the current thread is a pool worker (of *any* pool in the
/// process). Parallel layers use this to stay sequential when they are
/// already running inside the substrate.
pub fn is_worker_thread() -> bool {
    IS_POOL_WORKER.with(Cell::get)
}

/// Cooperative yield point for long-running bulk jobs: if the calling
/// thread is a pool worker and an interactive job is waiting anywhere in
/// its pool, runs exactly one such job inline and returns `true`.
/// Otherwise (not a worker, no interactive backlog, or already inside a
/// yielded job) this is a cheap no-op returning `false` — a relaxed
/// counter load in the common case, safe to call every loop iteration.
///
/// A panic in the yielded job is caught here: it cannot unwind into the
/// host bulk job (the yielded job's own submitter still observes the
/// payload through its `run_as`/`run_now_as` result channel).
pub fn checkpoint() -> bool {
    WORKER_CTX.with(|slot| {
        let borrow = slot.borrow();
        let Some(ctx) = borrow.as_ref() else {
            return false;
        };
        if ctx.shared.queued[JobClass::Interactive.idx()].load(Ordering::Relaxed) == 0 {
            return false;
        }
        if IN_CHECKPOINT.with(Cell::get) {
            return false;
        }
        let Some(job) = ctx.shared.pop_class(ctx.slot, JobClass::Interactive, false) else {
            return false;
        };
        ctx.shared.yields.fetch_add(1, Ordering::SeqCst);
        YIELDS.incr();
        IN_CHECKPOINT.with(|flag| flag.set(true));
        let _ = catch_unwind(AssertUnwindSafe(job));
        IN_CHECKPOINT.with(|flag| flag.set(false));
        true
    })
}

/// One worker's pair of job deques, one per [`JobClass`]. External
/// submitters push to the back of a round-robin-chosen slot; the owning
/// worker pops from the front; every other worker steals from the back.
struct Slot {
    queues: Mutex<[VecDeque<Job>; JobClass::COUNT]>,
}

impl Slot {
    fn new() -> Self {
        Slot {
            queues: Mutex::new([VecDeque::new(), VecDeque::new()]),
        }
    }
}

/// Scheduler state shared by the pool handle and every worker thread.
struct Shared {
    slots: Vec<Slot>,
    /// Jobs pushed but not yet popped, per class — the source of truth for
    /// [`Pool::stats`] and the cheap "anything interactive waiting?"
    /// probe in [`checkpoint`]. Incremented *before* the slot insert and
    /// decremented *after* the slot removal, so a non-zero count is always
    /// visible by the time a job is findable (workers may transiently
    /// re-scan, but never park while a push is in flight).
    queued: [AtomicUsize; JobClass::COUNT],
    /// Jobs popped from a slot other than the popping worker's own.
    steals: AtomicU64,
    /// Interactive jobs run inside a bulk job's [`checkpoint`].
    yields: AtomicU64,
    /// Workers currently parked waiting for work.
    idle: AtomicUsize,
    /// Idle workers already promised to a queued job ([`Shared::try_claim`]).
    claimed: AtomicUsize,
    /// Round-robin push cursor across slots.
    next_slot: AtomicUsize,
    shutdown: AtomicBool,
    /// Parking lot. Push bumps the queued count, then takes this lock to
    /// notify; a worker only parks after re-checking the counts *under*
    /// the lock — so a wakeup can never be lost between the final scan
    /// and the wait.
    sleep: Mutex<()>,
    wake: Condvar,
}

impl Shared {
    fn total_queued(&self) -> usize {
        self.queued.iter().map(|q| q.load(Ordering::SeqCst)).sum()
    }

    fn push(&self, class: JobClass, job: Job) {
        debug_assert!(!self.slots.is_empty(), "push on a zero-worker pool");
        self.queued[class.idx()].fetch_add(1, Ordering::SeqCst);
        let target = self.next_slot.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        self.slots[target].queues.lock().unwrap()[class.idx()].push_back(job);
        let _lot = self.sleep.lock().unwrap();
        self.wake.notify_one();
    }

    /// Pops one job of `class`: the front of `me`'s own deque first, then
    /// a steal from the back of every other slot. `record_steals` is off
    /// for [`checkpoint`] pops (a yield is counted separately, not as a
    /// steal).
    fn pop_class(&self, me: usize, class: JobClass, record_steals: bool) -> Option<Job> {
        let n = self.slots.len();
        for offset in 0..n {
            let i = (me + offset) % n;
            let job = {
                let mut queues = self.slots[i].queues.lock().unwrap();
                if offset == 0 {
                    queues[class.idx()].pop_front()
                } else {
                    queues[class.idx()].pop_back()
                }
            };
            if let Some(job) = job {
                self.queued[class.idx()].fetch_sub(1, Ordering::SeqCst);
                if offset != 0 && record_steals {
                    self.steals.fetch_add(1, Ordering::SeqCst);
                    STEALS.incr();
                }
                return Some(job);
            }
        }
        None
    }

    /// The scheduling policy in one line: every interactive queue in the
    /// pool drains before any bulk queue is touched.
    fn find_job(&self, me: usize) -> Option<Job> {
        self.pop_class(me, JobClass::Interactive, true)
            .or_else(|| self.pop_class(me, JobClass::Bulk, true))
    }

    /// Atomically promises one currently-idle worker to a job about to be
    /// queued; the claim is consumed when the job is dequeued. `false`
    /// means every idle worker is already spoken for — the caller should
    /// run inline instead of queueing (a queued job with no claim could
    /// sit behind an unrelated long-running job, stalling whoever joins
    /// on it).
    fn try_claim(&self) -> bool {
        let mut c = self.claimed.load(Ordering::SeqCst);
        loop {
            if c >= self.idle.load(Ordering::SeqCst) {
                return false;
            }
            match self
                .claimed
                .compare_exchange(c, c + 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return true,
                Err(observed) => c = observed,
            }
        }
    }
}

fn worker_loop(shared: Arc<Shared>, me: usize) {
    IS_POOL_WORKER.with(|flag| flag.set(true));
    WORKER_CTX.with(|ctx| {
        *ctx.borrow_mut() = Some(WorkerCtx {
            shared: Arc::clone(&shared),
            slot: me,
        });
    });
    loop {
        if let Some(job) = shared.find_job(me) {
            // A panicking job must not take the worker down with it — the
            // panic is surfaced to the submitter by `run`/`Scope`, and
            // this thread lives on for the next job.
            let _ = catch_unwind(AssertUnwindSafe(job));
            continue;
        }
        let lot = shared.sleep.lock().unwrap();
        // Re-check under the lock: a push that raced our scan has already
        // bumped the count (it bumps before inserting), so we spin back to
        // the scan instead of parking past its notify.
        if shared.total_queued() > 0 {
            drop(lot);
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        shared.idle.fetch_add(1, Ordering::SeqCst);
        let lot = shared.wake.wait(lot).unwrap();
        shared.idle.fetch_sub(1, Ordering::SeqCst);
        drop(lot);
    }
}

/// A point-in-time snapshot of the scheduler, from [`Pool::stats`]. All
/// fields are racy reads — consistent enough for dashboards and admission
/// control, not for synchronization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Worker thread count (the shared pool's can legitimately be zero).
    pub threads: usize,
    /// Workers currently parked waiting for work.
    pub idle: usize,
    /// Idle workers not yet promised to a claim-gated job.
    pub available: usize,
    /// Interactive jobs pushed but not yet popped.
    pub queued_interactive: usize,
    /// Bulk jobs pushed but not yet popped.
    pub queued_bulk: usize,
    /// Lifetime count of jobs a worker popped from another worker's slot.
    pub steals: u64,
    /// Lifetime count of interactive jobs run inside a [`checkpoint`].
    pub yields: u64,
}

impl PoolStats {
    /// Total queued jobs across classes.
    pub fn queued_total(&self) -> usize {
        self.queued_interactive + self.queued_bulk
    }
}

/// A fixed-size pool of worker threads fed by per-worker stealing deques.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// A pool of exactly `threads` workers (min 1), without touching the
    /// shared budget. Prefer [`Pool::shared`] — a dedicated pool is extra
    /// parallelism on top of whatever the shared pool is doing.
    pub fn new(threads: usize) -> Self {
        Pool::build(threads.max(1))
    }

    /// The process-lifetime shared pool. Lazily initialized on first use;
    /// sized to the resolved job count (see [`crate::jobs::resolve_jobs`]
    /// for the precedence) minus one — the budget counts threads *beyond*
    /// the submitting caller's own, and [`Pool::scope`] callers are
    /// expected to run one worker loop themselves. This pool *is* the
    /// budget.
    pub fn shared() -> &'static Pool {
        static SHARED: OnceLock<Pool> = OnceLock::new();
        SHARED.get_or_init(|| Pool::build(crate::jobs::configured_jobs() - 1))
    }

    fn build(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            slots: (0..threads).map(|_| Slot::new()).collect(),
            queued: [AtomicUsize::new(0), AtomicUsize::new(0)],
            steals: AtomicU64::new(0),
            yields: AtomicU64::new(0),
            idle: AtomicUsize::new(0),
            claimed: AtomicUsize::new(0),
            next_slot: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dp-pool-worker-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, workers }
    }

    /// Pushes a job to the scheduler, keeping the queued counts exact (the
    /// count covers the window from push until a worker pops the job) and
    /// wrapping the job in the standard observability envelope. Every
    /// queued job in the pool goes through here.
    fn enqueue(&self, class: JobClass, job: Job) {
        JOBS_QUEUED.incr();
        // Capture the submitter's span context here, enter it on the
        // worker: the job's `pool.job` span parents to whatever was
        // current at submission (a serve request, a sweep generation).
        let ctx = dp_obs::trace::current_ctx();
        let sent = dp_obs::metrics::now();
        self.shared.push(
            class,
            Box::new(move || {
                QUEUE_WAIT_US.record_since(sent);
                let _ctx = ctx.enter();
                let _span = dp_obs::trace::span("pool.job");
                let run = dp_obs::metrics::now();
                job();
                JOB_RUN_US.record_since(run);
            }),
        );
    }

    /// Worker count. The shared pool's count is the resolved job count
    /// minus one (the submitting thread is the remaining worker), so it
    /// can legitimately be zero.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Workers currently parked waiting for a job — a racy lower bound.
    pub fn idle_workers(&self) -> usize {
        self.shared.idle.load(Ordering::SeqCst)
    }

    /// Idle workers not yet promised to a queued claim-gated job — the
    /// number parallel layers should size helper submissions from: a
    /// layer that sees zero available workers should run sequentially
    /// rather than queue behind someone else's work. Racy in the benign
    /// direction only (a claim can still fail at spawn time, which
    /// degrades that helper inline).
    pub fn available_workers(&self) -> usize {
        self.shared
            .idle
            .load(Ordering::SeqCst)
            .saturating_sub(self.shared.claimed.load(Ordering::SeqCst))
    }

    /// One coherent snapshot of the scheduler for dashboards and the serve
    /// `stats` op: per-class queue depths, steal and yield totals, worker
    /// availability. Replaces reaching for the individual getters when
    /// more than one value is wanted.
    pub fn stats(&self) -> PoolStats {
        let s = &self.shared;
        let idle = s.idle.load(Ordering::SeqCst);
        let claimed = s.claimed.load(Ordering::SeqCst);
        PoolStats {
            threads: self.workers.len(),
            idle,
            available: idle.saturating_sub(claimed),
            queued_interactive: s.queued[JobClass::Interactive.idx()].load(Ordering::SeqCst),
            queued_bulk: s.queued[JobClass::Bulk.idx()].load(Ordering::SeqCst),
            steals: s.steals.load(Ordering::SeqCst),
            yields: s.yields.load(Ordering::SeqCst),
        }
    }

    /// Enqueues a fire-and-forget job under `class`. Runs the job inline
    /// when the pool has no workers or the caller *is* a pool worker
    /// (nested submission must not queue behind itself).
    pub fn submit_as(&self, class: JobClass, job: impl FnOnce() + Send + 'static) {
        if self.workers.is_empty() || is_worker_thread() {
            let _ = catch_unwind(AssertUnwindSafe(|| observe_inline(job)));
            return;
        }
        self.enqueue(class, Box::new(job));
    }

    /// Runs `f` on a pool worker under `class` and blocks for its result —
    /// inline on the calling thread when the pool has no workers or the
    /// caller is itself a pool worker (nesting degrades instead of
    /// deadlocking). A panicking job yields `Err` with the panic payload
    /// (the worker survives).
    pub fn run_as<T: Send + 'static>(
        &self,
        class: JobClass,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> std::thread::Result<T> {
        if self.workers.is_empty() || is_worker_thread() {
            return catch_unwind(AssertUnwindSafe(|| observe_inline(f)));
        }
        let (tx, rx) = sync_channel(1);
        self.enqueue(
            class,
            Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(f));
                let _ = tx.send(result);
            }),
        );
        rx.recv().expect("pool worker delivered a result")
    }

    /// Like [`Pool::run_as`], but never queues behind busy workers: the
    /// job runs on a *claimed* idle worker, or inline on the calling
    /// thread when none is free. For callers whose own thread is a
    /// legitimate execution vehicle, where "wait in the queue" is strictly
    /// worse than "do it yourself". No layer calls it since the serve
    /// daemon stopped hopping each execution onto a worker with its caller
    /// blocked on the result; `dpbench`'s `pool.run_now_us` rung still
    /// prices that hop.
    pub fn run_now_as<T: Send + 'static>(
        &self,
        class: JobClass,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> std::thread::Result<T> {
        if self.workers.is_empty() || is_worker_thread() || !self.shared.try_claim() {
            return catch_unwind(AssertUnwindSafe(|| observe_inline(f)));
        }
        let shared = Arc::clone(&self.shared);
        let (tx, rx) = sync_channel(1);
        self.enqueue(
            class,
            Box::new(move || {
                shared.claimed.fetch_sub(1, Ordering::SeqCst);
                let result = catch_unwind(AssertUnwindSafe(f));
                let _ = tx.send(result);
            }),
        );
        rx.recv().expect("pool worker delivered a result")
    }

    /// Runs `f` with a [`Scope`] that can spawn borrowing jobs onto the
    /// pool — the `std::thread::scope` shape without per-call thread
    /// spawns. Every spawned job is guaranteed to have finished when
    /// `scope` returns (panics included: the first payload is re-raised
    /// after all jobs complete), which is what makes lending stack
    /// references to pool workers sound.
    ///
    /// Spawns degrade to inline execution on the calling thread when the
    /// pool has no workers, the caller is itself a pool worker, or no
    /// idle worker can be claimed (a helper queued behind unrelated
    /// long-running work would stall the scope's join long after the
    /// caller finished its own loop). The canonical usage — spawn N-1
    /// helper loops, then run one loop yourself — is therefore correct
    /// at any pool size and load, nested or not.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState::default()),
            scope: std::marker::PhantomData,
            env: std::marker::PhantomData,
        };
        // The closure may panic after spawning; jobs borrow stack data, so
        // the wait must happen before the panic unwinds this frame.
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        scope.state.wait_all();
        if let Some(payload) = scope.state.take_panic() {
            resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Workers drain the deques before exiting (they only stop once a
        // full scan comes up empty *and* shutdown is set), preserving the
        // submit-then-drop guarantee; join so no worker can still be
        // running once the pool is gone.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _lot = self.shared.sleep.lock().unwrap();
            self.shared.wake.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[derive(Default)]
struct ScopeState {
    pending: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
}

impl ScopeState {
    fn add_one(&self) {
        *self.pending.lock().unwrap() += 1;
    }

    fn finish_one(&self) {
        let mut pending = self.pending.lock().unwrap();
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }

    fn wait_all(&self) {
        let mut pending = self.pending.lock().unwrap();
        while *pending > 0 {
            pending = self.done.wait(pending).unwrap();
        }
    }

    fn record_panic(&self, payload: Box<dyn std::any::Any + Send + 'static>) {
        let mut slot = self.panic.lock().unwrap();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send + 'static>> {
        self.panic.lock().unwrap().take()
    }
}

/// Spawn handle passed to the closure of [`Pool::scope`]. `'env` is the
/// lifetime of borrows captured by spawned jobs; the scope's return
/// barrier is what lets it be shorter than `'static`.
pub struct Scope<'scope, 'env: 'scope> {
    pool: &'scope Pool,
    state: Arc<ScopeState>,
    scope: std::marker::PhantomData<&'scope mut &'scope ()>,
    env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Submits a job under `class` that may borrow `'env` data. Runs
    /// inline immediately when the pool has no workers, the caller is a
    /// pool worker, or no idle worker can be claimed
    /// ([`Shared::try_claim`] — queueing without a claim could stall the
    /// scope's join behind unrelated work); a panic (inline or on a
    /// worker) is re-raised by the enclosing [`Pool::scope`] after every
    /// job has finished.
    pub fn spawn_as(&'scope self, class: JobClass, job: impl FnOnce() + Send + 'env) {
        if self.pool.workers.is_empty() || is_worker_thread() || !self.pool.shared.try_claim() {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| observe_inline(job))) {
                self.state.record_panic(payload);
            }
            return;
        }
        self.state.add_one();
        let state = Arc::clone(&self.state);
        let shared = Arc::clone(&self.pool.shared);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(job);
        // SAFETY: the job may borrow `'env` data, but `Pool::scope` blocks
        // on `wait_all` before returning (on success *and* panic paths),
        // and `finish_one` runs after the job completes or panics — so no
        // job outlives the borrows it captured. The transmute only erases
        // the lifetime; the vtable and layout are unchanged.
        let job: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(job) };
        self.pool.enqueue(
            class,
            Box::new(move || {
                shared.claimed.fetch_sub(1, Ordering::SeqCst);
                let result = catch_unwind(AssertUnwindSafe(job));
                if let Err(payload) = result {
                    state.record_panic(payload);
                }
                state.finish_one();
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool as TestBool, AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    #[test]
    fn runs_jobs_and_returns_results() {
        let pool = Pool::new(3);
        assert_eq!(pool.threads(), 3);
        let results: Vec<i64> = (0..16)
            .map(|i| pool.run_as(JobClass::Bulk, move || i * 2).unwrap())
            .collect();
        assert_eq!(results, (0..16).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn submitted_jobs_all_run() {
        let pool = Pool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let counter = Arc::clone(&counter);
            pool.submit_as(JobClass::Bulk, move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // drop drains the deques, then joins the workers
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = Pool::new(1);
        let r = pool.run_as(JobClass::Bulk, || panic!("job exploded"));
        assert!(r.is_err());
        // The single worker survived and serves the next job.
        assert_eq!(pool.run_as(JobClass::Bulk, || 41 + 1).unwrap(), 42);
    }

    #[test]
    fn scope_borrows_stack_data_and_joins() {
        let pool = Pool::new(3);
        let data: Vec<u64> = (0..1000).collect();
        let partial = [
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        ];
        pool.scope(|scope| {
            for (i, slot) in partial.iter().enumerate() {
                let data = &data;
                scope.spawn_as(JobClass::Bulk, move || {
                    let sum: u64 = data.iter().skip(i).step_by(3).sum();
                    slot.store(sum as usize, Ordering::SeqCst);
                });
            }
        });
        let total: usize = partial.iter().map(|s| s.load(Ordering::SeqCst)).sum();
        assert_eq!(total as u64, (0..1000).sum::<u64>());
    }

    #[test]
    fn scope_propagates_job_panics_after_joining() {
        let pool = Pool::new(2);
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                scope.spawn_as(JobClass::Bulk, || panic!("scoped job exploded"));
                scope.spawn_as(JobClass::Bulk, || {
                    finished.fetch_add(1, Ordering::SeqCst);
                });
            })
        }));
        assert!(result.is_err());
        // The sibling job was not abandoned, and the workers survive.
        assert_eq!(finished.load(Ordering::SeqCst), 1);
        assert_eq!(pool.run_as(JobClass::Bulk, || 7).unwrap(), 7);
    }

    #[test]
    fn inline_scope_job_panic_is_deferred_until_siblings_ran() {
        // Zero workers: every spawn takes the inline-degraded path, no
        // timing involved.
        let pool = Pool::build(0);
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                scope.spawn_as(JobClass::Bulk, || panic!("inline job exploded"));
                scope.spawn_as(JobClass::Bulk, || {
                    finished.fetch_add(1, Ordering::SeqCst);
                });
            })
        }));
        let payload = result.expect_err("Pool::scope re-raises the job's panic");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"inline job exploded"),
            "the job's own payload is what propagates"
        );
        assert_eq!(finished.load(Ordering::SeqCst), 1, "sibling still ran");
    }

    #[test]
    fn nested_scope_spawn_runs_inline_instead_of_deadlocking() {
        let pool = Pool::new(1);
        // A pool job that itself opens a scope on the same single-worker
        // pool: without inline degradation this queues behind itself and
        // hangs forever.
        let r = pool.run_as(JobClass::Bulk, || {
            assert!(is_worker_thread());
            let mut acc = 0usize;
            Pool::shared().scope(|scope| {
                let acc = &mut acc;
                scope.spawn_as(JobClass::Bulk, move || *acc += 1);
            });
            acc
        });
        assert_eq!(r.unwrap(), 1);
    }

    #[test]
    fn zero_worker_run_is_inline() {
        let pool = Pool::build(0);
        assert_eq!(pool.threads(), 0);
        assert_eq!(pool.run_as(JobClass::Bulk, || 5).unwrap(), 5);
        let mut hits = 0;
        pool.scope(|scope| {
            let hits = &mut hits;
            scope.spawn_as(JobClass::Bulk, move || *hits += 1);
        });
        assert_eq!(hits, 1);
    }

    #[test]
    fn scope_spawn_degrades_inline_when_every_worker_is_busy() {
        let pool = Pool::new(1);
        let (block_tx, block_rx) = sync_channel::<()>(0);
        let (entered_tx, entered_rx) = sync_channel::<()>(0);
        pool.submit_as(JobClass::Bulk, move || {
            entered_tx.send(()).unwrap();
            block_rx.recv().unwrap();
        });
        entered_rx.recv().unwrap();
        // The only worker is parked on `block_rx`: an unclaimed spawn
        // would queue behind it and stall the scope's join until the
        // worker frees. The claim gate must run the job inline instead —
        // observable synchronously, before the worker is unblocked.
        let ran = TestBool::new(false);
        pool.scope(|scope| {
            scope.spawn_as(JobClass::Bulk, || ran.store(true, Ordering::SeqCst));
            assert!(
                ran.load(Ordering::SeqCst),
                "spawn must degrade inline while the worker is busy"
            );
        });
        block_tx.send(()).unwrap();
    }

    #[test]
    fn run_now_is_inline_when_every_worker_is_busy() {
        let pool = Pool::new(1);
        let (block_tx, block_rx) = sync_channel::<()>(0);
        let (entered_tx, entered_rx) = sync_channel::<()>(0);
        pool.submit_as(JobClass::Bulk, move || {
            entered_tx.send(()).unwrap();
            block_rx.recv().unwrap();
        });
        entered_rx.recv().unwrap();
        // `run_as` would block here until the worker frees; `run_now_as` must
        // execute on the calling thread immediately.
        assert_eq!(pool.run_now_as(JobClass::Bulk, || 11).unwrap(), 11);
        block_tx.send(()).unwrap();
        // With the worker idle again, run_now_as claims and uses it.
        for _ in 0..100 {
            if pool.available_workers() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(pool.run_now_as(JobClass::Bulk, || 13).unwrap(), 13);
    }

    #[test]
    fn queue_depth_tracks_the_backlog() {
        let pool = Pool::new(1);
        let (block_tx, block_rx) = sync_channel::<()>(0);
        let (entered_tx, entered_rx) = sync_channel::<()>(0);
        pool.submit_as(JobClass::Bulk, move || {
            entered_tx.send(()).unwrap();
            block_rx.recv().unwrap();
        });
        entered_rx.recv().unwrap();
        assert_eq!(
            pool.stats().queued_total(),
            0,
            "the running job is not queued"
        );
        // Three jobs behind a blocked single worker: all three sit queued.
        for _ in 0..3 {
            pool.submit_as(JobClass::Bulk, || {});
        }
        assert_eq!(pool.stats().queued_total(), 3);
        block_tx.send(()).unwrap();
        for _ in 0..200 {
            if pool.stats().queued_total() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(pool.stats().queued_total(), 0, "drained backlog reads zero");
    }

    #[test]
    fn idle_workers_tracks_availability() {
        let pool = Pool::new(2);
        // Give the workers a moment to park on their slots.
        for _ in 0..100 {
            if pool.idle_workers() == 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(pool.idle_workers(), 2);
        let (block_tx, block_rx) = sync_channel::<()>(0);
        let (entered_tx, entered_rx) = sync_channel::<()>(0);
        pool.submit_as(JobClass::Bulk, move || {
            entered_tx.send(()).unwrap();
            block_rx.recv().unwrap();
        });
        entered_rx.recv().unwrap();
        assert!(pool.idle_workers() <= 1);
        block_tx.send(()).unwrap();
    }

    #[test]
    fn interactive_class_dequeues_before_bulk() {
        let pool = Pool::new(1);
        let (block_tx, block_rx) = sync_channel::<()>(0);
        let (entered_tx, entered_rx) = sync_channel::<()>(0);
        pool.submit_as(JobClass::Bulk, move || {
            entered_tx.send(()).unwrap();
            block_rx.recv().unwrap();
        });
        entered_rx.recv().unwrap();
        // Behind the blocked worker: three bulk jobs, then one interactive
        // job pushed *last*. The worker must still run it first.
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let order = Arc::clone(&order);
            pool.submit_as(JobClass::Bulk, move || {
                order.lock().unwrap().push(format!("bulk-{i}"));
            });
        }
        {
            let order = Arc::clone(&order);
            pool.submit_as(JobClass::Interactive, move || {
                order.lock().unwrap().push("interactive".to_string());
            });
        }
        block_tx.send(()).unwrap();
        for _ in 0..500 {
            if order.lock().unwrap().len() == 4 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let order = order.lock().unwrap();
        assert_eq!(order.len(), 4, "all queued jobs ran");
        assert_eq!(
            order[0], "interactive",
            "interactive overtakes the bulk backlog: {order:?}"
        );
    }

    #[test]
    fn stats_snapshot_reports_class_depths() {
        let pool = Pool::new(1);
        let stats = pool.stats();
        assert_eq!(stats.threads, 1);
        assert_eq!(stats.queued_total(), 0);
        let (block_tx, block_rx) = sync_channel::<()>(0);
        let (entered_tx, entered_rx) = sync_channel::<()>(0);
        pool.submit_as(JobClass::Bulk, move || {
            entered_tx.send(()).unwrap();
            block_rx.recv().unwrap();
        });
        entered_rx.recv().unwrap();
        pool.submit_as(JobClass::Bulk, || {});
        pool.submit_as(JobClass::Bulk, || {});
        pool.submit_as(JobClass::Interactive, || {});
        let stats = pool.stats();
        assert_eq!(stats.queued_bulk, 2);
        assert_eq!(stats.queued_interactive, 1);
        assert_eq!(stats.queued_total(), 3);
        block_tx.send(()).unwrap();
    }

    #[test]
    fn checkpoint_is_noop_off_pool_threads() {
        assert!(!is_worker_thread());
        assert!(!checkpoint(), "checkpoint off a worker must be a no-op");
    }

    #[test]
    fn checkpoint_yields_to_a_queued_interactive_job() {
        let pool = Pool::new(1);
        let (entered_tx, entered_rx) = sync_channel::<()>(0);
        let (done_tx, done_rx) = sync_channel::<bool>(1);
        // The bulk job occupies the only worker and polls checkpoint()
        // until it yields (or times out).
        pool.submit_as(JobClass::Bulk, move || {
            entered_tx.send(()).unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut yielded = false;
            while !yielded && Instant::now() < deadline {
                yielded = checkpoint();
                if !yielded {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            done_tx.send(yielded).unwrap();
        });
        entered_rx.recv().unwrap();
        let ran = Arc::new(TestBool::new(false));
        {
            let ran = Arc::clone(&ran);
            pool.submit_as(JobClass::Interactive, move || {
                ran.store(true, Ordering::SeqCst);
            });
        }
        assert!(
            done_rx
                .recv_timeout(Duration::from_secs(15))
                .expect("bulk job finished"),
            "checkpoint must yield to the queued interactive job"
        );
        assert!(ran.load(Ordering::SeqCst), "the interactive job ran");
        assert!(pool.stats().yields >= 1, "the yield was counted");
    }

    #[test]
    fn checkpoint_ignores_bulk_backlog() {
        let pool = Pool::new(1);
        let (entered_tx, entered_rx) = sync_channel::<()>(0);
        let (backlog_tx, backlog_rx) = sync_channel::<()>(0);
        let (done_tx, done_rx) = sync_channel::<bool>(1);
        pool.submit_as(JobClass::Bulk, move || {
            entered_tx.send(()).unwrap();
            // Wait until bulk backlog demonstrably exists: checkpoint only
            // serves interactive work, so it must still decline.
            backlog_rx.recv().unwrap();
            done_tx.send(checkpoint()).unwrap();
        });
        entered_rx.recv().unwrap();
        pool.submit_as(JobClass::Bulk, || {});
        backlog_tx.send(()).unwrap();
        assert!(
            !done_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("bulk job finished"),
            "checkpoint must not run bulk jobs"
        );
    }
}
