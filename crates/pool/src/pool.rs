//! The persistent worker pool: parked workers lent to claim-gated jobs.
//!
//! [`Pool::shared`] is the process-lifetime instance every parallel layer
//! schedules onto (sweep generations, shard daemon drivers); it owns the
//! whole `DPOPT_JOBS` budget. A dedicated pool ([`Pool::new`]) is for a
//! layer that needs its own workers; its threads also count as pool
//! workers, so nesting detection spans every pool in the process.
//!
//! A job is queued only after a parked worker has been promised to it,
//! and otherwise runs inline on the submitting thread, as a thresholded
//! launch runs its child's work in the parent. No job waits behind
//! another, so one FIFO queue under one lock is the whole scheduler.
//!
//! - **Panic survival.** A panicking job is caught on the worker, which
//!   lives on; [`Pool::run_now_as`] and [`Scope`] hand the payload to the
//!   submitter.
//! - **Nested submission runs inline.** Work submitted from a pool worker
//!   (of any pool) never queues behind itself, so the pool cannot deadlock
//!   and nested layers become sequential.
//! - **Zero-worker pools run inline.** `DPOPT_JOBS=1` yields a shared pool
//!   with no workers; everything runs on the submitting thread.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

use dp_obs::metrics::{Counter, Histogram};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Time from queue push to worker pop.
static QUEUE_WAIT_US: Histogram = Histogram::new("pool.queue_wait_us");
/// Wall time of the job body itself (queued and inline alike).
static JOB_RUN_US: Histogram = Histogram::new("pool.job_run_us");
static JOBS_QUEUED: Counter = Counter::new("pool.jobs.queued");
static JOBS_INLINE: Counter = Counter::new("pool.jobs.inline");

/// Scheduling class of a submitted job.
///
/// Every job is claim-gated, so none waits behind another and the class
/// orders nothing. It stays because `benchmark/`'s pool rungs name it
/// until ROADMAP item 2 (f) lifts that pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobClass {
    /// Latency-sensitive work: fleet drivers.
    Interactive,
    /// Throughput work: sweep generations, benches.
    Bulk,
}

/// Runs a job inline with the envelope a queued job gets on a worker: a
/// `pool.job` span under the caller's and a run-time sample, so trace
/// trees stay connected at any worker count (on one CPU the shared pool
/// has no workers and every job takes this path).
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
    /// Whether this thread is a worker of any pool in the process.
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Everything workers and submitters share, under one lock. A claim is
/// decided under it (`idle > claimed`) and given back by the worker that
/// pops the job; a worker parks only after seeing `jobs` empty under it,
/// so no push is missed.
#[derive(Default)]
struct Queue {
    /// Claimed jobs not yet popped; never more than `claimed`.
    jobs: VecDeque<Job>,
    /// Workers parked on `Shared::wake`.
    idle: usize,
    /// Idle workers already promised to a job; never more than `idle`.
    claimed: usize,
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    wake: Condvar,
}

fn worker_loop(shared: Arc<Shared>) {
    IS_POOL_WORKER.with(|flag| flag.set(true));
    let mut q = shared.queue.lock().unwrap();
    loop {
        if let Some(job) = q.jobs.pop_front() {
            q.claimed -= 1;
            drop(q);
            // A panicking job must not take the worker down with it — the
            // panic is surfaced to the submitter by `run_now_as`/`Scope`,
            // and this thread lives on for the next job.
            let _ = catch_unwind(AssertUnwindSafe(job));
            q = shared.queue.lock().unwrap();
        } else if q.shutdown {
            return;
        } else {
            q.idle += 1;
            q = shared.wake.wait(q).unwrap();
            q.idle -= 1;
        }
    }
}

/// A snapshot of the pool, from [`Pool::stats`], taken under its lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Worker thread count (the shared pool's can legitimately be zero).
    pub threads: usize,
    /// Workers currently parked waiting for work.
    pub idle: usize,
    /// Jobs pushed but not yet popped; never more than `threads`.
    pub queued: usize,
}

/// A fixed-size pool of parked workers fed by one claim-gated queue.
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

    /// The process-lifetime shared pool, built on first use with the
    /// resolved job count ([`crate::jobs::resolve_jobs`]) minus one: the
    /// caller of [`Pool::scope`] runs one loop itself. This pool *is* the
    /// budget.
    pub fn shared() -> &'static Pool {
        static SHARED: OnceLock<Pool> = OnceLock::new();
        SHARED.get_or_init(|| Pool::build(crate::jobs::configured_jobs() - 1))
    }

    fn build(threads: usize) -> Self {
        let shared = Arc::new(Shared::default());
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dp-pool-worker-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, workers }
    }

    /// Claims a parked worker not yet promised to a job, unless the pool
    /// has none or the caller is a worker. Queued without a claim, a job
    /// could wait behind a long one, stalling whoever joins on it.
    fn claim(&self) -> bool {
        if self.workers.is_empty() || IS_POOL_WORKER.with(Cell::get) {
            return false;
        }
        let mut q = self.shared.queue.lock().unwrap();
        let free = q.idle > q.claimed;
        q.claimed += usize::from(free);
        free
    }

    /// Pushes a claimed job, wrapped in the standard observability
    /// envelope. Every queued job in the pool goes through here.
    fn enqueue(&self, job: Job) {
        JOBS_QUEUED.incr();
        // Capture the submitter's span context here, enter it on the
        // worker: the job's `pool.job` span parents to whatever was
        // current at submission (a serve request, a sweep generation).
        let ctx = dp_obs::trace::current_ctx();
        let sent = dp_obs::metrics::now();
        let job = Box::new(move || {
            QUEUE_WAIT_US.record_since(sent);
            let _ctx = ctx.enter();
            let _span = dp_obs::trace::span("pool.job");
            let run = dp_obs::metrics::now();
            job();
            JOB_RUN_US.record_since(run);
        });
        self.shared.queue.lock().unwrap().jobs.push_back(job);
        self.shared.wake.notify_one();
    }

    /// Worker count; the shared pool's is the job count minus one, so it
    /// can be zero.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Workers currently parked waiting for a job.
    pub fn idle_workers(&self) -> usize {
        self.shared.queue.lock().unwrap().idle
    }

    /// Parked workers not yet promised to a job — what a layer sizes its
    /// helper submissions from. A snapshot: a claim can still fail at
    /// spawn time, which runs that helper inline.
    pub fn available_workers(&self) -> usize {
        let q = self.shared.queue.lock().unwrap();
        q.idle - q.claimed
    }

    /// One coherent snapshot for dashboards and the serve `stats` op.
    pub fn stats(&self) -> PoolStats {
        let q = self.shared.queue.lock().unwrap();
        PoolStats {
            threads: self.workers.len(),
            idle: q.idle,
            queued: q.jobs.len(),
        }
    }

    /// Runs `f` on a claimed parked worker and blocks for its result, or
    /// inline when none can be claimed; a panic yields `Err` with its
    /// payload. No layer calls it: `dpbench`'s `pool.run_now_us` rung
    /// prices the hand-off with it. The class orders nothing.
    pub fn run_now_as<T: Send + 'static>(
        &self,
        _class: JobClass,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> std::thread::Result<T> {
        if !self.claim() {
            return catch_unwind(AssertUnwindSafe(|| observe_inline(f)));
        }
        let (tx, rx) = sync_channel(1);
        self.enqueue(Box::new(move || {
            let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
        }));
        rx.recv().expect("pool worker delivered a result")
    }

    /// Runs `f` with a [`Scope`] that can spawn borrowing jobs onto the
    /// pool — the `std::thread::scope` shape without per-call thread
    /// spawns. Every spawned job is guaranteed to have finished when
    /// `scope` returns (panics included: the first payload is re-raised
    /// after all jobs complete), which is what makes lending stack
    /// references to pool workers sound.
    ///
    /// A spawn runs inline when no parked worker can be claimed, so the
    /// canonical usage — spawn N-1 helper loops, then run one loop
    /// yourself — is correct at any pool size and load, nested or not.
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
        if let Some(payload) = scope.state.join() {
            resume_unwind(payload);
        }
        result.unwrap_or_else(|payload| resume_unwind(payload))
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // A worker stops only on an empty queue with shutdown set; join
        // so none still runs once the pool is gone.
        self.shared.queue.lock().unwrap().shutdown = true;
        self.shared.wake.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

type Payload = Box<dyn std::any::Any + Send + 'static>;

/// A scope's spawned jobs not yet finished, and the first panic payload
/// any of them raised.
#[derive(Default)]
struct Progress {
    pending: usize,
    panic: Option<Payload>,
}

#[derive(Default)]
struct ScopeState {
    progress: Mutex<Progress>,
    done: Condvar,
}

impl ScopeState {
    fn finish(&self, result: std::thread::Result<()>) {
        let mut p = self.progress.lock().unwrap();
        p.pending -= 1;
        if let Err(payload) = result {
            p.panic.get_or_insert(payload);
        }
        if p.pending == 0 {
            self.done.notify_all();
        }
    }

    /// Waits for every spawned job; returns the first panic payload.
    fn join(&self) -> Option<Payload> {
        let mut p = self.progress.lock().unwrap();
        while p.pending > 0 {
            p = self.done.wait(p).unwrap();
        }
        p.panic.take()
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
    /// Submits a job that may borrow `'env` data, inline unless a parked
    /// worker can be claimed; [`Pool::scope`] re-raises its panic after
    /// every job has finished. The class orders nothing.
    pub fn spawn_as(&'scope self, _class: JobClass, job: impl FnOnce() + Send + 'env) {
        self.state.progress.lock().unwrap().pending += 1;
        if !self.pool.claim() {
            self.state
                .finish(catch_unwind(AssertUnwindSafe(|| observe_inline(job))));
            return;
        }
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(job);
        // SAFETY: the job may borrow `'env` data, but `Pool::scope` blocks
        // on `join` before returning (on success *and* panic paths), and
        // `finish` runs after the job completes or panics — so no job
        // outlives the borrows it captured. The transmute only erases the
        // lifetime; the vtable and layout are unchanged.
        let job: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(job) };
        self.pool.enqueue(Box::new(move || {
            state.finish(catch_unwind(AssertUnwindSafe(job)))
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::mpsc::SyncSender;
    use std::thread;

    fn on_worker() -> bool {
        IS_POOL_WORKER.with(Cell::get)
    }

    /// Waits until a worker of `pool` is parked and unclaimed. Only the
    /// test's own thread claims, so its next submission gets that worker.
    fn wait_parked(pool: &Pool) {
        while pool.available_workers() == 0 {
            thread::yield_now();
        }
    }

    /// Occupies one parked worker: `run_now_as` from a helper thread, with
    /// a job that holds the worker until the returned sender is dropped.
    fn occupy<'s>(s: &'s thread::Scope<'s, '_>, pool: &'s Pool) -> SyncSender<()> {
        wait_parked(pool);
        let (release_tx, release_rx) = sync_channel::<()>(0);
        let (entered_tx, entered_rx) = sync_channel::<bool>(0);
        s.spawn(move || {
            pool.run_now_as(JobClass::Bulk, move || {
                entered_tx.send(on_worker()).unwrap();
                let _ = release_rx.recv();
            })
            .unwrap()
        });
        assert!(entered_rx.recv().unwrap(), "the job ran on the worker");
        release_tx
    }

    #[test]
    fn runs_jobs_and_returns_results() {
        let pool = Pool::new(3);
        assert_eq!(pool.threads(), 3);
        for i in 0..16 {
            wait_parked(&pool);
            let got = pool.run_now_as(JobClass::Bulk, move || (on_worker(), i * 2));
            assert_eq!(got.unwrap(), (true, i * 2));
        }
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = Pool::new(1);
        wait_parked(&pool);
        assert!(pool
            .run_now_as(JobClass::Bulk, || panic!("job exploded"))
            .is_err());
        // The single worker survived, parks again and serves the next job.
        wait_parked(&pool);
        assert!(pool.run_now_as(JobClass::Bulk, on_worker).unwrap());
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
        wait_parked(&pool);
        assert!(pool.run_now_as(JobClass::Bulk, on_worker).unwrap());
    }

    #[test]
    fn inline_scope_job_panic_is_deferred_until_siblings_ran() {
        // Zero workers: every spawn runs inline, no timing involved.
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
        wait_parked(&pool);
        // A job on the only worker that itself submits: queued, the nested
        // work would wait behind the job that waits for it.
        let r = pool.run_now_as(JobClass::Bulk, || {
            assert!(on_worker());
            let mut acc = 0usize;
            Pool::shared().scope(|scope| {
                let acc = &mut acc;
                scope.spawn_as(JobClass::Bulk, move || *acc += 1);
            });
            acc + Pool::shared().run_now_as(JobClass::Bulk, || 1).unwrap()
        });
        assert_eq!(r.unwrap(), 2);
    }

    #[test]
    fn zero_worker_run_is_inline() {
        let pool = Pool::build(0);
        assert_eq!(pool.threads(), 0);
        assert_eq!(pool.run_now_as(JobClass::Bulk, || 5).unwrap(), 5);
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
        thread::scope(|s| {
            let release = occupy(s, &pool);
            // Queued behind the occupied worker, the job would stall the
            // scope's join until the worker frees; it must run inline,
            // observably before the worker is released.
            let ran = AtomicBool::new(false);
            pool.scope(|scope| {
                scope.spawn_as(JobClass::Bulk, || ran.store(true, Ordering::SeqCst));
                assert!(ran.load(Ordering::SeqCst), "spawn ran inline");
            });
            drop(release);
        });
    }

    #[test]
    fn run_now_is_inline_when_every_worker_is_busy() {
        let pool = Pool::new(1);
        thread::scope(|s| {
            let release = occupy(s, &pool);
            assert!(!pool.run_now_as(JobClass::Bulk, on_worker).unwrap());
            drop(release);
        });
        // With the worker parked again, `run_now_as` claims and uses it.
        wait_parked(&pool);
        assert!(pool.run_now_as(JobClass::Bulk, on_worker).unwrap());
    }

    #[test]
    fn idle_workers_tracks_availability() {
        let pool = Pool::new(2);
        while pool.idle_workers() < 2 {
            thread::yield_now();
        }
        thread::scope(|s| {
            let release = occupy(s, &pool);
            let stats = pool.stats();
            assert_eq!((stats.threads, stats.idle, stats.queued), (2, 1, 0));
            assert_eq!(pool.available_workers(), 1);
            drop(release);
        });
    }

    /// Four submitters flood a three-worker pool with scopes. Every job
    /// runs exactly once, and since every job is claim-gated the queue
    /// never holds more jobs than there are workers to run them.
    #[test]
    fn submitted_jobs_all_run() {
        const SUBMITTERS: usize = 4;
        const SCOPES: usize = 500;
        const SPAWNS: usize = 4;
        let pool = Pool::new(3);
        let runs: Vec<AtomicUsize> = (0..SUBMITTERS * SCOPES * SPAWNS)
            .map(|_| AtomicUsize::new(0))
            .collect();
        let bounded = |stats: PoolStats| {
            assert!(stats.queued <= stats.threads, "backlog: {stats:?}");
        };
        thread::scope(|s| {
            for submitter in 0..SUBMITTERS {
                let (pool, runs) = (&pool, &runs);
                s.spawn(move || {
                    for scope_idx in 0..SCOPES {
                        pool.scope(|scope| {
                            for spawn in 0..SPAWNS {
                                let job = (submitter * SCOPES + scope_idx) * SPAWNS + spawn;
                                scope.spawn_as(JobClass::Bulk, move || {
                                    runs[job].fetch_add(1, Ordering::SeqCst);
                                    bounded(pool.stats());
                                });
                                bounded(pool.stats());
                            }
                        });
                    }
                });
            }
        });
        let lost: Vec<usize> = (0..runs.len())
            .filter(|&i| runs[i].load(Ordering::SeqCst) != 1)
            .collect();
        assert!(lost.is_empty(), "jobs not run exactly once: {lost:?}");
        assert_eq!(pool.stats().queued, 0);
    }
}
