//! The token budget and its scope (see the crate docs).

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, OnceLock};
use std::thread;

use dp_obs::metrics::{Counter, Histogram};
use dp_obs::trace::current_ctx;

/// Wall time of the job body itself (spawned and inline alike).
static JOB_RUN_US: Histogram = Histogram::new("pool.job_run_us");
static JOBS_SPAWNED: Counter = Counter::new("pool.jobs.spawned");
static JOBS_INLINE: Counter = Counter::new("pool.jobs.inline");

type Payload = Box<dyn std::any::Any + Send + 'static>;
type Job<'env> = Box<dyn FnOnce() + Send + 'env>;
const UNPOISONED: &str = "the panic slot is never held across a panic";

/// Scheduling class of a job. It orders nothing (no job waits); it stays
/// while `benchmark/` names it (ROADMAP item 2 (f)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobClass {
    /// Fleet drivers.
    Interactive,
    /// Sweep generations, benches.
    Bulk,
}

thread_local! {
    /// Whether this thread was started for a job of any pool.
    static IS_POOL_THREAD: Cell<bool> = const { Cell::new(false) };
}

/// A snapshot of the pool, from [`Pool::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// The budget: tokens in all (the shared pool's can be zero).
    pub threads: usize,
    /// Tokens no running job holds.
    pub idle: usize,
}

/// A budget of `threads` tokens, each the right to run one job on a
/// thread of its own.
pub struct Pool {
    threads: usize,
    /// Tokens no running job holds; never more than `threads`. `Relaxed`:
    /// a token publishes nothing, a job's writes reach its submitter
    /// through the scope's join.
    free: AtomicUsize,
}

impl Pool {
    /// A pool of exactly `threads` tokens (min 1), beside the shared
    /// budget. Prefer [`Pool::shared`].
    pub fn new(threads: usize) -> Self {
        Pool::build(threads.max(1))
    }

    /// The process-wide budget: the resolved job count
    /// ([`crate::jobs::resolve_jobs`]) minus the caller's own thread.
    pub fn shared() -> &'static Pool {
        static SHARED: OnceLock<Pool> = OnceLock::new();
        SHARED.get_or_init(|| Pool::build(crate::jobs::configured_jobs() - 1))
    }

    fn build(threads: usize) -> Self {
        let free = AtomicUsize::new(threads);
        Pool { threads, free }
    }

    /// Takes a token, unless the caller is a pool thread or none is free.
    fn take_token(&self) -> bool {
        !IS_POOL_THREAD.with(Cell::get)
            && (self.free)
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
    }

    fn give_back(&self) {
        self.free.fetch_add(1, Ordering::Relaxed);
    }

    /// The budget: tokens in all.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Free tokens — what a layer sizes its helper submissions from. A
    /// snapshot: a helper that finds the token gone runs inline.
    pub fn idle_workers(&self) -> usize {
        self.free.load(Ordering::Relaxed)
    }

    /// A snapshot for dashboards and the serve `stats` op.
    pub fn stats(&self) -> PoolStats {
        let (threads, idle) = (self.threads, self.idle_workers());
        PoolStats { threads, idle }
    }

    /// Runs `f` as the one job of a scope; a panic yields `Err`. Only
    /// `dpbench`'s `pool.run_now_us` rung calls it, to price a thread start.
    pub fn run_now_as<T: Send + 'static>(
        &self,
        class: JobClass,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> thread::Result<T> {
        let mut out = None;
        self.scope(|scope| {
            let out = &mut out;
            scope.spawn_as(class, || *out = Some(catch_unwind(AssertUnwindSafe(f))));
        });
        out.expect("the scope ran its job")
    }

    /// Runs `f` with a [`Scope`] whose jobs may borrow stack data. When it
    /// returns, every job has finished and given its token back; the first
    /// payload a job panicked with is re-raised then, before `f`'s own.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let panic = Mutex::new(None);
        let result = thread::scope(|threads| {
            let (pool, panic) = (self, &panic);
            let started = Started {
                threads,
                pool,
                panic,
            };
            catch_unwind(AssertUnwindSafe(|| f(&Scope(&started))))
        });
        match (panic.into_inner().expect(UNPOISONED), result) {
            (Some(payload), _) | (None, Err(payload)) => resume_unwind(payload),
            (None, Ok(result)) => result,
        }
    }
}

/// Spawn handle passed to the closure of [`Pool::scope`]; `'env` is the
/// lifetime of borrows its jobs capture.
pub struct Scope<'scope, 'env: 'scope>(&'scope dyn Submit<'env>);

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Submits a job that may borrow `'env` data: on a thread of its own
    /// if a token can be taken, inline otherwise (and inline if the thread
    /// cannot start). The class orders nothing.
    pub fn spawn_as(&'scope self, _class: JobClass, job: impl FnOnce() + Send + 'env) {
        self.0.submit(Box::new(job));
    }
}

/// What [`Scope`] submits to, as a trait object so that it need not name
/// the lifetime of the `std::thread::scope` its threads belong to.
trait Submit<'env> {
    fn submit(&self, job: Job<'env>);
}

/// The open `std::thread::scope`, the pool whose tokens its jobs take,
/// and where the first panic of a job is kept.
#[derive(Clone, Copy)]
struct Started<'s, 'e> {
    threads: &'s thread::Scope<'s, 'e>,
    pool: &'e Pool,
    panic: &'e Mutex<Option<Payload>>,
}

impl Started<'_, '_> {
    /// Runs `job` in a `pool.job` span with a run-time sample; keeps the first panic.
    fn run(&self, job: impl FnOnce(), attrs: &[(&str, &str)]) {
        let _span = dp_obs::trace::span_with("pool.job", attrs);
        let run = dp_obs::metrics::now();
        let result = catch_unwind(AssertUnwindSafe(job));
        JOB_RUN_US.record_since(run);
        if let Err(payload) = result {
            self.panic.lock().expect(UNPOISONED).get_or_insert(payload);
        }
    }
}

impl<'s, 'e, 'env: 'e> Submit<'env> for Started<'s, 'e> {
    fn submit(&self, job: Job<'env>) {
        let Started { threads, pool, .. } = *self;
        if pool.take_token() {
            // The job is sent once its thread has started, so that it is
            // still here to run inline if none starts.
            let (tx, rx) = mpsc::channel::<Job<'env>>();
            let (ctx, this) = (current_ctx(), *self);
            let started = thread::Builder::new()
                .name("dp-pool-job".to_string())
                .spawn_scoped(threads, move || {
                    IS_POOL_THREAD.with(|flag| flag.set(true));
                    let job = rx.recv().expect("the submitter sends the job");
                    let entered = ctx.enter();
                    this.run(job, &[]);
                    drop(entered);
                    pool.give_back();
                });
            if started.is_ok() {
                tx.send(job).expect("the job's thread waits for it");
                return JOBS_SPAWNED.incr();
            }
            pool.give_back();
        }
        JOBS_INLINE.incr();
        self.run(job, &[("inline", "1")]);
    }
}

#[cfg(test)]
mod tests;
