//! The budget's contract: with every token held, a submission runs inline
//! at once; concurrent submitters never hold more than `threads` tokens;
//! and every token is free again when `scope` and `run_now_as` return.
//! Tokens are held here with `take_token` itself, so no case waits on a
//! thread to get somewhere first.

use super::*;
use std::sync::atomic::AtomicBool;

fn on_pool_thread() -> bool {
    IS_POOL_THREAD.with(Cell::get)
}

/// Takes every free token of `pool`; the caller gives them back.
fn hold_all(pool: &Pool) -> usize {
    let mut held = 0;
    while pool.take_token() {
        held += 1;
    }
    assert_eq!(pool.idle_workers(), 0);
    held
}

/// `(threads, idle)` from one stats snapshot.
fn snapshot(pool: &Pool) -> (usize, usize) {
    let stats = pool.stats();
    (stats.threads, stats.idle)
}

fn give_back(pool: &Pool, tokens: usize) {
    for _ in 0..tokens {
        pool.give_back();
    }
}

#[test]
fn runs_jobs_and_returns_results() {
    let pool = Pool::new(3);
    assert_eq!(pool.threads(), 3);
    for i in 0..16 {
        let got = pool.run_now_as(JobClass::Bulk, move || (on_pool_thread(), i * 2));
        assert_eq!(got.unwrap(), (true, i * 2));
        assert_eq!(pool.idle_workers(), 3, "the token is back on return");
    }
}

#[test]
fn panicking_job_does_not_kill_the_worker() {
    let pool = Pool::new(1);
    assert!(pool
        .run_now_as(JobClass::Bulk, || panic!("job exploded"))
        .is_err());
    // The panicking job gave its token back: the next job gets a thread.
    assert_eq!(pool.idle_workers(), 1);
    assert!(pool.run_now_as(JobClass::Bulk, on_pool_thread).unwrap());
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
    assert_eq!(pool.idle_workers(), 3);
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
    let payload = result.expect_err("Pool::scope re-raises the job's panic");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"scoped job exploded"));
    // The sibling job was not abandoned, and both tokens came back.
    assert_eq!(finished.load(Ordering::SeqCst), 1);
    assert_eq!(pool.idle_workers(), 2);
    assert!(pool.run_now_as(JobClass::Bulk, on_pool_thread).unwrap());
}

#[test]
fn inline_scope_job_panic_is_deferred_until_siblings_ran() {
    // No tokens: every spawn runs inline, no timing involved.
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
    let pool = Pool::new(2);
    // A job on a pool thread that submits again, to its own pool (a token
    // is still free) and to the shared one: both run on the job's thread.
    let r = pool.run_now_as(JobClass::Bulk, || {
        assert!(on_pool_thread());
        let me = thread::current().id();
        let inner = Pool::new(2);
        let mut ran_on = Vec::new();
        for nested in [&inner, Pool::shared()] {
            nested.scope(|scope| {
                let ran_on = &mut ran_on;
                scope.spawn_as(JobClass::Bulk, move || ran_on.push(thread::current().id()));
            });
            ran_on.push(
                nested
                    .run_now_as(JobClass::Bulk, move || thread::current().id())
                    .unwrap(),
            );
        }
        assert_eq!(inner.idle_workers(), 2, "a pool thread takes no token");
        ran_on.iter().all(|&id| id == me)
    });
    assert!(r.unwrap(), "a nested submission left the job's thread");
    assert_eq!(pool.idle_workers(), 2);
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
    assert_eq!(pool.idle_workers(), 0);
}

#[test]
fn scope_spawn_degrades_inline_when_every_worker_is_busy() {
    let pool = Pool::new(1);
    let held = hold_all(&pool);
    // With no token free, the job runs on the submitting thread, before
    // `spawn_as` returns.
    let ran = AtomicBool::new(false);
    pool.scope(|scope| {
        scope.spawn_as(JobClass::Bulk, || {
            assert!(!on_pool_thread());
            ran.store(true, Ordering::SeqCst);
        });
        assert!(ran.load(Ordering::SeqCst), "spawn ran inline");
    });
    give_back(&pool, held);
    assert_eq!(pool.idle_workers(), 1);
}

#[test]
fn run_now_is_inline_when_every_worker_is_busy() {
    let pool = Pool::new(1);
    let held = hold_all(&pool);
    assert!(!pool.run_now_as(JobClass::Bulk, on_pool_thread).unwrap());
    give_back(&pool, held);
    // With the token free again, `run_now_as` takes it and starts a thread.
    assert!(pool.run_now_as(JobClass::Bulk, on_pool_thread).unwrap());
    assert_eq!(pool.idle_workers(), 1);
}

#[test]
fn idle_workers_tracks_availability() {
    let pool = Pool::new(2);
    assert_eq!(snapshot(&pool), (2, 2));
    assert!(pool.take_token());
    assert_eq!(snapshot(&pool), (2, 1));
    // A job in flight holds the other token until it is done.
    let (entered_tx, entered_rx) = std::sync::mpsc::sync_channel::<()>(0);
    let (release_tx, release_rx) = std::sync::mpsc::sync_channel::<()>(0);
    pool.scope(|scope| {
        scope.spawn_as(JobClass::Bulk, move || {
            entered_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        });
        entered_rx.recv().unwrap();
        assert_eq!(snapshot(&pool), (2, 0));
        release_tx.send(()).unwrap();
    });
    assert_eq!(snapshot(&pool), (2, 1));
    pool.give_back();
    assert_eq!(pool.idle_workers(), 2);
}

/// Four submitters flood a three-token pool with scopes. Every job runs
/// exactly once, no more than three run on pool threads at any moment,
/// and every token is free once the flood is over.
#[test]
fn submitted_jobs_all_run() {
    const SUBMITTERS: usize = 4;
    const SCOPES: usize = 500;
    const SPAWNS: usize = 4;
    let pool = Pool::new(3);
    let runs: Vec<AtomicUsize> = (0..SUBMITTERS * SCOPES * SPAWNS)
        .map(|_| AtomicUsize::new(0))
        .collect();
    let (running, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
    thread::scope(|s| {
        for submitter in 0..SUBMITTERS {
            let (pool, runs, running, peak) = (&pool, &runs, &running, &peak);
            s.spawn(move || {
                for scope_idx in 0..SCOPES {
                    pool.scope(|scope| {
                        for spawn in 0..SPAWNS {
                            let job = (submitter * SCOPES + scope_idx) * SPAWNS + spawn;
                            scope.spawn_as(JobClass::Bulk, move || {
                                runs[job].fetch_add(1, Ordering::SeqCst);
                                if on_pool_thread() {
                                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                                    peak.fetch_max(now, Ordering::SeqCst);
                                    running.fetch_sub(1, Ordering::SeqCst);
                                }
                            });
                            assert!(pool.idle_workers() <= pool.threads());
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
    assert!(
        peak.load(Ordering::SeqCst) <= 3,
        "more jobs on threads than tokens"
    );
    assert_eq!(pool.idle_workers(), 3);
}
