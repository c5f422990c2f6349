//! The budget under contention: concurrent submitters against a saturated
//! pool. Nothing waits for a token, so the backlog these cases are named
//! for is always zero: with every token held, each submission runs inline
//! on its submitter at once; with tokens free, concurrent submitters never
//! hold more than `threads` of them; and every token is free again when
//! the `scope` or `run_now_as` call that took it returns.

use dp_pool::{JobClass, Pool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread;

fn on_pool_thread() -> bool {
    thread::current().name() == Some("dp-pool-job")
}

/// Holds every token of `pool` until the returned sender is dropped: a
/// helper thread opens a scope with one job per token, each of which
/// waits for the release. This thread is the only other submitter, so
/// every spawn takes a token and starts a thread.
fn saturate<'s>(s: &'s thread::Scope<'s, '_>, pool: &'s Pool) -> Sender<()> {
    let (release_tx, release_rx) = channel::<()>();
    let release_rx = Arc::new(Mutex::new(release_rx));
    let (entered_tx, entered_rx) = channel::<bool>();
    s.spawn(move || {
        pool.scope(|scope| {
            for _ in 0..pool.threads() {
                let (release_rx, entered_tx) = (Arc::clone(&release_rx), entered_tx.clone());
                scope.spawn_as(JobClass::Bulk, move || {
                    entered_tx.send(on_pool_thread()).unwrap();
                    // A closed channel (sender dropped) releases too.
                    let _ = release_rx.lock().unwrap().recv();
                });
            }
        })
    });
    for _ in 0..pool.threads() {
        assert!(entered_rx.recv().unwrap(), "a held job ran inline");
    }
    assert_eq!(pool.idle_workers(), 0);
    release_tx
}

/// Submits `n` scope spawns from the calling thread. A job that runs on a
/// pool thread counts itself in `running` while it runs and raises `peak`
/// to what it saw; one that runs inline counts in `inline`.
fn submit_scoped(pool: &Pool, n: usize, counts: &Counts) {
    pool.scope(|scope| {
        for _ in 0..n {
            scope.spawn_as(JobClass::Bulk, || {
                if on_pool_thread() {
                    let now = counts.running.fetch_add(1, Ordering::SeqCst) + 1;
                    counts.peak.fetch_max(now, Ordering::SeqCst);
                    thread::yield_now();
                    counts.running.fetch_sub(1, Ordering::SeqCst);
                } else {
                    counts.inline.fetch_add(1, Ordering::SeqCst);
                }
                counts.done.fetch_add(1, Ordering::SeqCst);
            });
            assert!(pool.idle_workers() <= pool.threads());
        }
    });
}

#[derive(Default)]
struct Counts {
    done: AtomicUsize,
    inline: AtomicUsize,
    running: AtomicUsize,
    peak: AtomicUsize,
}

#[test]
fn queue_depth_brackets_backlog_under_concurrent_submitters() {
    const SUBMITTERS: usize = 4;
    const JOBS_EACH: usize = 25;
    const TOTAL: usize = SUBMITTERS * JOBS_EACH;

    let pool = Pool::new(2);
    thread::scope(|s| {
        let release = saturate(s, &pool);

        // Concurrent submitters against the saturated pool: no token can
        // be taken, so every job runs inline on its submitter.
        let counts = Counts::default();
        thread::scope(|inner| {
            for _ in 0..SUBMITTERS {
                inner.spawn(|| submit_scoped(&pool, JOBS_EACH, &counts));
            }
        });
        assert_eq!(counts.done.load(Ordering::SeqCst), TOTAL);
        assert_eq!(counts.inline.load(Ordering::SeqCst), TOTAL);
        assert_eq!(pool.idle_workers(), 0, "the held tokens stay held");
        drop(release);
    });
    // The helper's scope has joined its jobs: their tokens are back.
    assert_eq!(pool.idle_workers(), 2);

    // Concurrent submitters now race for tokens, and no more jobs run on
    // pool threads at once than there are tokens.
    let counts = Counts::default();
    thread::scope(|inner| {
        for _ in 0..SUBMITTERS {
            inner.spawn(|| submit_scoped(&pool, JOBS_EACH, &counts));
        }
    });
    assert_eq!(counts.done.load(Ordering::SeqCst), TOTAL);
    assert!(counts.peak.load(Ordering::SeqCst) <= 2, "over budget");
    assert_eq!(pool.idle_workers(), 2);
}

#[test]
fn queue_depth_is_zero_across_repeated_saturation_cycles() {
    let pool = Pool::new(1);
    for cycle in 0..3 {
        thread::scope(|s| {
            let release = saturate(s, &pool);
            let counts = Counts::default();
            submit_scoped(&pool, 10, &counts);
            assert_eq!(counts.inline.load(Ordering::SeqCst), 10, "cycle {cycle}");
            drop(release);
        });
        assert_eq!(pool.idle_workers(), 1, "cycle {cycle}: token back");
        // The freed token is taken again: the job gets a thread.
        let ran_on_thread = pool.run_now_as(JobClass::Bulk, on_pool_thread).unwrap();
        assert!(ran_on_thread, "cycle {cycle}: the token was not lent");
        assert_eq!(pool.idle_workers(), 1, "cycle {cycle}: token back");
    }
}
