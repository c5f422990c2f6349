//! `Pool::stats().queued` under contention: concurrent submitters against
//! a saturated pool. Every submission is claim-gated, so the depth is
//! bracketed by the worker count instead of by what was submitted: it
//! never exceeds `threads`, it stays exactly zero while every worker is
//! occupied (submissions run inline then), and it returns to zero once
//! the claimed jobs have been popped.

use dp_pool::{JobClass, Pool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Occupies every worker of `pool`: one `run_now_as` per worker from a
/// helper thread, each issued once a worker shows parked (this thread is
/// the only submitter, so the claim cannot fail), holding its worker until
/// the returned sender is dropped. The held jobs are *running*, not
/// queued, so the depth baseline after this is exactly zero.
fn saturate<'s>(s: &'s thread::Scope<'s, '_>, pool: &'s Pool) -> Sender<()> {
    let (release_tx, release_rx) = channel::<()>();
    let release_rx = Arc::new(Mutex::new(release_rx));
    for _ in 0..pool.threads() {
        while pool.available_workers() == 0 {
            thread::yield_now();
        }
        let (entered_tx, entered_rx) = sync_channel::<()>(0);
        let release_rx = Arc::clone(&release_rx);
        s.spawn(move || {
            pool.run_now_as(JobClass::Bulk, move || {
                entered_tx.send(()).unwrap();
                // A closed channel (sender dropped) releases too.
                let _ = release_rx.lock().unwrap().recv();
            })
            .unwrap()
        });
        entered_rx.recv().unwrap();
    }
    assert_eq!(pool.idle_workers(), 0);
    release_tx
}

/// Waits until every worker of `pool` is parked again with nothing queued.
fn wait_for_drain(pool: &Pool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let stats = pool.stats();
        if stats.idle == stats.threads && stats.queued == 0 {
            return;
        }
        assert!(Instant::now() < deadline, "pool failed to drain: {stats:?}");
        thread::sleep(Duration::from_millis(2));
    }
}

/// Submits `n` scope spawns from the calling thread, checking the depth
/// bound after each.
fn submit_scoped(pool: &Pool, n: usize, jobs_done: &AtomicUsize) {
    pool.scope(|scope| {
        for _ in 0..n {
            scope.spawn_as(JobClass::Bulk, || {
                jobs_done.fetch_add(1, Ordering::SeqCst);
            });
            let stats = pool.stats();
            assert!(stats.queued <= stats.threads, "backlog: {stats:?}");
        }
    });
}

#[test]
fn queue_depth_brackets_backlog_under_concurrent_submitters() {
    const SUBMITTERS: usize = 4;
    const JOBS_EACH: usize = 25;
    const TOTAL: usize = SUBMITTERS * JOBS_EACH;

    let pool = Pool::new(2);
    thread::scope(|s| {
        let release = saturate(s, &pool);
        assert_eq!(pool.stats().queued, 0, "running jobs are not queued");

        // Concurrent submitters against the saturated pool: no worker can
        // be claimed, so every job runs inline and nothing is queued.
        let jobs_done = AtomicUsize::new(0);
        thread::scope(|inner| {
            for _ in 0..SUBMITTERS {
                inner.spawn(|| submit_scoped(&pool, JOBS_EACH, &jobs_done));
            }
        });
        assert_eq!(jobs_done.load(Ordering::SeqCst), TOTAL);
        assert_eq!(pool.stats().queued, 0, "a saturated pool queues nothing");

        // Released, the workers park and are lent again: concurrent
        // submitters now race for claims, and the depth stays within
        // [0, threads] at every read.
        drop(release);
        wait_for_drain(&pool);
        let jobs_done = AtomicUsize::new(0);
        thread::scope(|inner| {
            for _ in 0..SUBMITTERS {
                inner.spawn(|| submit_scoped(&pool, JOBS_EACH, &jobs_done));
            }
        });
        assert_eq!(jobs_done.load(Ordering::SeqCst), TOTAL);
        wait_for_drain(&pool);
        assert_eq!(pool.stats().queued, 0);
    });
}

#[test]
fn queue_depth_is_zero_across_repeated_saturation_cycles() {
    let pool = Pool::new(1);
    for cycle in 0..3 {
        thread::scope(|s| {
            let release = saturate(s, &pool);
            let jobs_done = AtomicUsize::new(0);
            submit_scoped(&pool, 10, &jobs_done);
            assert_eq!(jobs_done.load(Ordering::SeqCst), 10);
            assert_eq!(pool.stats().queued, 0, "cycle {cycle}: saturated");
            drop(release);
        });
        wait_for_drain(&pool);
        // The freed worker is lent again: a claimed job runs on it.
        let ran_on_worker = pool
            .run_now_as(JobClass::Bulk, || {
                thread::current()
                    .name()
                    .is_some_and(|n| n.starts_with("dp-pool-worker-"))
            })
            .unwrap();
        assert!(ran_on_worker, "cycle {cycle}: the worker was not lent");
        wait_for_drain(&pool);
        assert_eq!(
            pool.stats().queued,
            0,
            "cycle {cycle}: depth returns to zero"
        );
    }
}
