//! `Pool::stats().queued_total()` under contention: concurrent submitters against
//! a saturated pool. The reported depth is a racy snapshot by contract,
//! so the assertions bracket the true queue length instead of pinning it:
//! it never exceeds what was submitted, it reaches the full backlog while
//! the workers are parked, and it returns to zero once the queue drains.

use dp_pool::{JobClass, Pool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parks every worker of `pool`, returning a sender that releases them.
/// The returned jobs are *running*, not queued, so the depth baseline
/// after this is exactly zero.
fn saturate(pool: &Pool) -> std::sync::mpsc::SyncSender<()> {
    let workers = pool.threads();
    let (release_tx, release_rx) = sync_channel::<()>(workers);
    let release_rx = Arc::new(std::sync::Mutex::new(release_rx));
    let (entered_tx, entered_rx) = sync_channel::<()>(workers);
    for _ in 0..workers {
        let entered_tx = entered_tx.clone();
        let release_rx = Arc::clone(&release_rx);
        pool.submit_as(JobClass::Bulk, move || {
            entered_tx.send(()).unwrap();
            let guard = release_rx.lock().unwrap();
            // A closed channel (sender dropped) releases too.
            let _ = guard.recv();
        });
    }
    for _ in 0..workers {
        entered_rx.recv().unwrap();
    }
    release_tx
}

fn wait_for_drain(pool: &Pool, jobs_done: &AtomicUsize, expect: usize) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while jobs_done.load(Ordering::SeqCst) < expect || pool.stats().queued_total() > 0 {
        assert!(
            Instant::now() < deadline,
            "pool failed to drain: {}/{} jobs done, depth {}",
            jobs_done.load(Ordering::SeqCst),
            expect,
            pool.stats().queued_total()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn queue_depth_brackets_backlog_under_concurrent_submitters() {
    const SUBMITTERS: usize = 4;
    const JOBS_EACH: usize = 25;
    const TOTAL: usize = SUBMITTERS * JOBS_EACH;

    let pool = Arc::new(Pool::new(2));
    let release = saturate(&pool);
    assert_eq!(
        pool.stats().queued_total(),
        0,
        "running jobs are not queued"
    );

    let jobs_done = Arc::new(AtomicUsize::new(0));
    let max_seen = Arc::new(AtomicUsize::new(0));

    // Concurrent submitters race the depth reads: every observation made
    // while submission is in flight must stay within [0, TOTAL].
    std::thread::scope(|s| {
        for _ in 0..SUBMITTERS {
            let pool = Arc::clone(&pool);
            let jobs_done = Arc::clone(&jobs_done);
            let max_seen = Arc::clone(&max_seen);
            s.spawn(move || {
                for _ in 0..JOBS_EACH {
                    let jobs_done = Arc::clone(&jobs_done);
                    pool.submit_as(JobClass::Bulk, move || {
                        jobs_done.fetch_add(1, Ordering::SeqCst);
                    });
                    let depth = pool.stats().queued_total();
                    assert!(depth <= TOTAL, "depth {depth} exceeds submitted {TOTAL}");
                    max_seen.fetch_max(depth, Ordering::SeqCst);
                }
            });
        }
    });

    // Workers are still parked, so at quiescence the snapshot is exact:
    // every submitted job is sitting in the queue.
    assert_eq!(pool.stats().queued_total(), TOTAL);
    assert!(
        max_seen.load(Ordering::SeqCst) > 0,
        "submitters racing a saturated pool must observe a backlog"
    );

    // Release the parked workers; the backlog drains and depth returns to
    // zero permanently.
    drop(release);
    wait_for_drain(&pool, &jobs_done, TOTAL);
    assert_eq!(jobs_done.load(Ordering::SeqCst), TOTAL);
    assert_eq!(pool.stats().queued_total(), 0);
}

#[test]
fn queue_depth_is_the_total_across_classes() {
    let pool = Arc::new(Pool::new(2));
    let release = saturate(&pool);
    let jobs_done = Arc::new(AtomicUsize::new(0));
    for class in [
        JobClass::Bulk,
        JobClass::Bulk,
        JobClass::Interactive,
        JobClass::Bulk,
        JobClass::Interactive,
    ] {
        let jobs_done = Arc::clone(&jobs_done);
        pool.submit_as(class, move || {
            jobs_done.fetch_add(1, Ordering::SeqCst);
        });
    }
    // At quiescence (workers parked) the per-class depths are exact and
    // the total is their sum.
    let stats = pool.stats();
    assert_eq!(stats.queued_bulk, 3);
    assert_eq!(stats.queued_interactive, 2);
    assert_eq!(stats.queued_total(), 5);
    drop(release);
    wait_for_drain(&pool, &jobs_done, 5);
    let stats = pool.stats();
    assert_eq!(stats.queued_total(), 0, "both classes drain to zero");
}

#[test]
fn queue_depth_is_zero_across_repeated_saturation_cycles() {
    let pool = Arc::new(Pool::new(1));
    for _ in 0..3 {
        let release = saturate(&pool);
        let jobs_done = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let jobs_done = Arc::clone(&jobs_done);
            pool.submit_as(JobClass::Bulk, move || {
                jobs_done.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(pool.stats().queued_total(), 10);
        drop(release);
        wait_for_drain(&pool, &jobs_done, 10);
        assert_eq!(
            pool.stats().queued_total(),
            0,
            "each cycle must end fully drained"
        );
    }
}
