//! Starvation and stealing contracts for the class-aware deque pool.
//!
//! The properties under test, at several worker counts (the CI
//! determinism matrix runs this suite at `DPOPT_JOBS` 1, 2, and 4 — the
//! suite itself also pins explicit pool sizes so the contracts hold
//! regardless of the env):
//!
//! - A bulk-saturated pool still completes an interactive job promptly:
//!   interactive work overtakes any amount of bulk backlog because every
//!   worker scans all interactive queues before any bulk queue.
//! - `run_now_as` latency is bounded under bulk saturation: the claim gate
//!   degrades it inline rather than parking it behind the backlog.
//! - A single free worker drains slots it does not own (work stealing),
//!   so parked or busy workers never strand queued jobs.

use dp_pool::{JobClass, Pool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Parks exactly `count` workers of `pool` (each in a *running* job, not
/// a queued one); returns the release sender.
fn park_workers(pool: &Pool, count: usize) -> std::sync::mpsc::SyncSender<()> {
    let (release_tx, release_rx) = sync_channel::<()>(count);
    let release_rx = Arc::new(Mutex::new(release_rx));
    let (entered_tx, entered_rx) = sync_channel::<()>(count);
    for _ in 0..count {
        let entered_tx = entered_tx.clone();
        let release_rx = Arc::clone(&release_rx);
        pool.submit_as(JobClass::Bulk, move || {
            entered_tx.send(()).unwrap();
            let guard = release_rx.lock().unwrap();
            let _ = guard.recv();
        });
    }
    for _ in 0..count {
        entered_rx.recv().unwrap();
    }
    release_tx
}

fn wait_until(deadline_secs: u64, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(deadline_secs);
    while !done() {
        assert!(Instant::now() < deadline, "condition not reached in time");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The core starvation contract: an interactive job pushed *behind* a
/// pile of bulk jobs completes ahead of (nearly all of) them. With one
/// worker the order is fully deterministic: interactive runs first.
#[test]
fn interactive_overtakes_bulk_backlog_single_worker() {
    let pool = Pool::new(1);
    let release = park_workers(&pool, 1);
    let order = Arc::new(Mutex::new(Vec::new()));
    for i in 0..30 {
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
    drop(release);
    wait_until(20, || order.lock().unwrap().len() == 31);
    let order = order.lock().unwrap();
    assert_eq!(
        order[0], "interactive",
        "the sole worker must scan interactive queues first: {order:?}"
    );
}

/// Same contract across multiple workers and slots: the interactive job
/// lands in *some* slot (round-robin), yet whichever worker picks up work
/// first finds it before any meaningful share of the bulk backlog drains.
#[test]
fn interactive_overtakes_bulk_backlog_multi_worker() {
    for workers in [2usize, 4] {
        let pool = Pool::new(workers);
        let release = park_workers(&pool, workers);
        let done = Arc::new(AtomicUsize::new(0));
        let interactive_pos = Arc::new(AtomicUsize::new(usize::MAX));
        const BULK: usize = 40;
        for _ in 0..BULK {
            let done = Arc::clone(&done);
            pool.submit_as(JobClass::Bulk, move || {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        {
            let done = Arc::clone(&done);
            let interactive_pos = Arc::clone(&interactive_pos);
            pool.submit_as(JobClass::Interactive, move || {
                let pos = done.fetch_add(1, Ordering::SeqCst);
                interactive_pos.store(pos, Ordering::SeqCst);
            });
        }
        drop(release);
        wait_until(20, || done.load(Ordering::SeqCst) == BULK + 1);
        let pos = interactive_pos.load(Ordering::SeqCst);
        // Each of the `workers` workers grabs at most one job before some
        // worker reaches the interactive queue scan; allow generous
        // scheduler slop on top and still catch FIFO behavior (which
        // would put it near position 40).
        assert!(
            pos < BULK / 2,
            "{workers} workers: interactive finished at position {pos}, \
             expected well before the bulk backlog"
        );
    }
}

/// Claim-gated `run_now_as` under full bulk saturation must not wait for the
/// backlog: the claim fails and the job runs inline, so its latency is
/// bounded by the job body, not the queue. Covers pool sizes 1, 2, 4 (the
/// matrix worker counts).
#[test]
fn run_now_is_bounded_under_bulk_saturation() {
    for workers in [1usize, 2, 4] {
        let pool = Pool::new(workers);
        let release = park_workers(&pool, workers);
        // Pile bulk work behind the parked workers.
        for _ in 0..50 {
            pool.submit_as(JobClass::Bulk, || {
                std::thread::sleep(Duration::from_millis(1));
            });
        }
        let start = Instant::now();
        let got = pool
            .run_now_as(JobClass::Interactive, || 99)
            .expect("interactive job result");
        let latency = start.elapsed();
        assert_eq!(got, 99);
        // Inline execution of a trivial body: seconds of slack still
        // distinguishes it from draining 50ms+ of backlog first.
        assert!(
            latency < Duration::from_secs(5),
            "{workers} workers: run_now_as took {latency:?} under saturation"
        );
        drop(release);
    }
}

/// Work stealing: with 3 of 4 workers parked, the one free worker must
/// drain jobs round-robined into *all* slots — most of them not its own —
/// and the interactive marker still overtakes the bulk queue it shares a
/// slot with.
#[test]
fn free_worker_steals_from_parked_workers_slots() {
    let pool = Pool::new(4);
    let parked = park_workers(&pool, 3);
    // The fourth worker waits too until everything is queued: a free
    // worker racing the submissions below could finish half the bulk jobs
    // before the interactive one exists.
    let gate = park_workers(&pool, 1);
    let baseline_steals = pool.stats().steals;
    let done = Arc::new(AtomicUsize::new(0));
    let interactive_pos = Arc::new(AtomicUsize::new(usize::MAX));
    const BULK: usize = 40;
    for _ in 0..BULK {
        let done = Arc::clone(&done);
        pool.submit_as(JobClass::Bulk, move || {
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    {
        let done = Arc::clone(&done);
        let interactive_pos = Arc::clone(&interactive_pos);
        pool.submit_as(JobClass::Interactive, move || {
            let pos = done.fetch_add(1, Ordering::SeqCst);
            interactive_pos.store(pos, Ordering::SeqCst);
        });
    }
    // Three workers stay parked the whole time: only the free worker can
    // run any of this, and ~3/4 of the jobs sit in slots it does not own.
    drop(gate);
    wait_until(20, || done.load(Ordering::SeqCst) == BULK + 1);
    let stolen = pool.stats().steals - baseline_steals;
    assert!(
        stolen >= 10,
        "the free worker must have stolen from other slots (saw {stolen})"
    );
    let pos = interactive_pos.load(Ordering::SeqCst);
    assert!(
        pos < BULK / 2,
        "interactive finished at position {pos} despite living in a stolen slot"
    );
    drop(parked);
}
