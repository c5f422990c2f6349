//! The claim gate under saturation, at the CI matrix's worker counts (the
//! suite pins explicit pool sizes so the contract holds whatever
//! `DPOPT_JOBS` is): with every worker occupied, `run_now_as` and a scope
//! spawn run on the calling thread at once instead of waiting for a
//! worker to free.

use dp_pool::{JobClass, Pool};
use std::sync::mpsc::sync_channel;
use std::thread;

/// Occupies every worker of `pool`: one `run_now_as` per worker from a
/// helper thread, each issued once a worker shows parked (this thread is
/// the only submitter, so the claim cannot fail), holding its worker until
/// the returned sender is dropped.
fn occupy_all<'s>(s: &'s thread::Scope<'s, '_>, pool: &'s Pool) -> std::sync::mpsc::Sender<()> {
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let release_rx = std::sync::Arc::new(std::sync::Mutex::new(release_rx));
    for _ in 0..pool.threads() {
        while pool.available_workers() == 0 {
            thread::yield_now();
        }
        let (entered_tx, entered_rx) = sync_channel::<bool>(0);
        let release_rx = std::sync::Arc::clone(&release_rx);
        s.spawn(move || {
            pool.run_now_as(JobClass::Bulk, move || {
                let worker = thread::current().name().map(str::to_owned);
                entered_tx
                    .send(worker.is_some_and(|n| n.starts_with("dp-pool-worker-")))
                    .unwrap();
                // A closed channel (sender dropped) releases too.
                let _ = release_rx.lock().unwrap().recv();
            })
            .unwrap()
        });
        assert!(entered_rx.recv().unwrap(), "the job ran on a worker");
    }
    assert_eq!(pool.idle_workers(), 0);
    release_tx
}

#[test]
fn run_now_is_bounded_under_bulk_saturation() {
    for workers in [1usize, 2, 4] {
        let pool = Pool::new(workers);
        thread::scope(|s| {
            let release = occupy_all(s, &pool);
            let me = thread::current().id();
            let ran_on = pool
                .run_now_as(JobClass::Interactive, move || thread::current().id())
                .expect("interactive job result");
            assert_eq!(
                ran_on, me,
                "{workers} workers: run_now_as waited for a worker"
            );
            let mut spawned_on = None;
            pool.scope(|scope| {
                let spawned_on = &mut spawned_on;
                scope.spawn_as(JobClass::Interactive, move || {
                    *spawned_on = Some(thread::current().id());
                });
            });
            assert_eq!(spawned_on, Some(me), "{workers} workers: spawn_as queued");
            assert_eq!(pool.stats().queued, 0);
            drop(release);
        });
    }
}
