//! The claim gate under saturation, at the CI matrix's widths (the suite
//! pins explicit budgets so the contract holds whatever `DPOPT_JOBS` is):
//! with every token held, `run_now_as` and a scope spawn run on the
//! calling thread at once instead of waiting for a token to free.

use dp_pool::{JobClass, Pool};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread;

/// Holds every token of `pool` until the returned sender is dropped: a
/// helper thread opens a scope with one job per token, each of which
/// waits for the release on a thread of its own.
fn occupy_all<'s>(s: &'s thread::Scope<'s, '_>, pool: &'s Pool) -> Sender<()> {
    let (release_tx, release_rx) = channel::<()>();
    let release_rx = Arc::new(Mutex::new(release_rx));
    let (entered_tx, entered_rx) = channel::<bool>();
    s.spawn(move || {
        pool.scope(|scope| {
            for _ in 0..pool.threads() {
                let (release_rx, entered_tx) = (Arc::clone(&release_rx), entered_tx.clone());
                scope.spawn_as(JobClass::Bulk, move || {
                    let on_pool_thread = thread::current().name() == Some("dp-pool-job");
                    entered_tx.send(on_pool_thread).unwrap();
                    // A closed channel (sender dropped) releases too.
                    let _ = release_rx.lock().unwrap().recv();
                });
            }
        })
    });
    for _ in 0..pool.threads() {
        assert!(entered_rx.recv().unwrap(), "the job ran on a pool thread");
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
            assert_eq!(ran_on, me, "{workers} tokens: run_now_as waited for one");
            let mut spawned_on = None;
            pool.scope(|scope| {
                let spawned_on = &mut spawned_on;
                scope.spawn_as(JobClass::Interactive, move || {
                    *spawned_on = Some(thread::current().id());
                });
            });
            assert_eq!(spawned_on, Some(me), "{workers} tokens: spawn_as waited");
            assert_eq!(pool.idle_workers(), 0);
            drop(release);
        });
        assert_eq!(pool.idle_workers(), workers, "every token is back");
    }
}
