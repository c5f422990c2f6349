//! Edge-case semantics of the process-wide `DPOPT_JOBS` budget
//! (`dp_pool::jobs` — the ledger the shared pool holds its lifetime
//! reservation from): reserving from an exhausted budget, `DPOPT_JOBS=1`,
//! and budget release when the reserving worker panics.
//!
//! The budget is process-global state, so the tests in this file serialize
//! on a mutex, and the `DPOPT_JOBS=1` case (which needs the env var read
//! at first touch) re-runs this test binary as a child process.

use dp_pool::jobs::{configured_jobs, reserve_up_to};
use std::sync::Mutex;

/// Serializes the budget-touching tests; the libtest harness runs tests in
/// this binary concurrently otherwise.
static BUDGET_LOCK: Mutex<()> = Mutex::new(());

/// The whole budget (the configured job count bounds the token pool, so
/// this request can never be partially satisfiable by a larger one).
fn drain_budget() -> dp_pool::jobs::Reservation {
    reserve_up_to(configured_jobs())
}

#[test]
fn exhausted_budget_grants_zero_and_recovers() {
    let _guard = BUDGET_LOCK.lock().unwrap();
    let all = drain_budget();
    // The pool is empty now: every further request degrades to sequential.
    assert_eq!(reserve_up_to(1).count(), 0, "exhausted budget grants 0");
    assert_eq!(reserve_up_to(usize::MAX >> 1).count(), 0, "huge wants too");
    drop(all);
    // Released tokens are immediately reservable again.
    let again = drain_budget();
    assert_eq!(
        again.count(),
        configured_jobs() - 1,
        "full budget returns after release"
    );
}

#[test]
fn zero_want_is_always_granted_zero() {
    let _guard = BUDGET_LOCK.lock().unwrap();
    assert_eq!(reserve_up_to(0).count(), 0);
    // Even with the budget fully drained, a zero-want succeeds trivially.
    let _all = drain_budget();
    assert_eq!(reserve_up_to(0).count(), 0);
}

#[test]
fn budget_is_released_when_the_holder_panics() {
    let _guard = BUDGET_LOCK.lock().unwrap();
    let before = drain_budget();
    let expected = before.count();
    drop(before);

    // A worker that reserves and then panics must not leak its tokens:
    // `Reservation: Drop` runs during unwinding.
    let worker = std::thread::spawn(|| {
        let _reservation = drain_budget();
        panic!("worker died while holding the budget");
    });
    assert!(worker.join().is_err(), "worker must have panicked");

    let after = drain_budget();
    assert_eq!(
        after.count(),
        expected,
        "panicked holder must return its tokens"
    );
}

/// `DPOPT_JOBS=1` means "no extra threads, ever": the budget starts empty.
/// The env var is parsed once per process, so this assertion runs in a
/// child copy of this test binary with the env set (the child executes
/// `jobs_one_child_assertions`, which is a no-op in the parent run).
#[test]
fn dpopt_jobs_1_has_an_empty_budget() {
    let exe = std::env::current_exe().unwrap();
    let out = std::process::Command::new(exe)
        .args(["jobs_one_child_assertions", "--exact", "--nocapture"])
        .env("DPOPT_JOBS", "1")
        .env("DPOPT_JOBS_BUDGET_CHILD", "1")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "child assertions failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("1 passed"),
        "child must actually run the assertions: {stdout}"
    );
}

/// The child half of `dpopt_jobs_1_has_an_empty_budget`. In a normal test
/// run (no marker env) it does nothing.
#[test]
fn jobs_one_child_assertions() {
    if std::env::var_os("DPOPT_JOBS_BUDGET_CHILD").is_none() {
        return;
    }
    assert_eq!(configured_jobs(), 1, "DPOPT_JOBS=1 must be honored");
    assert_eq!(
        reserve_up_to(8).count(),
        0,
        "a single-job process has zero extra tokens"
    );
}
