//! `DPOPT_JOBS=1` means a process with no extra threads: the job count is
//! one and the shared pool — the whole worker budget — has zero workers.
//!
//! The env var is read once per process, at first touch, so the case
//! re-runs this test binary as a child process with it set.

use dp_pool::jobs::configured_jobs;

/// The assertions run in a child copy of this test binary with the env set
/// (the child executes `jobs_one_child_assertions`, which is a no-op in the
/// parent run).
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
        dp_pool::Pool::shared().threads(),
        0,
        "a single-job process has no workers beyond the caller"
    );
}
