//! `DPOPT_METRICS` switches the registry on by itself: the first
//! `metrics::enabled()` of a process reads it, no front-end has to.
//!
//! The variable is read once per process, so every case runs in a child
//! copy of this test binary (the child executes `print_enabled_in_child`,
//! a no-op in the parent run) and the parent reads what the child printed.

use dp_obs::metrics;

const CHILD_MARKER: &str = "DP_OBS_METRICS_ENV_CHILD";

/// What `metrics::enabled()` says first thing in a process started with
/// `DPOPT_METRICS` set to `value` (or removed, for `None`).
fn enabled_in_child(value: Option<&str>) -> bool {
    let mut child = std::process::Command::new(std::env::current_exe().unwrap());
    child
        .args(["print_enabled_in_child", "--exact", "--nocapture"])
        .env(CHILD_MARKER, "1")
        .env_remove("DPOPT_METRICS");
    if let Some(value) = value {
        child.env("DPOPT_METRICS", value);
    }
    let out = child.output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "child failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    match (
        stdout.contains("enabled=true"),
        stdout.contains("enabled=false"),
    ) {
        (true, false) => true,
        (false, true) => false,
        _ => panic!("child must print exactly one answer: {stdout}"),
    }
}

#[test]
fn dpopt_metrics_turns_the_registry_on_without_a_caller() {
    assert!(enabled_in_child(Some("1")), "DPOPT_METRICS=1");
    assert!(enabled_in_child(Some("yes")), "any other non-empty value");
    assert!(!enabled_in_child(None), "unset");
    assert!(!enabled_in_child(Some("0")), "DPOPT_METRICS=0");
    assert!(!enabled_in_child(Some("")), "empty");
}

/// The child half. In a normal test run (no marker) it does nothing.
#[test]
fn print_enabled_in_child() {
    if std::env::var_os(CHILD_MARKER).is_none() {
        return;
    }
    let first = metrics::enabled();
    println!("enabled={first}");
    assert_eq!(metrics::enabled(), first, "the answer is read once");
    metrics::enable();
    assert!(metrics::enabled(), "enable() wins over the environment");
}
