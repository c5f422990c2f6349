//! `benchgate` — the CI bench-regression gate.
//!
//! Compares a freshly-measured `vmbench` JSON against the committed
//! `BENCH_vm.json` and exits nonzero when `instructions` does not match
//! **exactly**, a workload's `dispatched_ops` **rose**, or its
//! `replayed_instructions`, `skipped_instructions` or `skipped_lanes`
//! **fell**. Nothing timed is gated; see `dp_bench::gate`.
//!
//! ```text
//! benchgate <committed.json> <fresh.json> [-o report.txt]
//! ```
//!
//! The rendered comparison goes to stdout (and to `-o` for CI artifact
//! upload) whether the gate passes or fails.

use dp_bench::gate;
use dp_obs::json;
use std::process::ExitCode;

fn load(path: &str) -> Result<json::Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    json::parse(&text).map_err(|e| format!("`{path}`: {e}"))
}

fn main() -> ExitCode {
    let mut positional = Vec::new();
    let mut report_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-o" => match args.next() {
                Some(path) => report_path = Some(path),
                None => return fail("-o needs a path"),
            },
            other if !other.starts_with('-') => positional.push(arg),
            other => return fail(&format!("unexpected argument `{other}`")),
        }
    }
    let [committed_path, fresh_path] = positional.as_slice() else {
        return fail("usage: benchgate <committed.json> <fresh.json> [-o report]");
    };
    let report = match (load(committed_path), load(fresh_path)) {
        (Ok(committed), Ok(fresh)) => match gate::compare(&committed, &fresh) {
            Ok(report) => report,
            Err(e) => return fail(&e),
        },
        (Err(e), _) | (_, Err(e)) => return fail(&e),
    };
    let rendered = report.render();
    print!("{rendered}");
    if let Some(path) = report_path {
        if let Err(e) = std::fs::write(&path, &rendered) {
            return fail(&format!("cannot write `{path}`: {e}"));
        }
    }
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("benchgate: {msg}");
    ExitCode::FAILURE
}
