//! `benchgate` — the CI bench-regression gate.
//!
//! Compares a freshly-measured bench JSON against the committed reference
//! and exits nonzero on regression. The document shape picks the mode:
//!
//! - **vmbench** (`BENCH_vm.json`): `instructions` must match **exactly**
//!   (the accounting contract — drift means semantics moved), and
//!   `speedup_fused` may drop at most `--tolerance` (default 25%, sized
//!   for shared-runner noise; the fused/baseline ratio is
//!   wall-clock-noise-resistant because both rows run in the same
//!   process).
//! - **servebench** (`BENCH_serve.json`, detected by its
//!   `"benchmark":"servebench"` member): per-scenario request counts must
//!   match exactly, and fresh p50/p99 latency may exceed the committed
//!   values by at most `--tolerance` (default 400% — absolute
//!   microsecond latencies on shared runners are far noisier than
//!   vmbench's same-process ratios; the gate catches order-of-magnitude
//!   regressions, not jitter). Throughput is reported, never gated.
//!
//! ```text
//! benchgate <committed.json> <fresh.json> [--tolerance F] [-o report.txt]
//! ```
//!
//! The rendered comparison goes to stdout (and to `-o` for CI artifact
//! upload) whether the gate passes or fails.

use dp_bench::gate;
use dp_sweep::json;
use std::process::ExitCode;

fn load(path: &str) -> Result<json::Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    json::parse(&text).map_err(|e| format!("`{path}`: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = Vec::new();
    let mut tolerance: Option<f64> = None;
    let mut report_path = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tolerance" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<f64>().ok()) {
                    Some(v) => tolerance = Some(v),
                    None => return fail("--tolerance needs a number"),
                }
                i += 1;
            }
            "-o" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    return fail("-o needs a path");
                };
                report_path = Some(path.clone());
                i += 1;
            }
            other if !other.starts_with('-') => {
                positional.push(other.to_string());
                i += 1;
            }
            other => return fail(&format!("unexpected argument `{other}`")),
        }
    }
    let [committed_path, fresh_path] = positional.as_slice() else {
        return fail("usage: benchgate <committed.json> <fresh.json> [--tolerance F] [-o report]");
    };

    let committed = match load(committed_path) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let fresh = match load(fresh_path) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    // The committed document's shape picks the comparison; a committed
    // serve doc against a fresh vm doc (or vice versa) fails on its
    // missing members, which is the right answer.
    let (rendered, ok) = if gate::is_serve_doc(&committed) {
        match gate::compare_serve(&committed, &fresh, tolerance.unwrap_or(4.0)) {
            Ok(r) => (r.render(), r.ok()),
            Err(e) => return fail(&e),
        }
    } else {
        match gate::compare(&committed, &fresh, tolerance.unwrap_or(0.25)) {
            Ok(r) => (r.render(), r.ok()),
            Err(e) => return fail(&e),
        }
    };
    print!("{rendered}");
    if let Some(path) = report_path {
        if let Err(e) = std::fs::write(&path, &rendered) {
            return fail(&format!("cannot write `{path}`: {e}"));
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("benchgate: {msg}");
    ExitCode::FAILURE
}
