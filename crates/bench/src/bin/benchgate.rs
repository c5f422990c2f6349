//! `benchgate` — the CI bench-regression gate.
//!
//! Compares a freshly-measured `vmbench` JSON against the committed
//! `BENCH_vm.json` and exits nonzero on regression: `instructions` must
//! match **exactly** (the accounting contract — drift means semantics
//! moved), and `speedup_fused` may drop at most `--tolerance` (default
//! 25%, sized for shared-runner noise; the fused/baseline ratio is
//! wall-clock-noise-resistant because both rows run in the same process).
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
    let mut tolerance = 0.25;
    let mut report_path = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tolerance" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<f64>().ok()) {
                    Some(v) => tolerance = v,
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
    let report = match gate::compare(&committed, &fresh, tolerance) {
        Ok(r) => r,
        Err(e) => return fail(&e),
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
