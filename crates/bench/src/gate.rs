//! The bench-regression gate: compares a freshly-measured bench JSON
//! against its committed reference and decides whether the code regressed.
//! Two document shapes are understood — `vmbench` (`BENCH_vm.json`,
//! [`compare`]) and `servebench` (`BENCH_serve.json`, [`compare_serve`],
//! recognized by [`is_serve_doc`]).
//!
//! For vmbench, two contracts are checked with very different strictness:
//!
//! - **`instructions` must match exactly.** The dynamic original-unit
//!   instruction count is part of the accounting-transparency contract
//!   (fusion and dispatch mode must not change it), so any drift is a hard failure no tolerance can excuse — it means
//!   semantics moved, not the machine's speed.
//! - **`speedup_fused` may regress up to a tolerance.** Wall-clock on a
//!   shared CI runner is noisy; the fused/baseline *ratio* is the most
//!   stable signal vmbench produces (both rows run in the same process,
//!   same load), so the gate compares ratios, not absolute times.

use dp_sweep::json::Json;

/// One workload's committed-vs-fresh comparison.
#[derive(Debug)]
pub struct RowComparison {
    pub name: String,
    pub committed_instructions: u64,
    pub fresh_instructions: u64,
    pub committed_speedup_fused: f64,
    pub fresh_speedup_fused: f64,
}

impl RowComparison {
    /// Exact-match accounting contract.
    pub fn instructions_ok(&self) -> bool {
        self.committed_instructions == self.fresh_instructions
    }

    /// `fresh / committed` for the gated ratio (1.0 = unchanged).
    pub fn fused_ratio(&self) -> f64 {
        self.fresh_speedup_fused / self.committed_speedup_fused
    }

    fn speedup_ok(&self, tolerance: f64) -> bool {
        self.fresh_speedup_fused >= self.committed_speedup_fused * (1.0 - tolerance)
    }
}

/// The gate's full verdict.
#[derive(Debug)]
pub struct GateReport {
    pub tolerance: f64,
    pub rows: Vec<RowComparison>,
}

impl GateReport {
    /// True iff every row passes both checks.
    pub fn ok(&self) -> bool {
        self.rows
            .iter()
            .all(|r| r.instructions_ok() && r.speedup_ok(self.tolerance))
    }

    /// Human- and artifact-friendly comparison table plus verdict lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:>14} {:>14} {:>9} {:>9} {:>7}  {}\n",
            "workload", "instr (ref)", "instr (new)", "fusedX", "fusedX'", "ratio", "verdict"
        ));
        for r in &self.rows {
            let verdict = if !r.instructions_ok() {
                "FAIL: instructions drifted"
            } else if !r.speedup_ok(self.tolerance) {
                "FAIL: speedup_fused regressed"
            } else {
                "ok"
            };
            out.push_str(&format!(
                "{:<16} {:>14} {:>14} {:>8.2}x {:>8.2}x {:>7.3}  {}\n",
                r.name,
                r.committed_instructions,
                r.fresh_instructions,
                r.committed_speedup_fused,
                r.fresh_speedup_fused,
                r.fused_ratio(),
                verdict,
            ));
        }
        out.push_str(&format!(
            "gate: tolerance {:.0}% on speedup_fused, instructions exact — {}\n",
            self.tolerance * 100.0,
            if self.ok() { "PASS" } else { "FAIL" }
        ));
        out
    }
}

fn workload_map(doc: &Json, which: &str) -> Result<Vec<(String, Json)>, String> {
    let rows = doc
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{which}: missing `workloads` array"))?;
    rows.iter()
        .map(|row| {
            let name = row
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{which}: workload without a `name`"))?;
            Ok((name.to_string(), row.clone()))
        })
        .collect()
}

fn field_u64(row: &Json, name: &str, field: &str) -> Result<u64, String> {
    row.get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("workload `{name}`: missing numeric `{field}`"))
}

fn field_f64(row: &Json, name: &str, field: &str) -> Result<f64, String> {
    row.get(field)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("workload `{name}`: missing numeric `{field}`"))
}

/// Compares two parsed vmbench documents. Every committed workload must
/// appear in the fresh run (a disappeared row is a silent-coverage hole,
/// so it is an error, not a pass).
pub fn compare(committed: &Json, fresh: &Json, tolerance: f64) -> Result<GateReport, String> {
    if !(0.0..1.0).contains(&tolerance) {
        return Err(format!("tolerance must be in [0, 1), got {tolerance}"));
    }
    let reference = workload_map(committed, "committed")?;
    let measured = workload_map(fresh, "fresh")?;
    let mut rows = Vec::new();
    for (name, committed_row) in &reference {
        let fresh_row = measured
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, row)| row)
            .ok_or_else(|| format!("workload `{name}` missing from the fresh run"))?;
        rows.push(RowComparison {
            name: name.clone(),
            committed_instructions: field_u64(committed_row, name, "instructions")?,
            fresh_instructions: field_u64(fresh_row, name, "instructions")?,
            committed_speedup_fused: field_f64(committed_row, name, "speedup_fused")?,
            fresh_speedup_fused: field_f64(fresh_row, name, "speedup_fused")?,
        });
    }
    Ok(GateReport { tolerance, rows })
}

/// One servebench scenario's committed-vs-fresh comparison.
#[derive(Debug)]
pub struct ServeRowComparison {
    pub name: String,
    pub committed_requests: u64,
    pub fresh_requests: u64,
    pub committed_p50_us: f64,
    pub fresh_p50_us: f64,
    pub committed_p99_us: f64,
    pub fresh_p99_us: f64,
    pub fresh_rps: f64,
}

impl ServeRowComparison {
    /// Exact-match coverage contract: a scenario that served a different
    /// request count measured something else entirely.
    pub fn requests_ok(&self) -> bool {
        self.committed_requests == self.fresh_requests
    }

    fn latency_ok(&self, tolerance: f64) -> bool {
        self.fresh_p50_us <= self.committed_p50_us * (1.0 + tolerance)
            && self.fresh_p99_us <= self.committed_p99_us * (1.0 + tolerance)
    }
}

/// The serve gate's full verdict.
#[derive(Debug)]
pub struct ServeGateReport {
    pub tolerance: f64,
    pub rows: Vec<ServeRowComparison>,
}

impl ServeGateReport {
    /// True iff every scenario passes both checks.
    pub fn ok(&self) -> bool {
        self.rows
            .iter()
            .all(|r| r.requests_ok() && r.latency_ok(self.tolerance))
    }

    /// Human- and artifact-friendly comparison table plus verdict lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:>9} {:>9} {:>11} {:>11} {:>11} {:>11} {:>10}  {}\n",
            "scenario",
            "req (ref)",
            "req (new)",
            "p50us(ref)",
            "p50us(new)",
            "p99us(ref)",
            "p99us(new)",
            "rps(new)",
            "verdict"
        ));
        for r in &self.rows {
            let verdict = if !r.requests_ok() {
                "FAIL: request count drifted"
            } else if !r.latency_ok(self.tolerance) {
                "FAIL: latency regressed"
            } else {
                "ok"
            };
            out.push_str(&format!(
                "{:<12} {:>9} {:>9} {:>11.1} {:>11.1} {:>11.1} {:>11.1} {:>10.0}  {}\n",
                r.name,
                r.committed_requests,
                r.fresh_requests,
                r.committed_p50_us,
                r.fresh_p50_us,
                r.committed_p99_us,
                r.fresh_p99_us,
                r.fresh_rps,
                verdict,
            ));
        }
        out.push_str(&format!(
            "serve gate: tolerance {:.0}% on p50/p99, request counts exact — {}\n",
            self.tolerance * 100.0,
            if self.ok() { "PASS" } else { "FAIL" }
        ));
        out
    }
}

/// Whether a parsed bench document is a servebench one (vs vmbench) —
/// lets `benchgate` pick the comparison without a mode flag.
pub fn is_serve_doc(doc: &Json) -> bool {
    doc.get("benchmark").and_then(Json::as_str) == Some("servebench")
}

fn scenario_map(doc: &Json, which: &str) -> Result<Vec<(String, Json)>, String> {
    let rows = doc
        .get("scenarios")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{which}: missing `scenarios` array"))?;
    rows.iter()
        .map(|row| {
            let name = row
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{which}: scenario without a `name`"))?;
            Ok((name.to_string(), row.clone()))
        })
        .collect()
}

/// Compares two parsed servebench documents. Latency gates one-sided with
/// `1 + tolerance` headroom — tolerances above 1.0 are legitimate here
/// (absolute microsecond latencies on shared runners are far noisier than
/// vmbench's same-process ratios), so the only bound is non-negativity.
/// Every committed scenario must appear in the fresh run.
pub fn compare_serve(
    committed: &Json,
    fresh: &Json,
    tolerance: f64,
) -> Result<ServeGateReport, String> {
    if !tolerance.is_finite() || tolerance < 0.0 {
        return Err(format!("tolerance must be >= 0, got {tolerance}"));
    }
    let reference = scenario_map(committed, "committed")?;
    let measured = scenario_map(fresh, "fresh")?;
    let mut rows = Vec::new();
    for (name, committed_row) in &reference {
        let fresh_row = measured
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, row)| row)
            .ok_or_else(|| format!("scenario `{name}` missing from the fresh run"))?;
        rows.push(ServeRowComparison {
            name: name.clone(),
            committed_requests: field_u64(committed_row, name, "requests")?,
            fresh_requests: field_u64(fresh_row, name, "requests")?,
            committed_p50_us: field_f64(committed_row, name, "p50_us")?,
            fresh_p50_us: field_f64(fresh_row, name, "p50_us")?,
            committed_p99_us: field_f64(committed_row, name, "p99_us")?,
            fresh_p99_us: field_f64(fresh_row, name, "p99_us")?,
            fresh_rps: field_f64(fresh_row, name, "rps")?,
        });
    }
    Ok(ServeGateReport { tolerance, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_sweep::json::parse;

    fn doc(rows: &[(&str, u64, f64)]) -> Json {
        let body: Vec<String> = rows
            .iter()
            .map(|(name, instr, fused)| {
                format!(r#"{{"name":"{name}","instructions":{instr},"speedup_fused":{fused}}}"#)
            })
            .collect();
        parse(&format!(r#"{{"workloads":[{}]}}"#, body.join(","))).unwrap()
    }

    #[test]
    fn identical_runs_pass() {
        let a = doc(&[("bfs", 1000, 2.0), ("alu", 500, 1.8)]);
        let report = compare(&a, &a, 0.2).unwrap();
        assert!(report.ok(), "{}", report.render());
        assert_eq!(report.rows.len(), 2);
    }

    #[test]
    fn regression_within_tolerance_passes() {
        let committed = doc(&[("bfs", 1000, 2.0)]);
        let fresh = doc(&[("bfs", 1000, 1.7)]);
        let report = compare(&committed, &fresh, 0.2).unwrap();
        assert!(report.ok(), "15% drop inside a 20% tolerance must pass");
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let committed = doc(&[("bfs", 1000, 2.0)]);
        let fresh = doc(&[("bfs", 1000, 1.5)]);
        let report = compare(&committed, &fresh, 0.2).unwrap();
        assert!(!report.ok(), "25% drop outside a 20% tolerance must fail");
        assert!(report.render().contains("speedup_fused regressed"));
    }

    #[test]
    fn improvement_always_passes() {
        let committed = doc(&[("bfs", 1000, 2.0)]);
        let fresh = doc(&[("bfs", 1000, 3.5)]);
        assert!(compare(&committed, &fresh, 0.0).unwrap().ok());
    }

    #[test]
    fn instruction_drift_fails_regardless_of_tolerance() {
        let committed = doc(&[("bfs", 1000, 2.0)]);
        let fresh = doc(&[("bfs", 1001, 9.9)]);
        let report = compare(&committed, &fresh, 0.99).unwrap();
        assert!(!report.ok(), "instruction drift is never tolerable");
        assert!(report.render().contains("instructions drifted"));
    }

    #[test]
    fn missing_workload_is_an_error() {
        let committed = doc(&[("bfs", 1000, 2.0), ("alu", 500, 1.8)]);
        let fresh = doc(&[("bfs", 1000, 2.0)]);
        let err = compare(&committed, &fresh, 0.2).unwrap_err();
        assert!(err.contains("`alu` missing"), "{err}");
    }

    #[test]
    fn members_the_gate_does_not_know_are_ignored() {
        // vmbench grew `value_bytes`, `threaded_op_bytes` and per-workload
        // `ops_per_block`; a committed file from before them still gates a
        // fresh one that has them, and the other way round.
        let old = doc(&[("bfs", 1000, 2.0)]);
        let new = parse(
            r#"{"value_bytes":16,"threaded_op_bytes":64,"workloads":[{"name":"bfs",
                "instructions":1000,"ops_per_block":4.25,"speedup_fused":2.0}]}"#,
        )
        .unwrap();
        assert!(compare(&old, &new, 0.1).unwrap().ok());
        assert!(compare(&new, &old, 0.1).unwrap().ok());
    }

    #[test]
    fn bad_tolerance_is_rejected() {
        let a = doc(&[("bfs", 1000, 2.0)]);
        assert!(compare(&a, &a, 1.0).is_err());
        assert!(compare(&a, &a, -0.1).is_err());
    }

    fn serve_doc(rows: &[(&str, u64, f64, f64)]) -> Json {
        let body: Vec<String> = rows
            .iter()
            .map(|(name, requests, p50, p99)| {
                format!(
                    r#"{{"name":"{name}","requests":{requests},"p50_us":{p50},"p99_us":{p99},"rps":100.0}}"#
                )
            })
            .collect();
        parse(&format!(
            r#"{{"benchmark":"servebench","scenarios":[{}]}}"#,
            body.join(",")
        ))
        .unwrap()
    }

    #[test]
    fn serve_docs_are_detected_and_vm_docs_are_not() {
        assert!(is_serve_doc(&serve_doc(&[("warm-c1", 16, 100.0, 200.0)])));
        assert!(!is_serve_doc(&doc(&[("bfs", 1000, 2.0)])));
    }

    #[test]
    fn identical_serve_runs_pass() {
        let a = serve_doc(&[("cold-c1", 4, 900.0, 1500.0), ("warm-c8", 128, 80.0, 300.0)]);
        let report = compare_serve(&a, &a, 0.0).unwrap();
        assert!(report.ok(), "{}", report.render());
        assert_eq!(report.rows.len(), 2);
    }

    #[test]
    fn serve_latency_within_tolerance_passes_and_beyond_fails() {
        let committed = serve_doc(&[("warm-c1", 16, 100.0, 200.0)]);
        let slower = serve_doc(&[("warm-c1", 16, 180.0, 390.0)]);
        // Both percentiles regressed under 2x: inside a 100% tolerance.
        assert!(compare_serve(&committed, &slower, 1.0).unwrap().ok());
        let report = compare_serve(&committed, &slower, 0.5).unwrap();
        assert!(!report.ok(), "80%/95% regressions outside 50% must fail");
        assert!(report.render().contains("latency regressed"));
    }

    #[test]
    fn serve_improvement_always_passes() {
        let committed = serve_doc(&[("warm-c1", 16, 100.0, 200.0)]);
        let faster = serve_doc(&[("warm-c1", 16, 40.0, 90.0)]);
        assert!(compare_serve(&committed, &faster, 0.0).unwrap().ok());
    }

    #[test]
    fn serve_request_count_drift_fails_regardless_of_tolerance() {
        let committed = serve_doc(&[("warm-c1", 16, 100.0, 200.0)]);
        let fresh = serve_doc(&[("warm-c1", 15, 1.0, 2.0)]);
        let report = compare_serve(&committed, &fresh, 100.0).unwrap();
        assert!(!report.ok(), "a lost request is never tolerable");
        assert!(report.render().contains("request count drifted"));
    }

    #[test]
    fn serve_tolerances_above_one_are_legal_but_negatives_are_not() {
        let a = serve_doc(&[("warm-c1", 16, 100.0, 200.0)]);
        assert!(compare_serve(&a, &a, 4.0).is_ok());
        assert!(compare_serve(&a, &a, -0.1).is_err());
        assert!(compare_serve(&a, &a, f64::NAN).is_err());
    }

    #[test]
    fn serve_missing_scenario_is_an_error() {
        let committed = serve_doc(&[("cold-c1", 4, 900.0, 1500.0), ("warm-c1", 16, 100.0, 200.0)]);
        let fresh = serve_doc(&[("cold-c1", 4, 900.0, 1500.0)]);
        let err = compare_serve(&committed, &fresh, 1.0).unwrap_err();
        assert!(err.contains("`warm-c1` missing"), "{err}");
    }
}
