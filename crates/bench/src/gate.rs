//! The bench-regression gate: compares a freshly-measured `vmbench`
//! document against the committed `BENCH_vm.json` and decides whether the
//! code regressed. Two contracts are checked with very different
//! strictness:
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
}
