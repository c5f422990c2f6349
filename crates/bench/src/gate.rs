//! The bench-regression gate: compares a freshly-measured `vmbench`
//! document against the committed `BENCH_vm.json` on one contract —
//! **`instructions` must match exactly.** The dynamic original-unit
//! instruction count is part of the accounting-transparency contract
//! (fusion and dispatch mode must not change it), so any drift is a hard
//! failure: semantics moved, not the machine's speed.
//!
//! Nothing timed is gated. `vmbench` still records `speedup_fused`, but
//! that ratio against a file measured elsewhere passed 2 of 8 runs on an
//! unchanged tree; speed claims are made on `dpbench` pairs instead.

use dp_obs::json::Json;

/// One workload's committed-vs-fresh comparison.
#[derive(Debug)]
pub struct RowComparison {
    pub name: String,
    pub committed_instructions: u64,
    pub fresh_instructions: u64,
}

impl RowComparison {
    /// Exact-match accounting contract.
    pub fn instructions_ok(&self) -> bool {
        self.committed_instructions == self.fresh_instructions
    }
}

/// The gate's full verdict.
#[derive(Debug)]
pub struct GateReport {
    pub rows: Vec<RowComparison>,
}

impl GateReport {
    /// True iff every row's instruction count matches.
    pub fn ok(&self) -> bool {
        self.rows.iter().all(RowComparison::instructions_ok)
    }

    /// Human- and artifact-friendly comparison table plus the verdict line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<16} {:>14} {:>14}  {}\n",
            "workload", "instr (ref)", "instr (new)", "verdict"
        );
        for r in &self.rows {
            let verdict = if r.instructions_ok() {
                "ok"
            } else {
                "FAIL: instructions drifted"
            };
            out.push_str(&format!(
                "{:<16} {:>14} {:>14}  {verdict}\n",
                r.name, r.committed_instructions, r.fresh_instructions,
            ));
        }
        out.push_str(&format!(
            "gate: instructions exact — {}\n",
            if self.ok() { "PASS" } else { "FAIL" }
        ));
        out
    }
}

/// `(name, instructions)` of every workload row in a vmbench document.
fn instruction_counts(doc: &Json, which: &str) -> Result<Vec<(String, u64)>, String> {
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
            let instructions = row
                .get("instructions")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("workload `{name}`: missing numeric `instructions`"))?;
            Ok((name.to_string(), instructions))
        })
        .collect()
}

/// Compares two parsed vmbench documents. Every committed workload must
/// appear in the fresh run (a disappeared row is a silent-coverage hole,
/// so it is an error, not a pass).
pub fn compare(committed: &Json, fresh: &Json) -> Result<GateReport, String> {
    let measured = instruction_counts(fresh, "fresh")?;
    let rows = instruction_counts(committed, "committed")?
        .into_iter()
        .map(|(name, committed_instructions)| {
            let fresh_instructions = measured
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, instructions)| *instructions)
                .ok_or_else(|| format!("workload `{name}` missing from the fresh run"))?;
            Ok(RowComparison {
                name,
                committed_instructions,
                fresh_instructions,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(GateReport { rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_obs::json::parse;

    fn doc(rows: &[(&str, u64)]) -> Json {
        let body: Vec<String> = rows
            .iter()
            .map(|(name, instr)| format!(r#"{{"name":"{name}","instructions":{instr}}}"#))
            .collect();
        parse(&format!(r#"{{"workloads":[{}]}}"#, body.join(","))).unwrap()
    }

    #[test]
    fn identical_runs_pass() {
        let a = doc(&[("bfs", 1000), ("alu", 500)]);
        let report = compare(&a, &a).unwrap();
        assert!(report.ok(), "{}", report.render());
        assert_eq!(report.rows.len(), 2);
    }

    #[test]
    fn instruction_drift_fails() {
        let report = compare(&doc(&[("bfs", 1000)]), &doc(&[("bfs", 1001)])).unwrap();
        assert!(!report.ok(), "instruction drift is never tolerable");
        assert!(report.render().contains("instructions drifted"));
    }

    #[test]
    fn missing_workload_is_an_error() {
        let committed = doc(&[("bfs", 1000), ("alu", 500)]);
        let err = compare(&committed, &doc(&[("bfs", 1000)])).unwrap_err();
        assert!(err.contains("`alu` missing"), "{err}");
    }

    #[test]
    fn members_the_gate_does_not_know_are_ignored() {
        // vmbench grew `value_bytes`, `threaded_op_bytes` and per-workload
        // `ops_per_block`, and still records the `speedup_fused` this gate
        // no longer reads; a file without them gates one that has them, and
        // the other way round.
        let old = doc(&[("bfs", 1000)]);
        let new = parse(
            r#"{"value_bytes":16,"threaded_op_bytes":64,"workloads":[{"name":"bfs",
                "instructions":1000,"ops_per_block":4.25,"speedup_fused":0.5}]}"#,
        )
        .unwrap();
        assert!(compare(&old, &new).unwrap().ok());
        assert!(compare(&new, &old).unwrap().ok());
    }
}
