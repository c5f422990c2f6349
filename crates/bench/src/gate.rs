//! The bench-regression gate: compares a freshly-measured `vmbench`
//! document against the committed `BENCH_vm.json` on two counts, both exact
//! and repeatable on any host.
//!
//! **`instructions` must match exactly.** The dynamic original-unit
//! instruction count is part of the accounting-transparency contract
//! (fusion and dispatch mode must not change it), so any drift is a hard
//! failure: semantics moved, not the machine's speed.
//!
//! **`dispatched_ops` must not rise.** It is the number of table slots the
//! fused program dispatches for those instructions — what the fuser is for.
//! A fusion window lost (a lowering change that breaks a pattern, a fuser
//! edit) raises it with every test still green; fewer is an improvement,
//! and is committed by refreshing `BENCH_vm.json`. A committed file from
//! before the count existed gates `instructions` only.
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
    /// `(committed, fresh)` dispatched table slots, when the committed
    /// document records them.
    pub dispatched_ops: Option<(u64, u64)>,
}

impl RowComparison {
    /// Exact-match accounting contract.
    pub fn instructions_ok(&self) -> bool {
        self.committed_instructions == self.fresh_instructions
    }

    /// The fused program dispatches no more slots than it was committed to.
    pub fn dispatched_ops_ok(&self) -> bool {
        self.dispatched_ops
            .is_none_or(|(committed, fresh)| fresh <= committed)
    }
}

/// The gate's full verdict.
#[derive(Debug)]
pub struct GateReport {
    pub rows: Vec<RowComparison>,
}

impl GateReport {
    /// True iff every row's instruction count matches and no row
    /// dispatches more slots than committed.
    pub fn ok(&self) -> bool {
        self.rows
            .iter()
            .all(|r| r.instructions_ok() && r.dispatched_ops_ok())
    }

    /// Human- and artifact-friendly comparison table plus the verdict line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<16} {:>14} {:>14} {:>14} {:>14}  {}\n",
            "workload", "instr (ref)", "instr (new)", "ops (ref)", "ops (new)", "verdict"
        );
        for r in &self.rows {
            let verdict = if !r.instructions_ok() {
                "FAIL: instructions drifted"
            } else if !r.dispatched_ops_ok() {
                "FAIL: dispatched ops rose"
            } else {
                "ok"
            };
            let (ops_ref, ops_new) = match r.dispatched_ops {
                Some((committed, fresh)) => (committed.to_string(), fresh.to_string()),
                None => ("-".to_string(), "-".to_string()),
            };
            out.push_str(&format!(
                "{:<16} {:>14} {:>14} {ops_ref:>14} {ops_new:>14}  {verdict}\n",
                r.name, r.committed_instructions, r.fresh_instructions,
            ));
        }
        out.push_str(&format!(
            "gate: instructions exact, dispatched ops no higher — {}\n",
            if self.ok() { "PASS" } else { "FAIL" }
        ));
        out
    }
}

/// `(name, instructions, dispatched_ops)` of every workload row in a
/// vmbench document.
fn counts(doc: &Json, which: &str) -> Result<Vec<(String, u64, Option<u64>)>, String> {
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
            let dispatched_ops = row.get("dispatched_ops").and_then(Json::as_u64);
            Ok((name.to_string(), instructions, dispatched_ops))
        })
        .collect()
}

/// Compares two parsed vmbench documents. Every committed workload must
/// appear in the fresh run (a disappeared row is a silent-coverage hole,
/// so it is an error, not a pass).
pub fn compare(committed: &Json, fresh: &Json) -> Result<GateReport, String> {
    let measured = counts(fresh, "fresh")?;
    let rows = counts(committed, "committed")?
        .into_iter()
        .map(|(name, committed_instructions, committed_ops)| {
            let (_, fresh_instructions, fresh_ops) = measured
                .iter()
                .find(|(n, ..)| *n == name)
                .ok_or_else(|| format!("workload `{name}` missing from the fresh run"))?;
            let dispatched_ops = match (committed_ops, fresh_ops) {
                (Some(committed), Some(fresh)) => Some((committed, *fresh)),
                (Some(_), None) => {
                    return Err(format!(
                        "workload `{name}`: the fresh run has no `dispatched_ops`"
                    ))
                }
                (None, _) => None,
            };
            Ok(RowComparison {
                name,
                committed_instructions,
                fresh_instructions: *fresh_instructions,
                dispatched_ops,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(GateReport { rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_obs::json::parse;

    /// A vmbench document of `(name, instructions, dispatched_ops)` rows.
    fn doc_with_ops(rows: &[(&str, u64, Option<u64>)]) -> Json {
        let body: Vec<String> = rows
            .iter()
            .map(|(name, instr, ops)| {
                let ops = ops.map_or(String::new(), |n| format!(r#","dispatched_ops":{n}"#));
                format!(r#"{{"name":"{name}","instructions":{instr}{ops}}}"#)
            })
            .collect();
        parse(&format!(r#"{{"workloads":[{}]}}"#, body.join(","))).unwrap()
    }

    /// The same, from a run that did not count dispatched slots.
    fn doc(rows: &[(&str, u64)]) -> Json {
        let rows: Vec<_> = rows
            .iter()
            .map(|&(name, instr)| (name, instr, None))
            .collect();
        doc_with_ops(&rows)
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
    fn dispatched_ops_may_fall_and_may_not_rise() {
        let committed = doc_with_ops(&[("bfs", 1000, Some(400)), ("alu", 500, Some(90))]);
        let same = compare(&committed, &committed).unwrap();
        assert!(same.ok(), "{}", same.render());
        let fewer = doc_with_ops(&[("bfs", 1000, Some(399)), ("alu", 500, Some(90))]);
        assert!(compare(&committed, &fewer).unwrap().ok());
        let more = doc_with_ops(&[("bfs", 1000, Some(400)), ("alu", 500, Some(91))]);
        let report = compare(&committed, &more).unwrap();
        assert!(!report.ok(), "a lost fusion window is a failure");
        assert!(report.render().contains("dispatched ops rose"));
        // A committed file from before the count gates `instructions` only;
        // a fresh file that lost the count is a coverage hole, not a pass.
        assert!(compare(&doc(&[("bfs", 1000)]), &more).unwrap().ok());
        let err = compare(&committed, &doc(&[("bfs", 1000), ("alu", 500)])).unwrap_err();
        assert!(err.contains("no `dispatched_ops`"), "{err}");
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
