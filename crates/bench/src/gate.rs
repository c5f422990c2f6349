//! The bench-regression gate: compares a freshly-measured `vmbench`
//! document against the committed `BENCH_vm.json` on four counts, all
//! exact and repeatable on any host.
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
//! and is committed by refreshing `BENCH_vm.json`.
//!
//! **`replayed_instructions` must not fall.** It is how many of those
//! instructions the threaded loop charged by replaying a block's uniform
//! prefix instead of dispatching it. A prefix that stops replaying — a
//! lowering change that puts a `threadIdx` read into it, a leader rule that
//! ends it earlier — lowers it with every result unchanged.
//!
//! **`skipped_instructions` must not fall.** It is how many the threaded
//! loop charged by skipping loop iterations that all take one pure, affine
//! path instead of dispatching them. A lowering change that puts an impure
//! or nonlinear instruction into a thresholded serial loop's idle path, or
//! an analysis that stops recognising it, lowers it with every result
//! unchanged.
//!
//! A committed file from before a count existed does not gate that count.
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
    /// `(committed, fresh)` replayed instructions, when the committed
    /// document records them.
    pub replayed_instructions: Option<(u64, u64)>,
    /// `(committed, fresh)` skipped instructions, likewise.
    pub skipped_instructions: Option<(u64, u64)>,
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

    /// The threaded loop replays no fewer instructions than committed.
    pub fn replayed_ok(&self) -> bool {
        self.replayed_instructions
            .is_none_or(|(committed, fresh)| fresh >= committed)
    }

    /// The threaded loop skips no fewer instructions than committed.
    pub fn skipped_ok(&self) -> bool {
        self.skipped_instructions
            .is_none_or(|(committed, fresh)| fresh >= committed)
    }

    fn ok(&self) -> bool {
        self.instructions_ok()
            && self.dispatched_ops_ok()
            && self.replayed_ok()
            && self.skipped_ok()
    }
}

/// The gate's full verdict.
#[derive(Debug)]
pub struct GateReport {
    pub rows: Vec<RowComparison>,
}

impl GateReport {
    /// True iff every row's instruction count matches, no row dispatches
    /// more slots than committed and none replays or skips fewer
    /// instructions.
    pub fn ok(&self) -> bool {
        self.rows.iter().all(RowComparison::ok)
    }

    /// Human- and artifact-friendly comparison table plus the verdict line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<16} {:>14} {:>14} {:>14} {:>14} {:>14} {:>14} {:>14} {:>14}  {}\n",
            "workload",
            "instr (ref)",
            "instr (new)",
            "ops (ref)",
            "ops (new)",
            "replayed (ref)",
            "replayed (new)",
            "skipped (ref)",
            "skipped (new)",
            "verdict"
        );
        let pair = |counts: Option<(u64, u64)>| match counts {
            Some((committed, fresh)) => (committed.to_string(), fresh.to_string()),
            None => ("-".to_string(), "-".to_string()),
        };
        for r in &self.rows {
            let verdict = if !r.instructions_ok() {
                "FAIL: instructions drifted"
            } else if !r.dispatched_ops_ok() {
                "FAIL: dispatched ops rose"
            } else if !r.replayed_ok() {
                "FAIL: replayed instructions fell"
            } else if !r.skipped_ok() {
                "FAIL: skipped instructions fell"
            } else {
                "ok"
            };
            let (ops_ref, ops_new) = pair(r.dispatched_ops);
            let (replayed_ref, replayed_new) = pair(r.replayed_instructions);
            let (skipped_ref, skipped_new) = pair(r.skipped_instructions);
            out.push_str(&format!(
                "{:<16} {:>14} {:>14} {ops_ref:>14} {ops_new:>14} {replayed_ref:>14} {replayed_new:>14} {skipped_ref:>14} {skipped_new:>14}  {verdict}\n",
                r.name, r.committed_instructions, r.fresh_instructions,
            ));
        }
        out.push_str(&format!(
            "gate: instructions exact, dispatched ops no higher, replayed and skipped instructions no lower — {}\n",
            if self.ok() { "PASS" } else { "FAIL" }
        ));
        out
    }
}

/// One workload row of a vmbench document, as far as the gate reads it.
struct Counts {
    name: String,
    instructions: u64,
    dispatched_ops: Option<u64>,
    replayed_instructions: Option<u64>,
    skipped_instructions: Option<u64>,
}

/// The counts of every workload row in a vmbench document.
fn counts(doc: &Json, which: &str) -> Result<Vec<Counts>, String> {
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
            Ok(Counts {
                name: name.to_string(),
                instructions,
                dispatched_ops: row.get("dispatched_ops").and_then(Json::as_u64),
                replayed_instructions: row.get("replayed_instructions").and_then(Json::as_u64),
                skipped_instructions: row.get("skipped_instructions").and_then(Json::as_u64),
            })
        })
        .collect()
}

/// `(committed, fresh)` of a count the committed row records; a fresh run
/// that lost it is a coverage hole, not a pass.
fn paired(
    name: &str,
    field: &str,
    committed: Option<u64>,
    fresh: Option<u64>,
) -> Result<Option<(u64, u64)>, String> {
    match (committed, fresh) {
        (Some(committed), Some(fresh)) => Ok(Some((committed, fresh))),
        (Some(_), None) => Err(format!("workload `{name}`: the fresh run has no `{field}`")),
        (None, _) => Ok(None),
    }
}

/// Compares two parsed vmbench documents. Every committed workload must
/// appear in the fresh run (a disappeared row is a silent-coverage hole,
/// so it is an error, not a pass).
pub fn compare(committed: &Json, fresh: &Json) -> Result<GateReport, String> {
    let measured = counts(fresh, "fresh")?;
    let rows = counts(committed, "committed")?
        .into_iter()
        .map(|c| {
            let f = measured
                .iter()
                .find(|f| f.name == c.name)
                .ok_or_else(|| format!("workload `{}` missing from the fresh run", c.name))?;
            Ok(RowComparison {
                dispatched_ops: paired(
                    &c.name,
                    "dispatched_ops",
                    c.dispatched_ops,
                    f.dispatched_ops,
                )?,
                replayed_instructions: paired(
                    &c.name,
                    "replayed_instructions",
                    c.replayed_instructions,
                    f.replayed_instructions,
                )?,
                skipped_instructions: paired(
                    &c.name,
                    "skipped_instructions",
                    c.skipped_instructions,
                    f.skipped_instructions,
                )?,
                name: c.name,
                committed_instructions: c.instructions,
                fresh_instructions: f.instructions,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(GateReport { rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_obs::json::parse;

    /// `(name, instructions, dispatched_ops, replayed_instructions,
    /// skipped_instructions)`.
    type Row<'a> = (&'a str, u64, Option<u64>, Option<u64>, Option<u64>);

    /// A vmbench document of these rows.
    fn doc_with_skips(rows: &[Row<'_>]) -> Json {
        let field =
            |key: &str, n: Option<u64>| n.map_or(String::new(), |n| format!(r#","{key}":{n}"#));
        let body: Vec<String> = rows
            .iter()
            .map(|&(name, instr, ops, replayed, skipped)| {
                format!(
                    r#"{{"name":"{name}","instructions":{instr}{}{}{}}}"#,
                    field("dispatched_ops", ops),
                    field("replayed_instructions", replayed),
                    field("skipped_instructions", skipped)
                )
            })
            .collect();
        parse(&format!(r#"{{"workloads":[{}]}}"#, body.join(","))).unwrap()
    }

    /// The same, from a run that did not count skipped instructions.
    fn doc_with(rows: &[(&str, u64, Option<u64>, Option<u64>)]) -> Json {
        let rows: Vec<_> = rows
            .iter()
            .map(|&(name, instr, ops, replayed)| (name, instr, ops, replayed, None))
            .collect();
        doc_with_skips(&rows)
    }

    /// The same, from a run that did not count replayed instructions.
    fn doc_with_ops(rows: &[(&str, u64, Option<u64>)]) -> Json {
        let rows: Vec<_> = rows
            .iter()
            .map(|&(name, instr, ops)| (name, instr, ops, None))
            .collect();
        doc_with(&rows)
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
    fn replayed_instructions_may_rise_and_may_not_fall() {
        let committed = doc_with(&[("bfs", 1000, Some(400), Some(700))]);
        assert!(compare(&committed, &committed).unwrap().ok());
        let more = doc_with(&[("bfs", 1000, Some(400), Some(701))]);
        assert!(compare(&committed, &more).unwrap().ok());
        let fewer = doc_with(&[("bfs", 1000, Some(400), Some(699))]);
        let report = compare(&committed, &fewer).unwrap();
        assert!(!report.ok(), "a lost replay is a failure");
        assert!(report.render().contains("replayed instructions fell"));
        // As for `dispatched_ops`: an older committed file gates the rest,
        // and a fresh file that lost the count is an error.
        let older = doc_with_ops(&[("bfs", 1000, Some(400))]);
        assert!(compare(&older, &fewer).unwrap().ok());
        let err = compare(&committed, &older).unwrap_err();
        assert!(err.contains("no `replayed_instructions`"), "{err}");
    }

    #[test]
    fn skipped_instructions_may_rise_and_may_not_fall() {
        let committed = doc_with_skips(&[("bfs", 1000, Some(400), Some(700), Some(90))]);
        assert!(compare(&committed, &committed).unwrap().ok());
        let more = doc_with_skips(&[("bfs", 1000, Some(400), Some(700), Some(91))]);
        assert!(compare(&committed, &more).unwrap().ok());
        let fewer = doc_with_skips(&[("bfs", 1000, Some(400), Some(700), Some(89))]);
        let report = compare(&committed, &fewer).unwrap();
        assert!(!report.ok(), "a lost skip is a failure");
        assert!(report.render().contains("skipped instructions fell"));
        let older = doc_with(&[("bfs", 1000, Some(400), Some(700))]);
        assert!(compare(&older, &fewer).unwrap().ok());
        let err = compare(&committed, &older).unwrap_err();
        assert!(err.contains("no `skipped_instructions`"), "{err}");
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
