//! The bench-regression gate: compares a freshly-measured `vmbench`
//! document against the committed `BENCH_vm.json` on five counts, all
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
//! **`skipped_lanes` must not fall.** It is how many lanes of a kernel
//! block the threaded loop retired without running them, because their
//! path from their start point to the kernel's end is pure and affine in
//! `threadIdx.x` — a CDP child's idle tail. A lowering or transform change
//! that puts an impure instruction into that path, or a walk that stops
//! reaching the end, lowers it with every result unchanged.
//!
//! A committed file from before a count existed does not gate that count.
//!
//! Nothing timed is gated. `vmbench` still records `speedup_fused`, but
//! that ratio against a file measured elsewhere passed 2 of 8 runs on an
//! unchanged tree; speed claims are made on `dpbench` pairs instead.

use dp_obs::json::Json;

/// Which way a gated count may not move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Worse {
    Rise,
    Fall,
}

/// The counts gated besides `instructions`: the row member, its column in
/// the table, which way it may not move, and the verdict when it does.
const GATED: [(&str, &str, Worse, &str); 4] = [
    ("dispatched_ops", "ops", Worse::Rise, "dispatched ops rose"),
    (
        "replayed_instructions",
        "replayed",
        Worse::Fall,
        "replayed instructions fell",
    ),
    (
        "skipped_instructions",
        "skipped",
        Worse::Fall,
        "skipped instructions fell",
    ),
    ("skipped_lanes", "lanes", Worse::Fall, "skipped lanes fell"),
];

/// One workload's committed-vs-fresh comparison.
#[derive(Debug)]
pub(crate) struct RowComparison {
    pub(crate) name: String,
    pub(crate) committed_instructions: u64,
    pub(crate) fresh_instructions: u64,
    /// Per entry of `GATED`, `(committed, fresh)` when the committed
    /// document records the count.
    pub(crate) gated: [Option<(u64, u64)>; GATED.len()],
}

impl RowComparison {
    /// Exact-match accounting contract.
    pub(crate) fn instructions_ok(&self) -> bool {
        self.committed_instructions == self.fresh_instructions
    }

    /// Why the row fails, if it does: its instructions drifted, or the
    /// first gated count that moved the wrong way.
    fn failure(&self) -> Option<&'static str> {
        if !self.instructions_ok() {
            return Some("instructions drifted");
        }
        GATED
            .iter()
            .zip(&self.gated)
            .find_map(|(&(.., worse, verdict), pair)| {
                let (committed, fresh) = (*pair)?;
                let moved = match worse {
                    Worse::Rise => fresh > committed,
                    Worse::Fall => fresh < committed,
                };
                moved.then_some(verdict)
            })
    }
}

/// The gate's full verdict.
#[derive(Debug)]
pub struct GateReport {
    pub(crate) rows: Vec<RowComparison>,
}

impl GateReport {
    /// True iff every row's instruction count matches, no row dispatches
    /// more slots than committed and none replays or skips less.
    pub fn ok(&self) -> bool {
        self.rows.iter().all(|r| r.failure().is_none())
    }

    /// Human- and artifact-friendly comparison table plus the verdict line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<16} {:>14} {:>14}",
            "workload", "instr (ref)", "instr (new)"
        );
        for (_, column, ..) in GATED {
            out.push_str(&format!(
                " {:>14} {:>14}",
                format!("{column} (ref)"),
                format!("{column} (new)")
            ));
        }
        out.push_str("  verdict\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{:<16} {:>14} {:>14}",
                r.name, r.committed_instructions, r.fresh_instructions
            ));
            for pair in &r.gated {
                let (committed, fresh) = match pair {
                    Some((committed, fresh)) => (committed.to_string(), fresh.to_string()),
                    None => ("-".to_string(), "-".to_string()),
                };
                out.push_str(&format!(" {committed:>14} {fresh:>14}"));
            }
            match r.failure() {
                Some(verdict) => out.push_str(&format!("  FAIL: {verdict}\n")),
                None => out.push_str("  ok\n"),
            }
        }
        out.push_str(&format!(
            "gate: instructions exact, dispatched ops no higher, replayed and skipped instructions and skipped lanes no lower — {}\n",
            if self.ok() { "PASS" } else { "FAIL" }
        ));
        out
    }
}

/// One workload row of a vmbench document, as far as the gate reads it.
struct Counts {
    name: String,
    instructions: u64,
    /// Per entry of `GATED`.
    gated: [Option<u64>; GATED.len()],
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
                gated: GATED.map(|(field, ..)| row.get(field).and_then(Json::as_u64)),
            })
        })
        .collect()
}

/// Compares two parsed vmbench documents. Every committed workload must
/// appear in the fresh run (a disappeared row is a silent-coverage hole,
/// so it is an error, not a pass), and so must every count its committed
/// row records.
pub fn compare(committed: &Json, fresh: &Json) -> Result<GateReport, String> {
    let measured = counts(fresh, "fresh")?;
    let rows = counts(committed, "committed")?
        .into_iter()
        .map(|c| {
            let f = measured
                .iter()
                .find(|f| f.name == c.name)
                .ok_or_else(|| format!("workload `{}` missing from the fresh run", c.name))?;
            let mut gated = [None; GATED.len()];
            for (i, (field, ..)) in GATED.iter().enumerate() {
                gated[i] = match (c.gated[i], f.gated[i]) {
                    (Some(committed), Some(fresh)) => Some((committed, fresh)),
                    (Some(_), None) => {
                        return Err(format!(
                            "workload `{}`: the fresh run has no `{field}`",
                            c.name
                        ))
                    }
                    (None, _) => None,
                };
            }
            Ok(RowComparison {
                name: c.name,
                committed_instructions: c.instructions,
                fresh_instructions: f.instructions,
                gated,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(GateReport { rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_obs::json::parse;

    /// `(name, instructions, counts)`, each count a `(member, value)`.
    type Row<'a> = (&'a str, u64, &'a [(&'a str, u64)]);

    /// A vmbench document of these rows.
    fn doc(rows: &[Row<'_>]) -> Json {
        let body: Vec<String> = rows
            .iter()
            .map(|&(name, instr, counts)| {
                let counts: String = (counts.iter())
                    .map(|(key, n)| format!(r#","{key}":{n}"#))
                    .collect();
                format!(r#"{{"name":"{name}","instructions":{instr}{counts}}}"#)
            })
            .collect();
        parse(&format!(r#"{{"workloads":[{}]}}"#, body.join(","))).unwrap()
    }

    #[test]
    fn identical_runs_pass() {
        let a = doc(&[("bfs", 1000, &[]), ("alu", 500, &[])]);
        let report = compare(&a, &a).unwrap();
        assert!(report.ok(), "{}", report.render());
        assert_eq!(report.rows.len(), 2);
    }

    #[test]
    fn instruction_drift_fails() {
        let report = compare(&doc(&[("bfs", 1000, &[])]), &doc(&[("bfs", 1001, &[])])).unwrap();
        assert!(!report.ok(), "instruction drift is never tolerable");
        assert!(report.render().contains("instructions drifted"));
    }

    /// The gated count `field` passes unchanged and moved the right way, and
    /// fails moved the wrong way, whatever the other counts do. A committed
    /// file from before the count gates the rest; a fresh file that lost it
    /// is a coverage hole, not a pass.
    fn moves_one_way_only(field: &str) {
        let (_, _, worse, verdict) = *GATED.iter().find(|g| g.0 == field).unwrap();
        let counts = |n: u64| -> Vec<(&str, u64)> {
            (GATED.iter())
                .map(|&(f, ..)| (f, if f == field { n } else { 100 }))
                .collect()
        };
        let (better, worse) = match worse {
            Worse::Rise => (399, 401),
            Worse::Fall => (401, 399),
        };
        let committed = doc(&[("bfs", 1000, &counts(400)), ("alu", 500, &counts(400))]);
        assert!(compare(&committed, &committed).unwrap().ok());
        let improved = doc(&[("bfs", 1000, &counts(better)), ("alu", 500, &counts(400))]);
        assert!(compare(&committed, &improved).unwrap().ok());
        let regressed = doc(&[("bfs", 1000, &counts(400)), ("alu", 500, &counts(worse))]);
        let report = compare(&committed, &regressed).unwrap();
        assert!(!report.ok(), "{}", report.render());
        assert!(report.render().contains(verdict), "{}", report.render());
        let older: Vec<(&str, u64)> = (counts(400).into_iter())
            .filter(|&(f, _)| f != field)
            .collect();
        let older = doc(&[("bfs", 1000, &older), ("alu", 500, &older)]);
        assert!(compare(&older, &regressed).unwrap().ok());
        let err = compare(&committed, &older).unwrap_err();
        assert!(err.contains(&format!("no `{field}`")), "{err}");
    }

    /// A lost fusion window.
    #[test]
    fn dispatched_ops_may_fall_and_may_not_rise() {
        moves_one_way_only("dispatched_ops");
    }

    /// A lost replay.
    #[test]
    fn replayed_instructions_may_rise_and_may_not_fall() {
        moves_one_way_only("replayed_instructions");
    }

    /// A lost loop skip.
    #[test]
    fn skipped_instructions_may_rise_and_may_not_fall() {
        moves_one_way_only("skipped_instructions");
    }

    /// A lost lane skip.
    #[test]
    fn skipped_lanes_may_rise_and_may_not_fall() {
        moves_one_way_only("skipped_lanes");
    }

    #[test]
    fn missing_workload_is_an_error() {
        let committed = doc(&[("bfs", 1000, &[]), ("alu", 500, &[])]);
        let err = compare(&committed, &doc(&[("bfs", 1000, &[])])).unwrap_err();
        assert!(err.contains("`alu` missing"), "{err}");
    }

    #[test]
    fn members_the_gate_does_not_know_are_ignored() {
        // vmbench grew `value_bytes`, `threaded_op_bytes` and per-workload
        // `ops_per_block`, and still records the `speedup_fused` this gate
        // no longer reads; a file without them gates one that has them, and
        // the other way round.
        let old = doc(&[("bfs", 1000, &[])]);
        let new = parse(
            r#"{"value_bytes":16,"threaded_op_bytes":64,"workloads":[{"name":"bfs",
                "instructions":1000,"ops_per_block":4.25,"speedup_fused":0.5}]}"#,
        )
        .unwrap();
        assert!(compare(&old, &new).unwrap().ok());
        assert!(compare(&new, &old).unwrap().ok());
    }
}
