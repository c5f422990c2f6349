//! `dp-obs` — the one observability layer for the whole workspace.
//!
//! Three surfaces, all **off the deterministic stdout/response paths**
//! (the standing invariant: instrumentation may write only to the
//! in-process registry, to stderr, or to the `DPOPT_TRACE` file — never
//! to stdout or into a response body):
//!
//! - [`metrics`] — a process-wide registry of lock-free sharded counters
//!   and fixed-bucket latency histograms. Off by default; when disabled
//!   every record call is a branch on a static. Enabled by
//!   `DPOPT_METRICS=1` (the registry reads it on first use),
//!   programmatically by the serve daemon at bind, and by the bench
//!   binaries.
//! - [`trace`] — span-correlated structured tracing. `DPOPT_TRACE=<path>`
//!   appends JSONL start/end events; span ids flow across threads via
//!   [`trace::TraceCtx`] so a serve request's span parents the pool job
//!   that parents the sweep cell / VM run it executes. Post-process with
//!   `dpopt trace-report`.
//! - [`diag`] — the single stderr funnel for diagnostic logging
//!   (serve fault-arming notices, cache warnings). Routing every debug knob through one helper is what lets
//!   the stdout-purity regression test assert that no combination of
//!   debug env vars can ever pollute a byte-identical stdout contract.

pub mod diag;
pub mod metrics;
pub mod trace;

/// Appends `s` to `out` as a JSON string literal (quotes included),
/// escaping per RFC 8259. Shared by the metrics snapshot renderer and the
/// trace event writer so both emit parseable JSON without a serializer
/// dependency.
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}
