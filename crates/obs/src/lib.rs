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
//!
//! A fourth module is here because this crate is the bottom of the graph
//! (`std` only; every other crate links it): [`json`], the workspace's one
//! JSON value, writer and parser (nesting capped at [`json::MAX_DEPTH`]).
//! With it the registry hands out a [`json::Json`]
//! ([`metrics::Snapshot::to_json`]) and no layer above parses a string
//! back. `dp-sweep`, its first user, re-exports the module as its `json`.

pub mod diag;
pub mod json;
pub mod metrics;
pub mod trace;
