//! The single stderr funnel for diagnostic logging.
//!
//! Every diagnostic in the workspace (serve fault-arming notices, cache
//! write warnings, bench progress notes) routes through [`diag!`](crate::diag!) instead of a bare
//! `eprintln!`. The point is auditability of the determinism contracts:
//! stdout byte-identity is enforced by grep (one macro to look for) and
//! by the stdout-purity regression test (a sweep with every debug env var
//! set must print identical stdout) — neither works if diagnostics can
//! leak out through arbitrary call sites.
//!
//! Deliberately minimal: no levels, no filtering, no timestamps.
//! Diagnostics here are already opt-in behind their own env vars; the
//! helper's one job is *where* they go (stderr, always), not *whether*.

/// Writes one diagnostic line to stderr. Prefer the [`diag!`](crate::diag!)
/// macro, which formats in place.
pub fn emit(args: std::fmt::Arguments<'_>) {
    eprintln!("{args}");
}

/// `eprintln!`-compatible diagnostic logging that can only ever reach
/// stderr. `dp_obs::diag!("[dp-sweep] run {label}")`.
#[macro_export]
macro_rules! diag {
    ($($arg:tt)*) => {
        $crate::diag::emit(::std::format_args!($($arg)*))
    };
}
