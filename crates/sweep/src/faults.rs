//! Test-only fault injection, shared by the daemon and the storage tier.
//!
//! A [`FaultPlan`] arms a set of faults at named points; the daemon's
//! fault suite (`crates/serve/tests/faults.rs`) uses the network/exec
//! points to prove it stays serviceable after torn writes, dropped
//! connections, injected latency, and worker panics, and the storage
//! tier (`fs`) uses the filesystem points to prove the on-disk caches
//! survive torn writes, bit flips, short reads, `ENOSPC`, `EIO`, and
//! delayed renames (see `crates/cli/tests/chaos.rs`). Production runs
//! with an empty plan — every injection site is a single relaxed check
//! against an empty slice.
//!
//! Plans are built programmatically (`ServeOptions::faults`) by
//! in-process tests, or parsed from the `DPOPT_FAULTS` environment
//! variable for out-of-process smoke runs:
//!
//! ```text
//! DPOPT_FAULTS="delay-ms500@exec:sweep-cell;bit-flip@fs-read:sweep-cache"
//! ```
//!
//! Each `;`-separated entry is `kind@point[:op][*count]`:
//!
//! - **kind** — `panic`, `torn-write`, `disconnect`, `delay-ms<N>`,
//!   `short-read`, `bit-flip`, `enospc`, or `eio`
//! - **point** — `session-read` (a request line was read, before
//!   parsing), `exec` (inside the execution slot, before the work runs),
//!   `pre-write` (a response is about to be written), `fs-read`,
//!   `fs-write`, or `fs-rename` (the `fs` wrappers, before the real
//!   syscall)
//! - **op** — only fire for this op; omitted means any op. At the
//!   network points the op is the request op (`compile`, `execute`, …);
//!   at the filesystem points it is the caller's tag (`sweep-cache`).
//! - **count** — how many times the entry fires before disarming
//!   (default 1)
//!
//! Every firing emits a `[dp-faults] fired kind@point` marker line on
//! stderr **before** acting on the fault — the chaos harness watches a
//! child's stderr for these markers to pick deterministic kill points.

pub(crate) mod fs;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// What an armed fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic on the executing thread (the daemon must survive and answer
    /// a deterministic error).
    Panic,
    /// Network: write half the response bytes, then sever the connection.
    /// Filesystem: write half the bytes and report success — the lie a
    /// crash mid-`write(2)` tells.
    TornWrite,
    /// Sever the connection without writing anything (network points
    /// only; ignored by the `fs` wrappers).
    Disconnect,
    /// Sleep this many milliseconds, then continue normally — the lever
    /// for deterministic saturation and deadline tests, and (at
    /// `fs-rename`) the "delayed rename" window the chaos harness kills
    /// a child inside.
    DelayMs(u64),
    /// Filesystem read returns only the first half of the file.
    ShortRead,
    /// Filesystem: flip one bit of the payload (on read or write).
    BitFlip,
    /// Filesystem operation fails with raw `ENOSPC` (disk full).
    Enospc,
    /// Filesystem operation fails with raw `EIO`.
    Eio,
}

impl FaultKind {
    fn name(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::TornWrite => "torn-write",
            FaultKind::Disconnect => "disconnect",
            FaultKind::DelayMs(_) => "delay-ms",
            FaultKind::ShortRead => "short-read",
            FaultKind::BitFlip => "bit-flip",
            FaultKind::Enospc => "enospc",
            FaultKind::Eio => "eio",
        }
    }
}

/// A named site where faults can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// A request line was read off the socket, before parsing.
    SessionRead,
    /// Inside the execution slot, before the request's work runs.
    Exec,
    /// A response is about to be written.
    PreWrite,
    /// An `fs::read_to_string_with` call, before the real read.
    FsRead,
    /// An `fs::write_with` call, before the real write.
    FsWrite,
    /// An `fs::rename_with` call, before the real rename.
    FsRename,
}

impl FaultPoint {
    fn parse(name: &str) -> Option<FaultPoint> {
        match name {
            "session-read" => Some(FaultPoint::SessionRead),
            "exec" => Some(FaultPoint::Exec),
            "pre-write" => Some(FaultPoint::PreWrite),
            "fs-read" => Some(FaultPoint::FsRead),
            "fs-write" => Some(FaultPoint::FsWrite),
            "fs-rename" => Some(FaultPoint::FsRename),
            _ => None,
        }
    }

    fn name(&self) -> &'static str {
        match self {
            FaultPoint::SessionRead => "session-read",
            FaultPoint::Exec => "exec",
            FaultPoint::PreWrite => "pre-write",
            FaultPoint::FsRead => "fs-read",
            FaultPoint::FsWrite => "fs-write",
            FaultPoint::FsRename => "fs-rename",
        }
    }
}

#[derive(Debug)]
struct Fault {
    kind: FaultKind,
    point: FaultPoint,
    /// Only fire for this op; `None` fires for any op.
    op: Option<String>,
    /// Remaining firings; the fault disarms at zero.
    remaining: AtomicU64,
}

/// An armed set of faults, cheap to clone and share across sessions.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Arc<Vec<Fault>>,
}

impl FaultPlan {
    /// True when no faults are armed (the production state).
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Parses a `;`-separated plan (see the module docs for the syntax).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut faults = Vec::new();
        for entry in spec.split(';') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            faults.push(parse_entry(entry)?);
        }
        Ok(FaultPlan {
            faults: Arc::new(faults),
        })
    }

    /// The plan armed by `DPOPT_FAULTS` (empty when it is unset).
    pub fn from_env() -> Result<FaultPlan, String> {
        match std::env::var("DPOPT_FAULTS") {
            Ok(spec) => FaultPlan::parse(&spec).map_err(|e| format!("DPOPT_FAULTS: {e}")),
            Err(_) => Ok(FaultPlan::default()),
        }
    }

    /// Consumes and returns one matching armed fault at `point` for `op`,
    /// or `None` (the overwhelmingly common case). Entries fire in plan
    /// order; each firing decrements the entry's remaining count and
    /// emits a stderr marker line before returning.
    pub fn fire(&self, point: FaultPoint, op: &str) -> Option<FaultKind> {
        for fault in self.faults.iter() {
            if fault.point != point {
                continue;
            }
            if let Some(want) = &fault.op {
                if want != op {
                    continue;
                }
            }
            // Claim one firing; a concurrent session may win the race, in
            // which case keep looking for another matching entry.
            let claimed = fault
                .remaining
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok();
            if claimed {
                // Marker first: the chaos harness kills children inside a
                // delay fault and must see the marker before the sleep.
                if op.is_empty() {
                    dp_obs::diag!("[dp-faults] fired {}@{}", fault.kind.name(), point.name());
                } else {
                    dp_obs::diag!(
                        "[dp-faults] fired {}@{}:{op}",
                        fault.kind.name(),
                        point.name()
                    );
                }
                return Some(fault.kind);
            }
        }
        None
    }
}

/// The process-global plan the [`fs`] wrappers consult, parsed once from
/// the environment. A malformed spec disarms with a diagnostic rather
/// than aborting: the storage tier must degrade, not crash, and the
/// daemon separately hard-fails its own `from_env` parse at bind time.
pub(crate) fn global() -> &'static FaultPlan {
    static GLOBAL: OnceLock<FaultPlan> = OnceLock::new();
    GLOBAL.get_or_init(|| match FaultPlan::from_env() {
        Ok(plan) => {
            if !plan.is_empty() {
                dp_obs::diag!("[dp-faults] filesystem fault injection armed");
            }
            plan
        }
        Err(e) => {
            dp_obs::diag!("[dp-faults] ignoring malformed fault spec: {e}");
            FaultPlan::default()
        }
    })
}

fn parse_entry(entry: &str) -> Result<Fault, String> {
    let (spec, count) = match entry.split_once('*') {
        Some((spec, count)) => {
            let count: u64 = count
                .parse()
                .map_err(|_| format!("bad fault count in `{entry}`"))?;
            (spec, count)
        }
        None => (entry, 1),
    };
    let (kind, site) = spec
        .split_once('@')
        .ok_or_else(|| format!("fault `{entry}` needs `kind@point`"))?;
    let kind = if let Some(ms) = kind.strip_prefix("delay-ms") {
        FaultKind::DelayMs(
            ms.parse()
                .map_err(|_| format!("bad delay milliseconds in `{entry}`"))?,
        )
    } else {
        match kind {
            "panic" => FaultKind::Panic,
            "torn-write" => FaultKind::TornWrite,
            "disconnect" => FaultKind::Disconnect,
            "short-read" => FaultKind::ShortRead,
            "bit-flip" => FaultKind::BitFlip,
            "enospc" => FaultKind::Enospc,
            "eio" => FaultKind::Eio,
            other => {
                return Err(format!(
                    "unknown fault kind `{other}` (panic|torn-write|disconnect|delay-ms<N>|short-read|bit-flip|enospc|eio)"
                ))
            }
        }
    };
    let (point, op) = match site.split_once(':') {
        Some((point, op)) => (point, Some(op.to_string())),
        None => (site, None),
    };
    let point = FaultPoint::parse(point).ok_or_else(|| {
        format!(
            "unknown fault point `{point}` (session-read|exec|pre-write|fs-read|fs-write|fs-rename)"
        )
    })?;
    Ok(Fault {
        kind,
        point,
        op,
        remaining: AtomicU64::new(count),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_syntax() {
        let plan =
            FaultPlan::parse("panic@exec:execute; delay-ms250@session-read*3;torn-write@pre-write")
                .unwrap();
        assert!(!plan.is_empty());
        // The exec entry is op-filtered: wrong op never fires it.
        assert_eq!(plan.fire(FaultPoint::Exec, "compile"), None);
        assert_eq!(
            plan.fire(FaultPoint::Exec, "execute"),
            Some(FaultKind::Panic)
        );
        assert_eq!(plan.fire(FaultPoint::Exec, "execute"), None, "disarmed");
        // The delay entry fires three times, for any op.
        for _ in 0..3 {
            assert_eq!(
                plan.fire(FaultPoint::SessionRead, ""),
                Some(FaultKind::DelayMs(250))
            );
        }
        assert_eq!(plan.fire(FaultPoint::SessionRead, ""), None);
        assert_eq!(
            plan.fire(FaultPoint::PreWrite, "anything"),
            Some(FaultKind::TornWrite)
        );
    }

    #[test]
    fn parses_the_filesystem_surface() {
        let plan = FaultPlan::parse(
            "bit-flip@fs-read:sweep-cache;enospc@fs-write*2;eio@fs-rename;short-read@fs-read",
        )
        .unwrap();
        // The tag-filtered bit-flip skips other tags; the op-less
        // short-read entry matches any tag.
        assert_eq!(
            plan.fire(FaultPoint::FsRead, "other-cache"),
            Some(FaultKind::ShortRead)
        );
        assert_eq!(
            plan.fire(FaultPoint::FsRead, "sweep-cache"),
            Some(FaultKind::BitFlip)
        );
        assert_eq!(plan.fire(FaultPoint::FsRead, "sweep-cache"), None);
        for _ in 0..2 {
            assert_eq!(
                plan.fire(FaultPoint::FsWrite, "sweep-cache"),
                Some(FaultKind::Enospc)
            );
        }
        assert_eq!(plan.fire(FaultPoint::FsWrite, "sweep-cache"), None);
        assert_eq!(
            plan.fire(FaultPoint::FsRename, "sweep-cache"),
            Some(FaultKind::Eio)
        );
    }

    #[test]
    fn empty_plan_never_fires() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert_eq!(plan.fire(FaultPoint::Exec, "execute"), None);
        assert!(FaultPlan::parse("  ;  ").unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_entries() {
        for bad in [
            "panic",           // no point
            "panic@nowhere",   // unknown point
            "explode@exec",    // unknown kind
            "delay-msX@exec",  // bad delay
            "panic@exec*many", // bad count
            "bit-flip",        // fs kind still needs a point
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` must not parse");
        }
    }
}
