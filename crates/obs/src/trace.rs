//! Span-correlated structured tracing.
//!
//! Off unless a sink is installed — either `DPOPT_TRACE=<path>` in the
//! environment (picked up lazily on the first span) or a programmatic
//! [`init_to`]. While off, [`span`] is a relaxed load and returns an
//! inert guard; nothing allocates.
//!
//! While on, each [`span`] emits one JSONL *start* event when created and
//! one *end* event when dropped, to the trace file only (never stdout —
//! the byte-identity suites run with tracing fully enabled):
//!
//! ```json
//! {"ev":"start","id":7,"parent":3,"name":"pool.job","t_us":1042}
//! {"ev":"start","id":8,"parent":7,"name":"sweep.cell","t_us":1055,
//!  "attrs":{"benchmark":"bfs"}}
//! {"ev":"end","id":8,"t_us":2100}
//! ```
//!
//! `id` is unique per process run; `parent` is the span current on the
//! *creating* thread (0 = root); `t_us` is microseconds since the sink
//! was installed. The file opens in append mode, so several processes
//! (a test harness and its server child, a CI matrix) can share one path.
//!
//! Parentage crosses threads explicitly: capture [`current_ctx`] where
//! the work is *submitted*, [`TraceCtx::enter`] it where the work *runs*.
//! `dp-pool` does this for every job, which is how a serve request's span
//! parents the pool job that parents the sweep cell / VM run.

use std::cell::Cell;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

static ACTIVE: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();
static SINK: OnceLock<Mutex<File>> = OnceLock::new();
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

fn ensure_env_init() {
    ENV_INIT.call_once(|| {
        if let Ok(path) = std::env::var("DPOPT_TRACE") {
            if !path.is_empty() {
                if let Err(e) = init_to(&path) {
                    crate::diag!("[dp-obs] cannot open DPOPT_TRACE={path}: {e}");
                }
            }
        }
    });
}

/// Installs the trace sink at `path` (created if missing, appended to if
/// present). First installation wins; later calls — including the lazy
/// `DPOPT_TRACE` pickup — are no-ops.
pub fn init_to(path: &str) -> std::io::Result<()> {
    let file = OpenOptions::new().create(true).append(true).open(path)?;
    if SINK.set(Mutex::new(file)).is_ok() {
        let _ = EPOCH.set(Instant::now());
        ACTIVE.store(true, Ordering::Release);
    }
    Ok(())
}

/// Whether a trace sink is installed (checking the environment on first
/// call).
#[inline]
pub fn active() -> bool {
    ensure_env_init();
    ACTIVE.load(Ordering::Relaxed)
}

fn t_us() -> u64 {
    EPOCH
        .get()
        .map(|e| e.elapsed().as_micros() as u64)
        .unwrap_or(0)
}

fn emit(line: &str) {
    if let Some(sink) = SINK.get() {
        let mut file = sink.lock().unwrap();
        // One write per line keeps appends from interleaving across
        // processes sharing the file.
        let _ = file.write_all(line.as_bytes());
    }
}

// ----------------------------------------------------------------------
// Spans
// ----------------------------------------------------------------------

/// An open span: emits its end event and restores the thread's previous
/// current span on drop. Inert (id 0) while tracing is off.
#[must_use = "dropping the span immediately ends it"]
pub struct Span {
    id: u64,
    prev: u64,
}

impl Span {
    /// The span's id, 0 if tracing is off — feed to nothing; spans
    /// propagate via [`current_ctx`], this accessor exists for tests.
    #[cfg(test)]
    pub(crate) fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        CURRENT.with(|c| c.set(self.prev));
        emit(&format!(
            "{{\"ev\":\"end\",\"id\":{},\"t_us\":{}}}\n",
            self.id,
            t_us()
        ));
    }
}

/// Opens a span named `name`, parented to the thread's current span, and
/// makes it current until the guard drops.
#[inline]
pub fn span(name: &str) -> Span {
    span_with(name, &[])
}

/// [`span`] with `attrs` rendered into the start event as a string map.
pub fn span_with(name: &str, attrs: &[(&str, &str)]) -> Span {
    if !active() {
        return Span { id: 0, prev: 0 };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let prev = CURRENT.with(|c| c.replace(id));
    let mut line = String::with_capacity(96);
    line.push_str("{\"ev\":\"start\",\"id\":");
    line.push_str(&id.to_string());
    line.push_str(",\"parent\":");
    line.push_str(&prev.to_string());
    line.push_str(",\"name\":");
    crate::json::write_string(&mut line, name);
    line.push_str(",\"t_us\":");
    line.push_str(&t_us().to_string());
    if !attrs.is_empty() {
        line.push_str(",\"attrs\":{");
        for (i, (k, v)) in attrs.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            crate::json::write_string(&mut line, k);
            line.push(':');
            crate::json::write_string(&mut line, v);
        }
        line.push('}');
    }
    line.push_str("}\n");
    emit(&line);
    Span { id, prev }
}

// ----------------------------------------------------------------------
// Cross-thread propagation
// ----------------------------------------------------------------------

/// A captured span context — the submitting thread's current span id.
/// `Copy`, so closures capture it for free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx(u64);

impl TraceCtx {
    /// The empty context (root parentage).
    pub(crate) const NONE: TraceCtx = TraceCtx(0);

    /// Makes this context the running thread's current span until the
    /// guard drops. Spans opened under the guard parent to the captured
    /// span even though they run on a different thread.
    pub fn enter(self) -> CtxGuard {
        CtxGuard {
            prev: CURRENT.with(|c| c.replace(self.0)),
        }
    }
}

/// Captures the current thread's span context for hand-off to another
/// thread. Cheap (a thread-local read) and always safe to call.
#[inline]
pub fn current_ctx() -> TraceCtx {
    if !ACTIVE.load(Ordering::Relaxed) {
        return TraceCtx::NONE;
    }
    TraceCtx(CURRENT.with(|c| c.get()))
}

/// Restores the previous current span on drop (see [`TraceCtx::enter`]).
#[must_use = "dropping the guard exits the context"]
pub struct CtxGuard {
    prev: u64,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_tracing_is_inert() {
        if active() {
            // Someone exported DPOPT_TRACE into this test run; the inert
            // path is not reachable.
            return;
        }
        // No sink installed: spans are id-0 and the thread-local stays
        // untouched.
        let outer = span("outer");
        assert_eq!(outer.id(), 0);
        assert_eq!(current_ctx(), TraceCtx::NONE);
        let _guard = current_ctx().enter();
        drop(outer);
    }
}
