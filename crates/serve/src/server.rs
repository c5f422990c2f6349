//! The daemon: accept loop, per-connection sessions, request dispatch,
//! admission control, and graceful drain.
//!
//! Threading model: the accept loop runs on the caller of
//! [`Server::serve`]; each connection gets a session thread that reads
//! requests off the socket. Requests carrying an `id` are **pipelined**:
//! the response (tagged with the echoed `id`) is written whenever it is
//! ready, so a slow compile never convoys fast requests behind it on the
//! same connection. Launching a request thread is **thresholded**, the way
//! the paper thresholds a child grid: a thread is worth its launch only
//! when there is something to overlap with. A tagged request runs on the
//! session thread, like an id-less one, unless
//!
//! - another tagged request of this session is still outstanding, or
//! - the session's read buffer already holds a further byte (the client
//!   sent its lines together: it really is pipelining), or
//! - it is an execution and no slot is free at admission (the session
//!   thread never waits for a slot on behalf of a tagged request);
//!
//! only then is it launched on a short-lived request thread. The one
//! visible consequence: a line that arrives *while* an inline request runs
//! is read when that request has answered. Clients that want overlap send
//! their lines together, as the fleet scheduler's window fill does
//! ([`crate::shard`]). An inline tagged request holds the execution slot
//! it was admitted with until its response is built, so it never expires.
//! Requests *without* an `id` keep the legacy strictly-in-order protocol
//! byte-for-byte: the session waits for every pipelined response to flush,
//! then handles the request inline — an id-less client cannot observe
//! reordering. Byte accounting and the echoed `id` depend on the presence
//! of `id`, never on which thread ran the request. Compilation is
//! deduplicated by the single-flight [`CompiledCache`].
//!
//! Where the work runs — two mechanisms: the launched request thread above
//! and the **slot gate**, `--jobs` execution slots that only `execute` and
//! `sweep-cell` take (a compile, a transform or a cache transfer never
//! enters the queue, so a daemon busy executing still answers them). An
//! execution runs on the thread that holds its slot, under `catch_unwind`:
//! a panicking request answers `kind:"panic"` and the daemon lives on. It
//! is not handed to a worker of the shared `dp-pool`: with the caller
//! blocked on the answer and the cap already held by the slot, that is one
//! child and a waiting parent — a launch with nothing to overlap, the
//! overhead the threshold exists to avoid. The daemon submits nothing to
//! the pool; a sweep in the same process does, under the same budget.
//!
//! Admission control: `--max-queue-depth` bounds how many admitted
//! executions may wait for a slot; beyond it the server answers a
//! deterministic `{"op":"error","kind":"overloaded"}` fast-fail instead of
//! queueing without bound. `--request-timeout-ms` arms a per-request
//! deadline: work still *waiting* for a slot when the deadline passes is
//! cancelled with `kind:"deadline_exceeded"` (running work is never
//! killed). `--max-connections` bounds live sessions — a connection over
//! the cap receives one `overloaded` error line and is closed.
//! `--max-request-bytes` bounds a single request line; oversized lines get
//! a structured `too_large` error and the connection closes.
//!
//! Graceful drain: a `shutdown` request stops new work (subsequent
//! requests answer a `kind:"draining"` error), waits until every in-flight
//! request — pipelined ones included — has **written its response**, then
//! answers the shutdown and wakes the accept loop to exit. In-flight work
//! is never dropped.
//!
//! One book of counts: an event is counted once, in the process-wide
//! `dp-obs` registry (always enabled in a server process). The op and
//! refusal vocabularies are one table each — [`OPS`], a row per wire op
//! with its `serve.op.*` counter and `serve.req.*_us` histogram, and
//! [`REJECTS`], a row per refusal kind with its `serve.reject.*` counter —
//! and the `stats` op's `requests`, `rejects`, `bytes` and `disk_cache`
//! members read those counters; `metrics` is the registry's own `Json`.
//! What tests need exact per instance stays an instance book:
//! [`CompiledCache`]'s counts and the shared pool's snapshot
//! (`stats.pool` reads [`Pool::shared`]).

use crate::cache::CompiledCache;
use crate::proto::{
    self, Arg, BufferData, Endpoint, ExecuteRequest, LineRead, ParsedRequest, Request, Stream,
    MAX_EXECUTE_WORDS,
};
use dp_core::{Compiler, OptConfig, SharedCompiled, TimingParams};
use dp_frontend::ast::FnQual;
use dp_obs::json::{self, object, Json};
use dp_obs::metrics::{Counter, Histogram};
use dp_pool::Pool;
use dp_sweep::faults::{FaultKind, FaultPlan, FaultPoint};
use dp_sweep::spec::CellSpec;
use dp_sweep::{cache as sweep_cache, key};
use dp_workloads::benchmarks::benchmark_by_name;
use dp_workloads::BenchInput;
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::TcpListener;
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Per-session cap on spawned-but-unfinished pipelined requests; past it
/// the session thread stops reading, which surfaces to the client as
/// ordinary TCP backpressure rather than an error.
const PIPELINE_WINDOW: usize = 64;

/// One wire op's row in the daemon's book: its name, its `serve.op.*`
/// request counter and — for the ops whose latency is measured, admission
/// to response-ready — its `serve.req.*_us` histogram. The daemon enables
/// the registry at bind, so the rows are always live in a server process;
/// everything they record stays off the response bytes.
struct OpRow {
    name: &'static str,
    requests: Counter,
    latency: Option<Histogram>,
}

impl OpRow {
    fn record_since(&'static self, started: Option<Instant>) {
        if let Some(latency) = &self.latency {
            latency.record_since(started);
        }
    }
}

const fn row(name: &'static str, requests: Counter, latency: Option<Histogram>) -> OpRow {
    OpRow {
        name,
        requests,
        latency,
    }
}

/// The op vocabulary's one table: [`op_row`] finds a request's row by its
/// wire name, and `stats.requests` is a walk of the counters.
#[rustfmt::skip]
static OPS: [OpRow; 10] = [
    row("compile",    Counter::new("serve.op.compile"),    Some(Histogram::new("serve.req.compile_us"))),
    row("transform",  Counter::new("serve.op.transform"),  Some(Histogram::new("serve.req.transform_us"))),
    row("execute",    Counter::new("serve.op.execute"),    Some(Histogram::new("serve.req.execute_us"))),
    row("sweep-cell", Counter::new("serve.op.sweep-cell"), Some(Histogram::new("serve.req.sweep_cell_us"))),
    row("cache-push", Counter::new("serve.op.cache-push"), Some(Histogram::new("serve.req.cache_push_us"))),
    row("cache-pull", Counter::new("serve.op.cache-pull"), Some(Histogram::new("serve.req.cache_pull_us"))),
    row("stats",      Counter::new("serve.op.stats"),      Some(Histogram::new("serve.req.stats_us"))),
    row("metrics",    Counter::new("serve.op.metrics"),    Some(Histogram::new("serve.req.metrics_us"))),
    row("shutdown",   Counter::new("serve.op.shutdown"),   None),
    row("hello",      Counter::new("serve.op.hello"),      None),
];

/// The row of a request's op.
fn op_row(request: &Request) -> &'static OpRow {
    let name = match request {
        Request::Compile { .. } => "compile",
        Request::Transform { .. } => "transform",
        Request::Execute(_) => "execute",
        Request::SweepCell(_) => "sweep-cell",
        Request::CachePush { .. } => "cache-push",
        Request::CachePull { .. } => "cache-pull",
        Request::Stats => "stats",
        Request::Metrics => "metrics",
        Request::Shutdown => "shutdown",
        Request::Hello { .. } => "hello",
    };
    let row = OPS.iter().find(|row| row.name == name);
    row.expect("every op has a row in OPS")
}

/// The kinds of refusal the daemon counts, in [`REJECTS`] order.
#[derive(Clone, Copy)]
enum Reject {
    Auth,
    DeadlineExceeded,
    Draining,
    Overloaded,
    Parse,
    TooLarge,
}

/// One row per refusal kind: its wire `kind` and its `serve.reject.*`
/// counter. `stats.rejects` is a walk of this table.
#[rustfmt::skip]
static REJECTS: [(&str, Counter); 6] = [
    ("auth",              Counter::new("serve.reject.auth")),
    ("deadline_exceeded", Counter::new("serve.reject.deadline_exceeded")),
    ("draining",          Counter::new("serve.reject.draining")),
    ("overloaded",        Counter::new("serve.reject.overloaded")),
    ("parse",             Counter::new("serve.reject.parse")),
    ("too_large",         Counter::new("serve.reject.too_large")),
];

/// Counts one refusal and builds its answer. Every counted kind reaches the
/// wire through here, so none can go uncounted.
fn refusal(kind: Reject, id: Option<&Json>, message: &str) -> Json {
    let (name, count) = &REJECTS[kind as usize];
    count.incr();
    proto::error_response_kind(id, name, message)
}

// The opt-in on-disk sweep-cell result cache (`--disk-cache`), backed by
// the crash-safe `dp_sweep::cache` storage tier.
static DISK_CACHE_HITS: Counter = Counter::new("serve.disk_cache.hits");
static DISK_CACHE_MISSES: Counter = Counter::new("serve.disk_cache.misses");
static DISK_CACHE_STORES: Counter = Counter::new("serve.disk_cache.stores");

// Cumulative wire bytes per session class, indexed by `pipelined as usize`:
// a request (and its response) is pipelined when it carries an `id`; id-less
// traffic is the legacy in-order protocol. Request lines count their
// newline; so do responses.
static BYTES_READ: [Counter; 2] = [
    Counter::new("serve.bytes_read.inorder"),
    Counter::new("serve.bytes_read.pipelined"),
];
static BYTES_WRITTEN: [Counter; 2] = [
    Counter::new("serve.bytes_written.inorder"),
    Counter::new("serve.bytes_written.pipelined"),
];

// Where admitted requests ran: on the session thread that read them, or
// on a launched request thread (see the module docs for the rule).
static REQUESTS_INLINE: Counter = Counter::new("serve.requests.inline");
static REQUESTS_LAUNCHED: Counter = Counter::new("serve.requests.launched");

/// Server construction options.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Cap on concurrently-executing requests (the execution slots); `0`
    /// means the configured `DPOPT_JOBS` count.
    pub jobs: usize,
    /// Compiled-program cache capacity (entries).
    pub cache_capacity: usize,
    /// Cap on live sessions; a connection over the cap is answered with
    /// one `overloaded` error line and closed. `0` means unlimited.
    pub max_connections: usize,
    /// Cap on admitted requests waiting for an execution slot; past it
    /// new requests fast-fail with `kind:"overloaded"`. `0` means
    /// unlimited.
    pub max_queue_depth: usize,
    /// Per-request deadline in milliseconds: work still waiting for an
    /// execution slot when it expires answers `kind:"deadline_exceeded"`
    /// (running work is never cancelled). `0` means no deadline.
    pub request_timeout_ms: u64,
    /// Cap on one request line's bytes (newline included); oversized
    /// lines answer `kind:"too_large"` and close the connection. `0`
    /// means unlimited.
    pub max_request_bytes: usize,
    /// Armed fault injections (tests only; empty in production).
    pub faults: FaultPlan,
    /// When non-zero, a background thread dumps a metrics-registry
    /// snapshot to stderr every N seconds (stdout and the wire are
    /// never touched).
    pub metrics_dump_secs: u64,
    /// Shared-secret token. When set, every session must authenticate
    /// with a `hello` op carrying this token before any other request;
    /// unauthenticated requests answer `kind:"auth"` and the session
    /// closes. Required for binding beyond loopback.
    pub auth_token: Option<String>,
    /// When set, `sweep-cell` responses are served from (and populate)
    /// the crash-safe on-disk sweep result cache in this directory — the
    /// same checksummed `dp_sweep::cache` format `dpopt sweep` uses, so
    /// results survive daemon restarts and are shared across clients.
    pub disk_cache: Option<PathBuf>,
    /// Size budget for the disk cache in MB: after each successful store
    /// or `cache-push` the directory is trimmed to the budget with the
    /// sweep cache's LRU eviction (quarantined entries evict first). `0`
    /// means unbounded.
    pub max_disk_cache_mb: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            jobs: 0,
            cache_capacity: 64,
            max_connections: 0,
            max_queue_depth: 0,
            request_timeout_ms: 0,
            max_request_bytes: 8 * 1024 * 1024,
            faults: FaultPlan::default(),
            metrics_dump_secs: 0,
            auth_token: None,
            disk_cache: None,
            max_disk_cache_mb: 0,
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Tcp(listener) => {
                let (stream, _) = listener.accept()?;
                // Responses are single lines; without nodelay the last
                // segment waits on the client's delayed ACK.
                let _ = stream.set_nodelay(true);
                Ok(Stream::Tcp(stream))
            }
            #[cfg(unix)]
            Listener::Unix(listener, _) => Ok(Stream::Unix(listener.accept()?.0)),
        }
    }
}

/// Execution-slot accounting: `free_slots` is the remaining `--jobs`
/// budget, `waiting` counts admitted requests not yet holding a slot.
/// One mutex covers both so admission (`free_slots == 0 && waiting >=
/// max_queue_depth`) is a single consistent read.
struct ExecState {
    free_slots: usize,
    waiting: usize,
}

struct State {
    /// What the server was bound with, `jobs` and `faults` resolved: the
    /// one statement of every limit a request meets.
    options: ServeOptions,
    cache: CompiledCache,
    exec: Mutex<ExecState>,
    exec_free: Condvar,
    /// Live session count (the `--max-connections` admission signal).
    sessions: AtomicUsize,
    datasets: Mutex<HashMap<String, Arc<BenchInput>>>,
    draining: AtomicBool,
    inflight: Mutex<usize>,
    drained: Condvar,
    /// Daemon start time, for the `uptime_ms` stats field.
    started: Instant,
    /// The on-disk sweep-cell result cache (`None` = off). Once its
    /// directory is full or read-only, stores stop and reads continue.
    disk_cache: Option<sweep_cache::ResultCache>,
}

impl State {
    /// Marks one request in flight, unless the server is draining. The
    /// draining check and the increment happen under the `inflight` lock —
    /// the same lock [`State::drain`] waits on — so a request is either
    /// refused or fully counted before a drain can observe the count;
    /// there is no window where a shutdown completes with an admitted
    /// request still running.
    fn begin_request(self: &Arc<Self>) -> Option<InflightGuard> {
        let mut inflight = self.inflight.lock().unwrap();
        if self.draining.load(Ordering::SeqCst) {
            return None;
        }
        *inflight += 1;
        Some(InflightGuard {
            state: Arc::clone(self),
        })
    }

    /// Admits an execution into the queue, or refuses it when the queue
    /// is saturated (`max_queue_depth` waiters and no free slot). With
    /// `try_slot`, a free execution slot is taken in the same critical
    /// section, so "a slot is free now" is an acquisition and not a peek.
    /// The returned token holds that slot or one `waiting` count, and the
    /// deadline it must start by; [`State::exec_within`] turns a wait into
    /// a slot, and dropping the token releases whichever it holds.
    fn admit(self: &Arc<Self>, try_slot: bool) -> Option<QueueSlot> {
        let options = &self.options;
        let mut exec = self.exec.lock().unwrap();
        if options.max_queue_depth > 0
            && exec.free_slots == 0
            && exec.waiting >= options.max_queue_depth
        {
            return None;
        }
        let running = try_slot && exec.free_slots > 0;
        if running {
            exec.free_slots -= 1;
        } else {
            exec.waiting += 1;
        }
        Some(QueueSlot {
            state: Arc::clone(self),
            running,
            deadline: (options.request_timeout_ms > 0)
                .then(|| Instant::now() + Duration::from_millis(options.request_timeout_ms)),
        })
    }

    /// Fires any fault armed at `point` for `op` and applies the two kinds
    /// that mean the same at every point: a delay sleeps, a panic panics
    /// here. Whatever kind is left is the call site's to act on.
    fn fault(&self, point: FaultPoint, op: &str) -> Option<FaultKind> {
        match self.options.faults.fire(point, op)? {
            FaultKind::DelayMs(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                None
            }
            FaultKind::Panic => {
                let at = match point {
                    FaultPoint::SessionRead => "session-read",
                    FaultPoint::PreWrite => "pre-write",
                    _ => "exec",
                };
                panic!("injected fault: panic at {at}")
            }
            kind => Some(kind),
        }
    }

    /// Runs one execution under the `--jobs` cap on the calling thread,
    /// the one that holds the slot: the session thread, or the request
    /// thread the threshold launched. At most `jobs` requests execute at
    /// once however many sessions are connected. `Err` is the answer of an
    /// execution that produced none: its deadline passed while it waited
    /// for a slot (work that starts always runs to completion), it
    /// panicked (the thread and the daemon survive), or `f` refused it.
    fn exec_within<T>(
        &self,
        mut slot: QueueSlot,
        op: &str,
        id: Option<&Json>,
        f: impl FnOnce() -> Result<T, String>,
    ) -> Result<T, Json> {
        if !slot.running {
            let mut exec = self.exec.lock().unwrap();
            while exec.free_slots == 0 {
                match slot.deadline {
                    None => exec = self.exec_free.wait(exec).unwrap(),
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            // Built from the *configured* timeout, never
                            // from measured time: the bytes are a pure
                            // function of the request and the flags.
                            let ms = self.options.request_timeout_ms;
                            let message = format!(
                                "request expired after {ms} ms before an execution slot freed"
                            );
                            return Err(refusal(Reject::DeadlineExceeded, id, &message));
                        }
                        exec = self.exec_free.wait_timeout(exec, d - now).unwrap().0;
                    }
                }
            }
            exec.free_slots -= 1;
            exec.waiting -= 1;
            slot.running = true;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.fault(FaultPoint::Exec, op);
            f()
        }));
        drop(slot);
        match outcome {
            Ok(Ok(value)) => Ok(value),
            Ok(Err(e)) => Err(proto::error_response(id, &e)),
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic".to_string());
                let message = format!("request panicked: {message}");
                Err(proto::error_response_kind(id, "panic", &message))
            }
        }
    }

    /// Stops new work and blocks until every in-flight request has written
    /// its response. Idempotent; safe to call from several sessions.
    fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        let mut inflight = self.inflight.lock().unwrap();
        while *inflight > 0 {
            inflight = self.drained.wait(inflight).unwrap();
        }
    }

    /// The materialized input for a Table-I dataset spec, memoized by its
    /// canonical identity. The map is small (a handful of datasets exist)
    /// but still bounded defensively.
    fn dataset(&self, spec: &dp_sweep::DatasetSpec) -> Arc<BenchInput> {
        let canon = key::canonical_dataset(spec);
        if let Some(input) = self.datasets.lock().unwrap().get(&canon) {
            return Arc::clone(input);
        }
        // Instantiate outside the lock (generation can be slow); a racing
        // session may duplicate the work once, after which the map serves.
        let input = spec.instantiate();
        let mut map = self.datasets.lock().unwrap();
        if map.len() >= 32 {
            map.clear();
        }
        map.entry(canon).or_insert_with(|| Arc::clone(&input));
        input
    }
}

/// Decrements the in-flight count (and wakes a drainer) on drop — after
/// the request has written its response, because the guard is held across
/// the write.
struct InflightGuard {
    state: Arc<State>,
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        let mut inflight = self.state.inflight.lock().unwrap();
        *inflight -= 1;
        if *inflight == 0 {
            self.state.drained.notify_all();
        }
    }
}

/// One admitted execution's place in the queue: a `waiting` count until
/// it is `running`, an execution slot from then on. Dropping it releases
/// whichever it holds — a waiter that never reaches the executor (a
/// compile error, a disk-cache hit, an expired deadline) or a finished
/// execution.
struct QueueSlot {
    state: Arc<State>,
    running: bool,
    /// When the request must have started by (`None` = no deadline).
    deadline: Option<Instant>,
}

impl Drop for QueueSlot {
    fn drop(&mut self) {
        let mut exec = self
            .state
            .exec
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if self.running {
            exec.free_slots += 1;
            drop(exec);
            // `notify_all`, not `notify_one`: waiters carry distinct
            // deadlines, and a woken waiter may immediately expire instead
            // of taking the slot — every waiter must get the chance to
            // re-check.
            self.state.exec_free.notify_all();
        } else {
            exec.waiting -= 1;
        }
    }
}

/// Per-connection shared state: the response writer and the count of
/// spawned-but-unfinished pipelined requests. The writer mutex makes each
/// response line atomic on the wire; the pending counter orders id-less
/// (legacy, strictly-in-order) requests after every outstanding pipelined
/// response and implements the [`PIPELINE_WINDOW`] backpressure.
struct Session {
    writer: Mutex<Stream>,
    pending: Mutex<usize>,
    idle: Condvar,
}

impl Session {
    /// Writes one encoded response line (newline included) and flushes,
    /// charging its bytes to the request's session class (`pipelined` =
    /// the request carried an `id`). The line is encoded before the lock
    /// is taken: the request threads of a pipelined session contend only
    /// for the socket, never for each other's encoding.
    fn write_line(&self, line: &str, pipelined: bool) -> std::io::Result<()> {
        let mut writer = self.writer.lock().unwrap();
        writer.write_all(line.as_bytes())?;
        writer.flush()?;
        drop(writer);
        BYTES_WRITTEN[pipelined as usize].add(line.len() as u64);
        Ok(())
    }

    /// Encodes a response tree as one line, then writes it.
    fn write(&self, response: &Json, pipelined: bool) -> std::io::Result<()> {
        let mut line = String::new();
        response.write(&mut line);
        line.push('\n');
        self.write_line(&line, pipelined)
    }

    /// Refuses a request: counts the refusal and writes its answer.
    fn refuse(&self, kind: Reject, id: Option<&Json>, message: &str) -> std::io::Result<()> {
        self.write(&refusal(kind, id, message), id.is_some())
    }

    fn shutdown_socket(&self) {
        self.writer.lock().unwrap().shutdown();
    }

    /// Reserves a pipelined request, blocking while the window is full.
    /// The reservation is released when the returned guard drops — also
    /// when the request thread unwinds from a panic, or was never started.
    fn begin_pipelined(self: &Arc<Self>) -> PipelinedGuard {
        let mut pending = self.pending.lock().unwrap();
        while *pending >= PIPELINE_WINDOW {
            pending = self.idle.wait(pending).unwrap();
        }
        *pending += 1;
        PipelinedGuard {
            session: Arc::clone(self),
        }
    }

    /// Whether no pipelined request is outstanding. Only the session
    /// thread reserves, so `true` stays true until that thread launches.
    fn is_idle(&self) -> bool {
        *self.pending.lock().unwrap() == 0
    }

    /// Blocks until every pipelined response has been written.
    fn wait_idle(&self) {
        let mut pending = self.pending.lock().unwrap();
        while *pending > 0 {
            pending = self.idle.wait(pending).unwrap();
        }
    }
}

/// One live session's count in [`State::sessions`], given back on drop so
/// that a session thread that panics frees its `--max-connections` slot.
struct SessionCount(Arc<State>);

impl Drop for SessionCount {
    fn drop(&mut self) {
        self.0.sessions.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One launched request's count in [`Session::pending`].
struct PipelinedGuard {
    session: Arc<Session>,
}

impl Drop for PipelinedGuard {
    fn drop(&mut self) {
        let mut pending = self
            .session
            .pending
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *pending -= 1;
        self.session.idle.notify_all();
    }
}

/// A bound, not-yet-serving server. Splitting bind from
/// [`Server::serve`] lets callers learn the actual address (port 0 binds)
/// before the accept loop starts.
pub struct Server {
    listener: Listener,
    state: Arc<State>,
    endpoint: Endpoint,
}

impl Server {
    /// Binds a listener and builds the shared state.
    ///
    /// A Unix bind that hits a leftover socket file probes it first: a
    /// refused connect means the previous daemon died without unlinking,
    /// so the stale file is removed and the bind retried once; a
    /// successful connect means a live daemon owns the path, and the bind
    /// fails rather than hijacking it.
    pub fn bind(endpoint: &Endpoint, options: &ServeOptions) -> std::io::Result<Server> {
        let (listener, actual) = match endpoint {
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr)?;
                let actual = Endpoint::Tcp(listener.local_addr()?.to_string());
                (Listener::Tcp(listener), actual)
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let listener = match UnixListener::bind(path) {
                    Ok(l) => l,
                    Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                        match UnixStream::connect(path) {
                            Ok(_) => {
                                return Err(std::io::Error::new(
                                    std::io::ErrorKind::AddrInUse,
                                    format!(
                                        "`{}` has a live server; refusing to replace it",
                                        path.display()
                                    ),
                                ))
                            }
                            Err(_) => {
                                // Dead socket from a crashed daemon.
                                std::fs::remove_file(path)?;
                                UnixListener::bind(path)?
                            }
                        }
                    }
                    Err(e) => return Err(e),
                };
                (
                    Listener::Unix(listener, path.clone()),
                    Endpoint::Unix(path.clone()),
                )
            }
        };
        // The daemon always collects metrics: the `metrics` op must have
        // data to report without requiring `DPOPT_METRICS` in the
        // environment. Collection writes only to the in-process registry,
        // never to stdout or the wire.
        dp_obs::metrics::enable();
        let mut options = options.clone();
        if options.jobs == 0 {
            options.jobs = dp_pool::jobs::configured_jobs();
        }
        if options.faults.is_empty() {
            options.faults = FaultPlan::from_env()
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        }
        let state = Arc::new(State {
            cache: CompiledCache::new(options.cache_capacity),
            exec: Mutex::new(ExecState {
                free_slots: options.jobs,
                waiting: 0,
            }),
            exec_free: Condvar::new(),
            sessions: AtomicUsize::new(0),
            datasets: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
            inflight: Mutex::new(0),
            drained: Condvar::new(),
            started: Instant::now(),
            disk_cache: options
                .disk_cache
                .clone()
                .map(sweep_cache::ResultCache::new),
            options,
        });
        Ok(Server {
            listener,
            state,
            endpoint: actual,
        })
    }

    /// The endpoint actually bound (resolves `:0` TCP binds).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Accepts and serves connections until a `shutdown` request drains
    /// the server. Blocks the calling thread.
    pub fn serve(self) -> std::io::Result<()> {
        let dump_secs = self.state.options.metrics_dump_secs;
        if dump_secs > 0 {
            let period = Duration::from_secs(dump_secs);
            let state = Arc::clone(&self.state);
            // Detached: the dump loop holds no guards and dies with the
            // process; it exits on its own once a drain begins.
            let _ = std::thread::Builder::new()
                .name("dp-serve-metrics-dump".to_string())
                .spawn(move || loop {
                    std::thread::sleep(period);
                    if state.draining.load(Ordering::SeqCst) {
                        break;
                    }
                    dp_obs::diag!("dp-serve metrics {}", dp_obs::metrics::snapshot().to_json());
                });
        }
        loop {
            let stream = self.listener.accept();
            if self.state.draining.load(Ordering::SeqCst) {
                break;
            }
            if let Ok(stream) = stream {
                spawn_session(Arc::clone(&self.state), stream, &self.endpoint);
            }
        }
        #[cfg(unix)]
        if let Listener::Unix(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

fn spawn_session(state: Arc<State>, stream: Stream, endpoint: &Endpoint) {
    // The accept loop is single-threaded, so the load-then-increment is
    // not racing other admissions (an exiting session's decrement can only
    // make the count smaller — the cap never over-admits a live set).
    let max = state.options.max_connections;
    if max > 0 && state.sessions.load(Ordering::SeqCst) >= max {
        let mut stream = stream;
        let message = format!("connection limit ({max}) reached");
        let _ = proto::write_line(&mut stream, &refusal(Reject::Overloaded, None, &message));
        return;
    }
    state.sessions.fetch_add(1, Ordering::SeqCst);
    let live = SessionCount(Arc::clone(&state));
    let endpoint = endpoint.clone();
    let spawned = std::thread::Builder::new()
        .name("dp-serve-session".to_string())
        .spawn(move || {
            let _live = live;
            let _ = run_session(state, stream, &endpoint);
        });
    if let Err(e) = spawned {
        // Thread exhaustion; the closure was dropped unrun, which closed
        // the connection and gave its `sessions` count back. Keep accepting.
        dp_obs::diag!("dp-serve: cannot spawn a session thread: {e}");
    }
}

/// Serves one connection. Pipelined (`id`-tagged) requests may respond
/// out of order: each runs here or on a launched request thread by the
/// threshold rule in the module docs. Id-less requests preserve the legacy
/// strictly-in-order protocol.
fn run_session(state: Arc<State>, stream: Stream, endpoint: &Endpoint) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let session = Arc::new(Session {
        writer: Mutex::new(stream),
        pending: Mutex::new(0),
        idle: Condvar::new(),
    });
    // Open servers start authenticated; token-protected ones require a
    // matching `hello` before anything else.
    let options = &state.options;
    let mut authed = options.auth_token.is_none();
    // The session's request and answer lines, reused from request to
    // request; a launched request thread encodes into a line of its own.
    let (mut raw, mut answer_line) = (Vec::new(), String::new());
    loop {
        let bytes = match proto::read_line_into(&mut reader, options.max_request_bytes, &mut raw)? {
            LineRead::Eof => break,
            LineRead::TooLarge => {
                // Flush outstanding pipelined responses, answer, close:
                // past the cap the line boundary is unknown, so the
                // connection cannot be resynchronized.
                session.wait_idle();
                let cap = options.max_request_bytes;
                let message = format!("request line exceeds {cap} bytes");
                session.refuse(Reject::TooLarge, None, &message)?;
                session.shutdown_socket();
                break;
            }
            LineRead::Line(bytes) => bytes,
        };
        let line = String::from_utf8_lossy(bytes);
        if line.trim().is_empty() {
            continue;
        }
        // Filesystem-surface kinds have no meaning on the socket.
        if let Some(FaultKind::TornWrite | FaultKind::Disconnect) =
            state.fault(FaultPoint::SessionRead, "")
        {
            session.shutdown_socket();
            break;
        }
        let ParsedRequest { id, body } = proto::parse_request(&line);
        // The bytes taken from the socket: a lossily replaced byte is one
        // byte read, not the three of its replacement character.
        BYTES_READ[id.is_some() as usize].add(bytes.len() as u64);
        let request = match body {
            Err(e) => {
                session.refuse(Reject::Parse, id.as_ref(), &e)?;
                continue;
            }
            Ok(request) => request,
        };
        let op = op_row(&request);
        if let Request::Hello { token } = &request {
            op.requests.incr();
            match &options.auth_token {
                Some(expected) if token.as_deref() != Some(expected.as_str()) => {
                    session.wait_idle();
                    session.refuse(Reject::Auth, id.as_ref(), "invalid token")?;
                    session.shutdown_socket();
                    break;
                }
                _ => {
                    authed = true;
                    session.write(
                        &proto::ok_response(
                            id.as_ref(),
                            vec![
                                ("authed", Json::Bool(true)),
                                ("op", Json::Str("hello".to_string())),
                            ],
                        ),
                        id.is_some(),
                    )?;
                }
            }
            continue;
        }
        if !authed {
            // Every op — including stats and shutdown — is gated.
            session.wait_idle();
            let message = "authentication required: send `hello` with the token first";
            session.refuse(Reject::Auth, id.as_ref(), message)?;
            session.shutdown_socket();
            break;
        }
        match request {
            Request::Shutdown => {
                op.requests.incr();
                // Pipelined requests hold inflight guards until their
                // responses are written, so the drain covers them; the
                // wait_idle then orders this session's shutdown answer
                // after its own outstanding responses.
                state.drain();
                session.wait_idle();
                session.write(
                    &proto::ok_response(
                        id.as_ref(),
                        vec![
                            ("drained", Json::Bool(true)),
                            ("op", Json::Str("shutdown".to_string())),
                        ],
                    ),
                    id.is_some(),
                )?;
                // The accept loop is blocked in `accept`; a throwaway
                // connection wakes it so it can observe `draining` and exit.
                let _ = wake_endpoint(endpoint).connect();
                return Ok(());
            }
            Request::Stats | Request::Metrics => {
                op.requests.incr();
                let started = dp_obs::metrics::now();
                encode(
                    dispatch(&state, request, id.as_ref(), None),
                    id.as_ref(),
                    &mut answer_line,
                );
                session.write_line(&answer_line, id.is_some())?;
                op.record_since(started);
            }
            request => {
                let pipelined = id.is_some();
                if !pipelined {
                    // Legacy protocol: strictly in order, never
                    // interleaved with pipelined responses.
                    session.wait_idle();
                }
                let Some(guard) = state.begin_request() else {
                    session.refuse(Reject::Draining, id.as_ref(), "server is draining")?;
                    continue;
                };
                // The threshold: with nothing of this session to overlap
                // with, the request runs right here — an execution only if
                // it also holds a slot, and only executions queue for one.
                let alone = pipelined && reader.buffer().is_empty() && session.is_idle();
                let executes = matches!(request, Request::Execute(_) | Request::SweepCell(_));
                let slot = if executes {
                    let Some(slot) = state.admit(alone) else {
                        drop(guard);
                        let depth = options.max_queue_depth;
                        let message = format!("queue depth limit ({depth}) reached");
                        session.refuse(Reject::Overloaded, id.as_ref(), &message)?;
                        continue;
                    };
                    Some(slot)
                } else {
                    None
                };
                op.requests.incr();
                let here = slot.as_ref().map_or(alone, |slot| slot.running);
                if pipelined && !here {
                    REQUESTS_LAUNCHED.incr();
                    let pending = session.begin_pipelined();
                    let state2 = Arc::clone(&state);
                    let session2 = Arc::clone(&session);
                    let id2 = id.clone();
                    let spawned = std::thread::Builder::new()
                        .name("dp-serve-request".to_string())
                        .spawn(move || {
                            let _pending = pending;
                            let admitted = Admitted { op, slot, guard };
                            let mut line = String::new();
                            let _ = answer(
                                &state2,
                                &session2,
                                request,
                                id2.as_ref(),
                                admitted,
                                &mut line,
                            );
                        });
                    if spawned.is_err() {
                        // Thread exhaustion; the closure (and its guards)
                        // was dropped unrun. Degrade to a fast-fail.
                        let message = "cannot spawn a request thread";
                        session.refuse(Reject::Overloaded, id.as_ref(), message)?;
                    }
                } else {
                    REQUESTS_INLINE.incr();
                    let admitted = Admitted { op, slot, guard };
                    answer(
                        &state,
                        &session,
                        request,
                        id.as_ref(),
                        admitted,
                        &mut answer_line,
                    )?;
                }
            }
        }
    }
    Ok(())
}

/// What `run_session` admitted a request with: its op's row, its place in
/// the execution queue (executions only) and its in-flight count.
struct Admitted {
    op: &'static OpRow,
    slot: Option<QueueSlot>,
    guard: InflightGuard,
}

/// Runs one admitted request to its written response, on whichever thread
/// the threshold chose, encoding the response into `line`.
fn answer(
    state: &Arc<State>,
    session: &Session,
    request: Request,
    id: Option<&Json>,
    admitted: Admitted,
    line: &mut String,
) -> std::io::Result<()> {
    let Admitted { op, slot, guard } = admitted;
    let _span = dp_obs::trace::span_with("serve.request", &[("op", op.name)]);
    let started = dp_obs::metrics::now();
    encode(dispatch(state, request, id, slot), id, line);
    // Write before the guard drops: a drain must not complete with this
    // response unwritten.
    deliver(state, session, op.name, line, id.is_some())?;
    op.record_since(started);
    drop(guard); // response is on the wire: now drainable
    Ok(())
}

/// Encodes a dispatched response into `line` (cleared first) as one NDJSON
/// line, newline included.
fn encode(response: Result<Answer, Json>, id: Option<&Json>, line: &mut String) {
    line.clear();
    match response {
        Ok(Answer::Tree(tree)) | Err(tree) => tree.write(line),
        Ok(Answer::Execute(answer)) => proto::write_execute_answer(line, id, &answer),
        Ok(Answer::Transform(compiled)) => {
            let diagnostics = diagnostics(&compiled);
            let source = compiled.transformed_source();
            proto::write_transform_answer(line, id, &diagnostics, source);
        }
    }
    line.push('\n');
}

/// Writes one encoded response line, applying any armed `pre-write` fault.
fn deliver(
    state: &State,
    session: &Session,
    op: &'static str,
    line: &str,
    pipelined: bool,
) -> std::io::Result<()> {
    match state.fault(FaultPoint::PreWrite, op) {
        Some(FaultKind::TornWrite) => {
            let mut writer = session.writer.lock().unwrap();
            writer.write_all(&line.as_bytes()[..line.len() / 2])?;
            writer.flush()?;
            writer.shutdown();
            Ok(())
        }
        Some(FaultKind::Disconnect) => {
            session.shutdown_socket();
            Ok(())
        }
        // Filesystem-surface kinds have no meaning on the socket.
        Some(_) | None => session.write_line(line, pipelined),
    }
}

/// The address a session connects to in order to wake the accept loop: a
/// wildcard bind (`0.0.0.0`, `[::]`) is not connectable on every platform,
/// so the wake goes to the loopback of the same family and port.
fn wake_endpoint(bound: &Endpoint) -> Endpoint {
    match bound {
        Endpoint::Tcp(addr) => {
            if let Some(port) = addr.strip_prefix("0.0.0.0:") {
                Endpoint::Tcp(format!("127.0.0.1:{port}"))
            } else if let Some(port) = addr.strip_prefix("[::]:") {
                Endpoint::Tcp(format!("[::1]:{port}"))
            } else {
                bound.clone()
            }
        }
        #[cfg(unix)]
        Endpoint::Unix(_) => bound.clone(),
    }
}

/// Compiles through the single-flight cache. `Err` is the answer to a
/// source that does not compile.
fn cached_compile(
    state: &State,
    source: &str,
    config: &OptConfig,
    id: Option<&Json>,
) -> Result<(u64, SharedCompiled), Json> {
    let compile_key = key::compiled_key(source, config);
    let result = state.cache.get_or_compile(compile_key, || {
        Compiler::new()
            .config(*config)
            .compile(source)
            .map(|c| c.into_shared())
            .map_err(|e| e.to_string())
    });
    result
        .map(|compiled| (compile_key, compiled))
        .map_err(|e| proto::error_response(id, &e))
}

/// A response, not yet encoded. The hot success answers keep their parts
/// and are written member by member ([`proto::write_execute_answer`],
/// [`proto::write_transform_answer`]); every other response is its tree.
enum Answer {
    Tree(Json),
    Execute(proto::ExecuteAnswer),
    Transform(SharedCompiled),
}

/// Builds one request's response; `Err` is a response too, one that left
/// early (a compile error, a refusal, an expired deadline, a panic).
/// `slot` is the place in the execution queue `run_session` admitted an
/// `execute` or a `sweep-cell` with; no other op has one.
fn dispatch(
    state: &Arc<State>,
    request: Request,
    id: Option<&Json>,
    slot: Option<QueueSlot>,
) -> Result<Answer, Json> {
    let admitted = || slot.expect("run_session admits every execution");
    Ok(Answer::Tree(match request {
        Request::Compile { source, config } => {
            let (compile_key, compiled) = cached_compile(state, &source, &config, id)?;
            let kernels: Vec<Json> = compiled
                .module()
                .functions
                .iter()
                .filter(|f| f.qual == FnQual::Global)
                .map(|f| Json::Str(f.name.as_str().to_owned()))
                .collect();
            let diagnostics = diagnostics(&compiled).into_iter().map(Json::Str).collect();
            proto::ok_response(
                id,
                vec![
                    ("diagnostics", Json::Array(diagnostics)),
                    ("kernels", Json::Array(kernels)),
                    ("key", Json::Str(format!("{compile_key:016x}"))),
                    ("op", Json::Str("compile".to_string())),
                ],
            )
        }
        Request::Transform { source, config } => {
            let (_, compiled) = cached_compile(state, &source, &config, id)?;
            return Ok(Answer::Transform(compiled));
        }
        Request::Execute(request) => {
            let (_, compiled) = cached_compile(state, &request.source, &request.config, id)?;
            if let Some(e) = aggregation_past_limit(&compiled, &request) {
                return Err(refusal(Reject::Parse, id, &e));
            }
            let run = || run_execute(&compiled, *request);
            let answer = state.exec_within(admitted(), "execute", id, run)?;
            return Ok(Answer::Execute(answer));
        }
        Request::SweepCell(request) => run_sweep_cell(state, &request, id, admitted())?,
        Request::CachePush { key, entry } => run_cache_push(state, key, &entry, id),
        Request::CachePull { key } => run_cache_pull(state, key, id),
        Request::Stats => stats_response(state, id),
        Request::Metrics => metrics_response(id),
        // Answered by `run_session` itself.
        Request::Shutdown | Request::Hello { .. } => proto::error_response(id, "unreachable"),
    }))
}

/// The diagnostics a `compile` or `transform` answer carries.
fn diagnostics(compiled: &SharedCompiled) -> Vec<String> {
    let diagnostics = compiled.manifest().diagnostics.iter();
    diagnostics.map(ToString::to_string).collect()
}

/// The aggregation buffers a transformed kernel's launch provisions count
/// against [`MAX_EXECUTE_WORDS`] like the `words` buffers the request names:
/// `grid` and `block` are a few bytes that name an allocation, too. `Some`
/// is the refusal. Dimensions the machine refuses are left to it.
fn aggregation_past_limit(compiled: &SharedCompiled, request: &ExecuteRequest) -> Option<String> {
    let sites = compiled.manifest().agg_sites.iter();
    let mut sites = sites
        .filter(|site| site.parent == request.kernel)
        .peekable();
    sites.peek()?;
    let grid = u64::try_from(request.grid).ok()?;
    let block = u64::try_from(request.block).ok()?;
    let named: u64 = request
        .buffers
        .iter()
        .map(|buffer| match buffer.data {
            BufferData::Words(words) => words as u64,
            BufferData::Ints(_) | BufferData::Floats(_) => 0,
        })
        .sum();
    let mut left = MAX_EXECUTE_WORDS.checked_sub(named);
    for site in sites {
        for param in &site.buffer_params {
            left = left.and_then(|left| left.checked_sub(site.buffer_words(param, grid, block)?));
        }
    }
    left.is_none().then(|| {
        format!(
            "`grid` {grid}, `block` {block}: the aggregation buffers of `{}` take the request \
             past the limit of {MAX_EXECUTE_WORDS} words",
            request.kernel
        )
    })
}

/// The execution half of an `execute` request, run inside its slot.
fn run_execute(
    compiled: &SharedCompiled,
    request: ExecuteRequest,
) -> Result<proto::ExecuteAnswer, String> {
    let mut exec = compiled.executor();
    let mut buffers: HashMap<&str, i64> = HashMap::new();
    for buffer in &request.buffers {
        let ptr = match &buffer.data {
            BufferData::Words(words) => exec.alloc(*words),
            BufferData::Ints(values) => exec.alloc_i64s(values),
            BufferData::Floats(values) => exec.alloc_f64s(values),
        };
        if buffers.insert(&buffer.name, ptr).is_some() {
            return Err(format!("duplicate buffer `{}`", buffer.name));
        }
    }
    let resolve = |name: &str| -> Result<i64, String> {
        buffers
            .get(name)
            .copied()
            .ok_or_else(|| format!("unknown buffer `@{name}`"))
    };
    let args: Vec<dp_vm::Value> = request
        .args
        .iter()
        .map(|arg| {
            Ok(match arg {
                Arg::Int(v) => dp_vm::Value::Int(*v),
                Arg::Float(v) => dp_vm::Value::Float(*v),
                Arg::Buffer(name) => dp_vm::Value::Int(resolve(name)?),
            })
        })
        .collect::<Result<_, String>>()?;
    exec.launch(&request.kernel, request.grid, request.block, &args)
        .map_err(|e| e.to_string())?;
    exec.sync().map_err(|e| e.to_string())?;

    let mut outputs = Vec::with_capacity(request.reads.len());
    for read in request.reads {
        let ptr = resolve(&read.buffer)? + read.offset as i64;
        let values = if read.floats {
            let values = exec.read_f64s(ptr, read.len).map_err(|e| e.to_string());
            values.and_then(|values| {
                proto::Values::floats(values).map_err(|(at, v)| {
                    let at = read.offset + at;
                    format!(
                        "`{}[{at}]` is {v}, which JSON has no number for",
                        read.buffer
                    )
                })
            })
        } else {
            let values = exec.read_i64s(ptr, read.len);
            values.map(proto::Values::Ints).map_err(|e| e.to_string())
        };
        let values = values.map_err(|e| format!("read `{}`: {e}", read.buffer))?;
        outputs.push(proto::Output {
            buffer: read.buffer,
            values,
        });
    }

    let report = exec.finish();
    let sim = report.simulate(&TimingParams::default());
    Ok(proto::ExecuteAnswer {
        device_launches: report.stats.device_launches,
        host_launches: sim.host_launches as u64,
        instructions: report.stats.instructions,
        outputs,
        total_us: sim.total_us,
    })
}

/// One sweep cell: compile through the cache, memoized dataset, execution
/// inside its slot, summarized through the sweep engine's single path.
fn run_sweep_cell(
    state: &Arc<State>,
    request: &CellSpec,
    id: Option<&Json>,
    slot: QueueSlot,
) -> Result<Json, Json> {
    let Some(bench) = benchmark_by_name(&request.benchmark) else {
        let message = format!("unknown benchmark `{}`", request.benchmark);
        return Err(proto::error_response(id, &message));
    };
    let (source, config) = request.variant.variant.program(bench.as_ref());
    let cell_key = key::cell_key(
        &request.benchmark,
        source,
        &request.variant.variant,
        &request.dataset,
        &TimingParams::default(),
        &dp_vm::bytecode::CostModel::default(),
    );
    // Disk-cache probe before compiling: a hit skips the compile and the
    // execution queue entirely. Corrupt entries were already quarantined
    // by `load`, so a hit is always checksum-verified.
    if let Some(cache) = &state.disk_cache {
        if let Some(summary) = cache.load(cell_key) {
            DISK_CACHE_HITS.incr();
            return Ok(sweep_cell_response(cell_key, &summary, request, id));
        }
        DISK_CACHE_MISSES.incr();
    }
    let (_, compiled) = cached_compile(state, source, &config, id)?;
    let input = state.dataset(&request.dataset);
    let label = &request.variant.label;
    let timing = TimingParams::default();
    let run = || {
        dp_sweep::execute_cell(bench.as_ref(), label, &compiled, &input, &timing)
            .map_err(|e| e.to_string())
    };
    let summary = state.exec_within(slot, "sweep-cell", id, run)?;
    if let Some(cache) = &state.disk_cache {
        if cache.store(cell_key, &summary) == sweep_cache::StoreOutcome::Stored {
            DISK_CACHE_STORES.incr();
            enforce_disk_cache_budget(state);
        }
    }
    Ok(sweep_cell_response(cell_key, &summary, request, id))
}

/// Trims the disk cache to its `--max-disk-cache-mb` budget (LRU,
/// quarantined entries first) after a successful store or push.
fn enforce_disk_cache_budget(state: &State) {
    let budget = state.options.max_disk_cache_mb * 1024 * 1024;
    if let (Some(cache), true) = (&state.disk_cache, budget > 0) {
        let _ = sweep_cache::gc(cache.dir(), budget);
    }
}

/// `cache-push`: store one sealed entry verbatim — but only after it
/// re-verifies against its key on this side of the wire
/// (`sweep_cache::receive`). A corrupt payload is quarantined (never
/// published under the live key) and answered with a `kind:"cache"` error;
/// replication can never spread a bad byte.
fn run_cache_push(state: &Arc<State>, key: u64, entry: &str, id: Option<&Json>) -> Json {
    let Some(dir) = state.disk_cache.as_ref().map(|cache| cache.dir()) else {
        return proto::error_response(id, "disk cache not enabled (start with --disk-cache)");
    };
    // Idempotence: a key whose verified entry is already on disk answers
    // `stored:false` without touching the file (sealed entries for one
    // key are byte-identical by construction).
    let stored = sweep_cache::load_sealed(dir, key).is_none();
    if stored {
        match sweep_cache::receive(dir, key, entry) {
            Err(reason) => {
                let message = format!("rejected corrupt cache entry {key:016x} ({reason})");
                return proto::error_response_kind(id, "cache", &message);
            }
            Ok(sweep_cache::StoreOutcome::Stored) => {
                DISK_CACHE_STORES.incr();
                enforce_disk_cache_budget(state);
            }
            Ok(_) => {
                return proto::error_response(id, &format!("cannot store cache entry {key:016x}"))
            }
        }
    }
    proto::ok_response(
        id,
        vec![
            ("key", Json::Str(format!("{key:016x}"))),
            ("op", Json::Str("cache-push".to_string())),
            ("stored", Json::Bool(stored)),
        ],
    )
}

/// `cache-pull`: hand back one sealed entry's exact bytes (the receiver
/// re-verifies), or — with no key — the sorted inventory of held keys.
fn run_cache_pull(state: &Arc<State>, key: Option<u64>, id: Option<&Json>) -> Json {
    let Some(dir) = state.disk_cache.as_ref().map(|cache| cache.dir()) else {
        return proto::error_response(id, "disk cache not enabled (start with --disk-cache)");
    };
    match key {
        None => {
            let keys = sweep_cache::list_keys(dir).unwrap_or_default();
            proto::ok_response(
                id,
                vec![
                    (
                        "keys",
                        Json::Array(
                            keys.into_iter()
                                .map(|k| Json::Str(format!("{k:016x}")))
                                .collect(),
                        ),
                    ),
                    ("op", Json::Str("cache-pull".to_string())),
                ],
            )
        }
        Some(key) => {
            // `load_sealed` re-verifies the checksum and quarantines a
            // corrupt file, so a served entry is never known-bad.
            let mut members = vec![
                ("key", Json::Str(format!("{key:016x}"))),
                ("op", Json::Str("cache-pull".to_string())),
            ];
            match sweep_cache::load_sealed(dir, key) {
                Some(entry) => {
                    members.push(("entry", Json::Str(entry)));
                    members.push(("found", Json::Bool(true)));
                }
                None => members.push(("found", Json::Bool(false))),
            }
            proto::ok_response(id, members)
        }
    }
}

/// Builds the `sweep-cell` response from a summary. Freshly executed and
/// disk-cached results go through this same `summary_json` path, so the
/// response bytes are identical either way.
fn sweep_cell_response(
    cell_key: u64,
    summary: &dp_sweep::CellSummary,
    request: &CellSpec,
    id: Option<&Json>,
) -> Json {
    let mut v = sweep_cache::summary_json(cell_key, summary);
    if let Json::Object(map) = &mut v {
        map.insert(
            "benchmark".to_string(),
            Json::Str(request.benchmark.clone()),
        );
        map.insert(
            "dataset".to_string(),
            Json::Str(key::canonical_dataset(&request.dataset)),
        );
        map.insert(
            "label".to_string(),
            Json::Str(request.variant.label.clone()),
        );
        map.insert("ok".to_string(), Json::Bool(true));
        map.insert("op".to_string(), Json::Str("sweep-cell".to_string()));
        if let Some(id) = id {
            map.insert("id".to_string(), id.clone());
        }
    }
    v
}

/// The counters of one table that have counted anything, by name: `stats`
/// reports an op or a refusal kind only once it has been seen.
fn seen_counts<'a>(rows: impl Iterator<Item = (&'a str, &'a Counter)>) -> Json {
    Json::Object(
        rows.map(|(name, count)| (name, count.value()))
            .filter(|(_, n)| *n > 0)
            .map(|(name, n)| (name.to_string(), json::uint(n)))
            .collect(),
    )
}

/// Live counters — deliberately **outside** the determinism contract.
/// `requests` and `rejects` are walks of [`OPS`] and [`REJECTS`], so they
/// are the registry's `serve.op.*` and `serve.reject.*` under shorter names.
fn stats_response(state: &Arc<State>, id: Option<&Json>) -> Json {
    let size = |n: usize| json::uint(n as u64);
    let cache = state.cache.stats();
    let exec = state.exec.lock().unwrap();
    let (free_slots, waiting) = (exec.free_slots, exec.waiting);
    drop(exec);
    let inflight = *state.inflight.lock().unwrap();
    let limits = &state.options;
    // The shared pool's snapshot, in its pinned shape: the daemon submits
    // nothing to it, a sweep in the same process does.
    let pool = Pool::shared().stats();
    let bytes = [
        ("read_inorder", &BYTES_READ[0]),
        ("read_pipelined", &BYTES_READ[1]),
        ("written_inorder", &BYTES_WRITTEN[0]),
        ("written_pipelined", &BYTES_WRITTEN[1]),
    ];
    proto::ok_response(
        id,
        vec![
            (
                "bytes",
                object(bytes.map(|(k, c)| (k, json::uint(c.value())))),
            ),
            (
                "compiled_cache",
                object([
                    ("entries", size(cache.entries)),
                    ("evictions", json::uint(cache.evictions)),
                    ("hits", json::uint(cache.hits)),
                    ("misses", json::uint(cache.misses)),
                    ("singleflight_waits", json::uint(cache.singleflight_waits)),
                ]),
            ),
            (
                "disk_cache",
                object([
                    ("enabled", Json::Bool(state.disk_cache.is_some())),
                    ("hits", json::uint(DISK_CACHE_HITS.value())),
                    ("misses", json::uint(DISK_CACHE_MISSES.value())),
                    ("quarantined", json::uint(sweep_cache::corrupt_count())),
                    ("stores", json::uint(DISK_CACHE_STORES.value())),
                ]),
            ),
            ("inflight", size(inflight)),
            ("jobs", size(limits.jobs)),
            (
                "limits",
                object([
                    ("max_connections", size(limits.max_connections)),
                    ("max_queue_depth", size(limits.max_queue_depth)),
                    ("max_request_bytes", size(limits.max_request_bytes)),
                    ("request_timeout_ms", json::uint(limits.request_timeout_ms)),
                ]),
            ),
            ("op", Json::Str("stats".to_string())),
            (
                "pool",
                object([
                    ("idle", size(pool.idle)),
                    // The pool neither queues, steals nor yields. The three
                    // stay, constant, for the pinned shape: `benchmark/`'s
                    // `DaemonStats::parse` reads `steals` and `yields`.
                    ("queued", json::uint(0)),
                    ("steals", json::uint(0)),
                    ("threads", size(pool.threads)),
                    ("yields", json::uint(0)),
                ]),
            ),
            (
                "queue",
                object([("free_slots", size(free_slots)), ("waiting", size(waiting))]),
            ),
            ("rejects", seen_counts(REJECTS.iter().map(|(k, c)| (*k, c)))),
            (
                "requests",
                seen_counts(OPS.iter().map(|op| (op.name, &op.requests))),
            ),
            ("sessions", size(state.sessions.load(Ordering::SeqCst))),
            (
                "uptime_ms",
                json::uint(state.started.elapsed().as_millis() as u64),
            ),
        ],
    )
}

/// The full metrics-registry snapshot as one response. Like `stats`,
/// deliberately **outside** the determinism contract: the values are
/// live process counters, not a function of the request bytes.
fn metrics_response(id: Option<&Json>) -> Json {
    proto::ok_response(
        id,
        vec![
            ("metrics", dp_obs::metrics::snapshot().to_json()),
            ("op", Json::Str("metrics".to_string())),
        ],
    )
}
