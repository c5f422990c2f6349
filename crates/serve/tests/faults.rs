//! The fault-injection suite: the daemon must stay serviceable — and its
//! caches coherent — through torn writes, mid-request disconnects,
//! injected latency (slow clients and slow work), and worker panics.
//!
//! Every [`FaultPoint`] is exercised at least once: `session-read`
//! (injected read-path latency), `exec` (panics and delays inside the
//! execution slot, driving the deadline/overload/out-of-order tests), and
//! `pre-write` (torn writes and disconnects at response time). Plans are
//! armed programmatically via [`ServeOptions::faults`] so concurrent tests
//! never share environment state.

use dp_serve::proto::{bare_request, Endpoint};
use dp_serve::{Client, ServeOptions, Server};
use dp_sweep::faults::FaultPlan;
use dp_sweep::json::Json;
use std::time::{Duration, Instant};

const SRC: &str = "__global__ void child(int* d, int n) { \
     int i = blockIdx.x * blockDim.x + threadIdx.x; \
     if (i < n) { atomicAdd(&d[i], 1); } }\n\
 __global__ void parent(int* d, int* offsets, int numV) { \
     int v = blockIdx.x * blockDim.x + threadIdx.x; \
     if (v < numV) { \
         int count = offsets[v + 1] - offsets[v]; \
         if (count > 0) { child<<<(count + 31) / 32, 32>>>(d, count); } } }";

fn execute_line(id: Option<u64>) -> String {
    let src = Json::Str(SRC.to_string()).to_string();
    let id = id.map(|n| format!(r#","id":{n}"#)).unwrap_or_default();
    format!(
        r#"{{"op":"execute","source":{src},"kernel":"parent","grid":2,"block":4,"buffers":[{{"name":"d","words":8}},{{"name":"offs","ints":[0,3,4,8,9,11,12]}}],"args":["@d","@offs",6],"read":[{{"buffer":"d","len":8}}]{id}}}"#
    )
}

fn compile_line(id: Option<u64>) -> String {
    let src = Json::Str(SRC.to_string()).to_string();
    let id = id.map(|n| format!(r#","id":{n}"#)).unwrap_or_default();
    format!(r#"{{"op":"compile","source":{src}{id}}}"#)
}

fn sweep_cell_line(id: u64) -> String {
    format!(
        r#"{{"op":"sweep-cell","benchmark":"BFS","dataset":{{"id":"KRON","scale":0.002,"seed":42}},"variant":{{"label":"CDP"}},"id":{id}}}"#
    )
}

fn serve_with(options: ServeOptions) -> Endpoint {
    let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".to_string()), &options).expect("bind");
    let endpoint = server.endpoint().clone();
    std::thread::spawn(move || server.serve().expect("serve"));
    endpoint
}

fn with_faults(jobs: usize, plan: &str) -> ServeOptions {
    ServeOptions {
        jobs,
        faults: FaultPlan::parse(plan).expect("fault plan"),
        ..ServeOptions::default()
    }
}

/// One member of `stats.queue` (`free_slots` or `waiting`).
fn queue_stat(client: &mut Client, member: &str) -> u64 {
    let stats = client.request(&bare_request("stats")).expect("stats");
    stats
        .get("queue")
        .and_then(|q| q.get(member))
        .and_then(Json::as_u64)
        .expect("stats.queue member")
}

fn shutdown(endpoint: &Endpoint) {
    let mut client = Client::connect(endpoint).expect("connect for shutdown");
    client.request(&bare_request("shutdown")).expect("shutdown");
}

/// Torn write at `pre-write`: the response is cut mid-line and the
/// connection severed — the client sees garbage, but the *server* must
/// stay coherent: the compile landed in the cache, and a reconnect gets
/// the full, identical response as a pure cache hit.
#[test]
fn torn_write_leaves_the_server_and_cache_coherent() {
    let endpoint = serve_with(with_faults(1, "torn-write@pre-write:compile"));

    let mut victim = Client::connect(&endpoint).expect("connect victim");
    let torn = victim.roundtrip_line(&compile_line(None)).expect("read");
    // Whatever arrived is not a whole response line.
    assert!(
        torn.is_none_or(|t| dp_sweep::json::parse(t.trim()).is_err()),
        "the torn response must not parse"
    );

    let mut retry = Client::connect(&endpoint).expect("reconnect");
    let full = retry
        .roundtrip_line(&compile_line(None))
        .expect("round-trip")
        .expect("full response");
    assert!(full.contains(r#""kernels":["child","parent"]"#), "{full}");

    let stats = retry.request(&bare_request("stats")).expect("stats");
    let cache = stats.get("compiled_cache").expect("cache stats");
    assert_eq!(
        cache.get("misses").and_then(Json::as_u64),
        Some(1),
        "one compile total — the torn request's work was kept: {stats}"
    );
    assert_eq!(
        cache.get("hits").and_then(Json::as_u64),
        Some(1),
        "the retry was a pure cache hit: {stats}"
    );
    shutdown(&endpoint);
}

/// Disconnect at `pre-write`: the client gets nothing at all; a re-sent
/// request on a fresh connection succeeds.
#[test]
fn pre_write_disconnect_then_resend_succeeds() {
    let endpoint = serve_with(with_faults(1, "disconnect@pre-write:execute"));

    let mut victim = Client::connect(&endpoint).expect("connect victim");
    let nothing = victim.roundtrip_line(&execute_line(None)).expect("read");
    assert_eq!(
        nothing, None,
        "the connection must close without a response"
    );

    let mut retry = Client::connect(&endpoint).expect("reconnect");
    let full = retry
        .roundtrip_line(&execute_line(None))
        .expect("round-trip")
        .expect("answered");
    assert!(full.contains(r#""ints":[6,3,2,1,0,0,0,0]"#), "{full}");
    shutdown(&endpoint);
}

/// A panic inside the execution slot must not take the daemon (or the
/// session thread it ran on) down: the victim request answers a structured
/// `kind:"panic"` error and the next request runs normally.
#[test]
fn worker_panic_answers_an_error_and_the_daemon_survives() {
    let endpoint = serve_with(with_faults(1, "panic@exec:execute"));

    let mut client = Client::connect(&endpoint).expect("connect");
    let poisoned = client
        .roundtrip_line(&execute_line(Some(1)))
        .expect("round-trip")
        .expect("answered");
    assert!(poisoned.contains(r#""kind":"panic""#), "{poisoned}");
    assert!(
        poisoned.contains("request panicked: injected fault"),
        "{poisoned}"
    );
    assert!(poisoned.contains(r#""id":1"#), "{poisoned}");

    // Same connection, same request: the fault is spent, the session
    // survived, and the cached compile is still valid.
    let healthy = client
        .roundtrip_line(&execute_line(Some(2)))
        .expect("round-trip")
        .expect("answered");
    assert!(healthy.contains(r#""ok":true"#), "{healthy}");
    assert!(healthy.contains(r#""ints":[6,3,2,1,0,0,0,0]"#), "{healthy}");
    shutdown(&endpoint);
}

/// Two request lines whose *numbers* ask for more memory than any host
/// has. A 2^33-block grid used to reserve one block trace per block before
/// running the first (`memory allocation of 893353197568 bytes failed`,
/// SIGABRT, every session lost); a `words` count is allocated as it stands.
/// Each now answers a structured error, and the daemon answers `stats`
/// after each.
#[test]
fn lines_that_name_huge_allocations_get_errors_and_the_daemon_survives() {
    let endpoint = serve_with(ServeOptions {
        jobs: 1,
        ..ServeOptions::default()
    });
    let mut client = Client::connect(&endpoint).expect("connect");
    let src = Json::Str("__global__ void k(int* d) { d[blockIdx.x] = 1; }".to_string());
    let execute = |grid: u64, words: u64, id: u64| {
        format!(
            r#"{{"op":"execute","source":{src},"kernel":"k","grid":{grid},"block":1,"buffers":[{{"name":"d","words":{words}}}],"args":["@d"],"read":[{{"buffer":"d","len":4}}],"id":{id}}}"#
        )
    };
    let mut answer = |line: String| {
        let answer = client
            .roundtrip_line(&line)
            .expect("round-trip")
            .expect("answered");
        let stats = client.request(&bare_request("stats")).expect("stats");
        assert!(stats.get("compiled_cache").is_some(), "{stats}");
        answer
    };

    // Nothing is reserved for the grid up front: it runs until block 4
    // stores past the buffer.
    let huge_grid = answer(execute(1 << 33, 4, 1));
    assert!(huge_grid.contains(r#""ok":false"#), "{huge_grid}");
    assert!(huge_grid.contains("out of bounds"), "{huge_grid}");
    assert!(huge_grid.contains(r#""id":1"#), "{huge_grid}");

    let huge_words = answer(execute(1, 893_353_197_568, 2));
    assert!(huge_words.contains(r#""kind":"parse""#), "{huge_words}");
    assert!(
        huge_words.contains("limit of 16777216 words"),
        "{huge_words}"
    );
    assert!(huge_words.contains(r#""id":2"#), "{huge_words}");

    // The same program at a sane size still runs.
    let healthy = answer(execute(4, 4, 3));
    assert!(healthy.contains(r#""ints":[1,1,1,1]"#), "{healthy}");

    // An aggregated parent's `grid` and `block` name an allocation too: the
    // buffers the runtime provisions for the launch, which no `words` names.
    let parent = Json::Str(
        "__global__ void child(int* d, int base) { d[base + threadIdx.x] = 1; }\n\
         __global__ void parent(int* d) { child<<<1, 4>>>(d, threadIdx.x * 4); }"
            .to_string(),
    );
    let aggregated = |agg: &str, grid: u64, block: u64, id: u64| {
        format!(
            r#"{{"op":"execute","source":{parent},"agg":"{agg}","kernel":"parent","grid":{grid},"block":{block},"buffers":[{{"name":"d","words":16}}],"args":["@d"],"read":[{{"buffer":"d","len":8}}],"id":{id}}}"#
        )
    };
    for (id, agg) in [(4, "block"), (5, "grid"), (6, "multiblock:3")] {
        for (grid, block) in [(1 << 40, 2), (u64::MAX >> 1, 1024)] {
            let huge = answer(aggregated(agg, grid, block, id));
            assert!(huge.contains(r#""kind":"parse""#), "{agg}: {huge}");
            assert!(
                huge.contains("aggregation buffers of `parent`")
                    && huge.contains("limit of 16777216 words"),
                "{agg}: {huge}"
            );
            assert!(huge.contains(&format!(r#""id":{id}"#)), "{agg}: {huge}");
        }
        let healthy = answer(aggregated(agg, 1, 2, id));
        assert!(
            healthy.contains(r#""ints":[1,1,1,1,1,1,1,1]"#),
            "{agg}: {healthy}"
        );
    }
    shutdown(&endpoint);
}

/// A launched request thread that panics outside the executor's
/// `catch_unwind` (here: at `pre-write`) answers nothing, but must still
/// give back its place in the session's pipeline window: the id-less
/// request behind it waits for that window to empty and then answers.
#[test]
fn panicking_request_thread_does_not_wedge_its_session() {
    let endpoint = serve_with(with_faults(1, "panic@pre-write:execute*1"));

    let mut client = Client::connect(&endpoint).expect("connect");
    // A hang is the failure mode; turn it into a read error.
    client
        .writer_mut()
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    {
        use std::io::Write;
        // One write, so the tagged request sees a further line buffered
        // and is launched on a request thread rather than run inline.
        let both = format!("{}\n{}\n", execute_line(Some(1)), execute_line(None));
        client_writer(&mut client)
            .write_all(both.as_bytes())
            .expect("send");
        client_writer(&mut client).flush().expect("flush");
    }
    let answered = client_read(&mut client).expect("the id-less request answers");
    assert!(answered.contains(r#""ok":true"#), "{answered}");
    assert!(!answered.contains(r#""id""#), "{answered}");
    shutdown(&endpoint);
}

/// A session thread that panics (here: at `session-read`) still gives its
/// connection slot back: under `max_connections: 1` the next connection is
/// admitted and served, and it is the only session `stats` counts.
#[test]
fn panicking_session_thread_gives_its_connection_slot_back() {
    let endpoint = serve_with(ServeOptions {
        jobs: 1,
        max_connections: 1,
        faults: FaultPlan::parse("panic@session-read*1").expect("plan"),
        ..ServeOptions::default()
    });

    let mut victim = Client::connect(&endpoint).expect("connect victim");
    let answer = victim.roundtrip_line(r#"{"op":"stats"}"#);
    assert!(
        !matches!(answer, Ok(Some(_))),
        "the session must die before it answers: {answer:?}"
    );

    // The dead thread's socket closes before its slot is released: poll.
    // A refused connection still accepts at the TCP level, so "admitted"
    // means a request succeeds.
    let deadline = Instant::now() + Duration::from_secs(10);
    let (mut client, stats) = loop {
        let admitted = Client::connect(&endpoint).ok().and_then(|mut client| {
            let stats = client.request(&bare_request("stats")).ok()?;
            Some((client, stats))
        });
        if let Some(admitted) = admitted {
            break admitted;
        }
        assert!(
            Instant::now() < deadline,
            "the panicked session still holds the only connection slot"
        );
        std::thread::yield_now();
    };
    assert_eq!(
        stats.get("sessions").and_then(Json::as_u64),
        Some(1),
        "{stats}"
    );
    client.request(&bare_request("shutdown")).expect("shutdown");
}

/// Slow-loris: a client that writes half a request line and stalls must
/// not block other connections (sessions read independently; only its own
/// session waits).
#[test]
fn half_written_line_does_not_stall_other_sessions() {
    let endpoint = serve_with(ServeOptions {
        jobs: 2,
        ..ServeOptions::default()
    });

    let mut loris = endpoint.connect().expect("connect loris");
    {
        use std::io::Write;
        // Half a request, no newline — then silence.
        loris.write_all(br#"{"op":"execute","sour"#).expect("half");
        loris.flush().expect("flush");
    }

    let started = Instant::now();
    let mut bystander = Client::connect(&endpoint).expect("connect bystander");
    bystander.request(&bare_request("stats")).expect("stats");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "a stalled session must not convoy other connections"
    );

    // The loris finishes its line: the session answers it normally.
    {
        use std::io::Write;
        loris
            .write_all(format!("ce\":{}}}\n", Json::Str(SRC.to_string())).as_bytes())
            .expect("rest");
        loris.flush().expect("flush");
    }
    let mut reader = std::io::BufReader::new(loris);
    let answered = dp_serve::proto::read_line(&mut reader)
        .expect("read")
        .expect("completed line answered");
    // `{"op":"execute","source":SRC}` has no kernel: a domain error, but a
    // deterministic, well-formed response — the session recovered.
    assert!(answered.contains(r#""ok":false"#), "{answered}");
    shutdown(&endpoint);
}

/// Injected latency at `session-read` delays the session's read path;
/// the round-trip observes at least the injected delay.
#[test]
fn session_read_delay_is_observed_by_the_round_trip() {
    let endpoint = serve_with(with_faults(1, "delay-ms200@session-read*1"));

    let mut client = Client::connect(&endpoint).expect("connect");
    let started = Instant::now();
    client.request(&bare_request("stats")).expect("stats");
    assert!(
        started.elapsed() >= Duration::from_millis(200),
        "the injected read delay must be on the path"
    );
    // Fault spent: the next round-trip is fast again.
    let started = Instant::now();
    client.request(&bare_request("stats")).expect("stats");
    assert!(started.elapsed() < Duration::from_millis(150));
    shutdown(&endpoint);
}

/// Deadlines cancel queued-not-running work: with one execution slot held
/// by a delayed request, a second pipelined request's deadline expires
/// while waiting and answers `deadline_exceeded` — well before the slot
/// frees — and the delayed request itself still completes.
#[test]
fn queued_request_past_its_deadline_is_cancelled() {
    let endpoint = serve_with(ServeOptions {
        jobs: 1,
        request_timeout_ms: 150,
        faults: FaultPlan::parse("delay-ms600@exec:execute").expect("plan"),
        ..ServeOptions::default()
    });

    let mut client = Client::connect(&endpoint).expect("connect");
    {
        use std::io::Write;
        let both = format!("{}\n{}\n", execute_line(Some(1)), execute_line(Some(2)));
        // One write, two pipelined requests: whichever takes the slot
        // first eats the 600ms delay; the other waits, expires at 150ms.
        client_writer(&mut client)
            .write_all(both.as_bytes())
            .expect("send");
        client_writer(&mut client).flush().expect("flush");
    }
    let started = Instant::now();
    let first = client_read(&mut client).expect("first response");
    let waited = started.elapsed();
    assert!(first.contains(r#""kind":"deadline_exceeded""#), "{first}");
    assert!(first.contains("150 ms"), "{first}");
    assert!(
        waited < Duration::from_millis(550),
        "the deadline answer must not wait out the 600ms slot holder: {waited:?}"
    );
    let second = client_read(&mut client).expect("second response");
    assert!(second.contains(r#""ok":true"#), "{second}");
    shutdown(&endpoint);
}

/// Runs `probe` against a `--jobs 1 --max-queue-depth 1` daemon whose one
/// slot is held for ~800ms by an `execute` with a second one queued behind
/// it, then checks that both admitted requests were unaffected.
fn with_saturated_queue(probe: impl FnOnce(&Endpoint)) {
    let endpoint = serve_with(ServeOptions {
        jobs: 1,
        max_queue_depth: 1,
        faults: FaultPlan::parse("delay-ms800@exec:execute").expect("plan"),
        ..ServeOptions::default()
    });

    std::thread::scope(|scope| {
        // Occupies the single slot for ~800ms.
        let holder = scope.spawn(|| {
            let mut client = Client::connect(&endpoint).expect("connect holder");
            client
                .roundtrip_line(&execute_line(None))
                .expect("round-trip")
                .expect("answered")
        });
        let mut observer = Client::connect(&endpoint).expect("connect observer");
        while queue_stat(&mut observer, "free_slots") != 0 {
            std::thread::yield_now();
        }
        // Fills the queue (waits behind the holder).
        let queued = scope.spawn(|| {
            let mut client = Client::connect(&endpoint).expect("connect queued");
            client
                .roundtrip_line(&execute_line(None))
                .expect("round-trip")
                .expect("answered")
        });
        while queue_stat(&mut observer, "waiting") != 1 {
            std::thread::yield_now();
        }
        probe(&endpoint);

        // The admitted work was unaffected.
        assert!(holder.join().unwrap().contains(r#""ok":true"#));
        assert!(queued.join().unwrap().contains(r#""ok":true"#));
    });
    shutdown(&endpoint);
}

/// Queue-depth saturation fast-fails deterministically, with bounded
/// latency, while admitted work completes.
#[test]
fn saturated_queue_fast_fails_with_bounded_latency() {
    with_saturated_queue(|endpoint| {
        // Over the limit: must fast-fail, not queue.
        let mut client = Client::connect(endpoint).expect("connect overload");
        let started = Instant::now();
        let refused = client
            .roundtrip_line(&execute_line(None))
            .expect("round-trip")
            .expect("answered");
        let latency = started.elapsed();
        assert!(refused.contains(r#""kind":"overloaded""#), "{refused}");
        assert!(refused.contains("queue depth limit (1)"), "{refused}");
        assert!(
            latency < Duration::from_millis(400),
            "an overload refusal must not wait for the backlog: {latency:?}"
        );
    });
}

/// The queue is the execution queue: a request that never executes is not
/// refused by it. A daemon saturated with executions still compiles (and
/// so still answers `dpopt cache sync`'s transfers), tagged or not, while
/// a further `execute` on the same connection is still refused.
#[test]
fn saturated_queue_does_not_refuse_a_request_that_never_executes() {
    with_saturated_queue(|endpoint| {
        let mut client = Client::connect(endpoint).expect("connect third");
        for line in [compile_line(None), compile_line(Some(5))] {
            let compiled = client
                .roundtrip_line(&line)
                .expect("round-trip")
                .expect("answered");
            assert!(compiled.contains(r#""ok":true"#), "{compiled}");
        }
        let refused = client
            .roundtrip_line(&execute_line(None))
            .expect("round-trip")
            .expect("answered");
        assert!(refused.contains(r#""kind":"overloaded""#), "{refused}");
    });
}

/// Graceful drain under pipelining: a slow sweep-cell and a fast execute
/// pipelined on one connection answer out of order (the fast one
/// overtakes), and a shutdown from another connection drains both —
/// leaving no socket file behind.
#[cfg(unix)]
#[test]
fn shutdown_drains_pipelined_out_of_order_responses() {
    let path = std::env::temp_dir().join(format!("dp-serve-drain-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let server = Server::bind(
        &Endpoint::Unix(path.clone()),
        &ServeOptions {
            jobs: 2,
            faults: FaultPlan::parse("delay-ms400@exec:sweep-cell").expect("plan"),
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let endpoint = server.endpoint().clone();
    let server_thread = std::thread::spawn(move || server.serve().expect("serve"));

    let mut client = Client::connect(&endpoint).expect("connect");
    {
        use std::io::Write;
        // Slow sweep-cell first (delayed 400ms in its exec slot), fast
        // execute second, pipelined in one write.
        let both = format!("{}\n{}\n", sweep_cell_line(7), execute_line(Some(8)));
        client_writer(&mut client)
            .write_all(both.as_bytes())
            .expect("send");
        client_writer(&mut client).flush().expect("flush");
    }
    let first = client_read(&mut client).expect("first response");
    assert!(
        first.contains(r#""id":8"#),
        "the fast request must overtake the delayed one: {first}"
    );
    assert!(first.contains(r#""ok":true"#), "{first}");

    // Shutdown from a second connection while the sweep-cell is still in
    // its delay: the drain must wait for it.
    let down = {
        let mut other = Client::connect(&endpoint).expect("connect shutdown");
        other.request(&bare_request("shutdown")).expect("shutdown")
    };
    assert_eq!(down.get("drained"), Some(&Json::Bool(true)));

    let second = client_read(&mut client).expect("drained response");
    assert!(
        second.contains(r#""id":7"#) && second.contains(r#""ok":true"#),
        "the in-flight sweep-cell must complete through the drain: {second}"
    );

    server_thread.join().unwrap();
    assert!(!path.exists(), "no socket file left after drain");
}

// -- raw pipelined I/O helpers ------------------------------------------
//
// `Client` is strictly request-response; the pipelined tests need to send
// several lines before reading any response, so they reach through to the
// underlying stream.

fn client_writer(client: &mut Client) -> &mut dp_serve::proto::Stream {
    client.writer_mut()
}

fn client_read(client: &mut Client) -> Option<String> {
    client.read_response_line().expect("read")
}
