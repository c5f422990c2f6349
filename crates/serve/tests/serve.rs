//! The serve determinism contract, end to end over real sockets.
//!
//! For a fixed request set, response bytes must be identical across:
//! {cold cache, warm cache} × {1 client, 8 concurrent clients}. The warm
//! phase must be 100% compiled-cache hits, concurrent identical compiles
//! must be single-flight (total misses == distinct compilations across the
//! whole test), and `shutdown` must drain in-flight requests before the
//! listener closes.

use dp_serve::proto::{bare_request, Endpoint};
use dp_serve::{Client, ServeOptions, Server};
use dp_sweep::json::Json;
use std::time::{Duration, Instant};

/// A source with real dynamic parallelism so execute responses exercise
/// the machine, the simulator, and the launch accounting.
const SRC: &str = "__global__ void child(int* d, int n) { \
     int i = blockIdx.x * blockDim.x + threadIdx.x; \
     if (i < n) { atomicAdd(&d[i], 1); } }\n\
 __global__ void parent(int* d, int* offsets, int numV) { \
     int v = blockIdx.x * blockDim.x + threadIdx.x; \
     if (v < numV) { \
         int count = offsets[v + 1] - offsets[v]; \
         if (count > 0) { child<<<(count + 31) / 32, 32>>>(d, count); } } }";

/// The fixed request set: every deterministic op, mixed configurations,
/// malformed lines included (their error responses are part of the
/// contract too). Built as raw NDJSON so the bytes on the wire are pinned.
fn request_set() -> Vec<String> {
    let src = Json::Str(SRC.to_string()).to_string();
    vec![
        format!(r#"{{"op":"compile","source":{src},"id":1}}"#),
        format!(r#"{{"op":"compile","source":{src},"threshold":32,"id":2}}"#),
        format!(r#"{{"op":"transform","source":{src},"threshold":32,"coarsen":2,"id":3}}"#),
        format!(
            r#"{{"op":"execute","source":{src},"kernel":"parent","grid":2,"block":4,
                "buffers":[{{"name":"d","words":8}},{{"name":"offs","ints":[0,3,4,8,9,11,12]}}],
                "args":["@d","@offs",6],
                "read":[{{"buffer":"d","len":8}}],"id":4}}"#
        )
        .replace('\n', " "),
        format!(
            r#"{{"op":"execute","source":{src},"threshold":32,"kernel":"parent","grid":2,"block":4,
                "buffers":[{{"name":"d","words":8}},{{"name":"offs","ints":[0,3,4,8,9,11,12]}}],
                "args":["@d","@offs",6],
                "read":[{{"buffer":"d","len":8}}],"id":5}}"#
        )
        .replace('\n', " "),
        r#"{"op":"sweep-cell","benchmark":"BFS","dataset":{"id":"KRON","scale":0.002,"seed":42},"variant":{"label":"CDP"},"id":6}"#.to_string(),
        r#"{"op":"sweep-cell","benchmark":"BFS","dataset":{"id":"KRON","scale":0.002,"seed":42},"variant":{"label":"CDP+T","threshold":128},"id":7}"#.to_string(),
        // Error paths are deterministic responses too.
        format!(r#"{{"op":"execute","source":{src},"kernel":"nope","grid":1,"block":1,"id":8}}"#),
        r#"{"op":"compile","source":"__global__ void k( {","id":9}"#.to_string(),
        r#"{"op":"warp-drive","id":10}"#.to_string(),
    ]
}

/// Distinct compilations the set triggers: SRC×none, SRC×T32, SRC×T32+C2,
/// the bad-parse source (errors cache too), and the BFS CDP sources
/// (plain + T128). The valid `execute`/`sweep-cell` requests reuse keys
/// compiled by earlier requests in the same pass.
const DISTINCT_COMPILES: u64 = 6;

fn run_set(endpoint: &Endpoint) -> Vec<String> {
    let mut client = Client::connect(endpoint).expect("connect");
    let mut responses = Vec::new();
    for line in request_set() {
        let response = client
            .roundtrip_line(&line)
            .expect("round-trip")
            .expect("server answered");
        responses.push(response);
    }
    responses
}

fn start_server() -> Endpoint {
    start_server_with(ServeOptions {
        jobs: 2,
        cache_capacity: 64,
        ..ServeOptions::default()
    })
}

fn start_server_with(options: ServeOptions) -> Endpoint {
    let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".to_string()), &options).expect("bind");
    let endpoint = server.endpoint().clone();
    std::thread::spawn(move || server.serve().expect("serve"));
    endpoint
}

/// Polls `ready` until it yields, in place of a sleep that hopes the server
/// got there: ten seconds without an answer fail the test with `what`.
fn poll_until<T>(what: &str, mut ready: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(value) = ready() {
            return value;
        }
        assert!(Instant::now() < deadline, "{what}");
        std::thread::yield_now();
    }
}

#[test]
fn responses_are_byte_identical_cold_warm_and_concurrent() {
    let endpoint = start_server();

    // --- Cold pass: single client, empty caches.
    let cold = run_set(&endpoint);
    assert_eq!(cold.len(), request_set().len());
    // Spot-check content so "identical" can't mean "identically wrong".
    assert!(
        cold[0].contains(r#""kernels":["child","parent"]"#),
        "{}",
        cold[0]
    );
    // d[i] counts the parents whose degree exceeds i (degrees 3,1,4,1,2,1).
    assert!(
        cold[3].contains(r#""ints":[6,3,2,1,0,0,0,0]"#),
        "{}",
        cold[3]
    );
    assert!(
        cold[4].contains(r#""ints":[6,3,2,1,0,0,0,0]"#),
        "{}",
        cold[4]
    );
    assert!(cold[5].contains(r#""op":"sweep-cell""#), "{}", cold[5]);
    assert!(cold[7].contains(r#""ok":false"#), "{}", cold[7]);
    assert!(cold[8].contains(r#""ok":false"#), "{}", cold[8]);
    assert!(cold[9].contains("unknown op"), "{}", cold[9]);
    // Thresholding serializes every child here (all grids fit one block):
    // identical results, different launch accounting.
    assert!(cold[3].contains(r#""device_launches":6"#), "{}", cold[3]);
    assert!(cold[4].contains(r#""device_launches":0"#), "{}", cold[4]);

    // --- Warm pass: same client path, fully cached compiles.
    let warm = run_set(&endpoint);
    assert_eq!(cold, warm, "warm responses must be byte-identical");

    // --- Concurrent pass: 8 clients, each firing the full set.
    let concurrent: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8).map(|_| scope.spawn(|| run_set(&endpoint))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, responses) in concurrent.iter().enumerate() {
        assert_eq!(&cold, responses, "concurrent client {i} must match");
    }

    // --- Stats: the cold pass did all the compiling; everything after was
    // a cache hit or a single-flight share. 10 passes of the set total.
    let mut client = Client::connect(&endpoint).expect("connect");
    let stats = client.request(&bare_request("stats")).expect("stats");
    let cache = stats.get("compiled_cache").expect("cache stats");
    assert_eq!(
        cache.get("misses").and_then(Json::as_u64),
        Some(DISTINCT_COMPILES),
        "every compile after the cold pass must be served: {stats}"
    );
    let hits = cache.get("hits").and_then(Json::as_u64).unwrap();
    // Each pass touches 9 compile-keyed requests (ids 1-9; the unknown-op
    // line never reaches the cache); 10 passes = 90 lookups, of which
    // DISTINCT_COMPILES missed.
    assert_eq!(hits, 90 - DISTINCT_COMPILES, "{stats}");
    // Pool size is budget-dependent (a 1-CPU host grants no extra tokens,
    // so `jobs: 2` may yield a 1-thread pool); only its floor is portable.
    let jobs = stats.get("jobs").and_then(Json::as_u64).unwrap();
    assert!((1..=2).contains(&jobs), "{stats}");

    // --- Shutdown: drains, answers, closes the listener.
    let down = client.request(&bare_request("shutdown")).expect("shutdown");
    assert_eq!(down.get("drained"), Some(&Json::Bool(true)));
    // The listener is gone once the accept loop has seen its wake-up: a
    // fresh connection either refuses or closes without answering.
    poll_until("post-shutdown request must not be served", || {
        let served = Client::connect(&endpoint)
            .is_ok_and(|mut late| late.request(&bare_request("stats")).is_ok());
        (!served).then_some(())
    });
}

/// Pins the `stats` pool-object JSON shape. `steals` and `yields` are
/// constant 0 — the pool has neither — and stay because the benchmark's
/// stats reader requires them.
#[test]
fn stats_pool_shape_is_pinned() {
    let endpoint = start_server();
    let mut client = Client::connect(&endpoint).expect("connect");
    let stats = client.request(&bare_request("stats")).expect("stats");
    let Some(Json::Object(pool)) = stats.get("pool") else {
        panic!("stats.pool must be an object: {stats}");
    };
    let keys: Vec<&str> = pool.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        ["idle", "queued", "steals", "threads", "yields"],
        "{stats}"
    );
    let field = |k: &str| pool.get(k).and_then(Json::as_u64).expect(k);
    assert_eq!((field("steals"), field("yields")), (0, 0), "{stats}");
    assert!(field("queued") <= field("threads"), "{stats}");
    client.request(&bare_request("shutdown")).expect("shutdown");
}

#[test]
fn shutdown_drains_inflight_requests_before_answering() {
    let endpoint = start_server();

    // A request that takes a while: a real sweep cell on a fresh server
    // (cold compile + dataset instantiation + execution). It is tagged and
    // written in one write with the shutdown: the session admits lines in
    // the order it reads them, so the slow request holds its in-flight
    // guard before the shutdown is parsed, whatever the scheduler does.
    let slow = r#"{"op":"sweep-cell","benchmark":"BFS","dataset":{"id":"KRON","scale":0.002,"seed":7},"variant":{"label":"CDP"},"id":"slow"}"#;
    let mut client = Client::connect(&endpoint).expect("connect");
    {
        use std::io::Write;
        let writer = client.writer_mut();
        writer
            .write_all(format!("{slow}\n{{\"op\":\"shutdown\"}}\n").as_bytes())
            .expect("send");
        writer.flush().expect("flush");
    }
    let mut read = || {
        client
            .read_response_line()
            .expect("read")
            .expect("server answered")
    };
    let slow_response = read();
    assert!(
        slow_response.contains(r#""id":"slow""#) && slow_response.contains(r#""ok":true"#),
        "in-flight request must complete before the drain answers: {slow_response}"
    );
    let down = read();
    assert!(down.contains(r#""drained":true"#), "{down}");
}

#[cfg(unix)]
#[test]
fn unix_socket_round_trips_and_cleans_up() {
    let path = std::env::temp_dir().join(format!("dp-serve-test-{}.sock", std::process::id()));
    let endpoint = Endpoint::Unix(path.clone());
    let server = Server::bind(&endpoint, &ServeOptions::default()).expect("bind unix");
    let endpoint = server.endpoint().clone();
    let handle = std::thread::spawn(move || server.serve().expect("serve"));

    let mut client = Client::connect(&endpoint).expect("connect unix");
    let response = client
        .request(&dp_serve::proto::source_request(
            "transform",
            "__global__ void k(int* d) { d[threadIdx.x] = 1; }",
            &dp_core::OptConfig::none(),
        ))
        .expect("transform");
    assert!(response
        .get("source")
        .and_then(Json::as_str)
        .unwrap()
        .contains("__global__"));
    client.request(&bare_request("shutdown")).expect("shutdown");
    handle.join().unwrap();
    assert!(!path.exists(), "socket file removed on clean shutdown");
}

/// A crashed daemon leaves its socket file behind; the next bind must
/// detect the corpse (connect refused), unlink it, and bind — while a
/// *live* daemon's socket must never be hijacked.
#[cfg(unix)]
#[test]
fn stale_unix_socket_is_unlinked_and_rebound() {
    let path = std::env::temp_dir().join(format!("dp-serve-stale-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // Simulate the crash: bind a listener, then drop it without unlinking
    // (std's UnixListener leaves the file behind on drop).
    drop(std::os::unix::net::UnixListener::bind(&path).expect("first bind"));
    assert!(path.exists(), "the stale file is the premise of this test");

    let endpoint = Endpoint::Unix(path.clone());
    let server = Server::bind(&endpoint, &ServeOptions::default())
        .expect("bind over a stale socket must succeed");

    // While that server lives, a second bind must refuse, not steal.
    let second = Server::bind(&endpoint, &ServeOptions::default());
    let handle = std::thread::spawn(move || server.serve().expect("serve"));
    match second {
        Ok(_) => panic!("bound over a live server"),
        Err(e) => assert!(
            e.to_string().contains("live server"),
            "refusal must say why: {e}"
        ),
    }

    let mut client = Client::connect(&endpoint).expect("connect rebound");
    client.request(&bare_request("stats")).expect("stats");
    client.request(&bare_request("shutdown")).expect("shutdown");
    handle.join().unwrap();
    assert!(!path.exists(), "socket file removed on clean shutdown");
}

#[test]
fn connection_limit_refuses_with_a_structured_error() {
    let endpoint = start_server_with(ServeOptions {
        jobs: 1,
        max_connections: 1,
        ..ServeOptions::default()
    });

    // First connection occupies the only slot (prove it's live).
    let mut first = Client::connect(&endpoint).expect("connect first");
    first.request(&bare_request("stats")).expect("stats");

    // Second connection is refused with one error line, without sending
    // anything — the server pushes the refusal at accept time.
    let mut second = Client::connect(&endpoint).expect("tcp connect still accepts");
    let refusal = second
        .roundtrip_line(r#"{"op":"stats"}"#)
        .expect("read refusal")
        .expect("refusal line");
    assert!(refusal.contains(r#""kind":"overloaded""#), "{refusal}");
    assert!(refusal.contains("connection limit (1)"), "{refusal}");

    // Freeing the slot re-opens the door (poll: the server notices the
    // close asynchronously). A refused connection still accepts at the
    // TCP level, so "recovered" means a request actually succeeds.
    drop(first);
    let mut client = poll_until("limit must release with the connection", || {
        let mut client = Client::connect(&endpoint).ok()?;
        client.request(&bare_request("stats")).ok()?;
        Some(client)
    });
    client.request(&bare_request("shutdown")).expect("shutdown");
}

#[test]
fn oversized_request_line_gets_a_structured_error_then_close() {
    let endpoint = start_server_with(ServeOptions {
        jobs: 1,
        max_request_bytes: 1024,
        ..ServeOptions::default()
    });

    let huge = format!(r#"{{"op":"compile","source":"{}"}}"#, "x".repeat(4096));
    let mut client = Client::connect(&endpoint).expect("connect");
    let response = client
        .roundtrip_line(&huge)
        .expect("read error response")
        .expect("server answers before closing");
    assert!(response.contains(r#""kind":"too_large""#), "{response}");
    assert!(response.contains("exceeds 1024 bytes"), "{response}");
    // The connection is closed after the error...
    let after = client.roundtrip_line(r#"{"op":"stats"}"#);
    assert!(
        matches!(after, Ok(None) | Err(_)),
        "connection must be closed: {after:?}"
    );
    // ...but the server survives for well-behaved clients.
    let mut fresh = Client::connect(&endpoint).expect("reconnect");
    fresh.request(&bare_request("stats")).expect("stats");
    fresh.request(&bare_request("shutdown")).expect("shutdown");
}

#[test]
fn invalid_utf8_line_answers_a_parse_error_and_keeps_the_session() {
    let endpoint = start_server_with(ServeOptions {
        jobs: 1,
        ..ServeOptions::default()
    });

    // Raw socket: a line of binary garbage, then a valid request on the
    // same connection. The session must answer both.
    let mut stream = endpoint.connect().expect("connect");
    {
        use std::io::Write;
        stream.write_all(b"{\"op\":\xFF\xFE}\n").expect("garbage");
        stream.write_all(b"{\"op\":\"stats\"}\n").expect("stats");
        stream.flush().expect("flush");
    }
    let mut reader = std::io::BufReader::new(stream);
    let first = dp_serve::proto::read_line(&mut reader)
        .expect("read")
        .expect("parse error answered");
    assert!(first.contains(r#""kind":"parse""#), "{first}");
    assert!(first.contains(r#""ok":false"#), "{first}");
    let second = dp_serve::proto::read_line(&mut reader)
        .expect("read")
        .expect("session stayed alive");
    assert!(second.contains(r#""op":"stats""#), "{second}");

    let mut client = Client::connect(&endpoint).expect("connect");
    client.request(&bare_request("shutdown")).expect("shutdown");
}

/// A line is parsed before the session is asked who it is, so the parser's
/// nesting cap is what stands between an anonymous peer and the daemon's
/// stack: 200 000 `[` are one `parse` refusal, and the daemon keeps serving.
/// (Without the cap the session thread overflowed its stack and the process
/// aborted.)
#[test]
fn deep_nesting_from_an_unauthenticated_peer_is_a_parse_error() {
    let endpoint = start_server_with(ServeOptions {
        jobs: 1,
        auth_token: Some("s3cret".to_string()),
        ..ServeOptions::default()
    });

    let mut anonymous = Client::connect(&endpoint).expect("connect");
    let answer = anonymous
        .roundtrip_line(&"[".repeat(200_000))
        .expect("round-trip")
        .expect("the daemon answers");
    assert_eq!(
        answer.trim_end(),
        r#"{"error":"bad request JSON: nesting deeper than 128","kind":"parse","ok":false,"op":"error"}"#
    );

    let mut client = Client::connect(&endpoint).expect("the daemon is still up");
    client.authenticate("s3cret").expect("hello");
    let stats = client.request(&bare_request("stats")).expect("stats");
    let rejects = stats.get("rejects").expect("rejects");
    assert!(
        rejects.get("parse").and_then(Json::as_u64) >= Some(1),
        "{stats}"
    );
    client.request(&bare_request("shutdown")).expect("shutdown");
}

/// A source-to-source compiler hands directives back verbatim, multi-byte
/// text included, and refuses tuning values that would come back as a
/// program dividing by zero — with a structured error, on a session (and a
/// daemon) that keeps answering.
#[test]
fn transform_keeps_directive_bytes_and_rejects_degenerate_tuning() {
    let endpoint = start_server();
    let mut client = Client::connect(&endpoint).expect("connect");
    let mut ask = |line: String| {
        let answer = client.roundtrip_line(&line).expect("round-trip");
        dp_sweep::json::parse(&answer.expect("server answered")).expect("answer is JSON")
    };

    let directive = "#include <é.h>";
    let src = Json::Str(format!("{directive}  \n{SRC}")).to_string();
    let answer = ask(format!(
        r#"{{"op":"transform","source":{src},"threshold":32}}"#
    ));
    let transformed = answer.get("source").and_then(Json::as_str).expect("source");
    let in_process = dp_core::Compiler::new()
        .config(dp_core::OptConfig::none().threshold(32))
        .compile(&format!("{directive}\n{SRC}"))
        .expect("compiles");
    assert_eq!(transformed, in_process.transformed_source());
    assert_eq!(transformed.lines().nth(1), Some(directive), "{transformed}");

    for tuning in [
        r#""agg":"multiblock:0""#,
        r#""coarsen":0"#,
        r#""coarsen":-3"#,
    ] {
        for op in ["compile", "transform"] {
            let answer = ask(format!(r#"{{"op":"{op}","source":{src},{tuning}}}"#));
            assert_eq!(answer.get("ok"), Some(&Json::Bool(false)), "{tuning}");
            assert_eq!(
                answer.get("kind").and_then(Json::as_str),
                Some("parse"),
                "{tuning}: {answer}"
            );
        }
    }
    let stats = ask(bare_request("stats").to_string());
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)), "{stats}");
    client.request(&bare_request("shutdown")).expect("shutdown");
}

/// A `compile` answer lists the `__global__` functions of the lowered
/// module. Under T+C+A that includes the generated `child_agg` and leaves
/// out `child_serial`, the `__device__` body thresholding adds. The whole
/// line is pinned.
#[test]
fn compile_lists_generated_kernels_but_no_device_functions() {
    let endpoint = start_server();
    let mut client = Client::connect(&endpoint).expect("connect");
    let src = Json::Str(SRC.to_string()).to_string();
    let answer = client
        .roundtrip_line(&format!(
            r#"{{"op":"compile","source":{src},"threshold":32,"coarsen":2,"agg":"block","id":1}}"#
        ))
        .expect("round-trip")
        .expect("server answered");
    assert_eq!(
        answer,
        concat!(
            r#"{"diagnostics":[],"id":1,"kernels":["child","child_agg","parent"],"#,
            r#""key":"53d2f1fd8065300c","ok":true,"op":"compile"}"#,
            "\n"
        )
    );
    client.request(&bare_request("shutdown")).expect("shutdown");
}

/// An `execute` member of the wrong shape is refused, not read as its
/// default: a `read` that would start at offset 0, read integers or read
/// nothing, a `buffers` or `args` taken as empty. Each is one `parse` line
/// that keeps its `id`, and the session keeps answering.
#[test]
fn execute_refuses_malformed_members_keeping_their_id() {
    let endpoint = start_server();
    let mut client = Client::connect(&endpoint).expect("connect");
    let src = Json::Str(SRC.to_string()).to_string();
    let read_offset = "read `offset` must be a non-negative integer";
    for (id, members, error) in [
        (
            1,
            r#""read":[{"buffer":"d","len":2,"offset":-1}]"#,
            read_offset,
        ),
        (
            2,
            r#""read":[{"buffer":"d","len":2,"offset":"x"}]"#,
            read_offset,
        ),
        (
            3,
            r#""read":[{"buffer":"d","len":2,"offset":1.5}]"#,
            read_offset,
        ),
        (
            4,
            r#""read":[{"buffer":"d","len":2,"floats":"yes"}]"#,
            "read `floats` must be a boolean",
        ),
        (
            5,
            r#""read":[{"buffer":"d","len":2,"floats":1}]"#,
            "read `floats` must be a boolean",
        ),
        (
            6,
            r#""read":{"buffer":"d","len":2}"#,
            "`read` must be an array",
        ),
        (
            7,
            r#""buffers":{"name":"d","words":8}"#,
            "`buffers` must be an array",
        ),
        (8, r#""buffers":null"#, "`buffers` must be an array"),
        (9, r#""args":"@d""#, "`args` must be an array"),
        (
            10,
            r#""buffers":[{"name":"d","words":32,"ints":[1,2]}]"#,
            "buffer `d` gives more than one of `words`, `ints`, and `floats`",
        ),
        (
            11,
            r#""buffers":[{"name":"d","ints":[1],"floats":[0.5]}]"#,
            "buffer `d` gives more than one of `words`, `ints`, and `floats`",
        ),
        (
            12,
            r#""buffers":[{"name":"d","ints":5}]"#,
            "`ints` must be an array",
        ),
        (
            13,
            r#""buffers":[{"name":"d","floats":"0.5"}]"#,
            "`floats` must be an array",
        ),
    ] {
        let line = format!(
            r#"{{"op":"execute","source":{src},"kernel":"parent","grid":1,"block":4,{members},"id":{id}}}"#
        );
        let answer = client
            .roundtrip_line(&line)
            .expect("round-trip")
            .expect("server answered");
        assert_eq!(
            answer,
            format!(r#"{{"error":"{error}","id":{id},"kind":"parse","ok":false,"op":"error"}}"#)
                + "\n",
            "{members}"
        );
    }
    let stats = client.request(&bare_request("stats")).expect("stats");
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)), "{stats}");
    client.request(&bare_request("shutdown")).expect("shutdown");
}

/// A float read-back of an infinity has no JSON number: the read is an
/// `execute` error naming the buffer and the word, and the session goes on
/// to answer `stats`. (The session thread used to panic in the float
/// writer, and the client got no answer.)
#[test]
fn a_non_finite_float_read_back_is_an_error_on_a_live_session() {
    let endpoint = start_server_with(ServeOptions {
        jobs: 1,
        ..ServeOptions::default()
    });
    let mut client = Client::connect(&endpoint).expect("connect");
    let src = Json::Str("__global__ void k(float* d) { d[1] = 1.0 / 0.0; }".to_string());
    let read = |offset: usize, id: u32| {
        format!(
            r#"{{"op":"execute","source":{src},"kernel":"k","grid":1,"block":1,
               "buffers":[{{"name":"d","floats":[0.5,0.5,0.25]}}],"args":["@d"],
               "read":[{{"buffer":"d","len":{},"offset":{offset},"floats":true}}],"id":{id}}}"#,
            3 - offset
        )
        .replace('\n', " ")
    };
    for (offset, id) in [(0, 1), (1, 2)] {
        let answer = client
            .roundtrip_line(&read(offset, id))
            .expect("round-trip")
            .expect("the session answers");
        assert!(
            answer.contains(r#""error":"read `d`: `d[1]` is inf, which JSON has no number for""#)
                && answer.contains(&format!(r#""id":{id},"#))
                && answer.contains(r#""ok":false"#),
            "{answer}"
        );
    }
    // The words around it read as they were written.
    let line = read(2, 3);
    let answer = client
        .roundtrip_line(&line)
        .expect("round-trip")
        .expect("answer");
    assert!(
        answer.contains(r#""outputs":[{"buffer":"d","floats":[0.25]}]"#),
        "{answer}"
    );
    let stats = client.request(&bare_request("stats")).expect("stats");
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)), "{stats}");
    client.request(&bare_request("shutdown")).expect("shutdown");
}

/// Text outside the basic plane arrives as a surrogate pair of `\u`
/// escapes from a standard JSON encoder (Python's `json.dumps` by default):
/// it is read as its one scalar, and the request is served with its `id`.
#[test]
fn compile_reads_an_escaped_surrogate_pair() {
    let endpoint = start_server();
    let mut client = Client::connect(&endpoint).expect("connect");
    // `json.dumps({"op":"compile","source":"// \U0001F600\n__global__ void k() {}","id":3})`
    let line = r#"{"op": "compile", "source": "// \ud83d\ude00\n__global__ void k() {}", "id": 3}"#;
    let answer = client
        .roundtrip_line(line)
        .expect("round-trip")
        .expect("server answered");
    let answer = dp_sweep::json::parse(&answer).expect("answer is JSON");
    assert_eq!(answer.get("ok"), Some(&Json::Bool(true)), "{answer}");
    assert_eq!(answer.get("id"), Some(&Json::Int(3)), "{answer}");
    assert_eq!(
        answer.get("kernels"),
        Some(&Json::Array(vec![Json::Str("k".to_string())])),
        "{answer}"
    );
    client.request(&bare_request("shutdown")).expect("shutdown");
}

/// A `sweep-cell` pairing a benchmark with a dataset its driver cannot read
/// is refused where it is parsed, with one short line — it used to reach
/// the driver, panic there, and answer with a dump of the whole input.
#[test]
fn sweep_cell_on_a_dataset_of_the_wrong_kind_is_a_short_parse_error() {
    let endpoint = start_server();
    let mut client = Client::connect(&endpoint).expect("connect");
    for (benchmark, dataset) in [("BFS", "T0032-C16"), ("BT", "KRON"), ("SP", "ROAD-NY")] {
        let line = format!(
            r#"{{"op":"sweep-cell","benchmark":"{benchmark}","dataset":{{"id":"{dataset}","scale":0.01}},"variant":{{"no_cdp":true}},"id":1}}"#
        );
        let answer = client
            .roundtrip_line(&line)
            .expect("round-trip")
            .expect("server answered");
        assert!(answer.len() < 512, "{} bytes: {answer}", answer.len());
        let answer = dp_sweep::json::parse(&answer).expect("answer is JSON");
        assert_eq!(answer.get("ok"), Some(&Json::Bool(false)), "{answer}");
        assert_eq!(
            answer.get("kind").and_then(Json::as_str),
            Some("parse"),
            "{answer}"
        );
        let message = answer.get("error").and_then(Json::as_str).expect("error");
        assert!(
            message.contains(dataset) && message.contains(benchmark),
            "{message}"
        );
    }
    // The session and the daemon keep answering.
    let stats = client.request(&bare_request("stats")).expect("stats");
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)), "{stats}");
    client.request(&bare_request("shutdown")).expect("shutdown");
}

/// `connect_with` must ride out a server that binds late.
#[cfg(unix)]
#[test]
fn client_retry_rides_out_a_late_binding_server() {
    use dp_serve::ClientOptions;

    let path = std::env::temp_dir().join(format!("dp-serve-late-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let endpoint = Endpoint::Unix(path.clone());

    // The bind is late by the clock the assertion below reads: taken before
    // the binder exists, so a slow spawn cannot shorten the delay.
    let started = Instant::now();
    let bind_endpoint = endpoint.clone();
    let server_thread = std::thread::spawn(move || {
        // Bind well after the client's first attempt fails.
        let bind_at = started + Duration::from_millis(300);
        std::thread::sleep(bind_at.saturating_duration_since(Instant::now()));
        let server = Server::bind(&bind_endpoint, &ServeOptions::default()).expect("bind");
        server.serve().expect("serve");
    });

    let mut client = Client::connect_with(
        &endpoint,
        &ClientOptions {
            retries: 8,
            backoff_base_ms: 60,
            ..ClientOptions::default()
        },
    )
    .expect("retries must outlast the bind delay");
    assert!(
        started.elapsed() >= Duration::from_millis(250),
        "the first attempts must have failed and backed off"
    );
    client.request(&bare_request("stats")).expect("stats");
    client.request(&bare_request("shutdown")).expect("shutdown");
    server_thread.join().unwrap();
}
