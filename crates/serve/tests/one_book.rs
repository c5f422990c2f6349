//! One book of counts: `stats.requests` / `stats.rejects` and the `metrics`
//! op's `serve.op.*` / `serve.reject.*` counters are two views of the same
//! registry rows, so after any request mix they agree member for member.
//!
//! The mix below draws one refusal of every kind the daemon counts. The
//! registry is process-wide, so this file is its own process and holds one
//! test: the counts it pins are the whole process's.

use dp_faults::FaultPlan;
use dp_obs::json::{self, Json};
use dp_serve::proto::{bare_request, Endpoint};
use dp_serve::{Client, ServeOptions, Server};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

const TOKEN: &str = "s3cret";
const SRC: &str = "__global__ void k(int* d) { d[threadIdx.x] = 1; }";

fn ask(client: &mut Client, line: &str) -> Json {
    let answer = client.roundtrip_line(line).expect("round-trip");
    json::parse(&answer.expect("server answered")).expect("answer is JSON")
}

fn kind(answer: &Json) -> Option<&str> {
    answer.get("kind").and_then(Json::as_str)
}

fn authed(endpoint: &Endpoint) -> Client {
    let mut client = Client::connect(endpoint).expect("connect");
    client.authenticate(TOKEN).expect("hello");
    client
}

/// Waits until `client`'s is the only live session: a session the server
/// closed gives its `--max-connections` slot back asynchronously.
fn settle(client: &mut Client) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.request(&bare_request("stats")).expect("stats");
        if stats.get("sessions").and_then(Json::as_u64) == Some(1) {
            return;
        }
        assert!(Instant::now() < deadline, "closed sessions linger: {stats}");
        std::thread::yield_now();
    }
}

/// The non-zero counters named `<prefix><member>`, by member.
fn counters(metrics: &Json, prefix: &str) -> BTreeMap<String, u64> {
    let Some(Json::Object(counters)) = metrics.get("metrics").and_then(|m| m.get("counters"))
    else {
        panic!("metrics.counters must be an object: {metrics}");
    };
    counters
        .iter()
        .filter_map(|(name, n)| Some((name.strip_prefix(prefix)?.to_string(), n.as_u64()?)))
        .collect()
}

fn members(stats: &Json, name: &str) -> BTreeMap<String, u64> {
    let Some(Json::Object(members)) = stats.get(name) else {
        panic!("stats.{name} must be an object: {stats}");
    };
    members
        .iter()
        .map(|(k, n)| (k.clone(), n.as_u64().expect("a count")))
        .collect()
}

#[test]
fn stats_and_metrics_are_views_of_one_book() {
    let options = ServeOptions {
        jobs: 1,
        max_connections: 3,
        max_request_bytes: 4096,
        request_timeout_ms: 100,
        auth_token: Some(TOKEN.to_string()),
        // The first `execute` to hold the slot holds it for 400 ms.
        faults: FaultPlan::parse("delay-ms400@exec:execute").expect("plan"),
        ..ServeOptions::default()
    };
    let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".to_string()), &options).expect("bind");
    let endpoint = server.endpoint().clone();
    std::thread::spawn(move || server.serve().expect("serve"));
    let mut main = authed(&endpoint);

    // overloaded: a fourth connection while three are live.
    {
        let _second = Client::connect(&endpoint).expect("second");
        let _third = Client::connect(&endpoint).expect("third");
        let mut fourth = Client::connect(&endpoint).expect("tcp accepts");
        let refusal = fourth.read_response_line().expect("read").expect("refusal");
        assert!(refusal.contains(r#""kind":"overloaded""#), "{refusal}");
    }
    settle(&mut main);

    // auth, twice: no `hello`, and a `hello` with the wrong token.
    let mut anonymous = Client::connect(&endpoint).expect("connect");
    assert_eq!(
        kind(&ask(&mut anonymous, r#"{"op":"stats"}"#)),
        Some("auth")
    );
    settle(&mut main);
    let mut wrong = Client::connect(&endpoint).expect("connect");
    let hello = r#"{"op":"hello","token":"nope"}"#;
    assert_eq!(kind(&ask(&mut wrong, hello)), Some("auth"));
    settle(&mut main);

    // too_large (the session closes) and parse (it does not).
    let huge = format!(r#"{{"op":"compile","source":"{}"}}"#, "x".repeat(8192));
    assert_eq!(kind(&ask(&mut authed(&endpoint), &huge)), Some("too_large"));
    settle(&mut main);
    assert_eq!(kind(&ask(&mut main, "[1,2")), Some("parse"));

    // Served: one compile, one transform.
    let src = Json::Str(SRC.to_string()).to_string();
    for op in ["compile", "transform"] {
        let answer = ask(&mut main, &format!(r#"{{"op":"{op}","source":{src}}}"#));
        assert_eq!(answer.get("ok"), Some(&Json::Bool(true)), "{answer}");
    }

    // deadline_exceeded: two tagged executes written together; one holds
    // the only slot for 400 ms, the other expires waiting at 100 ms.
    let execute = |id: u64| {
        format!(
            r#"{{"op":"execute","source":{src},"kernel":"k","grid":1,"block":4,"buffers":[{{"name":"d","words":4}}],"args":["@d"],"read":[{{"buffer":"d","len":4}}],"id":{id}}}"#
        )
    };
    let both = format!("{}\n{}\n", execute(1), execute(2));
    main.writer_mut().write_all(both.as_bytes()).expect("send");
    main.writer_mut().flush().expect("flush");
    let answers: Vec<Json> = (0..2)
        .map(|_| {
            let line = main.read_response_line().expect("read").expect("answered");
            json::parse(&line).expect("answer is JSON")
        })
        .collect();
    assert_eq!(
        kind(&answers[0]),
        Some("deadline_exceeded"),
        "{}",
        answers[0]
    );
    assert_eq!(
        answers[1].get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        answers[1]
    );

    // draining: the daemon has answered a shutdown; sessions already open
    // keep their `stats` and `metrics`, and are refused new work.
    let down = authed(&endpoint)
        .request(&bare_request("shutdown"))
        .expect("shutdown");
    assert_eq!(down.get("drained"), Some(&Json::Bool(true)));
    let compile = format!(r#"{{"op":"compile","source":{src}}}"#);
    assert_eq!(kind(&ask(&mut main, &compile)), Some("draining"));

    // The two views. `metrics` comes second, so it has counted one request
    // `stats` had not seen: itself.
    let stats = main.request(&bare_request("stats")).expect("stats");
    let line = main
        .roundtrip_line(r#"{"op":"metrics"}"#)
        .expect("round-trip")
        .expect("answered");
    assert!(!line.contains(r#""metrics":null"#), "{line}");
    let metrics = json::parse(&line).expect("answer is JSON");

    let mut requests = members(&stats, "requests");
    *requests.entry("metrics".to_string()).or_insert(0) += 1;
    assert_eq!(requests, counters(&metrics, "serve.op."), "{stats}\n{line}");
    let rejects = members(&stats, "rejects");
    assert_eq!(
        rejects,
        counters(&metrics, "serve.reject."),
        "{stats}\n{line}"
    );

    // What the mix was, and nothing else: an op never sent is in neither view.
    let expected = [
        ("auth", 2),
        ("deadline_exceeded", 1),
        ("draining", 1),
        ("overloaded", 1),
        ("parse", 1),
        ("too_large", 1),
    ];
    assert_eq!(
        rejects,
        expected.map(|(k, n)| (k.to_string(), n)).into(),
        "{stats}"
    );
    for (op, n) in [
        ("compile", 1),
        ("transform", 1),
        ("execute", 2),
        ("shutdown", 1),
    ] {
        assert_eq!(requests.get(op), Some(&n), "{op}: {stats}");
    }
    let seen: Vec<&str> = requests.keys().map(String::as_str).collect();
    assert_eq!(
        seen,
        [
            "compile",
            "execute",
            "hello",
            "metrics",
            "shutdown",
            "stats",
            "transform"
        ],
        "{stats}"
    );
}
