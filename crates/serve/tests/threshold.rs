//! The launch threshold: a tagged request runs on the session thread
//! unless there is something to overlap with — an outstanding tagged
//! request, a further line already buffered, or no free execution slot.
//!
//! Which branch ran is read from the `serve.requests.inline` /
//! `serve.requests.launched` counters through the `metrics` op. The
//! counters are process-wide, so the tests take turns and compare
//! before/after readings; this file is its own process.

use dp_faults::FaultPlan;
use dp_serve::proto::{bare_request, Endpoint};
use dp_serve::{Client, ServeOptions, Server};
use dp_sweep::json::{self, Json};
use std::io::Write;
use std::sync::{Mutex, MutexGuard};

const SRC: &str = "__global__ void child(int* d, int n) { \
     int i = blockIdx.x * blockDim.x + threadIdx.x; \
     if (i < n) { atomicAdd(&d[i], 1); } }\n\
 __global__ void parent(int* d, int* offsets, int numV) { \
     int v = blockIdx.x * blockDim.x + threadIdx.x; \
     if (v < numV) { \
         int count = offsets[v + 1] - offsets[v]; \
         if (count > 0) { child<<<(count + 31) / 32, 32>>>(d, count); } } }";

/// An `execute` whose output depends on `n`, tagged when `id` is given.
fn execute_line(n: u64, id: Option<u64>) -> String {
    let src = Json::Str(SRC.to_string()).to_string();
    let id = id.map(|n| format!(r#","id":{n}"#)).unwrap_or_default();
    let numv = n % 6 + 1;
    format!(
        r#"{{"op":"execute","source":{src},"kernel":"parent","grid":2,"block":4,"buffers":[{{"name":"d","words":8}},{{"name":"offs","ints":[0,3,4,8,9,11,12]}}],"args":["@d","@offs",{numv}],"read":[{{"buffer":"d","len":8}}]{id}}}"#
    )
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

fn shutdown(endpoint: &Endpoint) {
    let mut client = Client::connect(endpoint).expect("connect for shutdown");
    client.request(&bare_request("shutdown")).expect("shutdown");
}

/// One test at a time: the counters below belong to the process.
fn turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The named registry counters as the `metrics` op reports them (a counter
/// that has counted nothing is absent, and reads 0).
fn counters<const N: usize>(client: &mut Client, names: [&str; N]) -> [u64; N] {
    let metrics = client.request(&bare_request("metrics")).expect("metrics");
    names.map(|name| {
        metrics
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    })
}

/// `(inline, launched)`: where admitted requests ran.
fn branch_counts(client: &mut Client) -> (u64, u64) {
    let [inline, launched] = counters(client, ["serve.requests.inline", "serve.requests.launched"]);
    (inline, launched)
}

fn free_slots(client: &mut Client) -> u64 {
    let stats = client.request(&bare_request("stats")).expect("stats");
    stats
        .get("queue")
        .and_then(|q| q.get("free_slots"))
        .and_then(Json::as_u64)
        .expect("stats.queue.free_slots")
}

/// One request at a time on one connection never launches a thread, and
/// the threshold is invisible on the wire: each tagged response is the
/// id-less response plus the echoed `id`.
#[test]
fn sequential_tagged_requests_run_inline_and_answer_the_same_bytes() {
    let _turn = turn();
    let endpoint = serve_with(ServeOptions {
        jobs: 1,
        ..ServeOptions::default()
    });
    let mut client = Client::connect(&endpoint).expect("connect");
    let (inline_before, launched_before) = branch_counts(&mut client);

    let mut tagged = Vec::new();
    for n in 0..200 {
        let line = execute_line(n, Some(n));
        tagged.push(
            client
                .roundtrip_line(&line)
                .expect("round-trip")
                .expect("answered"),
        );
    }
    let (inline_after, launched_after) = branch_counts(&mut client);
    assert_eq!(
        launched_after - launched_before,
        0,
        "nothing to overlap with"
    );
    assert_eq!(inline_after - inline_before, 200);

    for (n, tagged) in tagged.iter().enumerate() {
        let plain = client
            .roundtrip_line(&execute_line(n as u64, None))
            .expect("round-trip")
            .expect("answered");
        let mut doc = json::parse(tagged.trim()).expect("tagged response parses");
        let Json::Object(members) = &mut doc else {
            panic!("response is not an object: {tagged}");
        };
        assert_eq!(members.remove("id"), Some(Json::Int(n as i64)), "{tagged}");
        assert_eq!(format!("{doc}\n"), plain, "request {n}");
    }
    shutdown(&endpoint);
}

/// Two tagged lines in one write: the second is already buffered when the
/// first is read, so the first is launched, and the fast request overtakes
/// the delayed one as it always did.
#[test]
fn lines_sent_together_are_launched_and_still_overtake() {
    let _turn = turn();
    let endpoint = serve_with(ServeOptions {
        jobs: 2,
        faults: FaultPlan::parse("delay-ms300@exec:sweep-cell").expect("plan"),
        ..ServeOptions::default()
    });
    let mut client = Client::connect(&endpoint).expect("connect");
    let (_, launched_before) = branch_counts(&mut client);

    let both = format!("{}\n{}\n", sweep_cell_line(7), execute_line(0, Some(8)));
    client
        .writer_mut()
        .write_all(both.as_bytes())
        .expect("send");
    client.writer_mut().flush().expect("flush");

    let first = client.read_response_line().expect("read").expect("first");
    assert!(
        first.contains(r#""id":8"#) && first.contains(r#""ok":true"#),
        "the fast request must overtake the delayed one: {first}"
    );
    let second = client.read_response_line().expect("read").expect("second");
    assert!(
        second.contains(r#""id":7"#) && second.contains(r#""ok":true"#),
        "{second}"
    );
    let (_, launched_after) = branch_counts(&mut client);
    assert!(
        launched_after - launched_before >= 1,
        "nothing was launched"
    );
    shutdown(&endpoint);
}

/// With the only slot held by another session, a tagged request is
/// launched rather than made to wait on the session thread, and its
/// deadline is answered while the holder is still running.
#[test]
fn tagged_request_without_a_free_slot_is_launched_and_expires_on_time() {
    let _turn = turn();
    let endpoint = serve_with(ServeOptions {
        jobs: 1,
        request_timeout_ms: 100,
        faults: FaultPlan::parse("delay-ms1500@exec:execute*1").expect("plan"),
        ..ServeOptions::default()
    });
    let mut observer = Client::connect(&endpoint).expect("connect observer");
    let mut holder = Client::connect(&endpoint).expect("connect holder");
    let mut client = Client::connect(&endpoint).expect("connect");

    // The holder takes the slot and sits in the injected delay.
    let line = format!("{}\n", execute_line(0, None));
    holder
        .writer_mut()
        .write_all(line.as_bytes())
        .expect("send");
    holder.writer_mut().flush().expect("flush");
    while free_slots(&mut observer) != 0 {
        std::thread::yield_now();
    }

    let (inline_before, launched_before) = branch_counts(&mut observer);
    let expired = client
        .roundtrip_line(&execute_line(1, Some(1)))
        .expect("round-trip")
        .expect("answered");
    assert!(
        expired.contains(r#""kind":"deadline_exceeded""#),
        "{expired}"
    );
    assert!(expired.contains(r#""id":1"#), "{expired}");
    assert_eq!(
        free_slots(&mut observer),
        0,
        "the deadline answer must not wait for the holder to finish"
    );
    let (inline_after, launched_after) = branch_counts(&mut observer);
    assert_eq!(launched_after - launched_before, 1);
    assert_eq!(inline_after - inline_before, 0);

    let held = holder.read_response_line().expect("read").expect("holder");
    assert!(held.contains(r#""ok":true"#), "{held}");
    shutdown(&endpoint);
}

/// An execution runs on the thread that holds its slot — the session
/// thread or the launched request thread — and never on the shared pool:
/// after id-less, inline and launched `execute` and `sweep-cell` traffic
/// the pool has been handed no job, queued or inline. The pool's counters
/// belong to the process too, and nothing else in this file feeds them.
#[test]
fn the_daemon_submits_nothing_to_the_pool() {
    let _turn = turn();
    let endpoint = serve_with(ServeOptions {
        jobs: 2,
        ..ServeOptions::default()
    });
    let mut client = Client::connect(&endpoint).expect("connect");
    let (inline_before, launched_before) = branch_counts(&mut client);

    let untagged_cell = sweep_cell_line(0).replace(r#","id":0"#, "");
    let together = format!("{}\n{}", sweep_cell_line(3), execute_line(4, Some(4)));
    for lines in [
        execute_line(0, None),
        untagged_cell,
        execute_line(1, Some(1)),
        sweep_cell_line(2),
        together,
    ] {
        client
            .writer_mut()
            .write_all(format!("{lines}\n").as_bytes())
            .expect("send");
        client.writer_mut().flush().expect("flush");
        for _ in lines.lines() {
            let answer = client.read_response_line().expect("read").expect("answer");
            assert!(answer.contains(r#""ok":true"#), "{answer}");
        }
    }
    let (inline_after, launched_after) = branch_counts(&mut client);
    assert!(
        inline_after - inline_before >= 4,
        "four lines were sent alone"
    );
    assert!(
        launched_after - launched_before >= 1,
        "two were sent together"
    );
    assert_eq!(
        counters(&mut client, ["pool.jobs.queued", "pool.jobs.inline"]),
        [0, 0],
        "an execution was handed to the pool"
    );
    shutdown(&endpoint);
}
