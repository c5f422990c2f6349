//! Acceptance test for span-correlated tracing: a serve request's trace
//! must form a **connected** span tree — `serve.request` → `sweep.cell` /
//! `vm.run`, with no `pool.job` between them: an execution runs on the
//! thread that holds its slot — whether that is the session thread or a
//! launched request thread.
//!
//! The tree is asserted from *start* events only: a start event carries
//! the span's parent id, and every start is on disk before the response
//! that depends on it is delivered, so the file is complete for our
//! purposes once the shutdown round-trip returns.

use dp_serve::proto::{bare_request, Endpoint};
use dp_serve::{Client, ServeOptions, Server};
use dp_sweep::json::{self, Json};
use std::collections::HashMap;
use std::io::Write;

const SRC: &str = "__global__ void child(int* d, int n) { \
     int i = blockIdx.x * blockDim.x + threadIdx.x; \
     if (i < n) { atomicAdd(&d[i], 1); } }\n\
 __global__ void parent(int* d, int* offsets, int numV) { \
     int v = blockIdx.x * blockDim.x + threadIdx.x; \
     if (v < numV) { \
         int count = offsets[v + 1] - offsets[v]; \
         if (count > 0) { child<<<(count + 31) / 32, 32>>>(d, count); } } }";

fn execute_line(id: u64) -> String {
    let src = Json::Str(SRC.to_string()).to_string();
    format!(
        r#"{{"op":"execute","source":{src},"kernel":"parent","grid":2,"block":4,"buffers":[{{"name":"d","words":8}},{{"name":"offs","ints":[0,3,4,8,9,11,12]}}],"args":["@d","@offs",6],"read":[{{"buffer":"d","len":8}}],"id":{id}}}"#
    )
}

fn sweep_cell_line(id: u64) -> String {
    format!(
        r#"{{"op":"sweep-cell","benchmark":"BFS","dataset":{{"id":"KRON","scale":0.002,"seed":42}},"variant":{{"label":"CDP"}},"id":{id}}}"#
    )
}

/// A parsed start event: (name, parent id).
fn parse_starts(text: &str) -> HashMap<u64, (String, u64)> {
    let mut spans = HashMap::new();
    for line in text.lines() {
        let Ok(event) = json::parse(line) else {
            continue; // a live writer may leave one torn trailing line
        };
        if event.get("ev").and_then(Json::as_str) != Some("start") {
            continue;
        }
        let id = event.get("id").and_then(Json::as_u64).unwrap_or(0);
        let parent = event.get("parent").and_then(Json::as_u64).unwrap_or(0);
        let name = event
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        spans.insert(id, (name, parent));
    }
    spans
}

/// Walks ancestors of `id` and returns their names root-last.
fn ancestry(spans: &HashMap<u64, (String, u64)>, mut id: u64) -> Vec<String> {
    let mut names = Vec::new();
    let mut hops = 0;
    while id != 0 && hops < 64 {
        let Some((name, parent)) = spans.get(&id) else {
            break;
        };
        names.push(name.clone());
        id = *parent;
        hops += 1;
    }
    names
}

/// True if at least `n` spans are named `leaf` and every one of them has
/// `serve.request` among its ancestors and no `pool.job`.
fn every_chain_is_connected(spans: &HashMap<u64, (String, u64)>, leaf: &str, n: usize) -> bool {
    let chains: Vec<Vec<String>> = spans
        .iter()
        .filter(|(_, (name, _))| name == leaf)
        .map(|(&id, _)| ancestry(spans, id))
        .collect();
    chains.len() >= n
        && chains.iter().all(|chain| {
            chain.iter().any(|name| name == "serve.request")
                && !chain.iter().any(|name| name == "pool.job")
        })
}

#[test]
fn serve_request_trace_is_a_connected_tree() {
    let path = std::env::temp_dir().join(format!("dpopt-span-tree-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // Programmatic install must win over any DPOPT_TRACE in the ambient
    // environment: nothing in this binary has opened a span yet, so the
    // lazy env pickup has not run.
    dp_obs::trace::init_to(path.to_str().expect("utf-8 temp path")).expect("install trace sink");
    assert!(dp_obs::trace::active(), "sink installed");

    let server = Server::bind(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        &ServeOptions::default(),
    )
    .expect("bind");
    let endpoint = server.endpoint().clone();
    let serving = std::thread::spawn(move || server.serve().expect("serve"));

    let mut client = Client::connect(&endpoint).expect("connect");
    let executed = client
        .roundtrip_line(&execute_line(1))
        .expect("round-trip")
        .expect("execute response");
    assert!(executed.contains(r#""ok":true"#), "{executed}");
    let cell = client
        .roundtrip_line(&sweep_cell_line(2))
        .expect("round-trip")
        .expect("sweep-cell response");
    assert!(cell.contains(r#""ok":true"#), "{cell}");
    // Two lines written together: the first is launched on a request thread.
    let together = format!("{}\n{}\n", sweep_cell_line(3), execute_line(4));
    client
        .writer_mut()
        .write_all(together.as_bytes())
        .expect("send");
    client.writer_mut().flush().expect("flush");
    for _ in 0..2 {
        let answer = client.read_response_line().expect("read").expect("answer");
        assert!(answer.contains(r#""ok":true"#), "{answer}");
    }
    let metrics = client.request(&bare_request("metrics")).expect("metrics");
    let launched = metrics
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("serve.requests.launched"))
        .and_then(Json::as_u64);
    assert!(launched >= Some(1), "nothing was launched: {metrics}");
    client
        .request(&bare_request("shutdown"))
        .expect("shutdown drains in-flight work");
    serving.join().expect("server thread");

    let text = std::fs::read_to_string(&path).expect("trace file exists");
    let spans = parse_starts(&text);
    assert!(
        spans.values().any(|(name, _)| name == "serve.request"),
        "no serve.request span in:\n{text}"
    );
    assert!(
        every_chain_is_connected(&spans, "vm.run", 4),
        "a vm.run is not under a serve.request, or is under a pool.job, in:\n{text}"
    );
    assert!(
        every_chain_is_connected(&spans, "sweep.cell", 2),
        "a sweep.cell is not under a serve.request, or is under a pool.job, in:\n{text}"
    );
    let _ = std::fs::remove_file(&path);
}
