//! An allocation budget for a served `execute` hit: the daemon's
//! allocations per request, and where they go.
//!
//! This binary holds a single `#[test]` so nothing else allocates while it
//! counts. A daemon (`jobs: 1`) and its client share the process; the
//! client's thread raises a thread-local flag and the counting allocator
//! skips its allocations, so the count is the daemon's alone. One client
//! sends one tagged request at a time, so every request runs inline on the
//! session thread, and the counts repeat exactly run to run.
//!
//! The request is `dpbench`'s `serve-hit` line (two kernels, one 32-word
//! buffer, a 4-word read-back), a compiled-cache hit after the first. By
//! layer, each measured in process with the calls the daemon makes:
//!
//! | layer | JSON tree in and out | one-pass decode, direct answer | shared image |
//! |---|---|---|---|
//! | read the line | 2 | 0 | 0 |
//! | `parse_request` | 36 | 9 | 9 |
//! | admission, cache lookup | 0 | 0 | 0 |
//! | executor build (`SharedCompiled::executor`) | 28 | 28 | 1 |
//! | run (`alloc`, `launch`, `sync`, `read_i64s`, `finish`) | 20 | 20 | 20 |
//! | simulate | 5 | 5 | 5 |
//! | the session's buffer map and argument vector | 2 | 2 | 2 |
//! | the answer: its parts, then its line | 29 | 1 | 1 |
//! | write the line | 0 | 0 | 0 |
//! | **the daemon, per hit** | 122 | 65 | 38 |
//!
//! The first column is the count before the request path skipped the tree:
//! parse, encode and line I/O together went from 67 to 10, the request's own
//! strings and vectors and the answer's vector of read-backs. The second is
//! the count while every executor cloned the bytecode and the manifest and
//! rebuilt the dispatch tables. A program's first executor builds them once
//! (a `dp_vm::Image`) and every later one shares them, so a hit's executor
//! is an empty machine: its one allocation is the reused lane's operand
//! stack. The run ranks next. The budget is today's count: if a change
//! needs more, find the copy before raising it.

use dp_core::TimingParams;
use dp_serve::cache::CompiledCache;
use dp_serve::proto::{self, ExecuteAnswer, Output, Values};
use dp_serve::{Client, ServeOptions, Server};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Raised on the client's thread: its allocations are not the daemon's.
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a relaxed statistic on the side,
// and the flag is a const-initialized `Cell` that never allocates.
// (`realloc` keeps its default, which calls `alloc`, so a growing `Vec` or
// `String` counts once per growth.)
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !UNCOUNTED.try_with(Cell::get).unwrap_or(true) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let value = f();
    (value, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// `dpbench`'s `serve-hit` source and request.
const SOURCE: &str = "__global__ void child(int* d, int n) { int i = threadIdx.x; if (i < n) { d[i] = i + 0; } }\\n__global__ void parent(int* d, int n) { if (threadIdx.x == 0) { child<<<1, 32>>>(d, n); } }";

fn hit_request(id: u64) -> String {
    format!(
        r#"{{"op":"execute","source":"{SOURCE}","kernel":"parent","grid":1,"block":4,"buffers":[{{"name":"d","words":32}}],"args":["@d",8],"read":[{{"buffer":"d","len":4}}],"id":{id}}}"#
    )
}

const HIT_ANSWER: &str = r#""ints":[0,1,2,3]"#;

/// The daemon's allocations per served hit.
const HIT_BUDGET: u64 = 38;

/// Of them: the request's parse, and the answer's encoding into the
/// session's line.
const PARSE_BUDGET: u64 = 9;
const ENCODE_BUDGET: u64 = 0;

const HITS: u64 = 200;

#[test]
fn a_served_hit_stays_inside_its_allocation_budget() {
    let options = ServeOptions {
        jobs: 1,
        ..ServeOptions::default()
    };
    let endpoint = proto::Endpoint::Tcp("127.0.0.1:0".to_string());
    let server = Server::bind(&endpoint, &options).expect("bind");
    let endpoint = server.endpoint().clone();
    let daemon = std::thread::spawn(move || server.serve());

    UNCOUNTED.with(|flag| flag.set(true));
    let mut client = Client::connect(&endpoint).expect("connect");
    let mut ask = |id: u64| {
        let answer = client.roundtrip_line(&hit_request(id)).expect("round-trip");
        let answer = answer.expect("the daemon answers");
        assert!(answer.contains(HIT_ANSWER), "{answer}");
    };
    // The first compiles; the rest warm the session's line buffers.
    for id in 0..20 {
        ask(id);
    }
    let ((), served) = allocations_during(|| (0..HITS).for_each(|id| ask(100 + id)));
    client
        .request(&proto::bare_request("shutdown"))
        .expect("shutdown");
    drop(client);
    UNCOUNTED.with(|flag| flag.set(false));
    daemon.join().expect("daemon").expect("serve");

    // The layers this crate owns, as the session runs them.
    let line = hit_request(7);
    let (parsed, parse) = allocations_during(|| proto::parse_request(&line));
    let Ok(proto::Request::Execute(request)) = parsed.body else {
        panic!("the hit line is an execute: {:?}", parsed.body)
    };
    let answer = ExecuteAnswer {
        device_launches: 1,
        host_launches: 1,
        instructions: 100,
        outputs: vec![Output {
            buffer: "d".to_string(),
            values: Values::Ints(vec![0, 1, 2, 3]),
        }],
        total_us: 8.25,
    };
    let mut answer_line = String::with_capacity(256);
    let ((), encode) = allocations_during(|| {
        proto::write_execute_answer(&mut answer_line, parsed.id.as_ref(), &answer);
    });

    // The layers below, for the table.
    let cache = CompiledCache::new(4);
    let compile = || {
        dp_core::Compiler::new()
            .config(request.config)
            .compile(&request.source)
            .map(|c| c.into_shared())
            .map_err(|e| e.to_string())
    };
    let compiled = cache.get_or_compile(1, compile).expect("compiles");
    let (_, lookup) = allocations_during(|| cache.get_or_compile(1, compile));
    // A hit's program has run before: its first executor built what the
    // rest share.
    drop(compiled.executor());
    let (mut exec, build) = allocations_during(|| compiled.executor());
    let (report, run) = allocations_during(|| {
        let d = exec.alloc(32);
        let args = [dp_vm::Value::Int(d), dp_vm::Value::Int(8)];
        exec.launch("parent", 1, 4, &args).expect("launch");
        exec.sync().expect("sync");
        let ints = exec.read_i64s(d, 4).expect("read");
        assert_eq!(ints, [0, 1, 2, 3]);
        exec.finish()
    });
    let (_, simulate) = allocations_during(|| report.simulate(&TimingParams::default()));
    eprintln!(
        "per hit: {} (parse {parse}, cache lookup {lookup}, executor build {build}, \
         run {run}, simulate {simulate}, encode {encode})",
        served as f64 / HITS as f64
    );

    assert_eq!(
        parse, PARSE_BUDGET,
        "the hit line left the one-pass decoder"
    );
    assert_eq!(encode, ENCODE_BUDGET, "the answer went back to a tree");
    assert_eq!(served, HIT_BUDGET * HITS, "allocations per served hit");
}
