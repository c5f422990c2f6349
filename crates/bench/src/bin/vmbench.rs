//! `vmbench` — tracked interpreter-throughput benchmark for the GPU VM.
//!
//! Runs BFS-, Bézier- and triangle-counting workloads and a launch-heavy
//! many-block frontier-expansion kernel through the execution machine
//! under two configurations per workload:
//!
//! - **baseline**: the reference interpreter (`match` dispatch, charged per
//!   instruction) on the unfused program;
//! - **fused**: direct-threaded dispatch + fusion — the default
//!   configuration.
//!
//! Both execute the *same original instruction stream* (fusion is
//! accounting-transparent — asserted at runtime), so instructions/second
//! are directly comparable: `speedup_fused` is pure interpreter overhead
//! removed. Each configuration runs `reps` times and the best (minimum)
//! wall time is kept, the standard way to suppress scheduler noise.
//!
//! Results are printed as a table and written to `BENCH_vm.json` at the
//! repo root (with the host's `nproc`) so future changes can track the
//! interpreter's perf trajectory. Three numbers ride along that say what a
//! dispatched op costs in memory and accounting: `value_bytes` (one VM
//! word), `threaded_op_bytes` (one dispatch-table slot), and per workload
//! `dispatched_ops` and `ops_per_block` — table slots the fused
//! configuration dispatches, in all and per basic-block charge, counted by
//! one untimed run under the `Match` dispatcher (the only one that counts
//! them; see `DispatchProfile`) — and `replayed_instructions`,
//! `skipped_instructions` and `skipped_lanes`: the instructions the fused
//! configuration charged by replaying a uniform prefix and by skipping loop
//! iterations, and the lanes it retired without running them, which the
//! threaded dispatcher counts on its runs. All are exact; `benchgate` fails
//! when `dispatched_ops` rises or any of the other three falls: a lost
//! fusion window, a lost replay or a lost skip shows there and in no test.
//! `bfs-rmat` is CDP BFS, whose small child grids end in idle lanes.
//! `bfs-serial` is `bfs-rmat` thresholded at 128, so that small child grids
//! run as the serial loops loop skipping is for. `tc` is CDP triangle
//! counting on KRON at its floor size, whose scan and binary-search loops
//! load on every iteration: its `dispatched_ops` is what a change to the
//! figures' dominant kernel moves.
//! Environment knobs: `DPOPT_VMBENCH_REPS` (default 5), `DPOPT_VMBENCH_SCALE` (workload size multiplier, default
//! 1.0), and `DPOPT_VMBENCH_OUT` (output path override — the CI
//! bench-regression gate writes a fresh measurement next to the committed
//! reference and `benchgate`s the two).

use dp_core::{Compiler, DispatchMode, OptConfig};
use dp_frontend::parse;
use dp_sweep::env_parsed;
use dp_vm::lower::{compile_program_with, LowerOptions};
use dp_vm::machine::{DispatchProfile, THREADED_OP_BYTES};
use dp_vm::{Machine, Value};
use dp_workloads::benchmarks::{bfs::Bfs, bt::Bt, tc::Tc, BenchInput, Benchmark};
use dp_workloads::datasets::bezier::bezier_lines;
use dp_workloads::datasets::graphs::rmat;
use dp_workloads::DatasetId;
use std::time::Instant;

/// One interpreter configuration.
#[derive(Clone, Copy)]
struct Config {
    name: &'static str,
    fuse: bool,
    dispatch: DispatchMode,
}

const CONFIGS: [Config; 2] = [
    Config {
        name: "baseline",
        fuse: false,
        dispatch: DispatchMode::Match,
    },
    Config {
        name: "fused",
        fuse: true,
        dispatch: DispatchMode::Threaded,
    },
];

struct Measurement {
    wall_s: f64,
    instructions: u64,
    /// The last repetition's dispatch counts (`ops` and `blocks` under
    /// `Match`, the replay and skip counts under `Threaded`).
    profile: DispatchProfile,
}

impl Measurement {
    fn instr_per_sec(&self) -> f64 {
        self.instructions as f64 / self.wall_s
    }
}

struct WorkloadResult {
    name: &'static str,
    /// Indexed like `CONFIGS`: baseline, fused.
    rows: Vec<Measurement>,
    /// Table slots dispatched by the fused configuration, and how many of
    /// them led a basic block.
    dispatched: DispatchProfile,
}

impl WorkloadResult {
    fn speedup_fused(&self) -> f64 {
        self.rows[0].wall_s / self.rows[1].wall_s
    }

    /// Handler calls per block charge.
    fn ops_per_block(&self) -> f64 {
        self.dispatched.ops as f64 / self.dispatched.blocks as f64
    }
}

fn best_of<F: FnMut() -> (u64, DispatchProfile)>(reps: usize, mut run: F) -> Measurement {
    let mut best = f64::INFINITY;
    let mut instructions = 0;
    let mut profile = DispatchProfile::default();
    for _ in 0..reps {
        let start = Instant::now();
        let (instrs, counts) = run();
        let elapsed = start.elapsed().as_secs_f64();
        profile = counts;
        if instructions == 0 {
            instructions = instrs;
        } else {
            assert_eq!(instructions, instrs, "instruction count must be stable");
        }
        best = best.min(elapsed);
    }
    Measurement {
        wall_s: best,
        instructions,
        profile,
    }
}

/// One benchmark-driver workload, transformed by `passes`, measured under
/// one VM configuration.
fn run_benchmark(
    bench: &dyn Benchmark,
    input: &BenchInput,
    passes: OptConfig,
    config: Config,
    reps: usize,
) -> Measurement {
    let compiled = Compiler::new()
        .config(passes)
        .fusion(config.fuse)
        .dispatch(config.dispatch)
        .compile(bench.cdp_source())
        .expect("benchmark source compiles");
    best_of(reps, || {
        let mut exec = compiled.executor();
        bench.run(&mut exec, input).expect("benchmark runs");
        (
            exec.stats().instructions,
            exec.machine_mut().dispatch_profile(),
        )
    })
}

/// Launch-heavy, many-block BFS-style frontier expansion. Every parent
/// thread serially expands its vertex's adjacency into a disjoint slice
/// of `out`, and each parent block launches one multi-block child grid
/// that re-processes its chunk's contiguous CSR edge span — many grids,
/// many blocks, so per-grid and per-block setup costs show.
fn run_frontier_expand(
    config: Config,
    graph: &dp_workloads::datasets::csr::CsrGraph,
    reps: usize,
) -> Measurement {
    let src = "\
__global__ void scale_pass(int* out, int begin, int count) {
    int e = blockIdx.x * blockDim.x + threadIdx.x;
    if (e < count) {
        int acc = out[begin + e];
        for (int k = 0; k < 4; ++k) { acc = acc + (acc >> 3) + k; }
        out[begin + e] = acc;
    }
}
__global__ void frontier(int* offsets, int* edges, int* out, int numV) {
    int v = blockIdx.x * blockDim.x + threadIdx.x;
    if (v < numV) {
        int begin = offsets[v];
        int count = offsets[v + 1] - begin;
        for (int e = 0; e < count; ++e) {
            int w = edges[begin + e];
            out[begin + e] = w * 2 + (w >> 2);
        }
    }
    if (threadIdx.x == 0) {
        int first = blockIdx.x * blockDim.x;
        int last = min(first + blockDim.x, numV);
        int eb = offsets[first];
        int ec = offsets[last] - eb;
        if (ec > 0) {
            scale_pass<<<(ec + 63) / 64, 64>>>(out, eb, ec);
        }
    }
}
";
    let program = parse(src).expect("kernel parses");
    let module = compile_program_with(&program, LowerOptions { fuse: config.fuse })
        .expect("kernel compiles");
    let num_v = graph.num_vertices as i64;
    let num_e = graph.edges.len();
    best_of(reps, || {
        let mut m = Machine::new(module.clone());
        m.set_dispatch(config.dispatch);
        let offsets = m.alloc_i64s(&graph.offsets);
        let edges = m.alloc_i64s(&graph.edges);
        let out = m.alloc(num_e.max(1));
        m.launch_host(
            "frontier",
            (num_v + 63) / 64,
            64,
            &[
                Value::Int(offsets),
                Value::Int(edges),
                Value::Int(out),
                Value::Int(num_v),
            ],
        )
        .expect("launch");
        m.run_to_quiescence().expect("run");
        (m.stats().instructions, m.dispatch_profile())
    })
}

fn write_json(path: &std::path::Path, results: &[WorkloadResult]) -> std::io::Result<()> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = format!(
        "{{\n  \"benchmark\": \"vmbench\",\n  \"unit\": \"instructions_per_second\",\n  \"nproc\": {nproc},\n  \"value_bytes\": {},\n  \"threaded_op_bytes\": {THREADED_OP_BYTES},\n  \"workloads\": [\n",
        std::mem::size_of::<Value>(),
    );
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\n      \"name\": {},\n      \"instructions\": {},\n      \"configs\": {{\n",
            dp_obs::json::Json::Str(r.name.to_string()),
            r.rows[0].instructions,
        ));
        for (j, (cfg, m)) in CONFIGS.iter().zip(&r.rows).enumerate() {
            out.push_str(&format!(
                "        \"{}\": {{ \"wall_s\": {:.6}, \"instr_per_sec\": {:.1} }}{}\n",
                cfg.name,
                m.wall_s,
                m.instr_per_sec(),
                if j + 1 < r.rows.len() { "," } else { "" },
            ));
        }
        out.push_str(&format!(
            "      }},\n      \"dispatched_ops\": {},\n      \"ops_per_block\": {:.3},\n      \"replayed_instructions\": {},\n      \"skipped_instructions\": {},\n      \"skipped_lanes\": {},\n      \"speedup_fused\": {:.3}\n    }}{}\n",
            r.dispatched.ops,
            r.ops_per_block(),
            r.rows[1].profile.replayed_instructions,
            r.rows[1].profile.skipped_instructions,
            r.rows[1].profile.skipped_lanes,
            r.speedup_fused(),
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    // The registry snapshot rides along for drill-down (`vm.run_us`);
    // benchgate reads only the named fields above and ignores it.
    out.push_str("  ],\n  \"metrics\": ");
    out.push_str(&dp_obs::metrics::snapshot().to_json().to_string());
    out.push_str("\n}\n");
    std::fs::write(path, out)
}

fn main() {
    dp_obs::metrics::enable();
    // `env_parsed` warns on stderr for set-but-unparsable values.
    let reps = env_parsed::<f64>("DPOPT_VMBENCH_REPS", 5.0) as usize;
    let scale: f64 = env_parsed("DPOPT_VMBENCH_SCALE", 1.0);

    // BFS over a heavy-tailed R-MAT graph: branchy, memory- and
    // atomic-heavy, lots of device-side launches.
    let bfs_input = BenchInput::Graph(rmat((10.0 + scale.log2()).round().max(6.0) as u32, 8, 42));
    // Bézier tessellation: float-dominated with per-line child kernels.
    let bt_input = BenchInput::Bezier(bezier_lines((600.0 * scale) as usize, 32, 16.0, 42));
    // Triangle counting on KRON at its floor size: every scan and
    // binary-search iteration loads, so no loop skip applies.
    let tc_input = DatasetId::Kron.instantiate((0.001 * scale).min(1.0), 42);
    // Frontier expansion: many-block grids + one multi-block child
    // launch per parent block.
    let frontier_graph = rmat((11.0 + scale.log2()).round().max(7.0) as u32, 16, 42);

    let mut results = Vec::new();
    type Run<'a> = Box<dyn FnMut(Config, usize) -> Measurement + 'a>;
    let mut measure = |name: &'static str, mut f: Run<'_>| {
        let rows: Vec<Measurement> = CONFIGS.iter().map(|&c| f(c, reps)).collect();
        assert_eq!(
            rows[0].instructions, rows[1].instructions,
            "{name}: fusion must not change the original instruction count"
        );
        // One untimed run of the fused program under the dispatcher that
        // counts.
        let counting = Config {
            dispatch: DispatchMode::Match,
            ..CONFIGS[1]
        };
        let counted = f(counting, 1);
        assert_eq!(counted.instructions, rows[1].instructions);
        results.push(WorkloadResult {
            name,
            rows,
            dispatched: counted.profile,
        });
    };
    measure(
        "bfs-rmat",
        Box::new(|c, reps| run_benchmark(&Bfs, &bfs_input, OptConfig::none(), c, reps)),
    );
    measure(
        "bezier-tess",
        Box::new(|c, reps| run_benchmark(&Bt, &bt_input, OptConfig::none(), c, reps)),
    );
    measure(
        "frontier-expand",
        Box::new(|c, reps| run_frontier_expand(c, &frontier_graph, reps)),
    );
    let thresholded = OptConfig::none().threshold(128);
    measure(
        "bfs-serial",
        Box::new(|c, reps| run_benchmark(&Bfs, &bfs_input, thresholded, c, reps)),
    );
    measure(
        "tc",
        Box::new(|c, reps| run_benchmark(&Tc, &tc_input, OptConfig::none(), c, reps)),
    );

    println!(
        "{:<16} {:>14} {:>11} {:>11} {:>8} {:>10}",
        "workload", "instructions", "base ms", "fused ms", "fusedX", "ops/block"
    );
    for r in &results {
        println!(
            "{:<16} {:>14} {:>11.2} {:>11.2} {:>7.2}x {:>10.2}",
            r.name,
            r.rows[0].instructions,
            r.rows[0].wall_s * 1e3,
            r.rows[1].wall_s * 1e3,
            r.speedup_fused(),
            r.ops_per_block(),
        );
    }

    let path = match std::env::var("DPOPT_VMBENCH_OUT") {
        Ok(out) if !out.trim().is_empty() => std::path::PathBuf::from(out),
        _ => std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_vm.json"),
    };
    write_json(&path, &results).expect("write vmbench JSON");
    let shown = path.canonicalize().unwrap_or(path);
    println!("\nwrote {}", shown.display());
}
