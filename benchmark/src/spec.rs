//! What the benchmark runs and what it reports: workload names, metric
//! tables (the same rows as `BENCHMARK.json`, checked by a test), and the
//! generated inputs — the sweep spec and the request lines. Everything the
//! program sees is derived from `--seed` here.

/// One workload: its name and the reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sweep-cold",
        why: "dpopt sweep of one series (BFS on KRON, nine variants) on an empty cache, on one processor: the researcher's path, vm does ~97% of the work",
    },
    Workload {
        name: "sweep-warm",
        why: "dpopt sweep of 72 cells (BFS, BT, MSTV, SP) on a full cache: vm bypassed; process start, key hashing, sealed-entry load, merge",
    },
    Workload {
        name: "serve-hit",
        why: "a daemon and one client on one processor, execute requests one at a time, every one a compiled-cache hit: serve scheduling, proto, sockets, pool",
    },
    Workload {
        name: "serve-miss",
        why: "same daemon and client, every transform request a distinct key on a 64-entry cache: frontend, analysis, transform, lowering, eviction",
    },
];

/// Which way a metric is better.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How long the timed part of a workload lasts unless `--seconds` says
/// otherwise; `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 20.0;

/// An end-to-end metric: measured with tracing off, on every workload.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which it may worsen.
    pub bound: f64,
}

/// The share of a run's requests `req_fast_us` is taken over: the fastest
/// five-hundredth. The host only ever slows a request down (README.md,
/// "Steadiness"), so the fast end of a run is the program's own speed and
/// the rest is the host's other tenants: over ten runs of one commit the
/// first percentile spread by 1 to 12 %, the median by 15 to 40 %, and the
/// further down the steadier, since a busy phase of the host leaves fewer
/// quiet moments. With fewer than five hundred requests it is the fastest
/// one.
pub const FAST_QUANTILE: f64 = 0.002;

pub const END_TO_END: [EndToEnd; 2] = [
    EndToEnd {
        name: "req_fast_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: reported by the traced run only, no bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 71] = [
    // Cell ladder: every cell of the sweep spec, in process, sequentially.
    layer("workloads.dataset_us", "us", Lower),
    layer("sweep.key_us", "us", Lower),
    layer("core.compile_us", "us", Lower),
    layer("frontend.parse_us", "us", Lower),
    layer("frontend.parse_mb_per_s", "MB/s", Higher),
    layer("analysis.launch_sites_us", "us", Lower),
    layer("transform.pipeline_us", "us", Lower),
    layer("transform.sites_rewritten", "count", Higher),
    layer("frontend.print_us", "us", Lower),
    layer("vm.lower_us", "us", Lower),
    layer("vm.lower_instrs", "count", Lower),
    layer("core.compile_unattributed_share", "ratio", Lower),
    layer("core.executor_build_us", "us", Lower),
    layer("vm.run_us", "us", Lower),
    layer("vm.run_share", "ratio", Lower),
    layer("vm.instructions", "count", Lower),
    layer("vm.grids", "count", Lower),
    layer("vm.device_launches", "count", Lower),
    layer("vm.minstr_per_s", "Minstr/s", Higher),
    layer("core.finish_us", "us", Lower),
    layer("sim.simulate_us", "us", Lower),
    layer("sim.us_per_grid", "us", Lower),
    layer("sweep.summarize_us", "us", Lower),
    layer("sweep.store_us", "us", Lower),
    layer("sweep.load_us", "us", Lower),
    layer("sweep.entry_bytes", "bytes", Lower),
    layer("cell.unattributed_share", "ratio", Lower),
    // Simulated results: exact, a simulator speed-up must not move them.
    layer("sim.geomean_tca_over_cdp", "ratio", Higher),
    layer("sim.geomean_tca_over_nocdp", "ratio", Higher),
    layer("sim.geomean_tca_over_a", "ratio", Higher),
    // Request ladder: the serve-hit request, direct calls, then a daemon.
    layer("serve.proto.parse_us", "us", Lower),
    layer("serve.key_us", "us", Lower),
    layer("serve.cache.hit_us", "us", Lower),
    layer("core.executor_build_req_us", "us", Lower),
    layer("vm.run_req_us", "us", Lower),
    layer("sim.simulate_req_us", "us", Lower),
    layer("serve.proto.encode_us", "us", Lower),
    layer("serve.direct_us", "us", Lower),
    layer("serve.rtt_c1_p50_us", "us", Lower),
    layer("serve.rtt_c1_p99_us", "us", Lower),
    layer("serve.unattributed_us", "us", Lower),
    layer("serve.unattributed_share", "ratio", Lower),
    layer("pool.run_now_us", "us", Lower),
    layer("pool.scope_spawn_us", "us", Lower),
    // Stats: the workload's own processes, read just before they exit.
    // A workload without the process in question reports 0.
    layer("serve.cache.hits", "count", Higher),
    layer("serve.cache.misses", "count", Lower),
    layer("serve.cache.evictions", "count", Lower),
    layer("serve.cache.singleflight_waits", "count", Lower),
    layer("serve.cache.hit_ratio", "ratio", Higher),
    layer("serve.rejects", "count", Lower),
    layer("serve.bytes_read", "bytes", Lower),
    layer("serve.bytes_written", "bytes", Lower),
    layer("pool.steals", "count", Lower),
    layer("pool.yields", "count", Lower),
    layer("serve.req_p99_us", "us", Lower),
    layer("serve.req_p999_us", "us", Lower),
    layer("serve.threads_peak", "count", Lower),
    layer("serve.cpu_user_share", "ratio", Higher),
    layer("serve.disk_cache.stores", "count", Lower),
    layer("cli.peak_rss_mb", "MB", Lower),
    layer("cli.startup_ms", "ms", Lower),
    layer("sweep.cache_hit_ratio", "ratio", Higher),
    layer("shard.max_daemon_share", "ratio", Lower),
    layer("shard.overhead_ratio", "ratio", Lower),
    // Overheads of instrumentation, the program's and the harness's own.
    layer("obs.trace_overhead_ratio", "ratio", Lower),
    layer("obs.metrics_overhead_ratio", "ratio", Lower),
    layer("bench.trace_overhead_ratio", "ratio", Lower),
    layer("bench.client_cpu_share", "ratio", Lower),
    // The whole run as the clock read it, the host's interference included:
    // medians over repetitions or half-second windows.
    layer("bench.ops_per_s", "op/s", Higher),
    layer("bench.cpu_ms_per_op", "ms", Lower),
    layer("bench.req_p50_us", "us", Lower),
];

/// The nine variants of every series; index 0 is the No-CDP reference that
/// `dpopt sweep` verifies the others against.
const VARIANTS: &str = r#"[{"no_cdp":true},{"label":"CDP"},{"threshold":128},{"coarsen":16},{"agg":"multiblock:8"},{"threshold":128,"coarsen":16},{"threshold":128,"agg":"multiblock:8"},{"coarsen":16,"agg":"multiblock:8"},{"threshold":128,"coarsen":16,"agg":"multiblock:8"}]"#;
pub const VARIANTS_PER_SERIES: usize = 9;
/// Positions of the variants the simulated geomeans compare.
pub const V_NOCDP: usize = 0;
pub const V_CDP: usize = 1;
pub const V_A: usize = 4;
pub const V_TCA: usize = 8;

/// Every dataset generator is at its floor size at this scale, which keeps
/// a cold sweep of all 126 cells near two and a half seconds.
const SCALE: &str = "0.001";

/// The traced run's sweep spec: all seven benchmarks on their Table-I
/// datasets (14 series) by nine variants, 126 cells. `smoke` keeps the two
/// cheapest benchmarks (4 series, 36 cells).
pub fn sweep_spec(seed: u64, smoke: bool) -> String {
    let benchmarks = if smoke {
        r#"["BT","SP"]"#
    } else {
        r#"["BFS","BT","MSTF","MSTV","SP","SSSP","TC"]"#
    };
    format!(r#"{{"scale":{SCALE},"seed":{seed},"benchmarks":{benchmarks},"variants":{VARIANTS}}}"#)
}

/// The spec `sweep-warm` sweeps: the four benchmarks whose cold fill, the
/// workload's set-up, is cheap (8 series, 72 cells, under a second in all),
/// so that a run has time for ten fills and not three. `smoke` keeps two
/// benchmarks (4 series, 36 cells).
pub fn warm_spec(seed: u64, smoke: bool) -> String {
    let benchmarks = if smoke {
        r#"["BT","SP"]"#
    } else {
        r#"["BFS","BT","MSTV","SP"]"#
    };
    format!(r#"{{"scale":{SCALE},"seed":{seed},"benchmarks":{benchmarks},"variants":{VARIANTS}}}"#)
}

/// The spec `sweep-cold` sweeps: one series, so that a run holds some two
/// hundred cold sweeps and the fastest of them means something.
/// BFS on the power-law graph is the case dynamic parallelism is for.
pub fn cold_spec(seed: u64) -> String {
    format!(
        r#"{{"scale":{SCALE},"seed":{seed},"benchmarks":["BFS"],"datasets":["KRON"],"variants":{VARIANTS}}}"#
    )
}

/// A two-series spec, cheap enough to run in every set-up: it proves the
/// binary starts and sweeps before anything is timed.
pub const PREFLIGHT_CELLS: usize = 2 * VARIANTS_PER_SERIES;
pub fn preflight_spec(seed: u64) -> String {
    format!(r#"{{"scale":{SCALE},"seed":{seed},"benchmarks":["BT"],"variants":{VARIANTS}}}"#)
}

/// servebench's two-kernel program: one child launch, four words read back.
const HIT_SOURCE: &str = "__global__ void child(int* d, int n) { int i = threadIdx.x; if (i < n) { d[i] = i + 0; } }\\n__global__ void parent(int* d, int n) { if (threadIdx.x == 0) { child<<<1, 32>>>(d, n); } }";

/// The `serve-hit` request: the same source every time, so every request
/// after the first is a compiled-cache hit. Its answer is known by
/// construction: `d[0..4] == [0,1,2,3]`.
pub fn hit_request(id: u64) -> String {
    format!(
        r#"{{"op":"execute","source":"{HIT_SOURCE}","kernel":"parent","grid":1,"block":4,"buffers":[{{"name":"d","words":32}}],"args":["@d",8],"read":[{{"buffer":"d","len":4}}],"id":{id}}}"#
    )
}
pub const HIT_EXPECT: &str = r#""ints":[0,1,2,3]"#;

/// The source text of `serve-miss` request `seq`: one of the seven
/// benchmarks' CDP sources behind a comment that makes the text, and so the
/// compiled-cache key, distinct for every (seed, seq).
pub fn miss_source(sources: &[&str], seed: u64, seq: u64) -> String {
    format!(
        "// nonce {seed}-{seq}\n{}",
        sources[(seq % sources.len() as u64) as usize]
    )
}

/// The optimisation members of a `serve-miss` request: T+C+A.
pub const MISS_CONFIG: &str = r#""threshold":128,"coarsen":16,"agg":"multiblock:8""#;

#[cfg(test)]
mod tests {
    use super::*;
    use dp_sweep::json::{self, Json};

    #[test]
    fn generated_inputs_parse() {
        let spec = dp_sweep::spec_from_json(&sweep_spec(7, false)).unwrap();
        assert_eq!(spec.series.len(), 14);
        assert_eq!(spec.cell_count(), 14 * VARIANTS_PER_SERIES);
        let labels: Vec<&str> = spec.series[0]
            .variants
            .iter()
            .map(|v| v.label.as_str())
            .collect();
        assert_eq!(labels[V_NOCDP], "No CDP");
        assert_eq!(labels[V_CDP], "CDP");
        assert_eq!(labels[V_A], "CDP+A");
        assert_eq!(labels[V_TCA], "CDP+T+C+A");
        assert_eq!(
            dp_sweep::spec_from_json(&sweep_spec(7, true))
                .unwrap()
                .cell_count(),
            36
        );
        assert_eq!(
            dp_sweep::spec_from_json(&warm_spec(7, false))
                .unwrap()
                .cell_count(),
            8 * VARIANTS_PER_SERIES
        );
        assert_eq!(
            dp_sweep::spec_from_json(&cold_spec(7))
                .unwrap()
                .cell_count(),
            VARIANTS_PER_SERIES
        );
        assert_eq!(
            dp_sweep::spec_from_json(&preflight_spec(7))
                .unwrap()
                .cell_count(),
            PREFLIGHT_CELLS
        );
        let parsed = dp_serve::proto::parse_request(&hit_request(5));
        assert_eq!(parsed.id, Some(Json::Int(5)));
        assert!(parsed.body.is_ok());
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// harness reports. They must not drift apart.
    #[test]
    fn tables_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let doc = json::parse(&text).unwrap();
        let rows = |key: &str| doc.get(key).and_then(Json::as_array).unwrap().to_vec();
        let text_of =
            |row: &Json, key: &str| row.get(key).and_then(Json::as_str).unwrap().to_string();

        let workloads = rows("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (row, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text_of(row, "name"), w.name);
            assert_eq!(text_of(row, "why"), w.why);
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS)
        );
        let end_to_end = rows("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (row, m) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(text_of(row, "name"), m.name);
            assert_eq!(text_of(row, "unit"), m.unit);
            assert_eq!(text_of(row, "better"), m.better.as_str());
            assert_eq!(row.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let per_layer = rows("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (row, m) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(text_of(row, "name"), m.name);
            assert_eq!(text_of(row, "unit"), m.unit);
            assert_eq!(text_of(row, "better"), m.better.as_str());
        }
    }
}
