//! The traced run: the same work as the workloads, done in this process by
//! calling each layer's public function directly, one span around each
//! call. Single-threaded, so a layer's time is its own and not a queue's.
//!
//! Two ladders — a sweep cell's life and a served request's life — then the
//! pieces only real processes can show (round trip at one request in
//! flight, the program's own instrumentation overheads, a sweep sharded over
//! two daemons).

use crate::load::Stop;
use crate::proc;
use crate::spec;
use crate::stats;
use crate::workloads::{check_sweep_json, sweep_command, Config, DaemonStats, ServeKind, Traffic};
use dp_core::{Compiler, TimingParams};
use dp_pool::{JobClass, Pool};
use dp_serve::proto::{self, Arg, BufferData, Request};
use dp_sweep::json::{self, Json};
use dp_sweep::{DatasetSpec, SweepSpec};
use dp_workloads::benchmarks::Variant;
use dp_workloads::BenchOutput;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// One timed call: what ran, when, inside which span, for which operation.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The cell or request the span belongs to.
    pub op: u64,
}

/// Spans are kept in memory and written out when the run ends.
pub struct Tracer {
    /// When off, [`Tracer::span`] only calls through: the base the
    /// harness's own overhead is measured against.
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` nest in it.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(id);
        let value = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        value
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    fn total_us(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum()
    }

    /// Time in spans called `name` that none of their child spans cover.
    pub fn self_us(&self, name: &str) -> f64 {
        let mut own: f64 = self.total_us(name);
        for span in &self.spans {
            if span.parent.is_some_and(|p| self.spans[p].name == name) {
                own -= (span.end_ns - span.start_ns) as f64 / 1e3;
            }
        }
        own
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"op":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

/// Per-layer values by metric name, plus what the ladders' own checks found.
#[derive(Default)]
pub struct Layers {
    pub values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The median duration of the spans called `span`, under `metric`.
    fn set_median(&mut self, tracer: &Tracer, metric: &'static str, span: &str) {
        let durations = tracer.durations_us(span);
        if !durations.is_empty() {
            self.set(metric, stats::median(&durations));
        }
    }

    fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }
}

/// Runs every ladder. `out` receives `trace.jsonl`.
pub fn run(cfg: &Config, out: &Path) -> Result<Layers, String> {
    // One pool budget for the in-process rungs, the one every `--jobs` the
    // harness passes uses.
    dp_pool::jobs::resolve_jobs(Some(cfg.nproc));
    let mut layers = Layers::default();
    let mut tracer = Tracer::new(true);
    let spec_text = spec::sweep_spec(cfg.seed, cfg.smoke);
    let sweep = dp_sweep::spec_from_json(&spec_text)?;
    let cache_dir = cfg.tmp.join("ladder-cache");
    std::fs::create_dir_all(&cache_dir).map_err(|e| e.to_string())?;

    let (cells, counts) = cell_ladder(&mut tracer, &sweep, &cache_dir, &mut layers)?;
    cell_metrics(&tracer, &counts, &mut layers);
    simulated_geomeans(&cells, &mut layers);
    harness_overhead(&sweep, &cfg.tmp.join("overhead-cache"), &mut layers)?;
    cli_agrees(cfg, &spec_text, &cache_dir, &cells, &mut layers)?;
    metrics_overhead(cfg, &cache_dir, &mut layers)?;
    fleet_rungs(cfg, cells.len(), &mut layers)?;

    let direct_line = request_ladder(&mut tracer, cfg, &mut layers)?;
    pool_rungs(cfg, &mut layers);
    daemon_rungs(cfg, &direct_line, &mut layers)?;
    startup(cfg, &mut layers)?;

    tracer
        .write_jsonl(&out.join("trace.jsonl"))
        .map_err(|e| format!("trace.jsonl: {e}"))?;
    Ok(layers)
}

// ----------------------------------------------------------------------
// Cell ladder
// ----------------------------------------------------------------------

/// What the ladder computed for one cell, to compare with the CLI's answer.
struct LadderCell {
    benchmark: String,
    dataset: String,
    label: String,
    total_us: f64,
    instructions: u64,
    device_launches: u64,
}

/// Exact counts gathered beside the spans.
#[derive(Default)]
struct CellCounts {
    source_bytes: u64,
    sites_rewritten: u64,
    lowered_instrs: u64,
    instructions: u64,
    grids: u64,
    device_launches: u64,
    entry_bytes: Vec<f64>,
}

/// Every cell of `sweep`, in spec order: the steps `dpopt sweep` performs
/// for a cold cell and then for a warm one, each under its own span.
fn cell_ladder(
    tracer: &mut Tracer,
    sweep: &SweepSpec,
    cache_dir: &Path,
    layers: &mut Layers,
) -> Result<(Vec<LadderCell>, CellCounts), String> {
    let benchmarks = dp_workloads::all_benchmarks();
    let mut counts = CellCounts::default();
    let mut cells = Vec::new();
    let mut op = 0u64;
    for series in &sweep.series {
        let bench = benchmarks
            .iter()
            .find(|b| b.name() == series.benchmark)
            .ok_or_else(|| format!("unknown benchmark `{}`", series.benchmark))?;
        let DatasetSpec::Table { id, scale, seed } = &series.dataset else {
            return Err("the spec names Table-I datasets only".to_string());
        };
        let input = tracer.span("workloads.dataset", op, |_| id.instantiate(*scale, *seed));
        let mut reference: Option<BenchOutput> = None;
        for variant in &series.variants {
            op += 1;
            let (source, config) = match variant.variant {
                Variant::NoCdp => (bench.no_cdp_source(), dp_core::OptConfig::none()),
                Variant::Cdp(config) => (bench.cdp_source(), config),
            };
            let compiler = Compiler::new()
                .config(config)
                .cost_model(series.cost.clone());
            let summary = tracer.span("cell", op, |t| -> Result<_, String> {
                let key = t.span("sweep.key", op, |_| {
                    dp_sweep::key::cell_key(
                        &series.benchmark,
                        source,
                        &variant.variant,
                        &series.dataset,
                        &series.timing,
                        &series.cost,
                    )
                });
                let compiled = t
                    .span("core.compile", op, |_| compiler.compile(source))
                    .map_err(|e| e.to_string())?;
                // The same compilation once more, a public function at a
                // time, to split `core.compile` into its layers.
                t.span("compile.steps", op, |t| -> Result<(), String> {
                    let mut program = t
                        .span("frontend.parse", op, |_| dp_frontend::parse(source))
                        .map_err(|e| e.to_string())?;
                    t.span("analysis.launch_sites", op, |_| {
                        black_box(dp_analysis::launch_sites(&program));
                    });
                    let manifest = t.span("transform.pipeline", op, |_| {
                        dp_transform::apply_pipeline(&mut program, &config)
                    });
                    t.span("frontend.print", op, |_| {
                        black_box(dp_frontend::print_program(&program));
                    });
                    let module = t
                        .span("vm.lower", op, |_| dp_vm::lower::compile_program(&program))
                        .map_err(|e| e.to_string())?;
                    counts.source_bytes += source.len() as u64;
                    counts.sites_rewritten += (manifest.threshold_sites.len()
                        + manifest.coarsen_sites.len()
                        + manifest.agg_sites.len())
                        as u64;
                    counts.lowered_instrs += module
                        .functions
                        .iter()
                        .map(|f| f.code.len() as u64)
                        .sum::<u64>();
                    Ok(())
                })?;
                let mut exec = t.span("core.executor_build", op, |_| compiled.executor());
                let output = t
                    .span("vm.run", op, |_| bench.run(&mut exec, &input))
                    .map_err(|e| e.to_string())?;
                let report = t.span("core.finish", op, |_| exec.finish());
                t.span("sim.simulate", op, |_| {
                    black_box(report.simulate(&series.timing));
                });
                counts.instructions += report.stats.instructions;
                counts.grids += report.stats.grids_executed;
                counts.device_launches += report.stats.device_launches;
                let summary = t.span("sweep.summarize", op, |_| {
                    dp_sweep::summarize_run(&variant.label, output, &report, &series.timing)
                });
                let stored = t.span("sweep.store", op, |_| {
                    dp_sweep::cache::store(cache_dir, key, &summary)
                });
                if stored != dp_sweep::cache::StoreOutcome::Stored {
                    return Err(format!("cannot store a cell under {}", cache_dir.display()));
                }
                t.span("sweep.load", op, |_| dp_sweep::cache::load(cache_dir, key))
                    .ok_or("a cell just stored does not load")?;
                let entry = cache_dir.join(format!("{key:016x}.json"));
                counts
                    .entry_bytes
                    .push(std::fs::metadata(&entry).map_err(|e| e.to_string())?.len() as f64);
                Ok(summary)
            })?;
            // Cell 0 of a series is the No-CDP program: the independent
            // reference every other variant's output must equal.
            layers.attempted += 1;
            let output = summary.output();
            let agrees = reference
                .get_or_insert_with(|| output.clone())
                .approx_eq(&output, 1e-6);
            if !agrees {
                layers.fail(format!(
                    "{}/{} [{}] disagrees with No CDP",
                    series.benchmark,
                    series.dataset.name(),
                    variant.label
                ));
            }
            cells.push(LadderCell {
                benchmark: series.benchmark.clone(),
                dataset: series.dataset.name(),
                label: variant.label.clone(),
                total_us: summary.total_us,
                instructions: summary.instructions,
                device_launches: summary.device_launches,
            });
        }
    }

    Ok((cells, counts))
}

/// The rungs of the cell ladder: exact counts, and times from the spans.
fn cell_metrics(tracer: &Tracer, counts: &CellCounts, layers: &mut Layers) {
    layers.set("transform.sites_rewritten", counts.sites_rewritten as f64);
    layers.set("vm.lower_instrs", counts.lowered_instrs as f64);
    layers.set("vm.instructions", counts.instructions as f64);
    layers.set("vm.grids", counts.grids as f64);
    layers.set("vm.device_launches", counts.device_launches as f64);
    layers.set("sweep.entry_bytes", stats::median(&counts.entry_bytes));
    let parse_s = tracer.total_us("frontend.parse") / 1e6;
    layers.set(
        "frontend.parse_mb_per_s",
        counts.source_bytes as f64 / 1e6 / parse_s,
    );
    // Simulated instructions per second of host time in the VM.
    let run_s = tracer.total_us("vm.run") / 1e6;
    layers.set("vm.minstr_per_s", counts.instructions as f64 / 1e6 / run_s);
    layers.set(
        "sim.us_per_grid",
        tracer.total_us("sim.simulate") / counts.grids as f64,
    );
    for (metric, span) in [
        ("workloads.dataset_us", "workloads.dataset"),
        ("sweep.key_us", "sweep.key"),
        ("core.compile_us", "core.compile"),
        ("frontend.parse_us", "frontend.parse"),
        ("analysis.launch_sites_us", "analysis.launch_sites"),
        ("transform.pipeline_us", "transform.pipeline"),
        ("frontend.print_us", "frontend.print"),
        ("vm.lower_us", "vm.lower"),
        ("core.executor_build_us", "core.executor_build"),
        ("vm.run_us", "vm.run"),
        ("core.finish_us", "core.finish"),
        ("sim.simulate_us", "sim.simulate"),
        ("sweep.summarize_us", "sweep.summarize"),
        ("sweep.store_us", "sweep.store"),
        ("sweep.load_us", "sweep.load"),
    ] {
        layers.set_median(tracer, metric, span);
    }
    // `Compiler::compile` does not call the analysis pass itself (the
    // transform passes do), so that rung stands beside the sum, not in it.
    let steps: f64 = [
        "frontend.parse",
        "transform.pipeline",
        "frontend.print",
        "vm.lower",
    ]
    .iter()
    .map(|name| tracer.total_us(name))
    .sum();
    let compile = tracer.total_us("core.compile");
    layers.set("core.compile_unattributed_share", 1.0 - steps / compile);
    // The step-by-step repeat of the compilation is the ladder's own work,
    // not the cell's, so it is taken out of the cell's wall time.
    let cell = tracer.total_us("cell") - tracer.total_us("compile.steps");
    layers.set("vm.run_share", tracer.total_us("vm.run") / cell);
    layers.set("cell.unattributed_share", tracer.self_us("cell") / cell);
}

/// Geometric means over the series of simulated-time ratios: what the
/// paper's 43.0x / 8.7x / 3.6x are on its hardware. Exact for a seed.
fn simulated_geomeans(cells: &[LadderCell], layers: &mut Layers) {
    let geomean = |base: usize| {
        let logs: Vec<f64> = cells
            .chunks(spec::VARIANTS_PER_SERIES)
            .map(|series| (series[base].total_us / series[spec::V_TCA].total_us).ln())
            .collect();
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    };
    layers.set("sim.geomean_tca_over_cdp", geomean(spec::V_CDP));
    layers.set("sim.geomean_tca_over_nocdp", geomean(spec::V_NOCDP));
    layers.set("sim.geomean_tca_over_a", geomean(spec::V_A));
}

/// `bench.trace_overhead_ratio`: the first series' cells with the harness's
/// spans on against the same cells with them off. The host's speed drifts
/// by more than spans cost, so the two run back to back, in alternating
/// order, and the median of the pairs' ratios is reported.
fn harness_overhead(
    sweep: &SweepSpec,
    cache_dir: &Path,
    layers: &mut Layers,
) -> Result<(), String> {
    std::fs::create_dir_all(cache_dir).map_err(|e| e.to_string())?;
    let first = SweepSpec {
        series: sweep.series[..1].to_vec(),
    };
    let pass = |enabled: bool| -> Result<f64, String> {
        let mut tracer = Tracer::new(enabled);
        let started = Instant::now();
        cell_ladder(&mut tracer, &first, cache_dir, &mut Layers::default())?;
        Ok(started.elapsed().as_secs_f64())
    };
    let mut ratios = Vec::new();
    for pair in 0..8 {
        let (on, off) = if pair % 2 == 0 {
            let on = pass(true)?;
            (on, pass(false)?)
        } else {
            let off = pass(false)?;
            (pass(true)?, off)
        };
        ratios.push(on / off);
    }
    layers.set("bench.trace_overhead_ratio", stats::median(&ratios));
    Ok(())
}

/// The ladder stored every cell where `dpopt sweep` looks for it, so a CLI
/// sweep against that cache must be all hits — and must print the cells the
/// ladder computed. This ties the in-process numbers to the real program.
fn cli_agrees(
    cfg: &Config,
    spec_text: &str,
    cache_dir: &Path,
    cells: &[LadderCell],
    layers: &mut Layers,
) -> Result<(), String> {
    let spec_path = cfg.tmp.join("ladder-spec.json");
    let out_path = cfg.tmp.join("ladder-out.json");
    std::fs::write(&spec_path, spec_text).map_err(|e| e.to_string())?;
    let mut command = proc::dpopt(&cfg.dpopt);
    command
        .args(["sweep", "--jobs", &cfg.nproc.to_string(), "-o"])
        .arg(&out_path)
        .arg(&spec_path)
        .env("DPOPT_CACHE_DIR", cache_dir);
    proc::run(&mut command)?;
    let text = std::fs::read_to_string(&out_path).map_err(|e| e.to_string())?;
    layers.attempted += 1;
    if let Err(e) = check_sweep_json(&text, cells.len(), true) {
        layers.fail(format!("CLI sweep over the ladder's cache: {e}"));
        return Ok(());
    }
    let doc = json::parse(&text)?;
    let printed = doc.get("cells").and_then(Json::as_array).unwrap_or(&[]);
    for (cell, printed) in cells.iter().zip(printed) {
        let same = printed.get("benchmark").and_then(Json::as_str) == Some(&cell.benchmark)
            && printed.get("dataset").and_then(Json::as_str) == Some(&cell.dataset)
            && printed.get("variant").and_then(Json::as_str) == Some(&cell.label)
            && printed.get("total_us").and_then(Json::as_f64) == Some(cell.total_us)
            && printed.get("instructions").and_then(Json::as_u64) == Some(cell.instructions)
            && printed.get("device_launches").and_then(Json::as_u64) == Some(cell.device_launches);
        if !same {
            layers.fail(format!(
                "CLI prints another result for {}/{} [{}]: {printed}",
                cell.benchmark, cell.dataset, cell.label
            ));
        }
    }
    Ok(())
}

/// `obs.metrics_overhead_ratio`: warm CLI sweeps with `DPOPT_METRICS=1`
/// against the same sweeps without, alternating.
fn metrics_overhead(cfg: &Config, cache_dir: &Path, layers: &mut Layers) -> Result<(), String> {
    let spec_path = cfg.tmp.join("ladder-spec.json");
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..cfg.scaled(100) {
        for (metrics, walls) in [(true, &mut on), (false, &mut off)] {
            let mut command = proc::dpopt(&cfg.dpopt);
            command
                .args(["sweep", "--jobs", &cfg.nproc.to_string()])
                .arg(&spec_path)
                .env("DPOPT_CACHE_DIR", cache_dir);
            if metrics {
                command.env("DPOPT_METRICS", "1");
            }
            walls.push(proc::run(&mut command)?.0);
        }
    }
    layers.set(
        "obs.metrics_overhead_ratio",
        stats::median(&on) / stats::median(&off),
    );
    Ok(())
}

/// `shard`'s rungs: the spec sharded over two fresh daemons with empty disk
/// caches (`dpopt sweep --remote A,B`, empty local cache) beside the same
/// sweep run locally. `shard` routing and pipelined `sweep-cell` requests
/// through `serve` — long requests, the opposite regime to `serve-hit` — plus
/// the daemons' disk-cache stores. Both must print the same cells.
fn fleet_rungs(cfg: &Config, cells: usize, layers: &mut Layers) -> Result<(), String> {
    let spec_path = cfg.tmp.join("ladder-spec.json");
    let out_path = cfg.tmp.join("fleet-out.json");
    let scratch = |name: &str| -> Result<std::path::PathBuf, String> {
        let dir = cfg.tmp.join(name);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    };
    let digest_of = |cached: bool| -> Result<u64, String> {
        let text = std::fs::read_to_string(&out_path).map_err(|e| e.to_string())?;
        check_sweep_json(&text, cells, cached)
    };

    let daemon_jobs = (cfg.nproc / 2).max(1).to_string();
    let mut daemons = Vec::new();
    for name in ["fleet-disk-a", "fleet-disk-b"] {
        let disk = scratch(name)?.to_string_lossy().into_owned();
        let args = ["--jobs", &daemon_jobs, "--disk-cache", &disk];
        daemons.push(proc::Daemon::spawn(&cfg.dpopt, &args, &[])?);
    }
    let endpoints = format!("{},{}", daemons[0].addr, daemons[1].addr);
    let mut command = proc::dpopt(&cfg.dpopt);
    command
        .arg("sweep")
        .arg(&spec_path)
        // The daemons size their own pools; `--jobs` is refused here.
        .args(["--remote", &endpoints, "-o"])
        .arg(&out_path)
        .env("DPOPT_CACHE_DIR", scratch("fleet-cache")?);
    let (fleet_s, _) = proc::run(&mut command)?;
    let (mut largest, mut stores) = (0, 0);
    for daemon in daemons {
        let stats = DaemonStats::read(&daemon)?;
        largest = largest.max(stats.sweep_cells);
        stores += stats.disk_stores;
        daemon.shutdown()?;
    }
    let fleet = digest_of(false);

    let local_cache = scratch("fleet-local-cache")?;
    let (local_s, _) = proc::run(&mut sweep_command(cfg, &spec_path, &out_path, &local_cache))?;
    layers.attempted += 1;
    match (fleet, digest_of(false)) {
        (Ok(fleet), Ok(local)) if fleet == local => {}
        (Ok(fleet), Ok(local)) => layers.fail(format!(
            "the fleet's cells differ from a local sweep's: {fleet:016x} != {local:016x}"
        )),
        (Err(e), _) => layers.fail(format!("fleet sweep: {e}")),
        (_, Err(e)) => layers.fail(format!("local sweep beside the fleet: {e}")),
    }
    layers.set("shard.max_daemon_share", largest as f64 / cells as f64);
    layers.set("shard.overhead_ratio", fleet_s / local_s);
    layers.set("serve.disk_cache.stores", stores as f64);
    Ok(())
}

// ----------------------------------------------------------------------
// Request ladder
// ----------------------------------------------------------------------

/// The `serve-hit` request, by direct calls: the steps the daemon performs
/// between reading the line and writing the answer. Returns the answer
/// line, which the real daemon must give too.
fn request_ladder(
    tracer: &mut Tracer,
    cfg: &Config,
    layers: &mut Layers,
) -> Result<String, String> {
    let cache = dp_serve::cache::CompiledCache::new(64);
    let timing = TimingParams::default();
    let mut answer = String::new();
    let mut direct_us = Vec::new();
    // Iteration 0 compiles and is not timed; the rest are cache hits.
    for i in 0..=cfg.scaled(20_000) {
        let line = spec::hit_request(i);
        let mut request_tracer = Tracer::new(false);
        let t = if i == 0 {
            &mut request_tracer
        } else {
            &mut *tracer
        };
        let started = Instant::now();
        answer = t.span("serve.request", i, |t| -> Result<String, String> {
            let parsed = t.span("serve.proto.parse", i, |_| proto::parse_request(&line));
            let Request::Execute(request) = parsed.body? else {
                return Err("the hit request is not an `execute`".to_string());
            };
            let key = t.span("serve.key", i, |_| {
                dp_sweep::key::compiled_key(&request.source, &request.config)
            });
            let compiled = t.span("serve.cache.hit", i, |_| {
                cache.get_or_compile(key, || {
                    Compiler::new()
                        .config(request.config)
                        .compile(&request.source)
                        .map(|c| c.into_shared())
                        .map_err(|e| e.to_string())
                })
            })?;
            let mut exec = t.span("core.executor_build_req", i, |_| compiled.executor());
            let (outputs, report) = t.span("vm.run_req", i, |_| -> Result<_, String> {
                let mut buffers = Vec::new();
                for buffer in &request.buffers {
                    let ptr = match &buffer.data {
                        BufferData::Words(words) => exec.alloc(*words),
                        BufferData::Ints(values) => exec.alloc_i64s(values),
                        BufferData::Floats(values) => exec.alloc_f64s(values),
                    };
                    buffers.push((buffer.name.as_str(), ptr));
                }
                let resolve = |name: &str| {
                    buffers
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map(|(_, ptr)| *ptr)
                        .ok_or_else(|| format!("unknown buffer `@{name}`"))
                };
                let args = request
                    .args
                    .iter()
                    .map(|arg| {
                        Ok(match arg {
                            Arg::Int(v) => dp_vm::Value::Int(*v),
                            Arg::Float(v) => dp_vm::Value::Float(*v),
                            Arg::Buffer(name) => dp_vm::Value::Int(resolve(name)?),
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                exec.launch(&request.kernel, request.grid, request.block, &args)
                    .map_err(|e| e.to_string())?;
                exec.sync().map_err(|e| e.to_string())?;
                let mut outputs = Vec::new();
                for read in &request.reads {
                    let ints = exec
                        .read_i64s(resolve(&read.buffer)? + read.offset as i64, read.len)
                        .map_err(|e| e.to_string())?;
                    outputs.push(json::object([
                        ("buffer", Json::Str(read.buffer.clone())),
                        (
                            "ints",
                            Json::Array(ints.into_iter().map(Json::Int).collect()),
                        ),
                    ]));
                }
                Ok((outputs, exec.finish()))
            })?;
            let sim = t.span("sim.simulate_req", i, |_| report.simulate(&timing));
            Ok(t.span("serve.proto.encode", i, |_| {
                proto::ok_response(
                    parsed.id.as_ref(),
                    vec![
                        ("device_launches", json::uint(report.stats.device_launches)),
                        ("host_launches", json::uint(sim.host_launches as u64)),
                        ("instructions", json::uint(report.stats.instructions)),
                        ("op", Json::Str("execute".to_string())),
                        ("outputs", Json::Array(outputs)),
                        ("total_us", json::num(sim.total_us)),
                    ],
                )
                .to_string()
            }))
        })?;
        if i > 0 {
            direct_us.push(started.elapsed().as_secs_f64() * 1e6);
        }
        layers.attempted += 1;
        if !answer.contains(spec::HIT_EXPECT) {
            layers.fail(format!("direct request {i} answered {answer}"));
        }
    }
    for (metric, span) in [
        ("serve.proto.parse_us", "serve.proto.parse"),
        ("serve.key_us", "serve.key"),
        ("serve.cache.hit_us", "serve.cache.hit"),
        ("core.executor_build_req_us", "core.executor_build_req"),
        ("vm.run_req_us", "vm.run_req"),
        ("sim.simulate_req_us", "sim.simulate_req"),
        ("serve.proto.encode_us", "serve.proto.encode"),
    ] {
        layers.set_median(tracer, metric, span);
    }
    layers.set("serve.direct_us", stats::median(&direct_us));
    Ok(answer)
}

/// An empty interactive job through a pool, both ways serve and sweep
/// submit work. The pool is one of its own with one worker: the shared one
/// has none on the one processor the run is confined to. Each call waits
/// (untimed) until the worker is parked: in a tight loop it is still on its
/// way back to sleep, the claim fails and the job runs inline in a few
/// nanoseconds, which would time the clock and not the hand-off.
fn pool_rungs(cfg: &Config, layers: &mut Layers) {
    let pool = Pool::new(1);
    let timed = |f: &dyn Fn()| {
        let samples: Vec<f64> = (0..cfg.scaled(20_000))
            .map(|_| {
                while pool.idle_workers() == 0 {
                    // The worker needs this processor to get back to sleep.
                    std::thread::yield_now();
                }
                let started = Instant::now();
                f();
                started.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        stats::median(&samples)
    };
    layers.set(
        "pool.run_now_us",
        timed(&|| {
            pool.run_now_as(JobClass::Interactive, || ())
                .expect("an empty job does not panic");
        }),
    );
    layers.set(
        "pool.scope_spawn_us",
        timed(&|| pool.scope(|scope| scope.spawn_as(JobClass::Interactive, || ()))),
    );
}

// ----------------------------------------------------------------------
// Rungs that need a daemon
// ----------------------------------------------------------------------

/// Round trip at one connection and one request in flight — only the
/// blocking steps count there — and the cost of the program's own tracing.
fn daemon_rungs(cfg: &Config, direct_line: &str, layers: &mut Layers) -> Result<(), String> {
    let traffic = Traffic::new(ServeKind::Hit, cfg.seed);
    let (daemon, first_seq) = traffic.start(cfg, &[], 0)?;

    // What the daemon answers is what the direct calls produced.
    let last = cfg.scaled(20_000);
    let answered = daemon.request(&spec::hit_request(last))?;
    layers.attempted += 1;
    if answered.trim() != direct_line {
        layers.fail(format!(
            "daemon answers {answered} but direct calls gave {direct_line}"
        ));
    }

    let serial = traffic.load(&daemon, Stop::Count(cfg.scaled(5_000)), first_seq);
    layers.attempted += serial.attempted;
    layers.failed += serial.failed;
    layers.errors.extend(serial.errors);
    let mut rtt: Vec<f64> = serial.completions.iter().map(|c| c.latency_us).collect();
    if rtt.is_empty() {
        return Err("no round trip completed".to_string());
    }
    stats::sort(&mut rtt);
    let p50 = stats::percentile_sorted(&rtt, 0.50);
    layers.set("serve.rtt_c1_p50_us", p50);
    layers.set("serve.rtt_c1_p99_us", stats::percentile_sorted(&rtt, 0.99));
    // Sockets and the three stacked schedulers: everything between the
    // request's bytes and the direct calls.
    let direct = layers.values["serve.direct_us"];
    layers.set("serve.unattributed_us", p50 - direct);
    layers.set("serve.unattributed_share", (p50 - direct) / p50);

    // A fixed count the same way, then once more on a daemon that writes a
    // span log.
    let count = Stop::Count(cfg.scaled(10_000));
    let timed_load = |daemon: &proc::Daemon, first_seq: u64| {
        let started = Instant::now();
        let loaded = traffic.load(daemon, count, first_seq);
        (started.elapsed().as_secs_f64(), loaded)
    };
    let (plain_s, plain) = timed_load(&daemon, first_seq + 1_000_000);
    daemon.shutdown()?;
    let trace_path = cfg.tmp.join("daemon-trace.jsonl");
    let trace_env = trace_path.to_string_lossy().into_owned();
    let (traced_daemon, first_seq) = traffic.start(cfg, &[("DPOPT_TRACE", &trace_env)], 0)?;
    let (traced_s, traced) = timed_load(&traced_daemon, first_seq + 1_000_000);
    traced_daemon.shutdown()?;
    for loaded in [plain, traced] {
        layers.attempted += loaded.attempted;
        layers.failed += loaded.failed;
        layers.errors.extend(loaded.errors);
    }
    if std::fs::metadata(&trace_path).map_or(0, |m| m.len()) == 0 {
        return Err("DPOPT_TRACE wrote no span log".to_string());
    }
    layers.set("obs.trace_overhead_ratio", traced_s / plain_s);
    Ok(())
}

/// `cli.startup_ms`: the cost every invocation pays before it does anything.
fn startup(cfg: &Config, layers: &mut Layers) -> Result<(), String> {
    let mut walls = Vec::new();
    for _ in 0..cfg.scaled(100) {
        walls.push(proc::run(proc::dpopt(&cfg.dpopt).arg("--version"))?.0 * 1e3);
    }
    layers.set("cli.startup_ms", stats::median(&walls));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tracer = Tracer::new(true);
        let spin = |us: u64| {
            let started = Instant::now();
            while started.elapsed().as_micros() < u128::from(us) {}
        };
        tracer.span("outer", 1, |t| {
            spin(300);
            t.span("inner", 1, |_| spin(500));
            t.span("inner", 1, |_| spin(500));
        });
        let outer = tracer.durations_us("outer")[0];
        let inner: f64 = tracer.durations_us("inner").iter().sum();
        assert_eq!(tracer.durations_us("inner").len(), 2);
        assert!(inner >= 1000.0 && outer >= inner + 300.0);
        assert!((tracer.self_us("outer") - (outer - inner)).abs() < 1e-6);
        assert_eq!(tracer.self_us("inner"), inner);
        assert_eq!(tracer.spans[1].parent, Some(0));
        assert_eq!(tracer.spans[0].parent, None);

        // Off, a tracer calls through and records nothing.
        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", 1, |t| t.span("inner", 1, |_| 7)), 7);
        assert!(off.spans.is_empty());
    }

    #[test]
    fn geomeans_compare_the_right_variants() {
        let series = |tca: f64| -> Vec<LadderCell> {
            (0..spec::VARIANTS_PER_SERIES)
                .map(|v| LadderCell {
                    benchmark: "B".into(),
                    dataset: "D".into(),
                    label: v.to_string(),
                    total_us: match v {
                        spec::V_NOCDP => 8.0 * tca,
                        spec::V_CDP => 32.0 * tca,
                        spec::V_A => 2.0 * tca,
                        spec::V_TCA => tca,
                        _ => 1.0,
                    },
                    instructions: 0,
                    device_launches: 0,
                })
                .collect()
        };
        let mut cells = series(1.0);
        cells.extend(series(5.0));
        let mut layers = Layers::default();
        simulated_geomeans(&cells, &mut layers);
        assert!((layers.values["sim.geomean_tca_over_cdp"] - 32.0).abs() < 1e-9);
        assert!((layers.values["sim.geomean_tca_over_nocdp"] - 8.0).abs() < 1e-9);
        assert!((layers.values["sim.geomean_tca_over_a"] - 2.0).abs() < 1e-9);
    }
}
