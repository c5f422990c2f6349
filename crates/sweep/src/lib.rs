//! # dp-sweep
//!
//! A parallel, content-addressed experiment-orchestration engine. Every
//! evaluation artifact of this repository (the `fig9`…`table1`/`ablation`
//! binaries, the autotuner, the `dpopt sweep` subcommand) is a *sweep*: an
//! embarrassingly parallel grid of independent simulation cells
//! (benchmark × dataset × optimization variant × timing/cost model). This
//! crate runs that grid once, well:
//!
//! - **Declarative specs.** A [`SweepSpec`] is a list of [`SeriesSpec`]s;
//!   each series is one benchmark on one dataset across an ordered variant
//!   list. Expansion to cells is deterministic.
//! - **Parallel execution.** Cells run under the shared worker budget
//!   ([`dp_pool::Pool::shared`], sized once from `DPOPT_JOBS`): the caller
//!   and one scoped helper thread per free token. Every worker owns its
//!   own `Executor`/VM state — nothing mutable is shared — and results are
//!   **merged in spec order**, so output is byte-identical to sequential
//!   execution regardless of worker count.
//! - **Content-addressed caching.** Each cell is keyed by a stable hash of
//!   everything that determines its result (source text, variant config,
//!   dataset spec + scale + seed, timing params, cost model, cache format
//!   version) and its [`CellSummary`] is persisted as JSON under
//!   `.dpopt-cache/`. Re-running a sweep after touching one variant
//!   recomputes only that column; a repeated identical sweep is 100% cache
//!   hits.
//!
//! ## Who owns which step
//!
//! A cell's life is written once, in [`Sweep`]: [`enumerate_cells`] names
//! the cells and hashes their keys; [`Sweep::probe`] loads what the cache
//! holds; [`Sweep::complete`] applies the label rule and stores a computed
//! summary through the one [`cache::ResultCache`] (directory + disk-full
//! latch + the one warning); [`Sweep::run_local`] materializes datasets and
//! runs cells on the pool; [`Sweep::finish`] merges in spec order and
//! verifies against cell 0. [`run_sweep`] is those calls in sequence.
//! `dp_serve::shard` makes the same calls and adds only *where* a pending
//! cell is computed; `dp-serve` answers one cell with [`execute_cell`] and
//! holds a `ResultCache` of its own for `--disk-cache`. What a cell *is*
//! when it arrives as bytes — names, ranges, a dataset its benchmark can
//! read — is decided once too, in [`spec`], for spec files and
//! `sweep-cell` requests alike. The test-only fault plans that the cache's
//! file I/O and the daemon's request path fire are in [`faults`].
//!
//! ```no_run
//! use dp_sweep::{DatasetSpec, SeriesSpec, SweepOptions, SweepSpec, VariantSpec};
//! use dp_core::OptConfig;
//! use dp_workloads::benchmarks::Variant;
//! use dp_workloads::DatasetId;
//!
//! let spec = SweepSpec {
//!     series: vec![SeriesSpec::new(
//!         "BFS",
//!         DatasetSpec::table(DatasetId::Kron, 0.01, 42),
//!         vec![
//!             VariantSpec::new("CDP", Variant::Cdp(OptConfig::none())),
//!             VariantSpec::new("CDP+T+C+A", Variant::Cdp(OptConfig::all())),
//!         ],
//!     )],
//! };
//! let result = dp_sweep::run_sweep(&spec, &SweepOptions::default());
//! let cells = &result.series[0].cells;
//! println!("speedup: {:.2}x", cells[0].total_us / cells[1].total_us);
//! ```

pub mod cache;
pub mod faults;
pub mod key;
pub mod spec;

pub use cache::CacheStats;
/// The JSON module lives in `dp-obs`, below every crate, so that the metrics
/// registry can speak it; `crates/*/src` imports it from there. This is the
/// path `benchmark/README.md` pins and the integration tests use.
pub use dp_obs::json;
use key::digest_input;
pub use spec::spec_from_json;

use dp_core::{Compiler, Error, TimingParams};
use dp_obs::metrics::{Counter, Histogram};
use dp_vm::bytecode::CostModel;
use dp_workloads::benchmarks::{benchmark_by_name, Benchmark, Variant};
use dp_workloads::{datasets::DatasetId, describe, BenchInput, BenchOutput};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Wall time of one cold cell: compile-cache fetch + full VM execution +
/// summarization ([`execute_cell`] — shared with the serve daemon's
/// `sweep-cell` op, so both record here).
static CELL_COLD_US: Histogram = Histogram::new("sweep.cell_cold_us");
/// Wall time of one warm cell: a result-cache hit's load + parse.
static CELL_WARM_US: Histogram = Histogram::new("sweep.cell_warm_us");
static CACHE_HITS: Counter = Counter::new("sweep.cache.hits");
static CACHE_MISSES: Counter = Counter::new("sweep.cache.misses");

// ----------------------------------------------------------------------
// Spec types
// ----------------------------------------------------------------------

/// The dataset a series runs on.
#[derive(Debug, Clone)]
pub enum DatasetSpec {
    /// A Table-I dataset generated at a scale/seed (cache-keyed by name).
    Table {
        /// Which registry dataset.
        id: DatasetId,
        /// Fraction of the paper's size, in `(0, 1]`.
        scale: f64,
        /// Generator seed.
        seed: u64,
    },
    /// A caller-provided in-memory input (cache-keyed by content digest).
    Provided {
        /// The input itself.
        input: Arc<BenchInput>,
        /// Stable content digest (`digest_input`).
        digest: u64,
        /// Display name.
        name: String,
    },
}

impl DatasetSpec {
    /// A Table-I dataset at the given scale and seed.
    pub fn table(id: DatasetId, scale: f64, seed: u64) -> Self {
        DatasetSpec::Table { id, scale, seed }
    }

    /// Wraps an in-memory input, digesting its content for the cache key.
    pub fn provided(input: Arc<BenchInput>, name: impl Into<String>) -> Self {
        let digest = digest_input(&input);
        DatasetSpec::Provided {
            input,
            digest,
            name: name.into(),
        }
    }

    /// The input itself: generated for a Table-I dataset, shared for a
    /// provided one.
    pub fn instantiate(&self) -> Arc<BenchInput> {
        match self {
            DatasetSpec::Table { id, scale, seed } => Arc::new(id.instantiate(*scale, *seed)),
            DatasetSpec::Provided { input, .. } => Arc::clone(input),
        }
    }

    /// Display name ("KRON", or the caller-provided name).
    pub fn name(&self) -> String {
        match self {
            DatasetSpec::Table { id, .. } => id.name().to_string(),
            DatasetSpec::Provided { name, .. } => name.clone(),
        }
    }
}

/// One variant (column) of a series.
#[derive(Debug, Clone)]
pub struct VariantSpec {
    /// Display label (paper legend style).
    pub label: String,
    /// What to run.
    pub variant: Variant,
}

impl VariantSpec {
    /// A labelled variant.
    pub fn new(label: impl Into<String>, variant: Variant) -> Self {
        VariantSpec {
            label: label.into(),
            variant,
        }
    }
}

/// One benchmark × dataset across an ordered variant list.
///
/// Cell 0 of a non-empty series is the *verification reference*: every
/// other cell's functional output is compared against it. A series with an
/// empty variant list is legal and contributes only its dataset description
/// (used by `table1`).
#[derive(Debug, Clone)]
pub struct SeriesSpec {
    /// Benchmark name as in the paper ("BFS", "BT", …).
    pub benchmark: String,
    /// The dataset to instantiate.
    pub dataset: DatasetSpec,
    /// Ordered variants.
    pub variants: Vec<VariantSpec>,
    /// Hardware timing model for `simulate`.
    pub timing: TimingParams,
    /// VM instruction cost model.
    pub cost: CostModel,
}

impl SeriesSpec {
    /// A series with default timing and cost models.
    pub fn new(
        benchmark: impl Into<String>,
        dataset: DatasetSpec,
        variants: Vec<VariantSpec>,
    ) -> Self {
        SeriesSpec {
            benchmark: benchmark.into(),
            dataset,
            variants,
            timing: TimingParams::default(),
            cost: CostModel::default(),
        }
    }

    /// Overrides the timing model.
    pub fn with_timing(mut self, timing: TimingParams) -> Self {
        self.timing = timing;
        self
    }

    /// Overrides the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }
}

/// A whole sweep: an ordered list of series.
#[derive(Debug, Clone, Default)]
pub struct SweepSpec {
    /// The series, in output order.
    pub series: Vec<SeriesSpec>,
}

impl SweepSpec {
    /// Total number of cells the spec expands to.
    pub fn cell_count(&self) -> usize {
        self.series.iter().map(|s| s.variants.len()).sum()
    }
}

// ----------------------------------------------------------------------
// Results
// ----------------------------------------------------------------------

/// Everything the formatters need from one cell, in a form that survives a
/// JSON round-trip byte-exactly (floats are written with shortest-exact
/// formatting).
#[derive(Debug, Clone, Default)]
pub struct CellSummary {
    /// Variant label (from the spec, not the cache).
    pub label: String,
    /// Simulated end-to-end time (µs).
    pub total_us: f64,
    /// Device busy span (µs).
    pub device_span_us: f64,
    /// Breakdown: parent work (µs).
    pub parent_us: f64,
    /// Breakdown: child work (µs).
    pub child_us: f64,
    /// Breakdown: launch path (µs).
    pub launch_us: f64,
    /// Breakdown: aggregation logic (µs).
    pub aggregation_us: f64,
    /// Breakdown: disaggregation logic (µs).
    pub disaggregation_us: f64,
    /// End-to-end time with divergence (warp-max) accounting ablated to the
    /// warp average — used by the ablation study.
    pub warp_avg_total_us: f64,
    /// Device-side launches performed.
    pub device_launches: u64,
    /// Host-side launches performed.
    pub host_launches: u64,
    /// Total per-origin device cycles (pure device work).
    pub origin_cycles_total: u64,
    /// Dynamic instruction count (original units).
    pub instructions: u64,
    /// Functional output, integer part.
    pub output_ints: Vec<i64>,
    /// Functional output, float part.
    pub output_floats: Vec<f64>,
    /// Whether the output matched the series reference (cell 0).
    pub verified: bool,
    /// Whether this summary came from the cache.
    pub from_cache: bool,
}

impl CellSummary {
    /// The functional output as a comparable [`BenchOutput`].
    pub fn output(&self) -> BenchOutput {
        BenchOutput {
            ints: self.output_ints.clone(),
            floats: self.output_floats.clone(),
        }
    }

    /// Breakdown sum, matching `dp_sim::Breakdown::total()`.
    pub fn breakdown_total(&self) -> f64 {
        self.parent_us
            + self.child_us
            + self.launch_us
            + self.aggregation_us
            + self.disaggregation_us
    }
}

/// Merged results of one series, cells in spec order.
#[derive(Debug, Clone)]
pub struct SeriesResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Dataset display name.
    pub dataset_name: String,
    /// `describe(..)` of the instantiated dataset. `None` when every cell
    /// was served from the cache (the dataset was never materialized).
    pub dataset_description: Option<String>,
    /// Cell summaries, one per variant, in spec order.
    pub cells: Vec<CellSummary>,
}

/// The merged sweep.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Per-series results, in spec order.
    pub series: Vec<SeriesResult>,
    /// Cache behavior counters.
    pub cache: CacheStats,
    /// Worker count actually used.
    pub jobs: usize,
}

// ----------------------------------------------------------------------
// Options
// ----------------------------------------------------------------------

/// Execution options.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads; `0` means `DPOPT_JOBS` or available parallelism.
    pub jobs: usize,
    /// Consult/populate the result cache.
    pub cache: bool,
    /// Cache directory; `None` means `DPOPT_CACHE_DIR` or `.dpopt-cache`.
    pub cache_dir: Option<PathBuf>,
    /// Suppress per-cell progress lines on stderr.
    pub quiet: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            jobs: 0,
            cache: std::env::var_os("DPOPT_NO_CACHE").is_none(),
            cache_dir: None,
            quiet: false,
        }
    }
}

/// Parses an environment variable, warning on stderr (once per call) when
/// the value is present but unparsable instead of silently falling back.
pub fn env_parsed<T>(name: &str, default: T) -> T
where
    T: std::str::FromStr + std::fmt::Display,
{
    match std::env::var(name) {
        Err(_) => default,
        Ok(raw) => match raw.trim().parse() {
            Ok(v) => v,
            Err(_) => {
                dp_obs::diag!(
                    "warning: ignoring unparsable {name}=`{raw}`; falling back to {default}"
                );
                default
            }
        },
    }
}

/// Resolves a requested worker count: explicit > `--jobs`-resolved /
/// `DPOPT_JOBS` > available parallelism (min 1). The resolution is
/// [`dp_pool::jobs::configured_jobs`], so every layer agrees on the
/// convention. The result is this sweep's concurrency *cap*; actual
/// helper submissions are additionally gated on free shared-pool tokens.
pub(crate) fn effective_jobs(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    dp_pool::jobs::configured_jobs()
}

// ----------------------------------------------------------------------
// Cell enumeration
// ----------------------------------------------------------------------

/// One cell of an expanded sweep grid: its position in the spec plus the
/// content-addressed cache key that names its result. This is the unit a
/// distributed scheduler partitions — the key is stable across processes
/// and machines, so routing on it keeps warm caches sticky.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellRef {
    /// Index into [`SweepSpec::series`].
    pub series_idx: usize,
    /// Index into that series' [`SeriesSpec::variants`].
    pub cell_idx: usize,
    /// The cell's [`key::cell_key`] — what [`Sweep`] probes and stores
    /// under.
    pub key: u64,
}

/// Expands a spec to its deterministic cell grid, in spec order. The one
/// enumeration: [`Sweep::probe`] calls it, so a local sweep and a sharded
/// one work on the same cells under the same keys. An unknown benchmark
/// name is an `Err`, since a scheduler wants a structured error.
pub fn enumerate_cells(spec: &SweepSpec) -> Result<Vec<CellRef>, String> {
    let mut cells = Vec::with_capacity(spec.cell_count());
    // Each source text (a benchmark has two: CDP and No-CDP) is hashed
    // once per sweep and found again by address; each series' tail is
    // built once. The keys are `key::cell_key`'s, composed from its parts.
    let mut digests: Vec<(&'static str, u64)> = Vec::new();
    for (series_idx, series) in spec.series.iter().enumerate() {
        let bench = benchmark_by_name(&series.benchmark)
            .ok_or_else(|| format!("unknown benchmark `{}`", series.benchmark))?;
        let tail = key::series_tail(&series.dataset, &series.timing, &series.cost);
        for (cell_idx, vspec) in series.variants.iter().enumerate() {
            let (source, _) = vspec.variant.program(bench.as_ref());
            let digest = match digests.iter().find(|(s, _)| std::ptr::eq(*s, source)) {
                Some(&(_, digest)) => digest,
                None => {
                    let digest = key::fnv1a(source.as_bytes());
                    digests.push((source, digest));
                    digest
                }
            };
            let key = key::cell_key_from(&series.benchmark, digest, &vspec.variant, &tail);
            cells.push(CellRef {
                series_idx,
                cell_idx,
                key,
            });
        }
    }
    Ok(cells)
}

// ----------------------------------------------------------------------
// Engine
// ----------------------------------------------------------------------

/// A compiled program per (benchmark, variant, cost model), shared by the
/// workers of one sweep. The map's lock is held for the lookup only; the
/// compile runs inside the entry's `OnceLock`, so workers compiling
/// different programs do not wait for each other and one program is
/// compiled once.
type CompileCache = Mutex<HashMap<String, Arc<OnceLock<dp_core::SharedCompiled>>>>;

/// Calls `body(i)` for every `i < n` under the shared worker budget:
/// helper loops are pool submissions (one per free token, at most
/// `jobs - 1` of them, each on a thread that ends with the call) and the
/// calling thread always runs one loop itself.
fn for_each_on_pool(jobs: usize, n: usize, body: impl Fn(usize) + Sync) {
    if n == 0 {
        return;
    }
    let next = AtomicUsize::new(0);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            return;
        }
        body(i);
    };
    let pool = dp_pool::Pool::shared();
    pool.scope(|scope| {
        let helpers = pool.idle_workers().min(jobs.saturating_sub(1)).min(n - 1);
        for _ in 0..helpers {
            scope.spawn_as(dp_pool::JobClass::Bulk, work);
        }
        work();
    });
}

/// The label rule: a summary carries its variant's label from the spec,
/// never one from the cache or the wire.
fn label_of(spec: &SweepSpec, cell: &CellRef) -> String {
    spec.series[cell.series_idx].variants[cell.cell_idx]
        .label
        .clone()
}

/// One sweep in flight — the owner of a cell's life: key → cache probe →
/// (compile → run, here or on a daemon) → store → spec-order merge with
/// cross-variant verification. A *slot* is a cell's index in the
/// [`enumerate_cells`] order.
///
/// [`run_sweep`] is [`probe`](Sweep::probe), [`run_local`](Sweep::run_local)
/// on what is [`pending`](Sweep::pending), [`finish`](Sweep::finish). A
/// scheduler that computes cells elsewhere (`dp_serve::shard`) answers a
/// pending slot with [`complete`](Sweep::complete) instead, and may hand whatever
/// it could not place to `run_local`.
pub struct Sweep<'a> {
    spec: &'a SweepSpec,
    jobs: usize,
    quiet: bool,
    cells: Vec<CellRef>,
    cache: Option<cache::ResultCache>,
    stats: CacheStats,
    /// Per slot; `None` until the probe hits or the cell is completed.
    summaries: Vec<Mutex<Option<CellSummary>>>,
    /// Per series; `None` until `run_local` needs the dataset.
    inputs: Vec<Option<Arc<BenchInput>>>,
}

impl<'a> Sweep<'a> {
    /// Enumerates the spec's cells and, with the cache on, loads every one
    /// the cache holds. Errs on an unknown benchmark name.
    pub fn probe(spec: &'a SweepSpec, opts: &SweepOptions) -> Result<Self, String> {
        let cells = enumerate_cells(spec)?;
        let cache = opts
            .cache
            .then(|| cache::ResultCache::new(cache::resolve_cache_dir(opts.cache_dir.as_deref())));
        let mut stats = CacheStats {
            enabled: opts.cache,
            ..CacheStats::default()
        };
        let summaries = cells
            .iter()
            .map(|cell| {
                let cache = cache.as_ref()?;
                let started = dp_obs::metrics::now();
                let Some(mut cached) = cache.load(cell.key) else {
                    CACHE_MISSES.incr();
                    stats.misses += 1;
                    return None;
                };
                CELL_WARM_US.record_since(started);
                CACHE_HITS.incr();
                stats.hits += 1;
                cached.label = label_of(spec, cell);
                Some(cached)
            })
            .map(Mutex::new)
            .collect();
        Ok(Sweep {
            spec,
            jobs: effective_jobs(opts.jobs),
            quiet: opts.quiet,
            cells,
            cache,
            stats,
            summaries,
            inputs: vec![None; spec.series.len()],
        })
    }

    /// Every cell of the spec, indexed by slot.
    pub fn cells(&self) -> &[CellRef] {
        &self.cells
    }

    /// The slots with no summary yet, ascending.
    pub fn pending(&self) -> Vec<usize> {
        (0..self.cells.len())
            .filter(|&slot| self.summaries[slot].lock().unwrap().is_none())
            .collect()
    }

    /// Records the freshly computed summary of `slot` — whoever computed
    /// it: the label is the spec's, the cell counts as a miss, and the
    /// summary is stored when the cache is on and still usable.
    pub fn complete(&self, slot: usize, mut summary: CellSummary) {
        let cell = &self.cells[slot];
        summary.label = label_of(self.spec, cell);
        summary.from_cache = false;
        if let Some(cache) = &self.cache {
            cache.store(cell.key, &summary);
        }
        *self.summaries[slot].lock().unwrap() = Some(summary);
    }

    /// Computes `slots` in this process and completes them. Each distinct
    /// dataset they run on — and that of every empty-variant series, whose
    /// description *is* its result — is materialized once. Workers share
    /// compiled programs (immutable and `Send`) but each owns its executor
    /// and VM state.
    ///
    /// # Panics
    ///
    /// Panics when a cell's compilation or run fails.
    pub fn run_local(&mut self, slots: &[usize]) {
        let spec = self.spec;
        let mut wanted: Vec<bool> = spec.series.iter().map(|s| s.variants.is_empty()).collect();
        for &slot in slots {
            wanted[self.cells[slot].series_idx] = true;
        }
        // Distinct datasets still to make, each with the series that run on it.
        let mut missing: Vec<(String, Vec<usize>)> = Vec::new();
        for (series_idx, series) in spec.series.iter().enumerate() {
            if !wanted[series_idx] || self.inputs[series_idx].is_some() {
                continue;
            }
            let canon = key::canonical_dataset(&series.dataset);
            match missing.iter_mut().find(|(seen, _)| *seen == canon) {
                Some((_, users)) => users.push(series_idx),
                None => missing.push((canon, vec![series_idx])),
            }
        }
        let made: Vec<OnceLock<Arc<BenchInput>>> =
            missing.iter().map(|_| OnceLock::new()).collect();
        for_each_on_pool(self.jobs, missing.len(), |i| {
            let input = spec.series[missing[i].1[0]].dataset.instantiate();
            assert!(made[i].set(input).is_ok(), "one worker per dataset");
        });
        for ((_, users), input) in missing.into_iter().zip(made) {
            for series_idx in users {
                self.inputs[series_idx] = input.get().cloned();
            }
        }

        let sweep = &*self;
        let compile_cache: CompileCache = Mutex::new(HashMap::new());
        for_each_on_pool(sweep.jobs, slots.len(), |i| {
            let cell = &sweep.cells[slots[i]];
            let series = &spec.series[cell.series_idx];
            let vspec = &series.variants[cell.cell_idx];
            if !sweep.quiet {
                dp_obs::diag!(
                    "[dp-sweep] run {}/{} [{}]",
                    series.benchmark,
                    series.dataset.name(),
                    vspec.label
                );
            }
            let input = sweep.inputs[cell.series_idx]
                .as_ref()
                .expect("dataset materialized above");
            sweep.complete(slots[i], run_cell(series, vspec, input, &compile_cache));
        });
    }

    /// Merges in spec order and verifies every cell against its series
    /// reference (cell 0).
    ///
    /// # Panics
    ///
    /// Panics when a slot was neither a cache hit nor completed.
    pub fn finish(self) -> SweepResult {
        let mut summaries = self.summaries.into_iter();
        let series = self
            .spec
            .series
            .iter()
            .zip(self.inputs)
            .map(|(series, input)| {
                let mut cells: Vec<CellSummary> = summaries
                    .by_ref()
                    .take(series.variants.len())
                    .map(|slot| slot.into_inner().unwrap().expect("cell resolved"))
                    .collect();
                if let Some(reference) = cells.first().map(|c| c.output()) {
                    for cell in &mut cells {
                        cell.verified = cell.output().approx_eq(&reference, 1e-6);
                    }
                }
                SeriesResult {
                    benchmark: series.benchmark.clone(),
                    dataset_name: series.dataset.name(),
                    dataset_description: input.map(|input| describe(&input)),
                    cells,
                }
            })
            .collect();
        SweepResult {
            series,
            cache: self.stats,
            jobs: self.jobs,
        }
    }
}

/// Runs a sweep: cache probe, parallel execution of the misses, spec-order
/// merge with cross-variant verification.
///
/// # Panics
///
/// Panics when a benchmark name is unknown or a cell's compilation/run
/// fails.
pub fn run_sweep(spec: &SweepSpec, opts: &SweepOptions) -> SweepResult {
    let mut sweep = Sweep::probe(spec, opts).unwrap_or_else(|e| panic!("{e}"));
    let pending = sweep.pending();
    sweep.run_local(&pending);
    sweep.finish()
}

/// Compiles (or fetches) the variant's program and runs it on one input,
/// producing the persistent summary.
fn run_cell(
    series: &SeriesSpec,
    vspec: &VariantSpec,
    input: &BenchInput,
    compile_cache: &CompileCache,
) -> CellSummary {
    let bench = benchmark_by_name(&series.benchmark).expect("enumerate_cells resolved the name");
    let (source, config) = vspec.variant.program(bench.as_ref());
    let compile_key = format!(
        "{}|{:?}|{}|{:?}",
        series.benchmark,
        vspec.variant,
        key::canonical_config(&config),
        series.cost
    );
    let entry = Arc::clone(
        compile_cache
            .lock()
            .unwrap()
            .entry(compile_key)
            .or_default(),
    );
    let compiled = entry.get_or_init(|| {
        Compiler::new()
            .config(config)
            .cost_model(series.cost.clone())
            .compile(source)
            .unwrap_or_else(|e: Error| panic!("{} [{}]: {e}", series.benchmark, vspec.label))
            .into_shared()
    });
    execute_cell(
        bench.as_ref(),
        &vspec.label,
        compiled,
        input,
        &series.timing,
    )
    .unwrap_or_else(|e| panic!("{} [{}]: {e}", series.benchmark, vspec.label))
}

/// Runs one benchmark cell against an already-compiled program and
/// summarizes it — the execution half of the engine's `run_cell`, public so
/// external callers with their own compiled-program cache (the `dp-serve`
/// daemon) produce summaries through the exact same path as the sweep
/// engine.
pub fn execute_cell(
    bench: &dyn Benchmark,
    label: &str,
    compiled: &dp_core::SharedCompiled,
    input: &BenchInput,
    timing: &TimingParams,
) -> Result<CellSummary, Error> {
    let _span = if dp_obs::trace::active() {
        dp_obs::trace::span_with(
            "sweep.cell",
            &[("benchmark", bench.name()), ("label", label)],
        )
    } else {
        dp_obs::trace::span("sweep.cell")
    };
    let started = dp_obs::metrics::now();
    let mut exec = compiled.executor();
    let output = bench.run(&mut exec, input)?;
    let report = exec.finish();
    let summary = summarize_run(label, output, &report, timing);
    CELL_COLD_US.record_since(started);
    Ok(summary)
}

/// Builds a [`CellSummary`] from one completed run — the single
/// summarization path for both the engine and any sequential reference
/// (the golden-output tests run `run_variant` directly and summarize with
/// this to prove engine output is byte-identical to sequential output).
pub fn summarize_run(
    label: &str,
    output: BenchOutput,
    report: &dp_core::RunReport,
    timing: &TimingParams,
) -> CellSummary {
    let sim = report.simulate(timing);
    CellSummary {
        label: label.to_string(),
        total_us: sim.total_us,
        device_span_us: sim.device_span_us,
        parent_us: sim.breakdown.parent_us,
        child_us: sim.breakdown.child_us,
        launch_us: sim.breakdown.launch_us,
        aggregation_us: sim.breakdown.aggregation_us,
        disaggregation_us: sim.breakdown.disaggregation_us,
        warp_avg_total_us: warp_average_total_us(report, timing),
        device_launches: report.stats.device_launches,
        host_launches: sim.host_launches as u64,
        origin_cycles_total: report.trace.origin_cycles().total(),
        instructions: report.stats.instructions,
        output_ints: output.ints,
        output_floats: output.floats,
        verified: true,
        from_cache: false,
    }
}

/// Re-simulates a run with each block's warp-max cycles replaced by the
/// warp average — the divergence-model ablation of the `ablation` binary.
fn warp_average_total_us(report: &dp_core::RunReport, timing: &TimingParams) -> f64 {
    let mut trace = report.trace.clone();
    for grid in &mut trace.grids {
        for block in &mut grid.blocks {
            let warps = block.warp_cycles.len().max(1) as u64;
            let avg_per_warp = block.origin_cycles.total() / warps;
            for w in &mut block.warp_cycles {
                *w = avg_per_warp;
            }
        }
    }
    dp_sim::simulate(&trace, &report.host_events, timing).total_us
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::OptConfig;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            series: vec![SeriesSpec::new(
                "BFS",
                DatasetSpec::table(DatasetId::Kron, 0.002, 42),
                vec![
                    VariantSpec::new("No CDP", Variant::NoCdp),
                    VariantSpec::new("CDP", Variant::Cdp(OptConfig::none())),
                    VariantSpec::new("CDP+T+C+A", Variant::Cdp(OptConfig::all())),
                ],
            )],
        }
    }

    fn no_cache_opts(jobs: usize) -> SweepOptions {
        SweepOptions {
            jobs,
            cache: false,
            cache_dir: None,
            quiet: true,
        }
    }

    #[test]
    fn runs_and_verifies_a_tiny_sweep() {
        let result = run_sweep(&tiny_spec(), &no_cache_opts(2));
        assert_eq!(result.series.len(), 1);
        let cells = &result.series[0].cells;
        assert_eq!(cells.len(), 3);
        assert!(cells.iter().all(|c| c.verified), "variants must agree");
        assert!(cells.iter().all(|c| c.total_us > 0.0));
        assert!(cells[1].total_us > cells[2].total_us, "CDP+T+C+A beats CDP");
        assert!(result.series[0].dataset_description.is_some());
        assert!(!result.cache.enabled);
    }

    #[test]
    fn empty_variant_series_reports_dataset_description() {
        let spec = SweepSpec {
            series: vec![SeriesSpec::new(
                "BFS",
                DatasetSpec::table(DatasetId::RoadNy, 0.002, 7),
                vec![],
            )],
        };
        let result = run_sweep(&spec, &no_cache_opts(1));
        assert!(result.series[0].cells.is_empty());
        let desc = result.series[0].dataset_description.as_ref().unwrap();
        assert!(desc.contains("vertices"), "{desc}");
    }

    #[test]
    fn provided_inputs_run_and_digest() {
        use dp_workloads::datasets::graphs::rmat;
        let input = Arc::new(BenchInput::Graph(rmat(6, 4, 5)));
        let spec = SweepSpec {
            series: vec![SeriesSpec::new(
                "BFS",
                DatasetSpec::provided(Arc::clone(&input), "inline"),
                vec![
                    VariantSpec::new("CDP", Variant::Cdp(OptConfig::none())),
                    VariantSpec::new("CDP+T", Variant::Cdp(OptConfig::none().threshold(32))),
                ],
            )],
        };
        let result = run_sweep(&spec, &no_cache_opts(2));
        assert!(result.series[0].cells.iter().all(|c| c.verified));
        let DatasetSpec::Provided { digest, .. } = DatasetSpec::provided(input, "inline") else {
            unreachable!()
        };
        assert_ne!(digest, 0);
    }

    #[test]
    fn enumerate_cells_expands_in_spec_order_with_distinct_keys() {
        let spec = tiny_spec();
        let cells = enumerate_cells(&spec).unwrap();
        assert_eq!(cells.len(), spec.cell_count());
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.series_idx, 0);
            assert_eq!(cell.cell_idx, i, "cells come out in spec order");
        }
        let mut keys: Vec<u64> = cells.iter().map(|c| c.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), cells.len(), "distinct variants, distinct keys");
        // The enumeration and a real run agree on the keys: a warm run
        // after `run_sweep` hits on every enumerated key.
        let dir = std::env::temp_dir().join(format!("dp-sweep-enum-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = SweepOptions {
            jobs: 1,
            cache: true,
            cache_dir: Some(dir.clone()),
            quiet: true,
        };
        run_sweep(&spec, &opts);
        for cell in &cells {
            assert!(
                cache::load(&dir, cell.key).is_some(),
                "run_sweep stored under the enumerated key {:016x}",
                cell.key
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `enumerate_cells` hashes each source once and builds each series'
    /// tail once; neither may carry over to a cell it does not belong to.
    /// Here one benchmark runs on two datasets and on a provided input, a
    /// second benchmark shares the first's datasets, and one series has its
    /// own timing and cost models.
    #[test]
    fn enumerate_cells_keys_every_cell_as_cell_key_does() {
        use dp_workloads::datasets::graphs::rmat;
        let variants = || {
            vec![
                VariantSpec::new("No CDP", Variant::NoCdp),
                VariantSpec::new("CDP", Variant::Cdp(OptConfig::none())),
                VariantSpec::new("CDP+T", Variant::Cdp(OptConfig::none().threshold(128))),
                VariantSpec::new("CDP+T+C+A", Variant::Cdp(OptConfig::all())),
            ]
        };
        let timing = TimingParams {
            device_launch_pipe_us: 0.5,
            ..TimingParams::default()
        };
        let cost = CostModel {
            launch_presence_overhead: 0,
            ..CostModel::default()
        };
        let input = Arc::new(BenchInput::Graph(rmat(6, 4, 5)));
        let series = |bench: &str, dataset| SeriesSpec::new(bench, dataset, variants());
        let table = |id| DatasetSpec::table(id, 0.002, 42);
        let spec = SweepSpec {
            series: vec![
                series("BFS", table(DatasetId::Kron)),
                series("BFS", table(DatasetId::Cnr)),
                series("BFS", DatasetSpec::provided(input, "inline")),
                series("SSSP", table(DatasetId::Kron)),
                series("BFS", table(DatasetId::Kron))
                    .with_timing(timing)
                    .with_cost(cost),
                series("SSSP", table(DatasetId::Cnr)),
            ],
        };
        let cells = enumerate_cells(&spec).unwrap();
        assert_eq!(cells.len(), spec.cell_count());
        for cell in &cells {
            let series = &spec.series[cell.series_idx];
            let variant = &series.variants[cell.cell_idx].variant;
            let bench = benchmark_by_name(&series.benchmark).unwrap();
            let (source, _) = variant.program(bench.as_ref());
            let expected = key::cell_key(
                &series.benchmark,
                source,
                variant,
                &series.dataset,
                &series.timing,
                &series.cost,
            );
            assert_eq!(
                cell.key, expected,
                "series {} cell {}",
                cell.series_idx, cell.cell_idx
            );
        }
        let mut keys: Vec<u64> = cells.iter().map(|c| c.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), cells.len(), "every cell differs in some axis");
    }

    #[test]
    fn enumerate_cells_rejects_unknown_benchmarks() {
        let spec = SweepSpec {
            series: vec![SeriesSpec::new(
                "NOPE",
                DatasetSpec::table(DatasetId::Kron, 0.002, 1),
                vec![VariantSpec::new("CDP", Variant::Cdp(OptConfig::none()))],
            )],
        };
        let err = enumerate_cells(&spec).unwrap_err();
        assert!(err.contains("unknown benchmark `NOPE`"), "{err}");
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_benchmark_panics() {
        let spec = SweepSpec {
            series: vec![SeriesSpec::new(
                "NOPE",
                DatasetSpec::table(DatasetId::Kron, 0.002, 1),
                vec![],
            )],
        };
        run_sweep(&spec, &no_cache_opts(1));
    }
}
