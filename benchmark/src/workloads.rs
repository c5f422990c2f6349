//! The four workloads. Each drives the real `dpopt` binary as child
//! processes, one request at a time, checks what it answers, and returns one
//! [`Outcome`]: the latency of every request and the time of every set-up,
//! from whose fast ends `main` takes the end-to-end metrics, and a sample per
//! repetition (sweeps) or per segment (daemon load) for the medians reported
//! beside them. A run is cut into segments, each with a set-up of its own, so
//! that the set-ups are spread over the run as evenly as the requests.

use crate::awake::{self, KeepAwake};
use crate::load::{self, Load, Stop};
use crate::proc::{self, Daemon, Usage};
use crate::spec;
use crate::stats;
use dp_serve::proto::{self, Request};
use dp_sweep::json::{self, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Settings shared by every workload of one run.
pub struct Config {
    pub seed: u64,
    /// How long the timed part of a workload lasts.
    pub seconds: f64,
    /// Small inputs and counts: exercises the harness, measures nothing.
    pub smoke: bool,
    pub dpopt: PathBuf,
    /// Scratch space, removed when the run ends.
    pub tmp: PathBuf,
    /// Processors the run may use: one, where the kernel lets the harness
    /// confine itself. Every `--jobs` is this.
    pub nproc: usize,
}

impl Config {
    fn jobs(&self) -> String {
        self.nproc.to_string()
    }

    /// A workload runs in segments, each with a set-up of its own before
    /// its share of the timed part, so that the set-ups are spread over the
    /// run like the requests are. A segment lasts about `segment_s` seconds;
    /// a smoke run has one.
    fn segments(&self, segment_s: f64) -> Segments {
        let count = match self.smoke {
            true => 1,
            false => ((self.seconds / segment_s).round() as usize).max(1),
        };
        Segments {
            count,
            seconds: self.seconds / count as f64,
        }
    }

    /// `count`, or a fiftieth of it on a smoke run.
    pub fn scaled(&self, count: u64) -> u64 {
        if self.smoke {
            (count / 50).max(1)
        } else {
            count
        }
    }
}

/// How a run is cut up; see [`Config::segments`].
#[derive(Clone, Copy)]
struct Segments {
    count: usize,
    /// Length of one segment's timed part.
    seconds: f64,
}

/// One repetition or segment of the timed part.
#[derive(Clone, Copy)]
pub struct Sample {
    pub ops_per_s: f64,
    pub cpu_ms_per_op: f64,
    pub p50_us: f64,
}

/// Everything one workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations tried and operations that failed, were refused, or whose
    /// answer did not pass its check.
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Seconds each performance of the set-up took.
    pub setup_s: Vec<f64>,
    pub samples: Vec<Sample>,
    /// Client-observed latency of every request, in microseconds: a wire
    /// request on the serve workloads, a whole `dpopt sweep` on the others.
    /// One list per kind of request the workload sends, each in the order
    /// the answers came: `serve-miss` has a kind per source text, the others
    /// send one kind only.
    pub latencies_us: Vec<Vec<f64>>,
    /// Digest of the sweep's cells without their `cached` member; the same
    /// for every sweep of the workload, cold or warm.
    pub cells_digest: Option<u64>,
    /// Per-layer values read from the workload's own processes.
    pub layer: BTreeMap<&'static str, f64>,
    /// Counts for the run record: repetitions, requests, segments.
    pub counts: BTreeMap<&'static str, u64>,
    /// The `metrics` op's registry dump, saved beside the results.
    pub metrics_dump: Option<String>,
    /// CPU seconds of every child over the whole workload, set-up included;
    /// what the generator's own share is taken against.
    children_cpu_s: f64,
    /// The share of the processors' time the host took away meanwhile.
    pub steal_share: Option<f64>,
}

impl Outcome {
    fn fail(&mut self, ops: u64, error: String) {
        self.failed += ops;
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }
}

pub fn run(name: &str, cfg: &Config) -> Result<Outcome, String> {
    let dir = cfg.tmp.join(name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let awake = KeepAwake::start(cfg.nproc);
    let client_before = proc::cpu_seconds(0);
    let steal_before = awake::steal_ticks();
    let mut outcome = match name {
        "sweep-cold" => sweep_cold(cfg, &dir),
        "sweep-warm" => sweep_warm(cfg, &dir),
        "serve-hit" => serve(cfg, ServeKind::Hit),
        "serve-miss" => serve(cfg, ServeKind::Miss),
        other => Err(format!("unknown workload `{other}`")),
    }?;
    if let (Some(before), Some(after)) = (steal_before, awake::steal_ticks()) {
        let all = after.1.saturating_sub(before.1);
        outcome.steal_share =
            (all > 0).then(|| after.0.saturating_sub(before.0) as f64 / all as f64);
    }
    // The whole run as the clock read it: medians over the samples.
    let column = |f: fn(&Sample) -> f64| outcome.samples.iter().map(f).collect::<Vec<f64>>();
    if !outcome.samples.is_empty() {
        for (name, values) in [
            ("bench.ops_per_s", column(|s| s.ops_per_s)),
            ("bench.cpu_ms_per_op", column(|s| s.cpu_ms_per_op)),
            ("bench.req_p50_us", column(|s| s.p50_us)),
        ] {
            outcome.layer.insert(name, stats::median(&values));
        }
    }
    if let (Some(before), Some(after)) = (client_before, proc::cpu_seconds(0)) {
        // The spinners are this process's threads and no part of the generator.
        let client = ((after.0 + after.1) - (before.0 + before.1) - awake.cpu_seconds()).max(0.0);
        let total = client + outcome.children_cpu_s;
        if total > 0.0 {
            outcome
                .layer
                .insert("bench.client_cpu_share", client / total);
        }
    }
    Ok(outcome)
}

// ----------------------------------------------------------------------
// Sweeps
// ----------------------------------------------------------------------

/// One `dpopt sweep <spec> --jobs <nproc> -o <out>` against `cache_dir`.
pub fn sweep_command(
    cfg: &Config,
    spec: &Path,
    out: &Path,
    cache_dir: &Path,
) -> std::process::Command {
    let mut command = proc::dpopt(&cfg.dpopt);
    command
        .arg("sweep")
        .arg(spec)
        .args(["--jobs", &cfg.jobs(), "-o"])
        .arg(out)
        .env("DPOPT_CACHE_DIR", cache_dir);
    command
}

/// Checks a sweep's `-o` JSON: the cell count, `verified: true` on every
/// cell (the No-CDP program is the independent reference), the `cached`
/// flag — every cell from the cache on a warm sweep, none on a cold one —
/// and returns a digest of the cells without `cached`.
pub fn check_sweep_json(text: &str, expect_cells: usize, cached: bool) -> Result<u64, String> {
    let doc = json::parse(text)?;
    let cells = doc
        .get("cells")
        .and_then(Json::as_array)
        .ok_or("sweep output has no `cells`")?;
    if cells.len() != expect_cells {
        return Err(format!("{} cells, expected {expect_cells}", cells.len()));
    }
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for cell in cells {
        let Json::Object(members) = cell else {
            return Err("a cell is not an object".to_string());
        };
        if members.get("verified") != Some(&Json::Bool(true)) {
            return Err(format!("cell not verified: {cell}"));
        }
        let was_cached = members.get("cached") == Some(&Json::Bool(true));
        if was_cached != cached {
            return Err(format!("cell has cached={was_cached}: {cell}"));
        }
        let mut rest = members.clone();
        rest.remove("cached");
        for byte in Json::Object(rest).to_string().bytes() {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    Ok(digest)
}

fn check_sweep_file(path: &Path, cells: usize, cached: bool) -> Result<u64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    check_sweep_json(&text, cells, cached)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// The sweep spec on disk and its cell count.
struct SpecFile {
    path: PathBuf,
    cells: usize,
}

fn write_spec(text: &str, dir: &Path) -> Result<SpecFile, String> {
    let cells = dp_sweep::spec_from_json(text)?.cell_count();
    let path = dir.join("spec.json");
    write_file(&path, text)?;
    Ok(SpecFile { path, cells })
}

/// Folds one sweep repetition into the outcome: a sample from its
/// `(wall seconds, CPU seconds)` if it ran and passed its checks, all its
/// cells failed otherwise.
fn record_sweep(
    outcome: &mut Outcome,
    cells: usize,
    segment: usize,
    rep: u64,
    checked: Result<(f64, f64), String>,
) {
    let ops = cells as f64;
    match checked {
        Ok((wall_s, cpu_s)) => {
            outcome.samples.push(Sample {
                ops_per_s: ops / wall_s,
                cpu_ms_per_op: cpu_s * 1e3 / ops,
                p50_us: wall_s * 1e6,
            });
            outcome.latencies_us.resize(1, Vec::new());
            outcome.latencies_us[0].push(wall_s * 1e6);
        }
        Err(e) => outcome.fail(cells as u64, format!("segment {segment}, sweep {rep}: {e}")),
    }
}

/// What every sweeping workload records once its repetitions are done.
fn close_sweep(outcome: &mut Outcome, reps: u64, cells: usize, cache_hit_ratio: f64) {
    outcome.counts.insert("reps", reps);
    outcome.counts.insert("cells_per_rep", cells as u64);
    outcome
        .layer
        .insert("sweep.cache_hit_ratio", cache_hit_ratio);
}

fn note_rss(outcome: &mut Outcome, usage: &Usage) {
    let mb = usage.max_rss_kb as f64 / 1024.0;
    let peak = outcome.layer.entry("cli.peak_rss_mb").or_insert(0.0);
    *peak = peak.max(mb);
}

/// Compares a repetition's digest with the first one seen.
fn same_cells(outcome: &mut Outcome, digest: u64) -> Result<(), String> {
    match outcome.cells_digest {
        None => outcome.cells_digest = Some(digest),
        Some(first) if first != digest => {
            return Err(format!(
                "cells differ from the first sweep: {digest:016x} != {first:016x}"
            ))
        }
        Some(_) => {}
    }
    Ok(())
}

/// `sweep-cold`: one series on an empty cache, again and again, in
/// segments of a second with a set-up (some 55 ms) before each.
fn sweep_cold(cfg: &Config, dir: &Path) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let out = dir.join("result.json");
    let segments = cfg.segments(1.0);
    let (mut reps, mut cells) = (0u64, 0);
    for segment in 0..segments.count {
        let started = Instant::now();
        fresh_dir(dir)?;
        let spec_file = write_spec(&spec::cold_spec(cfg.seed), dir)?;
        // Preflight: a two-series sweep proves the binary starts, sweeps
        // and writes where told before anything is timed.
        let preflight = dir.join("preflight.json");
        write_file(&preflight, &spec::preflight_spec(cfg.seed))?;
        let preflight_out = dir.join("preflight.out.json");
        let (_, usage) = proc::run(&mut sweep_command(
            cfg,
            &preflight,
            &preflight_out,
            &dir.join("preflight-cache"),
        ))?;
        outcome.children_cpu_s += usage.cpu_s();
        check_sweep_file(&preflight_out, spec::PREFLIGHT_CELLS, false)?;
        outcome.setup_s.push(started.elapsed().as_secs_f64());

        cells = spec_file.cells;
        let timed = Instant::now();
        let first = reps;
        while reps == first || timed.elapsed().as_secs_f64() < segments.seconds {
            let cache = dir.join("cache");
            fresh_dir(&cache)?;
            outcome.attempted += cells as u64;
            reps += 1;
            let checked = proc::run(&mut sweep_command(cfg, &spec_file.path, &out, &cache))
                .and_then(|(wall_s, usage)| {
                    outcome.children_cpu_s += usage.cpu_s();
                    note_rss(&mut outcome, &usage);
                    let digest = check_sweep_file(&out, cells, false)?;
                    same_cells(&mut outcome, digest)?;
                    Ok((wall_s, usage.cpu_s()))
                });
            record_sweep(&mut outcome, cells, segment, reps, checked);
        }
    }
    close_sweep(&mut outcome, reps, cells, 0.0);
    outcome.counts.insert("segments", segments.count as u64);
    Ok(outcome)
}

/// `sweep-warm`: the same command against a cache one untimed cold sweep
/// filled. Every cell is a hit; the VM never runs. Segments of two seconds:
/// the set-up is the cold fill, a second of it.
fn sweep_warm(cfg: &Config, dir: &Path) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let cache = dir.join("cache");
    let out = dir.join("result.json");
    // Warm runs differ in nothing, so after the first one is checked in
    // full the rest are compared with it byte for byte.
    let mut reference: Option<Vec<u8>> = None;
    let segments = cfg.segments(2.0);
    let (mut reps, mut cells) = (0u64, 0);
    for segment in 0..segments.count {
        let started = Instant::now();
        fresh_dir(dir)?;
        let spec_file = write_spec(&spec::warm_spec(cfg.seed, cfg.smoke), dir)?;
        let (_, usage) = proc::run(&mut sweep_command(cfg, &spec_file.path, &out, &cache))?;
        outcome.children_cpu_s += usage.cpu_s();
        let digest = check_sweep_file(&out, spec_file.cells, false)?;
        same_cells(&mut outcome, digest)?;
        outcome.setup_s.push(started.elapsed().as_secs_f64());

        cells = spec_file.cells;
        let timed = Instant::now();
        let first = reps;
        while reps == first || timed.elapsed().as_secs_f64() < segments.seconds {
            outcome.attempted += cells as u64;
            reps += 1;
            let checked = proc::run(&mut sweep_command(cfg, &spec_file.path, &out, &cache))
                .and_then(|(wall_s, usage)| {
                    outcome.children_cpu_s += usage.cpu_s();
                    note_rss(&mut outcome, &usage);
                    let bytes = std::fs::read(&out).map_err(|e| e.to_string())?;
                    match &reference {
                        Some(first) if *first == bytes => {}
                        Some(_) => return Err("output differs from the first warm run".to_string()),
                        None => {
                            let digest = check_sweep_file(&out, cells, true)?;
                            same_cells(&mut outcome, digest)?;
                            reference = Some(bytes);
                        }
                    }
                    Ok((wall_s, usage.cpu_s()))
                });
            record_sweep(&mut outcome, cells, segment, reps, checked);
        }
    }
    close_sweep(&mut outcome, reps, cells, 1.0);
    outcome.counts.insert("segments", segments.count as u64);
    Ok(outcome)
}

// ----------------------------------------------------------------------
// Daemon load
// ----------------------------------------------------------------------

/// The members of the daemon's `stats` answer the benchmark reads. Their
/// names and nesting are part of the pinned surface (see README.md).
#[derive(Debug, Default, PartialEq)]
pub struct DaemonStats {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub singleflight_waits: u64,
    pub rejects: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub pool_steals: u64,
    pub pool_yields: u64,
    pub disk_stores: u64,
    pub sweep_cells: u64,
}

impl DaemonStats {
    pub fn parse(response: &str) -> Result<DaemonStats, String> {
        let doc = json::parse(response.trim())?;
        let number = |path: &[&str]| -> Result<u64, String> {
            path.iter()
                .try_fold(&doc, |at, key| at.get(key))
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("stats answer lacks `{}`", path.join(".")))
        };
        let sum = |member: &str| -> u64 {
            match doc.get(member) {
                Some(Json::Object(counts)) => counts.values().filter_map(Json::as_u64).sum(),
                _ => 0,
            }
        };
        Ok(DaemonStats {
            cache_hits: number(&["compiled_cache", "hits"])?,
            cache_misses: number(&["compiled_cache", "misses"])?,
            cache_evictions: number(&["compiled_cache", "evictions"])?,
            singleflight_waits: number(&["compiled_cache", "singleflight_waits"])?,
            rejects: sum("rejects"),
            bytes_read: number(&["bytes", "read_inorder"])? + number(&["bytes", "read_pipelined"])?,
            bytes_written: number(&["bytes", "written_inorder"])?
                + number(&["bytes", "written_pipelined"])?,
            pool_steals: number(&["pool", "steals"])?,
            pool_yields: number(&["pool", "yields"])?,
            disk_stores: number(&["disk_cache", "stores"])?,
            // Absent until the first `sweep-cell` request arrives.
            sweep_cells: number(&["requests", "sweep-cell"]).unwrap_or(0),
        })
    }

    /// Adds another daemon's counts to these.
    fn add(&mut self, other: &DaemonStats) {
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.singleflight_waits += other.singleflight_waits;
        self.rejects += other.rejects;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.pool_steals += other.pool_steals;
        self.pool_yields += other.pool_yields;
        self.disk_stores += other.disk_stores;
        self.sweep_cells += other.sweep_cells;
    }

    pub fn read(daemon: &Daemon) -> Result<DaemonStats, String> {
        DaemonStats::parse(&daemon.request(r#"{"op":"stats"}"#)?)
    }
}

#[derive(Clone, Copy, PartialEq)]
pub enum ServeKind {
    Hit,
    Miss,
}

/// How a daemon workload starts its daemon.
pub struct ServeShape {
    pub args: &'static [&'static str],
    /// Requests that prove the daemon answers before anything is timed. The
    /// warming itself is the load's lead-in window.
    pub warmup: u64,
}

impl ServeKind {
    pub fn shape(self) -> ServeShape {
        match self {
            ServeKind::Hit => ServeShape {
                args: &[],
                warmup: 100,
            },
            // The lead-in window's requests fill the 64-entry cache several
            // times over, so the timed part starts with eviction already in
            // steady state.
            ServeKind::Miss => ServeShape {
                args: &["--cache-capacity", "64"],
                warmup: 21,
            },
        }
    }
}

/// Builds requests and checks answers for one kind of daemon load.
pub struct Traffic {
    kind: ServeKind,
    seed: u64,
    sources: Vec<&'static str>,
}

impl Traffic {
    pub fn new(kind: ServeKind, seed: u64) -> Traffic {
        let sources = dp_workloads::all_benchmarks()
            .iter()
            .map(|b| b.cdp_source())
            .collect();
        Traffic {
            kind,
            seed,
            sources,
        }
    }

    /// How many kinds of request this traffic is made of, and which of them
    /// request `seq` is. Requests of one kind cost the same.
    pub fn kinds(&self) -> usize {
        match self.kind {
            ServeKind::Hit => 1,
            ServeKind::Miss => self.sources.len(),
        }
    }

    pub fn kind_of(&self, seq: u64) -> usize {
        (seq % self.kinds() as u64) as usize
    }

    pub fn request(&self, seq: u64) -> String {
        match self.kind {
            ServeKind::Hit => spec::hit_request(seq),
            ServeKind::Miss => format!(
                r#"{{"op":"transform","source":{},{},"id":{seq}}}"#,
                Json::Str(spec::miss_source(&self.sources, self.seed, seq)),
                spec::MISS_CONFIG
            ),
        }
    }

    /// `serve-hit` answers are known by construction. Of the `serve-miss`
    /// answers, one in a hundred is compared byte for byte with what the
    /// compiler gives in this process for the same text, and parsed again.
    pub fn check(&self, seq: u64, response: &str) -> Result<(), String> {
        if !response.contains(r#""ok":true"#) {
            return Err(format!("not ok: {}", response.trim()));
        }
        match self.kind {
            ServeKind::Hit if response.contains(spec::HIT_EXPECT) => Ok(()),
            ServeKind::Hit => Err(format!("wrong output: {}", response.trim())),
            ServeKind::Miss if !seq.is_multiple_of(100) => Ok(()),
            ServeKind::Miss => {
                let doc = json::parse(response.trim())?;
                let answered = doc
                    .get("source")
                    .and_then(Json::as_str)
                    .ok_or("transform answer has no `source`")?;
                // The request's own text says what to compile and how.
                let Request::Transform { source, config } =
                    proto::parse_request(&self.request(seq)).body?
                else {
                    return Err("the miss request is not a `transform`".to_string());
                };
                let expected = dp_core::Compiler::new()
                    .config(config)
                    .compile(&source)
                    .map_err(|e| e.to_string())?;
                if answered != expected.transformed_source() {
                    return Err("transformed source differs from the in-process compiler's".into());
                }
                dp_frontend::parse(answered)
                    .map(|_| ())
                    .map_err(|e| format!("transformed source does not parse: {e}"))
            }
        }
    }

    /// Starts a daemon of this kind's shape and warms it up with requests
    /// numbered from `first_seq`. Returns the daemon and the first sequence
    /// number after the warm-up's.
    pub fn start(
        &self,
        cfg: &Config,
        env: &[(&str, &str)],
        first_seq: u64,
    ) -> Result<(Daemon, u64), String> {
        let shape = self.kind.shape();
        let mut args = vec!["--jobs".to_string(), cfg.jobs()];
        args.extend(shape.args.iter().map(|a| a.to_string()));
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let daemon = Daemon::spawn(&cfg.dpopt, &args, env)?;
        let warmup = cfg.scaled(shape.warmup);
        let warmed = self.load(&daemon, Stop::Count(warmup), first_seq);
        if warmed.failed > 0 || warmed.completions.len() as u64 != warmup {
            return Err(format!("warm-up failed: {:?}", warmed.errors));
        }
        Ok((daemon, first_seq + warmup))
    }

    /// One client that sends its next request when the last is answered.
    /// More in flight than that and, on a host that lends its processors out
    /// (README.md, "Steadiness"), a request's time is the queue's, which is
    /// the host's.
    pub fn load(&self, daemon: &Daemon, stop: Stop, first_seq: u64) -> load::LoadResult {
        load::run(&Load {
            addr: &daemon.addr,
            stop,
            request: &|seq| self.request(seq),
            first_seq,
            check: &|seq, response| self.check(seq, response),
        })
    }
}

/// Length of one segment of a daemon load.
const SEGMENT_S: f64 = 0.5;

/// Requests at the start of a segment that are not measured: the daemon's
/// threads are being started and the `serve-miss` cache is filling.
const LEAD_IN_REQUESTS: usize = 100;

/// `serve-hit` and `serve-miss`: one client, one request at a time, for
/// `cfg.seconds` in all, in segments of half a second with a fresh daemon
/// (the set-up, some 10 or 30 ms) for each.
fn serve(cfg: &Config, kind: ServeKind) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let traffic = Traffic::new(kind, cfg.seed);
    outcome.latencies_us = vec![Vec::new(); traffic.kinds()];
    let segments = cfg.segments(SEGMENT_S);
    let mut stats = DaemonStats::default();
    let mut usage = Usage::default();
    let mut threads_peak = 0u64;
    let mut next_seq = 0u64;
    for _ in 0..segments.count {
        let setup = Instant::now();
        let (daemon, first_seq) = traffic.start(cfg, &[], next_seq)?;
        outcome.setup_s.push(setup.elapsed().as_secs_f64());
        let warmup = first_seq - next_seq;
        outcome.counts.insert("warmup_requests", warmup);

        // Beside the load, the daemon's thread count is read now and then
        // (thread-per-request made visible).
        let pid = daemon.pid();
        let loading = AtomicBool::new(true);
        let stop = Stop::After(Duration::from_secs_f64(segments.seconds));
        let (loaded, threads) = std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut threads = 0u64;
                while loading.load(Ordering::Relaxed) {
                    threads = threads.max(proc::thread_count(pid).unwrap_or(0));
                    std::thread::sleep(Duration::from_millis(50));
                }
                threads
            });
            let loaded = traffic.load(&daemon, stop, first_seq);
            loading.store(false, Ordering::Relaxed);
            (loaded, sampler.join().expect("sampler thread"))
        });
        next_seq = first_seq + loaded.attempted;
        threads_peak = threads_peak.max(threads);
        stats.add(&DaemonStats::read(&daemon)?);
        outcome.metrics_dump = Some(daemon.request(r#"{"op":"metrics"}"#)?);
        let used = daemon.shutdown()?;
        note_rss(&mut outcome, &used);
        usage.user_s += used.user_s;
        usage.sys_s += used.sys_s;

        outcome.attempted += loaded.attempted;
        outcome.failed += loaded.failed;
        outcome.errors.extend(loaded.errors);
        outcome.errors.truncate(5);
        let measured = loaded.completions.get(LEAD_IN_REQUESTS..).unwrap_or(&[]);
        if let (Some(first), Some(last)) = (measured.first(), measured.last()) {
            let mut latencies: Vec<f64> = measured.iter().map(|c| c.latency_us).collect();
            stats::sort(&mut latencies);
            outcome.samples.push(Sample {
                ops_per_s: measured.len() as f64
                    / (last.at_s - first.at_s + first.latency_us / 1e6),
                // The daemon's whole life: start, warm-up and lead-in too.
                cpu_ms_per_op: used.cpu_s() * 1e3 / (warmup + loaded.attempted) as f64,
                p50_us: stats::median_sorted(&latencies),
            });
        }
        for c in measured {
            outcome.latencies_us[traffic.kind_of(c.seq)].push(c.latency_us);
        }
    }
    outcome.children_cpu_s += usage.cpu_s();

    let mut sorted = outcome.latencies_us.concat();
    if !sorted.is_empty() {
        // The tail is the host's as much as the daemon's (a stall of the
        // virtual machine is as long as the p99 itself), so it is reported
        // beside the layers and not bounded.
        stats::sort(&mut sorted);
        for (name, q) in [("serve.req_p99_us", 0.99), ("serve.req_p999_us", 0.999)] {
            outcome
                .layer
                .insert(name, stats::percentile_sorted(&sorted, q));
        }
    }
    outcome.counts.insert("requests", outcome.attempted);
    outcome.counts.insert("segments", segments.count as u64);

    let lookups = stats.cache_hits + stats.cache_misses;
    for (name, value) in [
        ("serve.cache.hits", stats.cache_hits as f64),
        ("serve.cache.misses", stats.cache_misses as f64),
        ("serve.cache.evictions", stats.cache_evictions as f64),
        (
            "serve.cache.singleflight_waits",
            stats.singleflight_waits as f64,
        ),
        (
            "serve.cache.hit_ratio",
            stats.cache_hits as f64 / lookups.max(1) as f64,
        ),
        ("serve.rejects", stats.rejects as f64),
        ("serve.bytes_read", stats.bytes_read as f64),
        ("serve.bytes_written", stats.bytes_written as f64),
        ("pool.steals", stats.pool_steals as f64),
        ("pool.yields", stats.pool_yields as f64),
        ("serve.threads_peak", threads_peak as f64),
        (
            "serve.cpu_user_share",
            usage.user_s / usage.cpu_s().max(f64::MIN_POSITIVE),
        ),
    ] {
        outcome.layer.insert(name, value);
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_pinned_stats_shape() {
        let response = r#"{"bytes":{"read_inorder":15,"read_pipelined":658,"written_inorder":1,"written_pipelined":164},"compiled_cache":{"entries":2,"evictions":3,"hits":40,"misses":2,"singleflight_waits":1},"disk_cache":{"enabled":false,"hits":0,"misses":0,"quarantined":0,"stores":7},"inflight":1,"jobs":2,"ok":true,"op":"stats","pool":{"idle":1,"queued":0,"steals":5,"threads":1,"yields":6},"rejects":{"overloaded":2,"deadline_exceeded":1},"requests":{"execute":1,"stats":1,"sweep-cell":63}}
"#;
        assert_eq!(
            DaemonStats::parse(response).unwrap(),
            DaemonStats {
                cache_hits: 40,
                cache_misses: 2,
                cache_evictions: 3,
                singleflight_waits: 1,
                rejects: 3,
                bytes_read: 673,
                bytes_written: 165,
                pool_steals: 5,
                pool_yields: 6,
                disk_stores: 7,
                sweep_cells: 63,
            }
        );
        let err = DaemonStats::parse(r#"{"ok":true,"op":"stats"}"#).unwrap_err();
        assert!(err.contains("compiled_cache.hits"), "{err}");
    }

    #[test]
    fn sweep_json_check_catches_what_it_should() {
        let cell = |variant: &str, verified: bool, cached: bool| {
            format!(
                r#"{{"benchmark":"BFS","cached":{cached},"dataset":"KRON","instructions":5,"total_us":1.5,"variant":"{variant}","verified":{verified}}}"#
            )
        };
        let doc = |cells: &[String]| format!(r#"{{"cache_hits":0,"cells":[{}]}}"#, cells.join(","));
        let cold = doc(&[cell("No CDP", true, false), cell("CDP", true, false)]);
        let warm = doc(&[cell("No CDP", true, true), cell("CDP", true, true)]);
        // The digest ignores `cached` and nothing else.
        let digest = check_sweep_json(&cold, 2, false).unwrap();
        assert_eq!(check_sweep_json(&warm, 2, true).unwrap(), digest);
        let other = doc(&[cell("No CDP", true, false), cell("CDP+T", true, false)]);
        assert_ne!(check_sweep_json(&other, 2, false).unwrap(), digest);
        assert!(check_sweep_json(&cold, 3, false)
            .unwrap_err()
            .contains("expected 3"));
        assert!(check_sweep_json(&cold, 2, true)
            .unwrap_err()
            .contains("cached=false"));
        let unverified = doc(&[cell("No CDP", true, false), cell("CDP", false, false)]);
        assert!(check_sweep_json(&unverified, 2, false)
            .unwrap_err()
            .contains("not verified"));
    }

    #[test]
    fn traffic_checks_answers() {
        let hit = Traffic::new(ServeKind::Hit, 1);
        assert!(hit
            .check(
                1,
                r#"{"id":1,"ok":true,"outputs":[{"buffer":"d","ints":[0,1,2,3]}]}"#
            )
            .is_ok());
        assert!(hit
            .check(
                1,
                r#"{"id":1,"ok":true,"outputs":[{"buffer":"d","ints":[0,1,2,4]}]}"#
            )
            .is_err());
        assert!(hit.check(1, r#"{"error":"x","id":1,"ok":false}"#).is_err());

        let miss = Traffic::new(ServeKind::Miss, 1);
        assert!(proto::parse_request(&miss.request(100)).body.is_ok());
        assert_ne!(miss.request(100), miss.request(107));
        // Request 100 is one of those compared with the in-process compiler.
        let wrong = r#"{"id":100,"ok":true,"op":"transform","source":"__global__ void k() { }\n"}"#;
        assert!(miss.check(100, wrong).unwrap_err().contains("differs"));
        assert!(miss.check(101, wrong).is_ok());
    }
}
