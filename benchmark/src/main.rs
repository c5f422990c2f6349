//! `dpbench` — one benchmark for sweeps, the daemon and the fleet, with a
//! per-layer ladder. See `benchmark/README.md` for what is measured and why.
//!
//! ```text
//! dpbench --dpopt <binary> --out <dir> [--workload W] [--seed N]
//!         [--seconds S] [--trace 0|1] [--smoke]
//! dpbench compare A.json B.json
//! ```
//!
//! Without `--workload` every workload runs. With it, the last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer ones
//! with `--trace 1`.

mod awake;
mod compare;
mod ladder;
mod load;
mod proc;
mod spec;
mod stats;
mod workloads;

use dp_sweep::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Config, Outcome};

struct Args {
    dpopt: Option<PathBuf>,
    out: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        dpopt: None,
        out: PathBuf::from("benchmark/out"),
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        compare: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--dpopt" => args.dpopt = Some(PathBuf::from(value("a path")?)),
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--workload" => {
                let name = value("a name")?;
                if !spec::WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload `{name}`"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative integer")?
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                }
            }
            "--smoke" => args.smoke = true,
            "compare" => args.compare = Some((value("two files")?, value("two files")?)),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("dpbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// `Ok(false)`: the run completed but an output check failed, an operation
/// failed, or `compare` found a regression.
fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    if let Some((a, b)) = &args.compare {
        let regressed = compare::run(a, b)?;
        return Ok(regressed == 0);
    }
    let dpopt = args
        .dpopt
        .clone()
        .ok_or("--dpopt <path to the dpopt binary> is required")?;
    if !dpopt.is_file() {
        return Err(format!("{} is not a file", dpopt.display()));
    }
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    // Absolute, because child processes are given paths under it.
    let out = args.out.canonicalize().map_err(|e| e.to_string())?;
    let tmp = out.join("tmp");
    let _ = std::fs::remove_dir_all(&tmp);
    let _cleanup = proc::Cleanup { tmp: tmp.clone() };
    // One processor for the harness and everything it starts (README.md,
    // "Steadiness"); `nproc` is 1 from here on where the kernel allows it.
    let host_nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let pinned = awake::pin_to_one_processor();
    if pinned.is_none() {
        eprintln!("dpbench: cannot confine the run to one processor; it uses all of them");
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 0.5 } else { spec::RUN_SECONDS });
    let cfg = Config {
        seed: args.seed,
        // The traced run spends most of its time in the ladders; the
        // workload itself runs just long enough for its processes' stats.
        seconds: if args.trace {
            (seconds * 0.3).max(1.0)
        } else {
            seconds
        },
        smoke: args.smoke,
        dpopt: dpopt.canonicalize().map_err(|e| e.to_string())?,
        tmp,
        nproc,
    };

    let mut host = host_record(host_nproc);
    host.insert(
        "pinned_to".to_string(),
        pinned.map_or(Json::Null, |cpu| Json::Int(cpu as i64)),
    );
    let mut warnings = Vec::new();
    let names: Vec<&str> = spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| args.workload.as_deref().is_none_or(|w| w == *name))
        .collect();

    let layers = match args.trace {
        true => {
            let _awake = awake::KeepAwake::start(nproc);
            Some(ladder::run(&cfg, &out)?)
        }
        false => None,
    };
    let mut reports = BTreeMap::new();
    let mut all_correct = true;
    let mut last_line = None;
    for name in names {
        eprintln!("dpbench: {name} (seed {}, {:.1} s)", cfg.seed, cfg.seconds);
        let mut outcome = workloads::run(name, &cfg)?;
        // Other tenants' work widens every spread; the run goes on, but the
        // result says so.
        if let Some(share) = outcome
            .steal_share
            .filter(|share| *share > NOISY_STEAL_SHARE)
        {
            let warning = format!(
                "noisy-host: the host took {:.0} % of the processors' time away during {name}",
                share * 100.0
            );
            eprintln!("dpbench: {warning}");
            warnings.push(Json::Str(warning));
        }
        if let Some(dump) = outcome.metrics_dump.take() {
            let path = out.join(format!("metrics-{name}.json"));
            std::fs::write(&path, dump).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        if let Some(layers) = &layers {
            outcome.attempted += layers.attempted;
            outcome.failed += layers.failed;
            outcome.errors.extend(layers.errors.iter().cloned());
        }
        let metrics = match &layers {
            None => end_to_end(&outcome)?,
            Some(layers) => per_layer(&outcome, layers),
        };
        let correct = outcome.failed == 0 && outcome.attempted > 0;
        all_correct &= correct;
        print_report(name, &outcome, &metrics);
        last_line = Some(contract_line(correct, &outcome, &metrics));
        let mut report = report_json(correct, &outcome, &metrics);
        let why = spec::WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .map(|w| w.why);
        report.insert(
            "why".to_string(),
            Json::Str(why.unwrap_or_default().to_string()),
        );
        reports.insert(name.to_string(), Json::Object(report));
    }

    host.insert("loadavg_end".to_string(), Json::Str(loadavg()));
    if !warnings.is_empty() {
        host.insert("warnings".to_string(), Json::Array(warnings));
    }
    let result = Json::Object(BTreeMap::from([
        ("benchmark".to_string(), Json::Str("dpbench".to_string())),
        ("seed".to_string(), Json::Int(cfg.seed as i64)),
        ("seconds".to_string(), Json::Float(cfg.seconds)),
        ("smoke".to_string(), Json::Bool(cfg.smoke)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("host".to_string(), Json::Object(host)),
        ("workloads".to_string(), Json::Object(reports)),
    ]));
    let path = out.join(if args.trace {
        "trace-result.json"
    } else {
        "result.json"
    });
    std::fs::write(&path, format!("{result}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if let (Some(_), Some(line)) = (&args.workload, last_line) {
        println!("{line}");
    }
    Ok(all_correct)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    better: spec::Better,
    bound: Option<f64>,
    value: f64,
    /// The same statistic over parts of the run; for the run record and for
    /// `compare`'s spread.
    samples: Vec<f64>,
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(outcome: &Outcome) -> Result<Vec<Metric>, String> {
    if outcome.latencies_us.iter().any(Vec::is_empty)
        || outcome.latencies_us.is_empty()
        || outcome.setup_s.is_empty()
    {
        return Err(format!("nothing was measured: {:?}", outcome.errors));
    }
    Ok(spec::END_TO_END
        .iter()
        .map(|m| {
            let (value, samples) = match m.name {
                // The fast end of the whole run, and of up to ten consecutive
                // slices of it with a hundred requests or more of a kind in
                // each.
                "req_fast_us" => {
                    let kinds = &outcome.latencies_us;
                    let fewest = kinds.iter().map(Vec::len).min().unwrap_or(0);
                    let slices = (fewest / 100).clamp(1, 10);
                    let samples = (0..slices)
                        .map(|i| {
                            let part = |kind: &Vec<f64>| {
                                kind[i * kind.len() / slices..(i + 1) * kind.len() / slices]
                                    .to_vec()
                            };
                            stats::fast_end_of_kinds(&kinds.iter().map(part).collect::<Vec<_>>())
                        })
                        .collect();
                    (stats::fast_end_of_kinds(kinds), samples)
                }
                // The fastest of the run's set-ups, by the same reasoning,
                // and of up to ten consecutive slices of them.
                "setup_s" => {
                    let fastest =
                        |times: &[f64]| times.iter().copied().fold(f64::INFINITY, f64::min);
                    let setups = &outcome.setup_s;
                    let samples = setups
                        .chunks(setups.len().div_ceil(10))
                        .map(fastest)
                        .collect();
                    (fastest(setups), samples)
                }
                other => unreachable!("end-to-end metric `{other}` has no definition"),
            };
            Metric {
                name: m.name,
                unit: m.unit,
                better: m.better,
                bound: Some(m.bound),
                value,
                samples,
            }
        })
        .collect())
}

/// The per-layer metrics of a traced run: the ladders' values and the
/// workload's own; a layer the workload has no process for reads 0.
fn per_layer(outcome: &Outcome, layers: &ladder::Layers) -> Vec<Metric> {
    spec::PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            unit: m.unit,
            better: m.better,
            bound: None,
            value: outcome
                .layer
                .get(m.name)
                .or_else(|| layers.values.get(m.name))
                .copied()
                // A ratio over nothing (no grids, no lookups) reads 0 too.
                .filter(|value| value.is_finite())
                .unwrap_or(0.0),
            samples: Vec::new(),
        })
        .collect()
}

fn print_report(name: &str, outcome: &Outcome, metrics: &[Metric]) {
    println!(
        "== {name}: {} attempted, {} failed{}",
        outcome.attempted,
        outcome.failed,
        outcome
            .counts
            .iter()
            .map(|(k, v)| format!(", {k} {v}"))
            .collect::<String>()
    );
    for error in &outcome.errors {
        println!("   FAILED: {error}");
    }
    for m in metrics {
        println!("   {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if metrics.iter().any(|m| m.name == "req_fast_us") {
        // Beside the bounded metrics, none of it bounded: the whole run as
        // the clock read it, whatever the host did meanwhile.
        for m in spec::PER_LAYER
            .iter()
            .filter(|m| m.name.starts_with("bench."))
        {
            if let Some(value) = outcome.layer.get(m.name) {
                println!("   {:<34} {value:>16.4} {}", m.name, m.unit);
            }
        }
        let mut latencies = outcome.latencies_us.concat();
        stats::sort(&mut latencies);
        for (name, q) in [("req_p99_us", 0.99), ("req_p99.9_us", 0.999)] {
            println!(
                "   {name:<34} {:>16.4} us (n = {})",
                stats::percentile_sorted(&latencies, q),
                latencies.len()
            );
        }
        if let Some(share) = outcome.steal_share {
            println!(
                "   {:<34} {share:>16.4} ratio (processor time the host took away)",
                "host_steal_share"
            );
        }
    }
    if metrics.iter().any(|m| m.name == "sim.geomean_tca_over_cdp") {
        println!(
            "   simulated speed-ups stand beside the paper's 43.0x (over CDP), 8.7x (over No CDP) \
             and 3.6x (over aggregation alone); the timing model is unvalidated at this scale"
        );
    }
}

/// The line the driver reads.
fn contract_line(correct: bool, outcome: &Outcome, metrics: &[Metric]) -> Json {
    let metrics = metrics
        .iter()
        .map(|m| {
            let entry = BTreeMap::from([
                ("value".to_string(), Json::Float(m.value)),
                ("unit".to_string(), Json::Str(m.unit.to_string())),
            ]);
            (m.name.to_string(), Json::Object(entry))
        })
        .collect();
    Json::Object(BTreeMap::from([
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Int(outcome.attempted as i64)),
        ("failed".to_string(), Json::Int(outcome.failed as i64)),
        ("metrics".to_string(), Json::Object(metrics)),
    ]))
}

/// A workload's entry in the result file.
fn report_json(correct: bool, outcome: &Outcome, metrics: &[Metric]) -> BTreeMap<String, Json> {
    let metrics = metrics
        .iter()
        .map(|m| {
            let mut entry = BTreeMap::from([
                ("value".to_string(), Json::Float(m.value)),
                ("unit".to_string(), Json::Str(m.unit.to_string())),
                (
                    "better".to_string(),
                    Json::Str(m.better.as_str().to_string()),
                ),
            ]);
            if let Some(bound) = m.bound {
                entry.insert("bound".to_string(), Json::Float(bound));
                let samples = m.samples.iter().map(|s| Json::Float(*s)).collect();
                entry.insert("samples".to_string(), Json::Array(samples));
            }
            (m.name.to_string(), Json::Object(entry))
        })
        .collect();
    let counts = outcome
        .counts
        .iter()
        .map(|(k, v)| (k.to_string(), Json::Int(*v as i64)))
        .collect();
    let errors = outcome.errors.iter().cloned().map(Json::Str).collect();
    let mut report = BTreeMap::from([
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Int(outcome.attempted as i64)),
        ("failed".to_string(), Json::Int(outcome.failed as i64)),
        (
            "failed_share".to_string(),
            Json::Float(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        ),
        ("errors".to_string(), Json::Array(errors)),
        ("counts".to_string(), Json::Object(counts)),
        (
            "latency_samples".to_string(),
            Json::Int(outcome.latencies_us.iter().map(Vec::len).sum::<usize>() as i64),
        ),
        ("metrics".to_string(), Json::Object(metrics)),
    ]);
    if let Some(share) = outcome.steal_share {
        report.insert("host_steal_share".to_string(), Json::Float(share));
    }
    if let Some(digest) = outcome.cells_digest {
        report.insert(
            "cells_digest".to_string(),
            Json::Str(format!("{digest:016x}")),
        );
    }
    report
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

/// Stolen processor time above this share of a workload's puts a
/// `noisy-host` warning into the result. With the processors kept awake
/// ([`awake`]) a quiet host stays under 0.01.
const NOISY_STEAL_SHARE: f64 = 0.05;

/// Where and on what the numbers were taken.
fn host_record(nproc: usize) -> BTreeMap<String, Json> {
    let command_line = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    BTreeMap::from([
        ("nproc".to_string(), Json::Int(nproc as i64)),
        (
            "rustc".to_string(),
            Json::Str(command_line("rustc", &["-V"])),
        ),
        (
            "git_head".to_string(),
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        // While a workload runs the load counts the spinners that keep the
        // processors awake, so it reads `nproc` or more from the second
        // workload on.
        ("loadavg_start".to_string(), Json::Str(loadavg())),
    ])
}
