//! `dpopt` — command-line source-to-source optimizer for CUDA-subset
//! dynamic-parallelism code (the analogue of the paper artifact's Clang
//! tool: `.cu` in, transformed `.cu` out), plus front doors to the
//! `dp-sweep` experiment-orchestration engine and the `dp-serve`
//! persistent compile-and-execute daemon.
//!
//! ```text
//! dpopt transform input.cu [--threshold N] [--coarsen F]
//!       [--agg warp|block|multiblock:K|grid] [--agg-threshold N] [-o out.cu]
//!       [--remote ADDR]
//! dpopt info input.cu
//! dpopt sweep spec.json [--jobs N] [--no-cache] [--cache-stats] [-o out.json]
//!       [--remote ADDR[,ADDR...]]
//! dpopt sweep --gc [--max-cache-mb N]
//! dpopt cache verify [--repair] [--dir PATH]
//! dpopt cache sync ADDR[,ADDR...] [--dir PATH]
//! dpopt serve [--listen ADDR | --unix PATH] [--jobs N] [--cache-capacity N]
//!       [--auth-token TOKEN] [--disk-cache DIR] [--max-disk-cache-mb N]
//! dpopt client (--connect ADDR | --unix PATH) [requests.ndjson|-] [--op OP]
//!       [--token TOKEN]
//! ```

use dp_core::{AggConfig, Compiler, OptConfig};
use dp_obs::json::{self, Json};
use dp_serve::proto::{bare_request, Endpoint};
use dp_serve::{ServeOptions, Server};
use dp_sweep::spec::{checked_coarsen_factor, parse_granularity};
use dp_sweep::{run_sweep, spec_from_json, SweepOptions, SweepResult};
use std::io::{BufRead, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Help is decided here, once: no subcommand parser knows the flag.
    let help = args.iter().any(|a| a == "--help" || a == "-h");
    let Some(command) = args.first().filter(|_| !help) else {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    };
    match command.as_str() {
        "transform" => transform(&args[1..]),
        "info" => info(&args[1..]),
        "sweep" => sweep(&args[1..]),
        "cache" => cache_cmd(&args[1..]),
        "serve" => serve(&args[1..]),
        "client" => client(&args[1..]),
        "trace-report" => trace_report(&args[1..]),
        "--version" | "-V" => {
            println!("dpopt {}", env!("CARGO_PKG_VERSION"));
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
dpopt — optimize GPU dynamic parallelism (thresholding, coarsening, aggregation)

USAGE:
    dpopt transform <input.cu> [OPTIONS]
    dpopt info <input.cu>
    dpopt sweep <spec.json> [OPTIONS]
    dpopt cache verify [--repair] [--dir <path>]
    dpopt cache sync <addr,...> [--dir <path>]
    dpopt serve [OPTIONS]
    dpopt client (--connect <addr> | --unix <path>) [requests.ndjson|-] [--op <op>]
    dpopt trace-report <trace.jsonl> [--tree | --collapse]
    dpopt --version

TRANSFORM OPTIONS:
    --threshold <N>        serialize child grids below N threads (pass T)
    --coarsen <F>          coarsen child blocks by factor F >= 1 (pass C)
    --agg <G>              aggregate launches; G = warp | block | multiblock:<K> | grid
                           (K >= 1)
    --agg-threshold <N>    aggregation threshold (requires --agg)
    -o <file>              write transformed source to file (default: stdout)
    --remote <addr>        transform on a dp-serve daemon (host:port or unix:/path)

INFO:
    prints kernels, launch sites, and serializability diagnostics

SWEEP OPTIONS:
    --jobs <N>             worker threads; sizes the process-wide shared
                           pool (precedence: --jobs > DPOPT_JOBS > cores)
    --no-cache             ignore and do not populate .dpopt-cache/
    --cache-stats          print cache hit/miss counters after the table
    -o <file>              also write the merged results as JSON
    --gc                   evict least-recently-used cache entries instead
                           of sweeping (no spec file needed)
    --max-cache-mb <N>     cache size budget for --gc (default: 512)
    --remote <addr,...>    shard the cells across one or more dp-serve
                           daemons (comma-separated): locally cached cells
                           short-circuit, the rest are routed by rendezvous
                           hash, streamed pipelined, and merged in spec
                           order — stdout is byte-identical to a local
                           sequential run, even if a daemon dies mid-sweep

CACHE:
    verify                 fsck the sweep result cache: re-checksum every
                           entry, report torn / corrupt / stale-version /
                           quarantined files; exits non-zero when problems
                           remain
    --repair               remove every problem entry it reports (they
                           recompute on the next sweep)
    --dir <path>           cache directory (default: DPOPT_CACHE_DIR or
                           .dpopt-cache)
    sync <addr,...>        converge the local cache and every listed
                           daemon's --disk-cache to the union of their
                           entries (sealed bytes travel verbatim; each
                           receipt re-verifies the checksum and
                           quarantines corrupt payloads)

SERVE OPTIONS:
    --listen <addr>        TCP listen address (default: 127.0.0.1:7477)
    --unix <path>          listen on a Unix socket instead
    --jobs <N>             cap on concurrently-executing requests, run on
                           the shared DPOPT_JOBS pool (default: configured
                           jobs)
    --cache-capacity <N>   compiled-program cache entries (default: 64)
    --max-connections <N>  cap on live sessions; extras get one structured
                           `overloaded` error line (default: 0 = unlimited)
    --max-queue-depth <N>  cap on requests waiting for an execution slot;
                           past it requests fast-fail with an `overloaded`
                           error (default: 0 = unlimited)
    --request-timeout-ms <N>  deadline for queued work: requests still
                           waiting when it expires answer
                           `deadline_exceeded` (default: 0 = none)
    --max-request-bytes <N>  cap on one request line; oversized lines get
                           a `too_large` error, then the connection closes
                           (default: 8388608, 0 = unlimited)
    --metrics-dump-secs <N>  dump a metrics-registry snapshot to stderr
                           every N seconds (default: 0 = off)
    --auth-token <TOKEN>   require clients to authenticate with this token
                           (a `hello` op) before any other request; falls
                           back to DPOPT_SERVE_TOKEN when the flag is
                           absent
    --disk-cache <dir>     serve sweep-cell responses from (and populate)
                           a checksummed on-disk result cache that
                           survives daemon restarts
    --max-disk-cache-mb <N>  disk-cache size budget: after each store the
                           directory is trimmed to N MB with LRU eviction
                           (default: 0 = unbounded)

CLIENT:
    forwards newline-delimited JSON requests (a file, or `-`/nothing for
    stdin) to a dp-serve daemon and prints one response line each;
    --op stats|metrics|shutdown sends that single request instead;
    --token <TOKEN> authenticates first (default: DPOPT_SERVE_TOKEN)

TRACE REPORT:
    summarizes a DPOPT_TRACE span log (JSONL): per-span-name table of
    count/total/avg/max by default, --tree prints the largest request
    tree, --collapse emits folded stacks for flamegraph tooling
";

/// Reads an input file, failing with a message that names the path.
fn read_input(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| fail(&format!("cannot read `{path}`: {e}")))
}

fn transform(args: &[String]) -> ExitCode {
    let mut input = None;
    let mut output = None;
    let mut config = OptConfig::none();
    let mut agg_threshold = None;
    let mut remote = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threshold" => match parse_arg(args, &mut i) {
                Some(v) => config = config.threshold(v),
                None => return fail("--threshold needs an integer"),
            },
            "--coarsen" => match parse_arg(args, &mut i).map(checked_coarsen_factor) {
                Some(Ok(v)) => config = config.coarsen_factor(v),
                Some(Err(msg)) => return fail(&msg),
                None => return fail("--coarsen needs an integer"),
            },
            "--agg" => {
                i += 1;
                let Some(spec) = args.get(i) else {
                    return fail("--agg needs a granularity");
                };
                let granularity = match parse_granularity(spec) {
                    Some(g) => g,
                    None => {
                        return fail("granularity must be warp|block|multiblock:<K>|grid, K >= 1")
                    }
                };
                config = config.aggregation(AggConfig::new(granularity));
                i += 1;
            }
            "--agg-threshold" => match parse_arg(args, &mut i) {
                Some(v) => agg_threshold = Some(v),
                None => return fail("--agg-threshold needs an integer"),
            },
            "--remote" => match parse_endpoints_arg(args, &mut i).and_then(first_reachable) {
                Ok(e) => remote = Some(e),
                Err(code) => return code,
            },
            "-o" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    return fail("-o needs a path");
                };
                output = Some(path.clone());
                i += 1;
            }
            other if input.is_none() && !other.starts_with('-') => {
                input = Some(other.to_string());
                i += 1;
            }
            other => return fail(&format!("unexpected argument `{other}`")),
        }
    }
    match (agg_threshold, &mut config.aggregation) {
        (Some(t), Some(agg)) => agg.agg_threshold = Some(t),
        (Some(_), None) => {
            // Silently ignoring the flag would report unaggregated numbers
            // as if the threshold had been applied.
            return fail("--agg-threshold requires --agg (e.g. --agg block)");
        }
        _ => {}
    }
    let Some(input) = input else {
        return fail("missing input file (usage: dpopt transform <input.cu>)");
    };
    let source = match read_input(&input) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let (transformed, diagnostics) = if let Some(endpoint) = remote {
        match dp_serve::client::remote_transform(&endpoint, &source, &config) {
            Ok(pair) => pair,
            Err(e) => return fail(&e),
        }
    } else {
        let compiled = match Compiler::new().config(config).compile(&source) {
            Ok(c) => c,
            Err(dp_core::Error::Parse(e)) => {
                eprintln!("{}", e.render(&source));
                return ExitCode::FAILURE;
            }
            Err(e) => return fail(&e.to_string()),
        };
        (
            compiled.transformed_source().to_string(),
            compiled
                .manifest()
                .diagnostics
                .iter()
                .map(|d| d.to_string())
                .collect(),
        )
    };
    for diag in &diagnostics {
        eprintln!("note: {diag}");
    }
    match output {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, transformed) {
                return fail(&format!("cannot write `{path}`: {e}"));
            }
            eprintln!("wrote {path}");
        }
        None => print!("{transformed}"),
    }
    ExitCode::SUCCESS
}

/// `dpopt cache verify [--repair] [--dir <path>]` — the storage-tier
/// fsck: re-checksums every entry and reports (optionally removes)
/// anything that would not load.
fn cache_cmd(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("verify") => {}
        Some("sync") => return cache_sync(&args[1..]),
        Some(other) => {
            return fail(&format!(
                "unknown cache command `{other}` (expected: verify | sync)"
            ))
        }
        None => {
            return fail(
                "missing cache command (usage: dpopt cache verify [--repair] [--dir <path>] \
                 | dpopt cache sync <addr,...> [--dir <path>])",
            )
        }
    }
    let mut repair = false;
    let mut dir = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--repair" => {
                repair = true;
                i += 1;
            }
            "--dir" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    return fail("--dir needs a path");
                };
                dir = Some(std::path::PathBuf::from(path));
                i += 1;
            }
            other => return fail(&format!("unexpected argument `{other}`")),
        }
    }
    let dir = dp_sweep::cache::resolve_cache_dir(dir.as_deref());
    let report = match dp_sweep::cache::verify(&dir, repair) {
        Ok(r) => r,
        Err(e) => return fail(&format!("cache verify failed in `{}`: {e}", dir.display())),
    };
    use dp_sweep::cache::EntryProblem;
    println!(
        "cache verify: {} — {} scanned, {} ok, {} torn, {} corrupt, {} stale-version, {} quarantined, {} repaired",
        dir.display(),
        report.scanned,
        report.ok,
        report.count(EntryProblem::Torn),
        report.count(EntryProblem::Corrupt),
        report.count(EntryProblem::Stale),
        report.count(EntryProblem::Quarantined),
        report.repaired
    );
    for finding in &report.findings {
        println!(
            "  {:<13} {} — {}{}",
            finding.problem.label(),
            finding.name,
            finding.detail,
            if finding.repaired { " (removed)" } else { "" }
        );
    }
    if report.findings.iter().any(|f| !f.repaired) {
        return fail("cache has unrepaired problems (re-run with --repair to evict them)");
    }
    ExitCode::SUCCESS
}

/// `dpopt cache sync <addr,...> [--dir <path>]` — converge the local
/// result cache and every daemon's disk cache to the union of their
/// entries, re-verifying checksums on every receipt.
fn cache_sync(args: &[String]) -> ExitCode {
    let mut endpoints = None;
    let mut dir = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dir" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    return fail("--dir needs a path");
                };
                dir = Some(std::path::PathBuf::from(path));
                i += 1;
            }
            other if endpoints.is_none() && !other.starts_with('-') => {
                match dp_serve::parse_endpoint_list(other) {
                    Ok(list) => endpoints = Some(list),
                    Err(e) => return fail(&e),
                }
                i += 1;
            }
            other => return fail(&format!("unexpected argument `{other}`")),
        }
    }
    let Some(endpoints) = endpoints else {
        return fail("missing endpoints (usage: dpopt cache sync <addr,...> [--dir <path>])");
    };
    let opts = dp_shard::SyncOptions {
        cache_dir: dir.clone(),
        ..dp_shard::SyncOptions::default()
    };
    let report = match dp_shard::sync_caches(&endpoints, &opts) {
        Ok(r) => r,
        Err(e) => return fail(&format!("cache sync: {e}")),
    };
    let resolved = dp_sweep::cache::resolve_cache_dir(dir.as_deref());
    println!(
        "cache sync: {} — union {} keys across {} daemon(s) + local (had {}), pulled {}, rejected {}",
        resolved.display(),
        report.union,
        endpoints.len(),
        report.local_before,
        report.pulled,
        report.rejected
    );
    for (name, pushed) in &report.pushed {
        println!("  pushed {pushed} -> {name}");
    }
    ExitCode::SUCCESS
}

/// Parses a `--remote`/`--connect` endpoint-list argument: one or more
/// comma-separated endpoints, with clear errors on empty or duplicate
/// entries (`A,,B`, trailing commas, `A,B,A`).
fn parse_endpoints_arg(args: &[String], i: &mut usize) -> Result<Vec<Endpoint>, ExitCode> {
    *i += 1;
    let Some(spec) = args.get(*i) else {
        return Err(fail(&format!("{} needs an address", args[*i - 1])));
    };
    *i += 1;
    dp_serve::parse_endpoint_list(spec).map_err(|e| fail(&e))
}

/// Parses a single-endpoint argument (`--listen`): list syntax is still
/// validated, but more than one endpoint is a clear error instead of a
/// bogus `host:port,host:port` address.
fn parse_endpoint_arg(args: &[String], i: &mut usize) -> Result<Endpoint, ExitCode> {
    let flag = args[*i].clone();
    let mut endpoints = parse_endpoints_arg(args, i)?;
    if endpoints.len() > 1 {
        return Err(fail(&format!(
            "{flag} takes a single endpoint ({} given)",
            endpoints.len()
        )));
    }
    Ok(endpoints.remove(0))
}

/// The endpoint to use from a failover list: the single entry, or — for a
/// real list — the first one that accepts a connection.
fn first_reachable(endpoints: Vec<Endpoint>) -> Result<Endpoint, ExitCode> {
    if endpoints.len() == 1 {
        return Ok(endpoints.into_iter().next().unwrap());
    }
    for endpoint in &endpoints {
        if endpoint.connect().is_ok() {
            return Ok(endpoint.clone());
        }
    }
    Err(fail(&format!(
        "no reachable endpoint among the {} given",
        endpoints.len()
    )))
}

fn serve(args: &[String]) -> ExitCode {
    let mut endpoint = Endpoint::Tcp("127.0.0.1:7477".to_string());
    let mut options = ServeOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => match parse_endpoint_arg(args, &mut i) {
                Ok(e) => endpoint = e,
                Err(code) => return code,
            },
            "--unix" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    return fail("--unix needs a socket path");
                };
                #[cfg(unix)]
                {
                    endpoint = Endpoint::Unix(std::path::PathBuf::from(path));
                }
                #[cfg(not(unix))]
                {
                    return fail(&format!("unix sockets unsupported here: {path}"));
                }
                i += 1;
            }
            "--jobs" => match parse_arg(args, &mut i) {
                Some(v) if v > 0 => options.jobs = v as usize,
                _ => return fail("--jobs needs a positive integer"),
            },
            "--cache-capacity" => match parse_arg(args, &mut i) {
                Some(v) if v > 0 => options.cache_capacity = v as usize,
                _ => return fail("--cache-capacity needs a positive integer"),
            },
            "--max-connections" => match parse_arg(args, &mut i) {
                Some(v) if v >= 0 => options.max_connections = v as usize,
                _ => return fail("--max-connections needs a non-negative integer"),
            },
            "--max-queue-depth" => match parse_arg(args, &mut i) {
                Some(v) if v >= 0 => options.max_queue_depth = v as usize,
                _ => return fail("--max-queue-depth needs a non-negative integer"),
            },
            "--request-timeout-ms" => match parse_arg(args, &mut i) {
                Some(v) if v >= 0 => options.request_timeout_ms = v as u64,
                _ => return fail("--request-timeout-ms needs a non-negative integer"),
            },
            "--max-request-bytes" => match parse_arg(args, &mut i) {
                Some(v) if v >= 0 => options.max_request_bytes = v as usize,
                _ => return fail("--max-request-bytes needs a non-negative integer"),
            },
            "--metrics-dump-secs" => match parse_arg(args, &mut i) {
                Some(v) if v >= 0 => options.metrics_dump_secs = v as u64,
                _ => return fail("--metrics-dump-secs needs a non-negative integer"),
            },
            "--auth-token" => {
                i += 1;
                let Some(token) = args.get(i) else {
                    return fail("--auth-token needs a value");
                };
                options.auth_token = Some(token.clone());
                i += 1;
            }
            "--disk-cache" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    return fail("--disk-cache needs a directory");
                };
                options.disk_cache = Some(std::path::PathBuf::from(path));
                i += 1;
            }
            "--max-disk-cache-mb" => match parse_arg(args, &mut i) {
                Some(v) if v >= 0 => options.max_disk_cache_mb = v as u64,
                _ => return fail("--max-disk-cache-mb needs a non-negative integer"),
            },
            other => return fail(&format!("unexpected argument `{other}`")),
        }
    }
    if options.auth_token.is_none() {
        options.auth_token = std::env::var("DPOPT_SERVE_TOKEN")
            .ok()
            .filter(|t| !t.is_empty());
    }
    // Fault plans come only from the environment at the CLI layer (the
    // programmatic field is for in-process tests); a malformed spec is a
    // startup failure, not a silently-unarmed plan.
    match dp_faults::FaultPlan::from_env() {
        Ok(plan) => {
            if !plan.is_empty() {
                dp_obs::diag!("dp-serve: fault injection armed via DPOPT_FAULTS");
            }
            options.faults = plan;
        }
        Err(e) => return fail(&e),
    }
    // Resolve the process-wide worker budget before the shared pool
    // lazily initializes, so `--jobs` sizes the pool itself (precedence:
    // flag > `DPOPT_JOBS` > available parallelism) as well as capping the
    // daemon's concurrent executions.
    dp_pool::jobs::resolve_jobs((options.jobs > 0).then_some(options.jobs));
    let server = match Server::bind(&endpoint, &options) {
        Ok(s) => s,
        Err(e) => return fail(&format!("cannot bind {endpoint}: {e}")),
    };
    dp_obs::diag!("dp-serve listening on {}", server.endpoint());
    match server.serve() {
        Ok(()) => {
            dp_obs::diag!("dp-serve drained and stopped");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("serve: {e}")),
    }
}

fn client(args: &[String]) -> ExitCode {
    let mut endpoint = None;
    let mut input = None;
    let mut op = None;
    let mut token = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--token" => {
                i += 1;
                let Some(value) = args.get(i) else {
                    return fail("--token needs a value");
                };
                token = Some(value.clone());
                i += 1;
            }
            "--connect" => match parse_endpoints_arg(args, &mut i).and_then(first_reachable) {
                Ok(e) => endpoint = Some(e),
                Err(code) => return code,
            },
            "--unix" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    return fail("--unix needs a socket path");
                };
                #[cfg(unix)]
                {
                    endpoint = Some(Endpoint::Unix(std::path::PathBuf::from(path)));
                }
                #[cfg(not(unix))]
                {
                    return fail(&format!("unix sockets unsupported here: {path}"));
                }
                i += 1;
            }
            "--op" => {
                i += 1;
                op = match args.get(i).map(String::as_str) {
                    Some("stats") => Some("stats"),
                    Some("metrics") => Some("metrics"),
                    Some("shutdown") => Some("shutdown"),
                    _ => return fail("--op must be stats, metrics, or shutdown"),
                };
                i += 1;
            }
            other if input.is_none() && (!other.starts_with('-') || other == "-") => {
                input = Some(other.to_string());
                i += 1;
            }
            other => return fail(&format!("unexpected argument `{other}`")),
        }
    }
    let Some(endpoint) = endpoint else {
        return fail("client needs --connect <addr> or --unix <path>");
    };
    let token = token.or_else(|| {
        std::env::var("DPOPT_SERVE_TOKEN")
            .ok()
            .filter(|t| !t.is_empty())
    });
    if let Some(op) = op {
        let mut client = match dp_serve::Client::connect(&endpoint) {
            Ok(c) => c,
            Err(e) => return fail(&format!("connect {endpoint}: {e}")),
        };
        if let Some(token) = &token {
            if let Err(e) = client.authenticate(token) {
                return fail(&format!("authenticate: {}", e.message()));
            }
        }
        return match client.request(&bare_request(op)) {
            Ok(response) => {
                println!("{response}");
                ExitCode::SUCCESS
            }
            Err(e) => fail(&e),
        };
    }
    let lines: Box<dyn Iterator<Item = String>> = match input.as_deref() {
        None | Some("-") => Box::new(std::io::stdin().lock().lines().map_while(Result::ok)),
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => Box::new(
                text.lines()
                    .map(str::to_string)
                    .collect::<Vec<_>>()
                    .into_iter(),
            ),
            Err(e) => return fail(&format!("cannot read `{path}`: {e}")),
        },
    };
    match dp_serve::client::forward_lines_auth(&endpoint, token.as_deref(), lines, |response| {
        println!("{response}")
    }) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

/// One parsed span from a `DPOPT_TRACE` JSONL log.
struct TraceSpan {
    name: String,
    parent: u64,
    start_us: u64,
    end_us: Option<u64>,
    children: Vec<u64>,
}

impl TraceSpan {
    /// Duration of a completed span; open spans report 0 (they were cut
    /// off by process exit and have no trustworthy extent).
    fn duration_us(&self) -> u64 {
        self.end_us.map_or(0, |e| e.saturating_sub(self.start_us))
    }
}

/// Parses a trace log into id → span, tolerating unknown events and
/// truncated trailing lines (a live daemon may still be appending).
fn parse_trace(text: &str) -> Result<std::collections::BTreeMap<u64, TraceSpan>, String> {
    let mut spans = std::collections::BTreeMap::<u64, TraceSpan>::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(event) = json::parse(line) else {
            // Torn final line from a live writer; anything earlier that
            // fails to parse is a real error worth surfacing.
            if lineno + 1 == text.lines().count() {
                continue;
            }
            return Err(format!("line {}: not a JSON object", lineno + 1));
        };
        let id = event.get("id").and_then(Json::as_u64).unwrap_or(0);
        if id == 0 {
            continue;
        }
        match event.get("ev").and_then(Json::as_str) {
            Some("start") => {
                let span = TraceSpan {
                    name: event
                        .get("name")
                        .and_then(Json::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    parent: event.get("parent").and_then(Json::as_u64).unwrap_or(0),
                    start_us: event.get("t_us").and_then(Json::as_u64).unwrap_or(0),
                    end_us: None,
                    children: Vec::new(),
                };
                spans.insert(id, span);
            }
            Some("end") => {
                if let Some(span) = spans.get_mut(&id) {
                    span.end_us = event.get("t_us").and_then(Json::as_u64);
                }
            }
            _ => {}
        }
    }
    let links: Vec<(u64, u64)> = spans
        .iter()
        .filter(|(_, s)| s.parent != 0)
        .map(|(id, s)| (s.parent, *id))
        .collect();
    for (parent, child) in links {
        if let Some(p) = spans.get_mut(&parent) {
            p.children.push(child);
        }
    }
    Ok(spans)
}

/// Inclusive duration of the tree rooted at `id`.
fn tree_total_us(spans: &std::collections::BTreeMap<u64, TraceSpan>, id: u64) -> u64 {
    let Some(span) = spans.get(&id) else { return 0 };
    span.duration_us()
        .max(span.children.iter().map(|&c| tree_total_us(spans, c)).sum())
}

fn print_tree(spans: &std::collections::BTreeMap<u64, TraceSpan>, id: u64, depth: usize) {
    let Some(span) = spans.get(&id) else { return };
    let duration = match span.end_us {
        Some(_) => format!("{} us", span.duration_us()),
        None => "open".to_string(),
    };
    println!(
        "{:indent$}{} ({duration})",
        "",
        span.name,
        indent = depth * 2
    );
    let mut children = span.children.clone();
    children.sort_by_key(|&c| spans.get(&c).map_or(0, |s| s.start_us));
    for child in children {
        print_tree(spans, child, depth + 1);
    }
}

/// Emits folded stacks (`root;child;leaf <self_us>`) for flamegraph
/// tooling, merging identical paths.
fn print_collapsed(spans: &std::collections::BTreeMap<u64, TraceSpan>) {
    let mut folded = std::collections::BTreeMap::<String, u64>::new();
    for (id, span) in spans {
        let child_us: u64 = span
            .children
            .iter()
            .map(|&c| spans.get(&c).map_or(0, TraceSpan::duration_us))
            .sum();
        let self_us = span.duration_us().saturating_sub(child_us);
        if self_us == 0 {
            continue;
        }
        let mut path = vec![span.name.as_str()];
        let mut cursor = span.parent;
        while cursor != 0 && cursor != *id {
            let Some(parent) = spans.get(&cursor) else {
                break;
            };
            path.push(parent.name.as_str());
            cursor = parent.parent;
        }
        path.reverse();
        *folded.entry(path.join(";")).or_insert(0) += self_us;
    }
    for (path, us) in folded {
        println!("{path} {us}");
    }
}

fn trace_report(args: &[String]) -> ExitCode {
    let mut input = None;
    let mut tree = false;
    let mut collapse = false;
    for arg in args {
        match arg.as_str() {
            "--tree" => tree = true,
            "--collapse" => collapse = true,
            other if input.is_none() && !other.starts_with('-') => {
                input = Some(other.to_string());
            }
            other => return fail(&format!("unexpected argument `{other}`")),
        }
    }
    let Some(input) = input else {
        return fail("missing trace file (usage: dpopt trace-report <trace.jsonl>)");
    };
    if tree && collapse {
        return fail("--tree and --collapse are two reports; ask for one");
    }
    let text = match read_input(&input) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let spans = match parse_trace(&text) {
        Ok(s) => s,
        Err(e) => return fail(&format!("bad trace `{input}`: {e}")),
    };
    if spans.is_empty() {
        return fail(&format!("`{input}` contains no spans"));
    }
    if collapse {
        print_collapsed(&spans);
        return ExitCode::SUCCESS;
    }
    if tree {
        let root = spans
            .iter()
            .filter(|(_, s)| s.parent == 0 || !spans.contains_key(&s.parent))
            .map(|(&id, _)| id)
            .max_by_key(|&id| tree_total_us(&spans, id));
        match root {
            Some(id) => print_tree(&spans, id, 0),
            None => return fail("trace has no root span"),
        }
        return ExitCode::SUCCESS;
    }
    // Default: per-name aggregates over completed spans, heaviest first.
    struct Agg {
        count: u64,
        total_us: u64,
        max_us: u64,
        open: u64,
    }
    let mut by_name = std::collections::BTreeMap::<&str, Agg>::new();
    for span in spans.values() {
        let agg = by_name.entry(span.name.as_str()).or_insert(Agg {
            count: 0,
            total_us: 0,
            max_us: 0,
            open: 0,
        });
        agg.count += 1;
        if span.end_us.is_some() {
            let d = span.duration_us();
            agg.total_us += d;
            agg.max_us = agg.max_us.max(d);
        } else {
            agg.open += 1;
        }
    }
    let mut rows: Vec<_> = by_name.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_us.cmp(&a.1.total_us).then(a.0.cmp(b.0)));
    println!(
        "{:<16} {:>8} {:>12} {:>10} {:>10} {:>6}",
        "span", "count", "total_us", "avg_us", "max_us", "open"
    );
    for (name, agg) in rows {
        let closed = agg.count - agg.open;
        let avg = agg.total_us.checked_div(closed).unwrap_or(0);
        println!(
            "{name:<16} {:>8} {:>12} {avg:>10} {:>10} {:>6}",
            agg.count, agg.total_us, agg.max_us, agg.open
        );
    }
    ExitCode::SUCCESS
}

fn info(args: &[String]) -> ExitCode {
    let Some(input) = args.first() else {
        return fail("missing input file (usage: dpopt info <input.cu>)");
    };
    if let Some(extra) = args.get(1) {
        return fail(&format!("unexpected argument `{extra}`"));
    }
    let source = match read_input(input) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let program = match dp_frontend::parse(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{}", e.render(&source));
            return ExitCode::FAILURE;
        }
    };
    println!("kernels:");
    for f in program.functions() {
        if f.is_kernel() {
            println!("  __global__ {} ({} params)", f.name, f.params.len());
        }
    }
    println!("launch sites:");
    for site in dp_analysis::launch_sites(&program) {
        let kind = if site.from_device { "device" } else { "host" };
        println!("  {} -> {} ({kind})", site.parent, site.kernel);
        if site.from_device {
            let blockers = dp_analysis::serialization_blockers(&program, &site.kernel);
            if blockers.is_empty() {
                println!("      serializable by thresholding: yes");
            } else {
                for b in blockers {
                    println!("      not serializable: {b}");
                }
            }
        }
    }
    ExitCode::SUCCESS
}

fn sweep(args: &[String]) -> ExitCode {
    let mut input = None;
    let mut output = None;
    let mut opts = SweepOptions::default();
    let mut cache_stats = false;
    let mut gc = false;
    let mut max_cache_mb = None;
    let mut remote = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--remote" => match parse_endpoints_arg(args, &mut i) {
                Ok(e) => remote = Some(e),
                Err(code) => return code,
            },
            "--jobs" => match parse_arg(args, &mut i) {
                Some(v) if v > 0 => opts.jobs = v as usize,
                _ => return fail("--jobs needs a positive integer"),
            },
            "--no-cache" => {
                opts.cache = false;
                i += 1;
            }
            "--cache-stats" => {
                cache_stats = true;
                i += 1;
            }
            "--gc" => {
                gc = true;
                i += 1;
            }
            "--max-cache-mb" => match parse_arg(args, &mut i) {
                Some(v) if v >= 0 => max_cache_mb = Some(v),
                _ => return fail("--max-cache-mb needs a non-negative integer"),
            },
            "-o" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    return fail("-o needs a path");
                };
                output = Some(path.clone());
                i += 1;
            }
            other if input.is_none() && !other.starts_with('-') => {
                input = Some(other.to_string());
                i += 1;
            }
            other => return fail(&format!("unexpected argument `{other}`")),
        }
    }
    if gc {
        let swept = input.is_some() || output.is_some() || remote.is_some();
        if swept || opts.jobs != 0 || !opts.cache || cache_stats {
            return fail(
                "--gc takes no spec file and no option but --max-cache-mb \
                 (it prunes the cache and exits)",
            );
        }
        let dir = dp_sweep::cache::resolve_cache_dir(opts.cache_dir.as_deref());
        let max_cache_mb = max_cache_mb.unwrap_or(512);
        let budget = (max_cache_mb as u64).saturating_mul(1024 * 1024);
        return match dp_sweep::cache::gc(&dir, budget) {
            Ok(report) => {
                println!(
                    "cache gc: {} — {} entries, evicted {} (LRU first), {} -> {} bytes (budget {} MB)",
                    dir.display(),
                    report.entries,
                    report.evicted,
                    report.bytes_before,
                    report.bytes_after,
                    max_cache_mb
                );
                ExitCode::SUCCESS
            }
            Err(e) => fail(&format!("cache gc failed in `{}`: {e}", dir.display())),
        };
    }
    if max_cache_mb.is_some() {
        return fail("--max-cache-mb only applies to --gc");
    }
    let Some(input) = input else {
        return fail("missing input file (usage: dpopt sweep <spec.json>)");
    };
    let text = match read_input(&input) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let spec = match spec_from_json(&text) {
        Ok(s) => s,
        Err(e) => return fail(&format!("bad sweep spec `{input}`: {e}")),
    };

    let result = match remote {
        // Remote sweeps shard cells across the daemon fleet (each daemon
        // sizes its own worker pool and compiled-program cache); locally
        // cached cells short-circuit, and local --jobs would be silently
        // meaningless for the rest.
        Some(endpoints) => {
            if opts.jobs != 0 {
                return fail("--jobs has no effect with --remote (the daemons size their pools)");
            }
            let shard_opts = dp_shard::ShardOptions {
                cache: opts.cache,
                cache_dir: opts.cache_dir.clone(),
                ..dp_shard::ShardOptions::default()
            };
            match dp_shard::shard_sweep(&endpoints, &spec, &shard_opts) {
                Ok(r) => r,
                Err(e) => return fail(&e),
            }
        }
        None => {
            // Resolve the process-wide worker budget before the shared
            // pool lazily initializes, so an explicit `--jobs` sizes the
            // pool itself (precedence: flag > `DPOPT_JOBS` > available
            // parallelism).
            dp_pool::jobs::resolve_jobs((opts.jobs > 0).then_some(opts.jobs));
            run_sweep(&spec, &opts)
        }
    };

    // The table goes out in one buffered write. A reader that has gone
    // (`| head`) is reported after `-o` is written, not a panic.
    let table = {
        let mut out = std::io::BufWriter::new(std::io::stdout().lock());
        write_table(&mut out, &spec, &result, cache_stats).and_then(|()| out.flush())
    };
    if let Some(path) = output {
        if let Err(e) = std::fs::write(&path, result_json(&result)) {
            return fail(&format!("cannot write `{path}`: {e}"));
        }
        eprintln!("wrote {path}");
    }
    if let Err(e) = table {
        return fail(&format!("cannot write the sweep table to stdout: {e}"));
    }
    if result
        .series
        .iter()
        .any(|s| s.cells.iter().any(|c| !c.verified))
    {
        return fail("output verification failed for at least one cell");
    }
    ExitCode::SUCCESS
}

/// The sweep's table: a header, one row per cell and, with
/// `--cache-stats`, the cache line.
fn write_table(
    out: &mut impl Write,
    spec: &dp_sweep::SweepSpec,
    result: &SweepResult,
    cache_stats: bool,
) -> std::io::Result<()> {
    writeln!(
        out,
        "# dp-sweep — {} cells across {} series ({} workers)",
        spec.cell_count(),
        result.series.len(),
        result.jobs
    )?;
    writeln!(
        out,
        "{:<10} {:<10} {:<14} {:>14} {:>10} {:>9} {:>7}",
        "benchmark", "dataset", "variant", "time_us", "launches", "verified", "cached"
    )?;
    for series in &result.series {
        for cell in &series.cells {
            writeln!(
                out,
                "{:<10} {:<10} {:<14} {:>14.3} {:>10} {:>9} {:>7}",
                series.benchmark,
                series.dataset_name,
                cell.label,
                cell.total_us,
                cell.device_launches,
                if cell.verified { "yes" } else { "NO" },
                if cell.from_cache { "hit" } else { "miss" }
            )?;
        }
    }
    if cache_stats {
        let c = result.cache;
        if c.enabled {
            writeln!(
                out,
                "cache: {} hits, {} misses ({:.1}% hit rate)",
                c.hits,
                c.misses,
                c.hit_rate() * 100.0
            )?;
        } else {
            writeln!(out, "cache: disabled")?;
        }
    }
    Ok(())
}

/// Serializes a merged sweep result as JSON (cells in spec order).
fn result_json(result: &SweepResult) -> String {
    let cells: Vec<Json> = result
        .series
        .iter()
        .flat_map(|series| {
            series.cells.iter().map(|cell| {
                json::object([
                    ("benchmark", Json::Str(series.benchmark.clone())),
                    ("dataset", Json::Str(series.dataset_name.clone())),
                    ("variant", Json::Str(cell.label.clone())),
                    ("total_us", Json::Float(cell.total_us)),
                    ("device_launches", json::uint(cell.device_launches)),
                    ("host_launches", json::uint(cell.host_launches)),
                    ("instructions", json::uint(cell.instructions)),
                    ("verified", Json::Bool(cell.verified)),
                    ("cached", Json::Bool(cell.from_cache)),
                ])
            })
        })
        .collect();
    let doc = json::object([
        ("tool", Json::Str("dpopt sweep".to_string())),
        ("jobs", json::uint(result.jobs as u64)),
        ("cache_hits", json::uint(result.cache.hits as u64)),
        ("cache_misses", json::uint(result.cache.misses as u64)),
        ("cells", Json::Array(cells)),
    ]);
    let mut text = doc.to_string();
    text.push('\n');
    text
}

fn parse_arg(args: &[String], i: &mut usize) -> Option<i64> {
    *i += 1;
    let v = args.get(*i)?.parse().ok()?;
    *i += 1;
    Some(v)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}
