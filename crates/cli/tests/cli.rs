//! Integration tests driving the `dpopt` binary end to end.

use std::process::Command;

fn dpopt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dpopt"))
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("dpopt-cli-test-{name}-{}.cu", std::process::id()));
    std::fs::write(&path, content).unwrap();
    path
}

const EXAMPLE: &str = "\
__global__ void child(int* d, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { d[i] = n; }
}
__global__ void parent(int* d, int n) {
    int v = blockIdx.x * blockDim.x + threadIdx.x;
    if (v < n) {
        child<<<(n + 31) / 32, 32>>>(d, n);
    }
}
";

#[test]
fn help_prints_usage() {
    let out = dpopt().arg("--help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("transform"));
    assert!(text.contains("--threshold"));
}

/// `--help` / `-h` after a subcommand is help, not an unexpected argument.
#[test]
fn help_after_any_subcommand_prints_usage() {
    let usage = dpopt().arg("--help").output().unwrap().stdout;
    for command in [
        "transform",
        "info",
        "sweep",
        "cache",
        "serve",
        "client",
        "trace-report",
    ] {
        for args in [
            &["--help"][..],
            &["-h"],
            &["input", "--jobs", "2", "--help"],
        ] {
            let out = dpopt().arg(command).args(args).output().unwrap();
            assert_eq!(out.status.code(), Some(0), "{command} {args:?}");
            assert!(
                out.stdout == usage,
                "{command} {args:?} prints the usage text"
            );
            assert!(out.stderr.is_empty(), "{command} {args:?}");
        }
    }
}

#[test]
fn unknown_command_fails() {
    let out = dpopt().arg("explode").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn transform_all_passes_to_stdout() {
    let input = write_temp("all", EXAMPLE);
    let out = dpopt()
        .args(["transform", input.to_str().unwrap()])
        .args([
            "--threshold",
            "64",
            "--coarsen",
            "4",
            "--agg",
            "multiblock:8",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("#define _THRESHOLD 64"));
    assert!(text.contains("#define _CFACTOR 4"));
    assert!(text.contains("#define _AGG_GRANULARITY 8"));
    assert!(text.contains("child_serial"));
    assert!(text.contains("child_agg"));
    std::fs::remove_file(input).ok();
}

#[test]
fn transform_writes_output_file() {
    let input = write_temp("out", EXAMPLE);
    let output = std::env::temp_dir().join(format!("dpopt-cli-out-{}.cu", std::process::id()));
    let status = dpopt()
        .args(["transform", input.to_str().unwrap()])
        .args(["--threshold", "128", "-o", output.to_str().unwrap()])
        .status()
        .unwrap();
    assert!(status.success());
    let written = std::fs::read_to_string(&output).unwrap();
    assert!(written.contains("_THRESHOLD"));
    std::fs::remove_file(input).ok();
    std::fs::remove_file(output).ok();
}

#[test]
fn info_reports_launch_sites() {
    let input = write_temp("info", EXAMPLE);
    let out = dpopt()
        .args(["info", input.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("parent -> child (device)"));
    assert!(text.contains("serializable by thresholding: yes"));
    std::fs::remove_file(input).ok();
}

#[test]
fn parse_errors_render_with_location() {
    let input = write_temp("bad", "__global__ void k( {");
    let out = dpopt()
        .args(["transform", input.to_str().unwrap(), "--threshold", "8"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("parse error"), "{err}");
    std::fs::remove_file(input).ok();
}

#[test]
fn version_prints_and_succeeds() {
    let out = dpopt().arg("--version").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("dpopt "), "{text}");
    assert!(text.trim().len() > "dpopt ".len());
}

#[test]
fn missing_input_is_consistent_across_subcommands() {
    // No path given: every subcommand fails with a usage-style error.
    for sub in ["transform", "info", "sweep"] {
        let out = dpopt().arg(sub).output().unwrap();
        assert!(!out.status.success(), "{sub} must fail without input");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("missing input file"), "{sub}: {err}");
    }
    // Nonexistent path: the error names the path and exits nonzero.
    for sub in ["transform", "info", "sweep"] {
        let out = dpopt().args([sub, "/nonexistent/x.inp"]).output().unwrap();
        assert!(!out.status.success(), "{sub} must fail on missing file");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains("cannot read `/nonexistent/x.inp`"),
            "{sub}: {err}"
        );
    }
}

const SWEEP_SPEC: &str = r#"{
    "scale": 0.002, "seed": 42,
    "benchmarks": ["BFS"], "datasets": ["KRON"],
    "variants": [
        {"no_cdp": true},
        {"label": "CDP"},
        {"threshold": 128, "coarsen": 16, "agg": "multiblock:8"}
    ]
}"#;

#[test]
fn sweep_runs_caches_and_writes_json() {
    let spec = std::env::temp_dir().join(format!("dpopt-sweep-spec-{}.json", std::process::id()));
    std::fs::write(&spec, SWEEP_SPEC).unwrap();
    let cache = std::env::temp_dir().join(format!("dpopt-sweep-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let json_out =
        std::env::temp_dir().join(format!("dpopt-sweep-out-{}.json", std::process::id()));

    let run = |args: &[&str]| {
        let mut cmd = dpopt();
        cmd.env("DPOPT_CACHE_DIR", &cache);
        cmd.arg("sweep").arg(spec.to_str().unwrap()).args(args);
        cmd.output().unwrap()
    };

    // Cold run: everything misses.
    let cold = run(&["--cache-stats", "--jobs", "2"]);
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let cold_text = String::from_utf8(cold.stdout).unwrap();
    assert!(cold_text.contains("0 hits, 3 misses"), "{cold_text}");
    assert!(cold_text.contains("CDP+T+C+A"), "{cold_text}");

    // Warm run: everything hits, table is identical.
    let warm = run(&[
        "--cache-stats",
        "--jobs",
        "2",
        "-o",
        json_out.to_str().unwrap(),
    ]);
    assert!(warm.status.success());
    let warm_text = String::from_utf8(warm.stdout).unwrap();
    assert!(
        warm_text.contains("3 hits, 0 misses (100.0% hit rate)"),
        "{warm_text}"
    );
    // The table must be identical cold vs warm, modulo the cache column
    // and the stats line.
    let stable = |text: &str| {
        text.lines()
            .filter(|l| !l.starts_with("cache:"))
            .map(|l| {
                l.trim_end()
                    .trim_end_matches("hit")
                    .trim_end_matches("miss")
                    .trim_end()
                    .to_string()
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(stable(&cold_text), stable(&warm_text));

    let written = std::fs::read_to_string(&json_out).unwrap();
    assert!(written.contains("\"cache_hits\":3"), "{written}");
    assert!(written.contains("\"verified\":true"), "{written}");

    // --no-cache bypasses the cache entirely.
    let bypass = run(&["--no-cache", "--cache-stats"]);
    assert!(bypass.status.success());
    let bypass_text = String::from_utf8(bypass.stdout).unwrap();
    assert!(bypass_text.contains("cache: disabled"), "{bypass_text}");

    std::fs::remove_file(&spec).ok();
    std::fs::remove_file(&json_out).ok();
    std::fs::remove_dir_all(&cache).ok();
}

#[test]
fn sweep_gc_prunes_lru_entries() {
    let cache = std::env::temp_dir().join(format!("dpopt-gc-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    std::fs::create_dir_all(&cache).unwrap();
    // Three fake cell summaries with distinct ages (oldest = key 1).
    for (key, age_secs) in [(1u64, 300u64), (2, 200), (3, 10)] {
        let path = cache.join(format!("{key:016x}.json"));
        std::fs::write(&path, format!("{{\"version\":1,\"key\":\"{key}\"}}")).unwrap();
        let f = std::fs::File::options().write(true).open(&path).unwrap();
        f.set_modified(std::time::SystemTime::now() - std::time::Duration::from_secs(age_secs))
            .unwrap();
    }
    std::fs::write(cache.join("dead.tmp.1"), "torn").unwrap();

    // Budget 0 MB: everything goes, LRU first; tmp leftovers always go.
    let out = dpopt()
        .env("DPOPT_CACHE_DIR", &cache)
        .args(["sweep", "--gc", "--max-cache-mb", "0"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("3 entries"), "{text}");
    assert!(text.contains("evicted 3"), "{text}");
    assert!(!cache.join("dead.tmp.1").exists());
    assert_eq!(std::fs::read_dir(&cache).unwrap().count(), 0);

    // A spec argument alongside --gc is a usage error.
    let bad = dpopt()
        .args(["sweep", "--gc", "spec.json"])
        .output()
        .unwrap();
    assert!(!bad.status.success());

    std::fs::remove_dir_all(&cache).ok();
}

#[test]
fn sweep_rejects_bad_specs() {
    let spec = std::env::temp_dir().join(format!("dpopt-bad-spec-{}.json", std::process::id()));
    // Nested past the parser's cap (it used to overflow the stack and abort).
    let deep = "[".repeat(200_000);
    for (text, needle) in [
        (deep.as_str(), "nesting deeper than 128"),
        (
            r#"{"benchmarks": ["XXX"], "variants": [{}]}"#,
            "unknown benchmark",
        ),
        // Well-formed, but BFS's driver cannot read Bézier lines: refused
        // before anything runs, not by a panic inside the first cell.
        (
            r#"{"benchmarks":["BFS"],"datasets":["T0032-C16"],"scale":0.01,"variants":[{"no_cdp":true}]}"#,
            "dataset `T0032-C16` is Bézier lines, but `BFS` reads a graph",
        ),
    ] {
        std::fs::write(&spec, text).unwrap();
        let out = dpopt()
            .args(["sweep", spec.to_str().unwrap(), "--no-cache"])
            .output()
            .unwrap();
        let text: String = text.chars().take(100).collect();
        assert_eq!(out.status.code(), Some(1), "{text}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("bad sweep spec"), "{text}: {err}");
        assert!(err.contains(needle), "{text}: {err}");
        assert!(!err.contains("panicked"), "{text}: {err}");
        assert!(err.lines().count() == 1, "one line, not a dump: {err}");
    }
    std::fs::remove_file(&spec).ok();
}

/// The fsck must survive what it is there to remove: a footerless entry —
/// planted, or `cache-push`ed and quarantined — nested deep enough to have
/// overflowed the parser's stack is reported corrupt, removed, and gone on
/// the re-run.
#[test]
fn cache_verify_repairs_a_deeply_nested_entry() {
    let dir = std::env::temp_dir().join(format!("dpopt-deep-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("00000000deadbeef.json"), "[".repeat(400_000)).unwrap();
    let verify = || {
        let out = dpopt()
            .args([
                "cache",
                "verify",
                "--repair",
                "--dir",
                dir.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    let first = verify();
    assert!(
        first.contains("1 scanned, 0 ok, 0 torn, 1 corrupt"),
        "{first}"
    );
    assert!(first.contains("1 repaired"), "{first}");
    assert!(first.contains("00000000deadbeef.json"), "{first}");
    let second = verify();
    assert!(second.contains("0 scanned"), "{second}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A valid entry copied over another key's file — the one corruption a
/// checksum cannot see — is a miss that is recomputed, never another cell's
/// numbers, and `cache verify` names the file.
#[test]
fn a_misfiled_cache_entry_is_recomputed_and_reported() {
    let tag = format!("{}-misfiled", std::process::id());
    let spec_text = r#"{"scale": 0.002, "seed": 42, "benchmarks": ["BFS"], "datasets": ["KRON"],
        "variants": [{"no_cdp": true}, {"label": "CDP"}, {"threshold": 128},
                     {"threshold": 128, "coarsen": 4}, {"agg": "block"},
                     {"threshold": 128, "coarsen": 4, "agg": "block"}]}"#;
    let spec = std::env::temp_dir().join(format!("dpopt-spec-{tag}.json"));
    std::fs::write(&spec, spec_text).unwrap();
    let cache = std::env::temp_dir().join(format!("dpopt-cache-{tag}"));
    let _ = std::fs::remove_dir_all(&cache);
    // Each row's last four columns: time_us, launches, verified, cached.
    let sweep = || {
        let out = dpopt()
            .env("DPOPT_CACHE_DIR", &cache)
            .args(["sweep", spec.to_str().unwrap(), "--jobs", "2"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        let rows: Vec<Vec<String>> = text
            .lines()
            .filter(|l| l.starts_with("BFS"))
            .map(|l| l.split_whitespace().map(str::to_string).collect())
            .map(|mut cols: Vec<String>| cols.split_off(cols.len() - 4))
            .collect();
        assert_eq!(rows.len(), 6, "{text}");
        rows
    };
    let cold = sweep();
    assert!(cold.iter().all(|row| row[3] == "miss"), "{cold:?}");

    // cp A B: the CDP cell's entry over the thresholded cell's.
    let cells = dp_sweep::enumerate_cells(&dp_sweep::spec_from_json(spec_text).unwrap()).unwrap();
    let file_of = |cell: usize| cache.join(format!("{:016x}.json", cells[cell].key));
    let (a, b) = (file_of(1), file_of(2));
    std::fs::copy(&a, &b).unwrap();

    let verify = dpopt()
        .args(["cache", "verify", "--dir", cache.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(verify.status.code(), Some(1));
    let report = String::from_utf8(verify.stdout).unwrap();
    let b_name = b.file_name().unwrap().to_str().unwrap();
    assert!(
        report.contains("6 scanned, 5 ok") && report.contains("1 corrupt"),
        "{report}"
    );
    assert!(
        report.contains(&format!("{b_name} — key mismatch")),
        "{report}"
    );

    let warm = sweep();
    for (i, (cold, warm)) in cold.iter().zip(&warm).enumerate() {
        assert_eq!(cold[..3], warm[..3], "row {i} changed its numbers");
        assert_eq!(warm[3], if i == 2 { "miss" } else { "hit" }, "row {i}");
    }
    assert!(b.with_extension("corrupt").exists(), "B was quarantined");

    std::fs::remove_file(&spec).ok();
    std::fs::remove_dir_all(&cache).ok();
}

/// Command lines that used to run with part of what they said ignored.
#[test]
fn half_understood_command_lines_are_refused() {
    let input = write_temp("strict", EXAMPLE);
    let input = input.to_str().unwrap();
    for (args, needle) in [
        (
            &["info", input, "--bogus", "extra"][..],
            "unexpected argument `--bogus`",
        ),
        (&["info", input, input], "unexpected argument"),
        (
            &["sweep", "--gc", "--jobs", "3"],
            "no option but --max-cache-mb",
        ),
        (&["sweep", "--gc", "--no-cache"], "no option but"),
        (&["sweep", "--gc", "--cache-stats"], "no option but"),
        (&["sweep", "--gc", "-o", "x.json"], "no option but"),
        (
            &["sweep", "--gc", "--remote", "127.0.0.1:1"],
            "no option but",
        ),
        (
            &["sweep", input, "--max-cache-mb", "64"],
            "--max-cache-mb only applies to --gc",
        ),
        (
            &["trace-report", input, "--tree", "--collapse"],
            "--tree and --collapse",
        ),
    ] {
        let out = dpopt()
            .env(
                "DPOPT_CACHE_DIR",
                std::env::temp_dir().join("dpopt-strict-none"),
            )
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.starts_with("error: ") && err.contains(needle), "{err}");
    }
    std::fs::remove_file(input).ok();
}

#[test]
fn bad_granularity_is_rejected() {
    let input = write_temp("gran", EXAMPLE);
    let out = dpopt()
        .args(["transform", input.to_str().unwrap(), "--agg", "galaxy"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("granularity"));
    std::fs::remove_file(input).ok();
}

#[test]
fn degenerate_tuning_values_are_rejected() {
    // Each would come back as a program that divides by zero.
    let input = write_temp("degenerate", EXAMPLE);
    for (flag, value, needle) in [
        ("--agg", "multiblock:0", "granularity"),
        ("--coarsen", "0", "`coarsen` must be at least 1"),
        ("--coarsen", "-3", "`coarsen` must be at least 1"),
    ] {
        let out = dpopt()
            .args(["transform", input.to_str().unwrap(), flag, value])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{flag} {value}");
        assert!(out.stdout.is_empty(), "{flag} {value}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.starts_with("error: ") && err.contains(needle), "{err}");
    }
    std::fs::remove_file(input).ok();
}

#[test]
fn agg_threshold_without_agg_is_an_error() {
    let input = write_temp("aggthr", EXAMPLE);
    // The flag used to be silently ignored; it must now fail loudly.
    let out = dpopt()
        .args(["transform", input.to_str().unwrap(), "--agg-threshold", "4"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--agg-threshold requires --agg"), "{err}");
    // With --agg it is accepted as before.
    let out = dpopt()
        .args(["transform", input.to_str().unwrap()])
        .args(["--agg", "block", "--agg-threshold", "4"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(input).ok();
}

/// Spawns `dpopt serve` on an ephemeral port and returns the child, the
/// address it reports on stderr, and the stderr reader (which must stay
/// open for the child's lifetime — closing the pipe would EPIPE the
/// server's shutdown banner).
fn spawn_server() -> (
    std::process::Child,
    String,
    std::io::BufReader<std::process::ChildStderr>,
) {
    use std::io::BufRead;
    let mut child = dpopt()
        .args(["serve", "--listen", "127.0.0.1:0", "--jobs", "2"])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut reader = std::io::BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("dp-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected serve banner: {line}"))
        .to_string();
    (child, addr, reader)
}

#[test]
fn serve_client_and_remote_round_trip() {
    let (mut server, addr, _server_stderr) = spawn_server();
    let input = write_temp("remote", EXAMPLE);

    // Local and remote transforms must agree byte for byte.
    let local = dpopt()
        .args(["transform", input.to_str().unwrap(), "--threshold", "64"])
        .output()
        .unwrap();
    assert!(local.status.success());
    let remote = dpopt()
        .args(["transform", input.to_str().unwrap(), "--threshold", "64"])
        .args(["--remote", &addr])
        .output()
        .unwrap();
    assert!(
        remote.status.success(),
        "{}",
        String::from_utf8_lossy(&remote.stderr)
    );
    assert_eq!(local.stdout, remote.stdout, "remote transform must match");

    // A remote sweep produces the same table as a local uncached run. The
    // scheduler probes (and populates) the local result cache, so point it
    // at a fresh directory to keep the run cold and hermetic.
    let spec = std::env::temp_dir().join(format!("dpopt-remote-spec-{}.json", std::process::id()));
    std::fs::write(&spec, SWEEP_SPEC).unwrap();
    let cache = std::env::temp_dir().join(format!("dpopt-remote-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let local = dpopt()
        .args(["sweep", spec.to_str().unwrap(), "--no-cache", "--jobs", "1"])
        .output()
        .unwrap();
    assert!(local.status.success());
    let remote = dpopt()
        .args(["sweep", spec.to_str().unwrap(), "--remote", &addr])
        .env("DPOPT_CACHE_DIR", &cache)
        .output()
        .unwrap();
    assert!(
        remote.status.success(),
        "{}",
        String::from_utf8_lossy(&remote.stderr)
    );
    // Identical apart from the engine header (worker count differs).
    let table = |bytes: &[u8]| {
        String::from_utf8(bytes.to_vec())
            .unwrap()
            .lines()
            .filter(|l| !l.starts_with('#'))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(table(&local.stdout), table(&remote.stdout));
    // Remotely computed cells were stored into the local result cache.
    let stored = std::fs::read_dir(&cache)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().path().extension() == Some(std::ffi::OsStr::new("json")))
        .count();
    assert_eq!(stored, 3, "every remote cell lands in the local cache");

    // The client forwards NDJSON and prints responses; stats reports the
    // compiled-cache counters.
    let stats = dpopt()
        .args(["client", "--connect", &addr, "--op", "stats"])
        .output()
        .unwrap();
    assert!(stats.status.success());
    let text = String::from_utf8(stats.stdout).unwrap();
    assert!(text.contains("\"compiled_cache\""), "{text}");
    assert!(text.contains("\"misses\""), "{text}");

    // Requests from a file round-trip through `dpopt client`.
    let reqs = std::env::temp_dir().join(format!("dpopt-reqs-{}.ndjson", std::process::id()));
    std::fs::write(
        &reqs,
        "{\"op\":\"compile\",\"source\":\"__global__ void k(int* d) { d[0] = 1; }\",\"id\":1}\n",
    )
    .unwrap();
    let out = dpopt()
        .args(["client", "--connect", &addr, reqs.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("\"kernels\":[\"k\"]"), "{text}");
    assert!(text.contains("\"id\":1"), "{text}");

    // Shutdown drains and the server process exits cleanly.
    let down = dpopt()
        .args(["client", "--connect", &addr, "--op", "shutdown"])
        .output()
        .unwrap();
    assert!(down.status.success());
    let text = String::from_utf8(down.stdout).unwrap();
    assert!(text.contains("\"drained\":true"), "{text}");
    let status = server.wait().unwrap();
    assert!(status.success(), "server must exit cleanly after shutdown");

    std::fs::remove_file(input).ok();
    std::fs::remove_file(spec).ok();
    std::fs::remove_file(reqs).ok();
    std::fs::remove_dir_all(cache).ok();
}

/// The observability hard constraint: every debug/trace/metrics switch at
/// once must leave stdout byte-identical to a bare run. Instrumentation
/// may write to the registry, stderr, or the trace file — never stdout.
#[test]
fn sweep_stdout_is_identical_with_all_diagnostics_enabled() {
    let tag = format!("{}-purity", std::process::id());
    let spec = std::env::temp_dir().join(format!("dpopt-spec-{tag}.json"));
    std::fs::write(&spec, SWEEP_SPEC).unwrap();
    let trace = std::env::temp_dir().join(format!("dpopt-trace-{tag}.jsonl"));
    let _ = std::fs::remove_file(&trace);

    let run = |diagnostics: bool| {
        let mut cmd = dpopt();
        // --no-cache: both runs compute, so the table (and the cached
        // column) cannot differ for cache reasons.
        cmd.args(["sweep", spec.to_str().unwrap(), "--no-cache", "--jobs", "2"]);
        if diagnostics {
            cmd.env("DPOPT_METRICS", "1");
            cmd.env("DPOPT_TRACE", &trace);
        }
        cmd.output().unwrap()
    };

    let bare = run(false);
    assert!(
        bare.status.success(),
        "{}",
        String::from_utf8_lossy(&bare.stderr)
    );
    let noisy = run(true);
    assert!(
        noisy.status.success(),
        "{}",
        String::from_utf8_lossy(&noisy.stderr)
    );
    assert_eq!(
        String::from_utf8(bare.stdout).unwrap(),
        String::from_utf8(noisy.stdout).unwrap(),
        "diagnostics must never reach stdout"
    );
    // The trace sink really was exercised (the comparison above is
    // meaningless if tracing silently failed to arm).
    let traced = std::fs::read_to_string(&trace).unwrap_or_default();
    assert!(traced.contains("\"ev\":\"start\""), "trace file is empty");

    // And the span log is consumable by the reporting tool.
    let report = dpopt()
        .args(["trace-report", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        report.status.success(),
        "{}",
        String::from_utf8_lossy(&report.stderr)
    );
    // Only spans every run emits: a `pool.job` span needs a pool worker to
    // claim a cell before the caller's own loop has run them all, and the
    // pool lends idle workers only (no schedule is promised).
    let table = String::from_utf8(report.stdout).unwrap();
    assert!(table.contains("sweep.cell"), "{table}");
    assert!(table.contains("vm.run"), "{table}");

    let folded = dpopt()
        .args(["trace-report", trace.to_str().unwrap(), "--collapse"])
        .output()
        .unwrap();
    assert!(folded.status.success());

    std::fs::remove_file(&spec).ok();
    std::fs::remove_file(&trace).ok();
}

/// A reader that has gone before the table is written (`dpopt sweep … |
/// head -1`) is one `error:` line and a failing exit, not a panic, and `-o`
/// is still written.
#[test]
fn a_closed_stdout_fails_the_sweep_cleanly_and_still_writes_the_json() {
    let tag = format!("{}-closed-stdout", std::process::id());
    let spec = std::env::temp_dir().join(format!("dpopt-spec-{tag}.json"));
    std::fs::write(&spec, SWEEP_SPEC).unwrap();
    let json_out = std::env::temp_dir().join(format!("dpopt-out-{tag}.json"));
    let _ = std::fs::remove_file(&json_out);

    // The read end is closed before the child starts, so its first write
    // to stdout fails with a broken pipe, whatever the schedule.
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let run = dpopt()
        .args(["sweep", spec.to_str().unwrap(), "--no-cache", "-o"])
        .arg(&json_out)
        .stdout(writer)
        .output()
        .unwrap();

    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "{stderr}");
    assert!(errors[0].contains("stdout"), "{stderr}");
    let written = std::fs::read_to_string(&json_out).expect("-o is written");
    assert!(written.contains("\"verified\":true"), "{written}");

    std::fs::remove_file(&spec).ok();
    std::fs::remove_file(&json_out).ok();
}
