//! Process-level chaos harness: SIGKILLs real `dpopt` processes at
//! fault-chosen points in the storage tier and asserts the crash-safety
//! contract — a warm re-run after recovery is byte-identical to a run
//! that never crashed, and `dpopt cache verify` comes back clean.
//!
//! The choreography relies on the `[dp-faults] fired …` stderr markers:
//! every firing prints its marker *before* acting, so a `delay-ms30000`
//! fault parks the child inside the exact I/O call we want to die in,
//! with the marker telling the harness when to deliver SIGKILL.

#![cfg(unix)]

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn dpopt() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dpopt"));
    // Hermetic against CI jobs that arm plans for the whole environment.
    cmd.env_remove("DPOPT_FAULTS");
    cmd
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dpopt-chaos-{name}-{}", std::process::id()))
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

fn write_spec(tag: &str) -> PathBuf {
    let path = tmp(&format!("spec-{tag}")).with_extension("json");
    std::fs::write(&path, SWEEP_SPEC).unwrap();
    path
}

/// Runs a fault-free sweep against `cache`, returning stdout.
fn sweep(cache: &Path, spec: &Path) -> String {
    let out = dpopt()
        .env("DPOPT_CACHE_DIR", cache)
        .args([
            "sweep",
            spec.to_str().unwrap(),
            "--jobs",
            "1",
            "--cache-stats",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "clean sweep failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// Runs `dpopt cache verify [--repair]` against `cache`.
fn verify(cache: &Path, repair: bool) -> std::process::Output {
    let mut cmd = dpopt();
    cmd.args(["cache", "verify"]);
    if repair {
        cmd.arg("--repair");
    }
    cmd.args(["--dir", cache.to_str().unwrap()]);
    cmd.output().unwrap()
}

/// Asserts `cache verify` exits clean with every problem counter at zero.
fn assert_verify_clean(cache: &Path, context: &str) {
    let out = verify(cache, false);
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "{context}: verify failed:\n{text}");
    assert!(
        text.contains("0 torn, 0 corrupt, 0 stale-version, 0 quarantined"),
        "{context}: verify found problems:\n{text}"
    );
}

/// Spawns `cmd` and SIGKILLs it when the `nth` occurrence of `marker`
/// appears on its stderr. Panics if the process exits before that.
fn spawn_and_kill_at(cmd: &mut Command, marker: &str, nth: usize) {
    let mut child = cmd
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let stderr = std::io::BufReader::new(child.stderr.take().unwrap());
    let mut seen = 0usize;
    let mut killed = false;
    for line in stderr.lines() {
        let Ok(line) = line else { break };
        if line.contains(marker) {
            seen += 1;
            if seen == nth {
                child.kill().expect("SIGKILL the child");
                killed = true;
                break;
            }
        }
    }
    assert!(
        killed,
        "child exited after {seen}/{nth} firings of `{marker}` without being killed"
    );
    child.wait().unwrap();
}

/// The tentpole property: SIGKILL a real `dpopt sweep` at three distinct
/// storage-tier fault points; after an fsck (`cache verify --repair`) and
/// one recovery run, the fully-warm table is byte-identical to a run that
/// never crashed.
#[test]
fn sigkill_mid_sweep_recovers_byte_identically_at_every_fault_point() {
    let spec = write_spec("kill");

    // The never-crashed reference: cold to populate, warm to pin the
    // all-hits table (the `cached` column makes warm != cold literally).
    let ref_cache = tmp("kill-ref");
    let _ = std::fs::remove_dir_all(&ref_cache);
    let _cold = sweep(&ref_cache, &spec);
    let ref_warm = sweep(&ref_cache, &spec);

    // (plan, which firing to die in): before the first entry's tmp write,
    // between a tmp write and its rename (torn publish), and at the third
    // store with two entries already live.
    let kill_points = [
        (
            "delay-ms30000@fs-write:sweep-cache",
            "fired delay-ms@fs-write:sweep-cache",
            1,
        ),
        (
            "delay-ms30000@fs-rename:sweep-cache",
            "fired delay-ms@fs-rename:sweep-cache",
            1,
        ),
        (
            "delay-ms0@fs-write:sweep-cache*2;delay-ms30000@fs-write:sweep-cache",
            "fired delay-ms@fs-write:sweep-cache",
            3,
        ),
    ];
    for (i, (plan, marker, nth)) in kill_points.iter().enumerate() {
        let cache = tmp(&format!("kill-{i}"));
        let _ = std::fs::remove_dir_all(&cache);
        let mut cmd = dpopt();
        cmd.env("DPOPT_CACHE_DIR", &cache)
            .env("DPOPT_FAULTS", plan)
            .args(["sweep", spec.to_str().unwrap(), "--jobs", "1"]);
        spawn_and_kill_at(&mut cmd, marker, *nth);

        // fsck: repair evicts anything the crash tore, then a second pass
        // must give a clean bill of health.
        let fsck = verify(&cache, true);
        assert!(
            fsck.status.success(),
            "kill point {i}: repair failed:\n{}",
            String::from_utf8_lossy(&fsck.stdout)
        );
        assert_verify_clean(&cache, &format!("kill point {i} after repair"));

        // One recovery run recomputes whatever the crash lost; the next
        // run is fully warm and must match the never-crashed table.
        let _recovery = sweep(&cache, &spec);
        let warm = sweep(&cache, &spec);
        assert_eq!(
            warm, ref_warm,
            "kill point {i}: post-crash warm table diverged"
        );
        assert_verify_clean(&cache, &format!("kill point {i} after recovery"));
        std::fs::remove_dir_all(&cache).ok();
    }
    std::fs::remove_dir_all(&ref_cache).ok();
    std::fs::remove_file(&spec).ok();
}

/// Disk full mid-store must demote to cache-off with one stderr warning;
/// stdout stays byte-identical to a cold run that never saw the fault.
#[test]
fn enospc_on_store_degrades_to_cache_off_with_identical_stdout() {
    let spec = write_spec("enospc");
    let ref_cache = tmp("enospc-ref");
    let _ = std::fs::remove_dir_all(&ref_cache);
    let cold_ref = sweep(&ref_cache, &spec);

    let cache = tmp("enospc");
    let _ = std::fs::remove_dir_all(&cache);
    let out = dpopt()
        .env("DPOPT_CACHE_DIR", &cache)
        .env("DPOPT_FAULTS", "enospc@fs-write:sweep-cache")
        .args([
            "sweep",
            spec.to_str().unwrap(),
            "--jobs",
            "1",
            "--cache-stats",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "disk-full run must still succeed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        cold_ref,
        "graceful degradation must not change stdout"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("continuing without the cache"),
        "expected the one-shot degradation warning, got:\n{stderr}"
    );
    // Nothing half-written survived the failed store.
    assert_verify_clean(&cache, "after ENOSPC degradation");

    std::fs::remove_dir_all(&ref_cache).ok();
    std::fs::remove_dir_all(&cache).ok();
    std::fs::remove_file(&spec).ok();
}

/// A bit-flipped read is detected by the checksum, quarantined, counted
/// as a miss (never served), and transparently recomputed.
#[test]
fn bit_flip_on_load_is_quarantined_and_never_served() {
    let spec = write_spec("flip");
    let cache = tmp("flip");
    let _ = std::fs::remove_dir_all(&cache);
    let _cold = sweep(&cache, &spec);
    let warm_ref = sweep(&cache, &spec);

    let out = dpopt()
        .env("DPOPT_CACHE_DIR", &cache)
        .env("DPOPT_FAULTS", "bit-flip@fs-read:sweep-cache")
        .args([
            "sweep",
            spec.to_str().unwrap(),
            "--jobs",
            "1",
            "--cache-stats",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);

    // The flipped entry was rejected and recomputed: one miss, two hits.
    assert!(text.contains("2 hits, 1 misses"), "{text}");
    assert!(
        stderr.contains("quarantined corrupt cache entry"),
        "expected a quarantine diagnostic, got:\n{stderr}"
    );
    let quarantined = std::fs::read_dir(&cache)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "corrupt"))
        .count();
    assert_eq!(quarantined, 1, "exactly one entry quarantined");
    // Apart from the legitimate hit/miss flip, the table is unchanged —
    // the corrupt bytes never reached a row.
    let stable = |s: &str| {
        s.lines()
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
    assert_eq!(stable(&text), stable(&warm_ref));

    // The recompute re-published, so after evicting the quarantine the
    // next run is fully warm and byte-identical again.
    let fsck = verify(&cache, true);
    assert!(fsck.status.success());
    assert_verify_clean(&cache, "after quarantine repair");
    let warm = sweep(&cache, &spec);
    assert_eq!(warm, warm_ref);

    std::fs::remove_dir_all(&cache).ok();
    std::fs::remove_file(&spec).ok();
}

/// Spawns `dpopt serve` with a disk cache, returning the child, the bound
/// address, and the stderr reader (keep it alive for the child's life).
fn spawn_server(
    disk_cache: &Path,
    faults: Option<&str>,
) -> (
    std::process::Child,
    String,
    std::io::BufReader<std::process::ChildStderr>,
) {
    let mut cmd = dpopt();
    cmd.args(["serve", "--listen", "127.0.0.1:0", "--jobs", "1"])
        .args(["--disk-cache", disk_cache.to_str().unwrap()])
        .stderr(Stdio::piped());
    if let Some(plan) = faults {
        cmd.env("DPOPT_FAULTS", plan);
    }
    let mut child = cmd.spawn().unwrap();
    let mut reader = std::io::BufReader::new(child.stderr.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "server exited before its listening banner"
        );
        if let Some(addr) = line.trim().strip_prefix("dp-serve listening on ") {
            break addr.to_string();
        }
    };
    (child, addr, reader)
}

const CELL_REQUEST: &str = r#"{"op":"sweep-cell","benchmark":"BFS","dataset":{"id":"KRON","scale":0.002,"seed":42},"variant":{"label":"CDP+T","threshold":128}}"#;

/// Sends the pinned sweep-cell request through `dpopt client`, returning
/// the single response line.
fn request_cell(addr: &str, reqs: &Path) -> String {
    let out = dpopt()
        .args(["client", "--connect", addr, reqs.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "client failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// SIGKILL a `dpopt serve` daemon while it is publishing a disk-cache
/// entry; the cache must fsck clean and a fresh daemon must serve the
/// byte-identical response.
#[test]
fn sigkill_serve_mid_store_leaves_a_recoverable_disk_cache() {
    let reqs = tmp("serve-reqs").with_extension("ndjson");
    std::fs::write(&reqs, format!("{CELL_REQUEST}\n")).unwrap();

    // Reference daemon, never crashed.
    let ref_dir = tmp("serve-ref");
    let _ = std::fs::remove_dir_all(&ref_dir);
    let (mut ref_server, ref_addr, _ref_stderr) = spawn_server(&ref_dir, None);
    let reference = request_cell(&ref_addr, &reqs);
    ref_server.kill().unwrap();
    ref_server.wait().unwrap();

    // Crashing daemon: parked inside the publish rename, then SIGKILLed.
    let dir = tmp("serve-crash");
    let _ = std::fs::remove_dir_all(&dir);
    let (mut server, addr, stderr) =
        spawn_server(&dir, Some("delay-ms30000@fs-rename:sweep-cache"));
    let addr_owned = addr.clone();
    let reqs_clone = reqs.clone();
    // The client blocks on the parked response; run it on the side.
    let client = std::thread::spawn(move || {
        dpopt()
            .args([
                "client",
                "--connect",
                &addr_owned,
                reqs_clone.to_str().unwrap(),
            ])
            .output()
            .unwrap()
    });
    let mut killed = false;
    for line in stderr.lines() {
        let Ok(line) = line else { break };
        if line.contains("fired delay-ms@fs-rename:sweep-cache") {
            server.kill().expect("SIGKILL the daemon");
            killed = true;
            break;
        }
    }
    assert!(killed, "daemon never reached the publish rename");
    server.wait().unwrap();
    let _ = client.join().unwrap(); // the client saw a dead server; fine

    // The torn publish is visible to fsck, repair evicts it, and a fresh
    // daemon over the same directory serves the byte-identical answer.
    let fsck = verify(&dir, true);
    assert!(
        fsck.status.success(),
        "repair failed:\n{}",
        String::from_utf8_lossy(&fsck.stdout)
    );
    assert_verify_clean(&dir, "serve crash after repair");
    let (mut revived, new_addr, _stderr) = spawn_server(&dir, None);
    let recomputed = request_cell(&new_addr, &reqs);
    assert_eq!(
        recomputed, reference,
        "post-crash daemon must serve identical bytes"
    );
    // And now the entry is on disk: one more daemon serves it from the
    // cache, still byte-identical.
    revived.kill().unwrap();
    revived.wait().unwrap();
    let (mut cached, cached_addr, _stderr) = spawn_server(&dir, None);
    let from_disk = request_cell(&cached_addr, &reqs);
    assert_eq!(from_disk, reference, "disk hit must be byte-identical");
    cached.kill().unwrap();
    cached.wait().unwrap();

    std::fs::remove_dir_all(&ref_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&reqs).ok();
}

/// Runs `dpopt sweep --remote` against `remotes`, returning stdout+stderr.
fn shard_sweep(cache: &Path, spec: &Path, remotes: &str) -> (String, String) {
    let out = dpopt()
        .env("DPOPT_CACHE_DIR", cache)
        .args([
            "sweep",
            spec.to_str().unwrap(),
            "--remote",
            remotes,
            "--cache-stats",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "sharded sweep failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn live_entries(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                .count()
        })
        .unwrap_or(0)
}

/// A two-daemon sharded sweep prints the byte-identical table of a local
/// sequential run, cold and warm, and `cache sync` converges all three
/// caches to the same entries.
#[test]
fn sharded_sweep_is_byte_identical_to_local_sequential_runs() {
    let spec = write_spec("shard-clean");
    let ref_cache = tmp("shard-clean-ref");
    let _ = std::fs::remove_dir_all(&ref_cache);
    let cold_ref = sweep(&ref_cache, &spec);
    let warm_ref = sweep(&ref_cache, &spec);

    let dir_a = tmp("shard-clean-a");
    let dir_b = tmp("shard-clean-b");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
    let (mut a, addr_a, _stderr_a) = spawn_server(&dir_a, None);
    let (mut b, addr_b, _stderr_b) = spawn_server(&dir_b, None);
    let remotes = format!("{addr_a},{addr_b}");

    let cache = tmp("shard-clean-cache");
    let _ = std::fs::remove_dir_all(&cache);
    let (cold, _) = shard_sweep(&cache, &spec, &remotes);
    assert_eq!(cold, cold_ref, "cold sharded stdout diverged from local");
    let (warm, _) = shard_sweep(&cache, &spec, &remotes);
    assert_eq!(warm, warm_ref, "warm sharded stdout diverged from local");

    // Fleet convergence: afterwards every cache holds all three entries.
    let sync = dpopt()
        .args(["cache", "sync", &remotes, "--dir", cache.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        sync.status.success(),
        "cache sync failed: {}",
        String::from_utf8_lossy(&sync.stderr)
    );
    let sync_out = String::from_utf8_lossy(&sync.stdout).into_owned();
    assert!(sync_out.contains("union 3 keys"), "{sync_out}");
    for dir in [&cache, &dir_a, &dir_b] {
        assert_eq!(live_entries(dir), 3, "{} did not converge", dir.display());
    }

    a.kill().unwrap();
    a.wait().unwrap();
    b.kill().unwrap();
    b.wait().unwrap();
    for dir in [&ref_cache, &cache, &dir_a, &dir_b] {
        std::fs::remove_dir_all(dir).ok();
    }
    std::fs::remove_file(&spec).ok();
}

/// SIGKILL one of two daemons while it is parked inside a sweep-cell
/// execution: the scheduler must declare it lost, reroute its cells to
/// the survivor, and still print the byte-identical local table.
#[test]
fn sigkill_a_daemon_mid_sharded_sweep_reroutes_with_identical_stdout() {
    let spec_path = write_spec("shard-kill");
    let ref_cache = tmp("shard-kill-ref");
    let _ = std::fs::remove_dir_all(&ref_cache);
    let cold_ref = sweep(&ref_cache, &spec_path);
    let warm_ref = sweep(&ref_cache, &spec_path);

    let spec = dp_sweep::spec_from_json(SWEEP_SPEC).expect("spec");
    let cells = dp_sweep::enumerate_cells(&spec).expect("cells");

    let dir_b = tmp("shard-kill-b");
    let _ = std::fs::remove_dir_all(&dir_b);
    let (mut b, addr_b, _stderr_b) = spawn_server(&dir_b, None);

    // The victim parks 30s inside its first sweep-cell execution (firing
    // the marker first), which is where the SIGKILL lands. Rendezvous
    // routing keys on the daemon's dynamic port, so respawn until the
    // victim actually owns at least one cell.
    let dir_a = tmp("shard-kill-a");
    let mut victim = None;
    for _ in 0..20 {
        let _ = std::fs::remove_dir_all(&dir_a);
        let (child, addr_a, stderr_a) = spawn_server(&dir_a, Some("delay-ms30000@exec:sweep-cell"));
        let endpoints = [
            dp_serve::proto::Endpoint::parse(&addr_a).expect("victim endpoint"),
            dp_serve::proto::Endpoint::parse(&addr_b).expect("survivor endpoint"),
        ];
        if cells
            .iter()
            .any(|c| dp_shard::route(c.key, &endpoints) == 0)
        {
            victim = Some((child, addr_a, stderr_a));
            break;
        }
        let mut child = child;
        child.kill().unwrap();
        child.wait().unwrap();
    }
    let (mut a, addr_a, stderr_a) = victim.expect("routing never picked the victim in 20 spawns");

    let cache = tmp("shard-kill-cache");
    let _ = std::fs::remove_dir_all(&cache);
    let remotes = format!("{addr_a},{addr_b}");
    let spec_clone = spec_path.clone();
    let cache_clone = cache.clone();
    let sweep_thread = std::thread::spawn(move || shard_sweep(&cache_clone, &spec_clone, &remotes));

    let mut killed = false;
    for line in stderr_a.lines() {
        let Ok(line) = line else { break };
        if line.contains("fired delay-ms@exec:sweep-cell") {
            a.kill().expect("SIGKILL the victim daemon");
            killed = true;
            break;
        }
    }
    assert!(killed, "victim daemon never reached a sweep-cell execution");
    a.wait().unwrap();

    let (stdout, stderr) = sweep_thread.join().expect("sharded sweep");
    assert_eq!(
        stdout, cold_ref,
        "stdout diverged after losing a daemon mid-sweep"
    );
    assert!(
        stderr.contains("lost mid-sweep"),
        "expected the reroute diagnostic, got:\n{stderr}"
    );

    // No cell was lost: the local cache is fully warm and a local rerun
    // matches the never-crashed warm table.
    let warm = sweep(&cache, &spec_path);
    assert_eq!(warm, warm_ref, "post-failover warm table diverged");

    b.kill().unwrap();
    b.wait().unwrap();
    for dir in [&ref_cache, &cache, &dir_a, &dir_b] {
        std::fs::remove_dir_all(dir).ok();
    }
    std::fs::remove_file(&spec_path).ok();
}
