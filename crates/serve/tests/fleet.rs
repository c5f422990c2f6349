//! Sharded sweeps and fleet cache sync against real in-process daemons.
//!
//! Contract under test: `shard_sweep` produces the same result as a local
//! sequential `run_sweep` at any fleet size — cold, warm, through dropped
//! sessions (reconnect + re-authenticate), and when daemons are lost
//! mid-sweep (reroute to survivors, or local fallback when the whole
//! fleet is gone). `sync_caches` converges every cache to the union of
//! entries and never accepts bytes that fail checksum re-verification,
//! even from a daemon that serves garbage.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;

use dp_serve::client::ClientOptions;
use dp_serve::proto::Endpoint;
use dp_serve::shard::{shard_sweep, sync_caches, ShardOptions, SyncOptions};
use dp_serve::{ServeOptions, Server};
use dp_sweep::cache;
use dp_sweep::faults::FaultPlan;
use dp_sweep::json::Json;
use dp_sweep::{run_sweep, spec_from_json, SweepOptions, SweepResult, SweepSpec};

/// Two series (BFS and SSSP on KRON) of three variants each: six cells,
/// small enough to execute in-process but plural enough that routing
/// spreads work and a lost daemon actually strands cells.
const FLEET_SPEC: &str = r#"{
  "scale": 0.002,
  "seed": 42,
  "benchmarks": ["BFS", "SSSP"],
  "datasets": ["KRON"],
  "variants": [
    {"no_cdp": true},
    {"label": "CDP"},
    {"threshold": 128, "coarsen": 16, "agg": "multiblock:8"}
  ]
}"#;

fn spec() -> SweepSpec {
    spec_from_json(FLEET_SPEC).expect("fleet spec parses")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dp-shard-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_daemon(options: ServeOptions) -> Endpoint {
    let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".to_string()), &options).expect("bind");
    let endpoint = server.endpoint().clone();
    std::thread::spawn(move || server.serve().expect("serve"));
    endpoint
}

fn client_options(token: Option<&str>) -> ClientOptions {
    ClientOptions {
        connect_timeout_ms: 2_000,
        read_timeout_ms: 60_000,
        retries: 2,
        backoff_base_ms: 1,
        backoff_seed: 7,
        auth_token: token.map(str::to_string),
    }
}

/// The ground truth every sharded run must reproduce: a plain local
/// sequential sweep with the cache out of the picture.
fn local_reference(spec: &SweepSpec) -> SweepResult {
    run_sweep(
        spec,
        &SweepOptions {
            jobs: 1,
            cache: false,
            cache_dir: None,
            quiet: true,
        },
    )
}

/// Asserts every determinism-relevant field matches, cell by cell in spec
/// order. `from_cache` is deliberately excluded — it reflects *where* a
/// result came from, which is exactly what sharding is allowed to change.
fn assert_same_result(got: &SweepResult, want: &SweepResult) {
    assert_eq!(got.series.len(), want.series.len(), "series count");
    for (gs, ws) in got.series.iter().zip(&want.series) {
        assert_eq!(gs.benchmark, ws.benchmark);
        assert_eq!(gs.dataset_name, ws.dataset_name);
        assert_eq!(
            gs.cells.len(),
            ws.cells.len(),
            "{}: cell count",
            gs.benchmark
        );
        for (gc, wc) in gs.cells.iter().zip(&ws.cells) {
            let tag = format!("{}/{}", gs.benchmark, wc.label);
            assert_eq!(gc.label, wc.label, "{tag}: label");
            assert_eq!(gc.total_us, wc.total_us, "{tag}: total_us");
            assert_eq!(
                gc.device_span_us, wc.device_span_us,
                "{tag}: device_span_us"
            );
            assert_eq!(
                gc.device_launches, wc.device_launches,
                "{tag}: device_launches"
            );
            assert_eq!(gc.host_launches, wc.host_launches, "{tag}: host_launches");
            assert_eq!(gc.instructions, wc.instructions, "{tag}: instructions");
            assert_eq!(gc.output_ints, wc.output_ints, "{tag}: output_ints");
            assert_eq!(gc.output_floats, wc.output_floats, "{tag}: output_floats");
            assert!(gc.verified, "{tag}: must re-verify against cell 0");
            assert!(wc.verified, "{tag}: reference must verify");
        }
    }
}

#[test]
fn sharded_sweeps_match_a_local_run_cold_and_warm() {
    let reference = local_reference(&spec());
    let fleet = [
        start_daemon(ServeOptions {
            jobs: 1,
            ..ServeOptions::default()
        }),
        start_daemon(ServeOptions {
            jobs: 1,
            ..ServeOptions::default()
        }),
    ];
    let dir = tmp("coldwarm");
    let opts = ShardOptions {
        client: client_options(None),
        cache: true,
        cache_dir: Some(dir.clone()),
    };

    let cold = shard_sweep(&fleet, &spec(), &opts).expect("cold sharded sweep");
    assert_same_result(&cold, &reference);
    assert_eq!(cold.jobs, 1, "sharded runs report the local merge width");
    assert!(cold.cache.enabled);
    assert_eq!(cold.cache.hits, 0, "cold run: nothing cached yet");
    assert_eq!(cold.cache.misses, 6);

    // The cold run populated the local cache; a warm rerun never touches
    // the fleet (every cell short-circuits) and still matches.
    let warm = shard_sweep(&fleet, &spec(), &opts).expect("warm sharded sweep");
    assert_same_result(&warm, &reference);
    assert_eq!(warm.cache.hits, 6, "warm run: every cell is a local hit");
    assert_eq!(warm.cache.misses, 0);
    for series in &warm.series {
        for cell in &series.cells {
            assert!(cell.from_cache, "warm cells come from the local cache");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dropped_sessions_reconnect_and_reauthenticate_without_losing_cells() {
    let reference = local_reference(&spec());
    // The daemon hangs up twice right after reading a line (the `hello`
    // of the first two sessions); the client's retry budget covers both,
    // so the sweep completes with the daemon never declared lost.
    let daemon = start_daemon(ServeOptions {
        jobs: 1,
        auth_token: Some("fleet-secret".to_string()),
        faults: FaultPlan::parse("disconnect@session-read*2").expect("fault plan"),
        ..ServeOptions::default()
    });
    let dir = tmp("flaky");
    let opts = ShardOptions {
        client: client_options(Some("fleet-secret")),
        cache: false,
        cache_dir: Some(dir.clone()),
    };
    let result =
        shard_sweep(&[daemon], &spec(), &opts).expect("sweep survives two dropped sessions");
    assert_same_result(&result, &reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_daemon_lost_mid_sweep_reroutes_to_the_survivor() {
    let reference = local_reference(&spec());
    // One daemon drops every session until the retry budget is spent and
    // it is declared lost; its cells must land on the survivor with no
    // loss and no duplicates.
    let doomed = start_daemon(ServeOptions {
        jobs: 1,
        faults: FaultPlan::parse("disconnect@session-read*100000").expect("fault plan"),
        ..ServeOptions::default()
    });
    let survivor = start_daemon(ServeOptions {
        jobs: 1,
        ..ServeOptions::default()
    });
    let dir = tmp("failover");
    let opts = ShardOptions {
        client: client_options(None),
        cache: false,
        cache_dir: Some(dir.clone()),
    };
    let result = shard_sweep(&[doomed, survivor], &spec(), &opts)
        .expect("survivor absorbs the lost daemon's cells");
    assert_same_result(&result, &reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_fully_lost_fleet_falls_back_to_local_execution() {
    let reference = local_reference(&spec());
    let fleet = [
        start_daemon(ServeOptions {
            jobs: 1,
            faults: FaultPlan::parse("disconnect@session-read*100000").expect("fault plan"),
            ..ServeOptions::default()
        }),
        start_daemon(ServeOptions {
            jobs: 1,
            faults: FaultPlan::parse("disconnect@session-read*100000").expect("fault plan"),
            ..ServeOptions::default()
        }),
    ];
    let dir = tmp("all-lost");
    let opts = ShardOptions {
        client: client_options(None),
        cache: false,
        cache_dir: Some(dir.clone()),
    };
    let result = shard_sweep(&fleet, &spec(), &opts).expect("local fallback completes the sweep");
    assert_same_result(&result, &reference);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same fallback with the local cache on: the lifecycle that probed
/// the cells is the one that runs them, so every cell is hashed and probed
/// once (the fallback used to re-enter `run_sweep` on a rebuilt sub-spec),
/// its result is stored by the one store, and a warm rerun is all hits.
///
/// The registry is process-wide and the other tests of this binary run
/// beside this one, so the counting happens in a child copy of the binary
/// that runs this test alone.
#[test]
fn a_fully_lost_fleet_with_the_cache_on_probes_each_cell_once() {
    const CHILD_MARKER: &str = "DP_SHARD_FLEET_CHILD";
    if std::env::var_os(CHILD_MARKER).is_none() {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "a_fully_lost_fleet_with_the_cache_on_probes_each_cell_once",
                "--exact",
                "--nocapture",
            ])
            .env(CHILD_MARKER, "1")
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "child run failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        return;
    }

    let reference = local_reference(&spec());
    let lost = || {
        start_daemon(ServeOptions {
            jobs: 1,
            faults: FaultPlan::parse("disconnect@session-read*100000").expect("fault plan"),
            ..ServeOptions::default()
        })
    };
    let fleet = [lost(), lost()];
    let dir = tmp("all-lost-cached");
    let opts = ShardOptions {
        client: client_options(None),
        cache: true,
        cache_dir: Some(dir.clone()),
    };
    // `Server::bind` switched the registry on.
    let counted = |name: &str| dp_obs::metrics::snapshot().counter(name);
    let (hits, misses) = (counted("sweep.cache.hits"), counted("sweep.cache.misses"));

    let cold = shard_sweep(&fleet, &spec(), &opts).expect("local fallback completes the sweep");
    assert_same_result(&cold, &reference);
    assert_eq!((cold.cache.hits, cold.cache.misses), (0, 6));
    assert_eq!(
        counted("sweep.cache.misses") - misses,
        6,
        "one probe a cell"
    );
    assert_eq!(counted("sweep.cache.hits") - hits, 0);
    assert_eq!(cache::list_keys(&dir).expect("inventory").len(), 6);

    let warm = shard_sweep(&fleet, &spec(), &opts).expect("warm rerun");
    assert_same_result(&warm, &reference);
    assert_eq!((warm.cache.hits, warm.cache.misses), (6, 0));
    assert_eq!(counted("sweep.cache.hits") - hits, 6);
    assert_eq!(
        counted("sweep.cache.misses") - misses,
        6,
        "the rerun missed nothing"
    );
    assert!(warm
        .series
        .iter()
        .flat_map(|s| &s.cells)
        .all(|c| c.from_cache));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_sync_converges_local_and_fleet_caches() {
    // Populate the local cache by running the sweep for real.
    let local_dir = tmp("sync-local");
    run_sweep(
        &spec(),
        &SweepOptions {
            jobs: 1,
            cache: true,
            cache_dir: Some(local_dir.clone()),
            quiet: true,
        },
    );
    let keys = cache::list_keys(&local_dir).expect("local inventory");
    assert_eq!(keys.len(), 6, "six cells leave six entries");

    let dir_a = tmp("sync-a");
    let dir_b = tmp("sync-b");
    let fleet = [
        start_daemon(ServeOptions {
            jobs: 1,
            disk_cache: Some(dir_a.clone()),
            ..ServeOptions::default()
        }),
        start_daemon(ServeOptions {
            jobs: 1,
            disk_cache: Some(dir_b.clone()),
            ..ServeOptions::default()
        }),
    ];
    let opts = SyncOptions {
        client: client_options(None),
        cache_dir: Some(local_dir.clone()),
    };

    let report = sync_caches(&fleet, &opts).expect("first sync");
    assert_eq!(report.union, 6);
    assert_eq!(report.local_before, 6);
    assert_eq!(report.pulled, 0);
    assert_eq!(report.rejected, 0);
    let pushed: Vec<usize> = report.pushed.iter().map(|(_, n)| *n).collect();
    assert_eq!(pushed, vec![6, 6], "every daemon receives every entry");
    assert_eq!(cache::list_keys(&dir_a).expect("daemon A inventory"), keys);
    assert_eq!(cache::list_keys(&dir_b).expect("daemon B inventory"), keys);

    // A converged fleet syncs as a no-op.
    let again = sync_caches(&fleet, &opts).expect("second sync");
    assert_eq!(again.pulled, 0);
    assert_eq!(again.pushed.iter().map(|(_, n)| *n).sum::<usize>(), 0);

    // Losing a local entry is repaired from the fleet on the next sync.
    let lost = keys[0];
    std::fs::remove_file(local_dir.join(format!("{lost:016x}.json"))).expect("drop local entry");
    let repaired = sync_caches(&fleet, &opts).expect("repair sync");
    assert_eq!(repaired.local_before, 5);
    assert_eq!(repaired.pulled, 1);
    assert_eq!(repaired.rejected, 0);
    assert!(
        cache::load_sealed(&local_dir, lost).is_some(),
        "pulled entry verifies locally"
    );

    for dir in [&local_dir, &dir_a, &dir_b] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A protocol-speaking TCP listener that claims to hold `key` but serves
/// `entry` (corrupt bytes) for it — the "lying daemon" a pulling client
/// must defend against, since a real daemon re-verifies before serving.
fn lying_daemon(key: u64, entry: String) -> Endpoint {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind liar");
    let addr = listener.local_addr().expect("liar addr").to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut out = stream;
            let mut line = String::new();
            loop {
                line.clear();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    break;
                }
                let answer = if line.contains(r#""op":"cache-pull""#) {
                    if line.contains(r#""key""#) {
                        format!(
                            r#"{{"entry":{},"found":true,"key":"{key:016x}","ok":true,"op":"cache-pull"}}"#,
                            Json::Str(entry.clone())
                        )
                    } else {
                        format!(r#"{{"keys":["{key:016x}"],"ok":true,"op":"cache-pull"}}"#)
                    }
                } else {
                    // Acknowledge pushes (and anything else) and drop them.
                    r#"{"ok":true,"op":"cache-push","stored":true}"#.to_string()
                };
                if out
                    .write_all(format!("{answer}\n").as_bytes())
                    .and_then(|()| out.flush())
                    .is_err()
                {
                    break;
                }
            }
        }
    });
    Endpoint::Tcp(addr)
}

#[test]
fn a_corrupt_pulled_entry_is_rejected_and_repaired_from_a_good_copy() {
    // Seed daemon B with all six entries via a scratch local cache.
    let seed_dir = tmp("liar-seed");
    run_sweep(
        &spec(),
        &SweepOptions {
            jobs: 1,
            cache: true,
            cache_dir: Some(seed_dir.clone()),
            quiet: true,
        },
    );
    let keys = cache::list_keys(&seed_dir).expect("seed inventory");
    let dir_b = tmp("liar-good");
    let good = start_daemon(ServeOptions {
        jobs: 1,
        disk_cache: Some(dir_b.clone()),
        ..ServeOptions::default()
    });
    sync_caches(
        std::slice::from_ref(&good),
        &SyncOptions {
            client: client_options(None),
            cache_dir: Some(seed_dir.clone()),
        },
    )
    .expect("seed daemon B");

    // The liar claims keys[0] but serves it with one byte flipped.
    let target = keys[0];
    let mut bytes = cache::load_sealed(&seed_dir, target)
        .expect("sealed entry")
        .into_bytes();
    let mid = bytes.len() / 4;
    bytes[mid] ^= 0x20;
    let liar = lying_daemon(target, String::from_utf8(bytes).expect("still utf-8"));

    // Sync into an empty local cache: the pull from the liar must be
    // rejected and quarantined, the good copy pulled from B instead, and
    // the repaired entry pushed back to the liar (it "lacks" a valid one).
    let local_dir = tmp("liar-local");
    let report = sync_caches(
        &[liar, good],
        &SyncOptions {
            client: client_options(None),
            cache_dir: Some(local_dir.clone()),
        },
    )
    .expect("sync with a lying daemon");
    assert_eq!(report.union, 6);
    assert_eq!(report.local_before, 0);
    assert_eq!(report.rejected, 1, "the liar's copy fails re-verification");
    assert_eq!(report.pulled, 6, "every entry is recovered from daemon B");
    let pushed: Vec<usize> = report.pushed.iter().map(|(_, n)| *n).collect();
    assert_eq!(
        pushed,
        vec![6, 0],
        "the liar is re-fed everything, B has it all"
    );

    // The rejected bytes were quarantined, never published locally.
    assert!(
        local_dir.join(format!("{target:016x}.corrupt")).exists(),
        "rejected payload is kept aside for inspection"
    );
    assert!(
        cache::load_sealed(&local_dir, target).is_some(),
        "the live entry is the verified copy from daemon B"
    );

    for dir in [&seed_dir, &dir_b, &local_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
