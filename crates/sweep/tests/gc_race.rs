//! Concurrency test for the storage tier: `gc` running against live
//! `store`/`load` traffic must never surface a torn or corrupt entry.
//! Eviction racing a publish is allowed to produce a *miss* (the entry
//! vanished) — never a wrong or partial read, which the checksum footer
//! would catch as a quarantine.

use dp_sweep::cache::{self, StoreOutcome};
use dp_sweep::CellSummary;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn summary_for(key: u64) -> CellSummary {
    CellSummary {
        label: format!("cell-{key}"),
        total_us: key as f64 * 1.5,
        device_span_us: 1.0,
        parent_us: 0.0,
        child_us: 0.0,
        launch_us: 0.0,
        aggregation_us: 0.0,
        disaggregation_us: 0.0,
        warp_avg_total_us: 1.0,
        device_launches: key,
        host_launches: 1,
        origin_cycles_total: key.wrapping_mul(3),
        instructions: key,
        output_ints: vec![key as i64, -(key as i64)],
        output_floats: vec![],
        verified: true,
        from_cache: false,
    }
}

#[test]
fn gc_racing_stores_and_loads_never_serves_a_torn_entry() {
    let dir = std::env::temp_dir().join(format!("dp-sweep-gc-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir = Arc::new(dir);

    const KEYS: u64 = 32;
    let stop = Arc::new(AtomicBool::new(false));
    let loads_ok = Arc::new(AtomicU64::new(0));
    let mut workers = Vec::new();

    // Two writer/reader threads hammering overlapping key ranges.
    for t in 0..2u64 {
        let dir = Arc::clone(&dir);
        let stop = Arc::clone(&stop);
        let loads_ok = Arc::clone(&loads_ok);
        workers.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for key in (t * KEYS / 2)..(t * KEYS / 2 + KEYS / 2 + 4) {
                    let outcome = cache::store(&dir, key, &summary_for(key));
                    assert_ne!(
                        outcome,
                        StoreOutcome::Unavailable,
                        "a healthy dir must never look full/read-only"
                    );
                    if let Some(loaded) = cache::load(&dir, key) {
                        // A hit must be the exact value some store wrote —
                        // the checksum already rejected anything torn.
                        assert_eq!(loaded.device_launches, key, "wrong entry for {key:016x}");
                        assert_eq!(loaded.output_ints, vec![key as i64, -(key as i64)]);
                        loads_ok.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }));
    }

    // The collector: aggressive budget so evictions genuinely overlap the
    // writers' publishes and touches.
    let gc_passes = Arc::new(AtomicU64::new(0));
    let collector = {
        let (dir, stop, gc_passes) = (dir.clone(), stop.clone(), gc_passes.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                cache::gc(&dir, 4 * 1024).expect("gc survives live traffic");
                gc_passes.fetch_add(1, Ordering::Relaxed);
            }
        })
    };

    // Run until the race has demonstrably happened — both sides well past
    // a floor — rather than for a fixed time a loaded runner may not honour.
    const LOADS_FLOOR: u64 = 2_000;
    const GC_FLOOR: u64 = 100;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let progress = || {
        (
            loads_ok.load(Ordering::Relaxed),
            gc_passes.load(Ordering::Relaxed),
        )
    };
    while progress().0 < LOADS_FLOOR || progress().1 < GC_FLOOR {
        if std::time::Instant::now() > deadline {
            stop.store(true, Ordering::Relaxed);
            panic!(
                "after 60 s only {:?} of ({LOADS_FLOOR}, {GC_FLOOR}) (verified loads, gc passes): \
                 the race never exercised both paths",
                progress()
            );
        }
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().expect("worker panicked");
    }
    collector.join().expect("collector panicked");

    // After the dust settles the directory must be fsck-clean: eviction
    // races are allowed to delete entries, never to corrupt them.
    let report = cache::verify(&dir, false).expect("verify scans");
    assert!(
        report.is_clean(),
        "post-race cache has problems: {:?}",
        report
            .findings
            .iter()
            .map(|f| format!("{} {}: {}", f.problem.label(), f.name, f.detail))
            .collect::<Vec<_>>()
    );
    std::fs::remove_dir_all(&*dir).ok();
}
