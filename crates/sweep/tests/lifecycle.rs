//! The sweep lifecycle driven from outside, as `dp-shard` drives it.

use dp_sweep::{
    cache, enumerate_cells, run_sweep, spec_from_json, Sweep, SweepOptions, SweepResult,
};

/// The equivalence `dp-shard` relies on: a sweep whose every cell is
/// answered from outside — here with `run_sweep`'s own summaries, put
/// through the wire form a daemon's answer arrives in — merges to what
/// `run_sweep` returns, and leaves the cache as `run_sweep` would.
#[test]
fn completing_every_slot_from_outside_equals_run_sweep() {
    let spec = spec_from_json(
        r#"{"scale": 0.002, "benchmarks": ["BFS"], "datasets": ["KRON"],
            "variants": [{"no_cdp": true}, {"label": "CDP"}, {"threshold": 128, "coarsen": 16}]}"#,
    )
    .unwrap();
    let opts = |cache: bool, dir: &std::path::Path| SweepOptions {
        jobs: 1,
        cache,
        cache_dir: Some(dir.to_path_buf()),
        quiet: true,
    };
    let dir = std::env::temp_dir().join(format!("dp-sweep-life-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let reference = run_sweep(&spec, &opts(false, &dir));
    let opts = opts(true, &dir);

    let sweep = Sweep::probe(&spec, &opts).unwrap();
    assert_eq!(sweep.cells(), enumerate_cells(&spec).unwrap());
    assert_eq!(
        sweep.pending(),
        vec![0, 1, 2],
        "cold: every slot is pending"
    );
    for (slot, cell) in sweep.cells().iter().enumerate() {
        let computed = &reference.series[cell.series_idx].cells[cell.cell_idx];
        let wire = cache::summary_json(cell.key, computed);
        sweep.complete(slot, cache::summary_from_json(&wire).unwrap());
        assert!(!sweep.pending().contains(&slot));
    }
    let merged = sweep.finish();
    let cells = |r: &SweepResult| format!("{:?}", r.series[0].cells);
    assert_eq!(
        cells(&merged),
        cells(&reference),
        "label, verified, from_cache included"
    );
    assert_eq!(merged.series[0].benchmark, reference.series[0].benchmark);
    assert_eq!(
        merged.series[0].dataset_name,
        reference.series[0].dataset_name
    );
    assert_eq!(merged.jobs, reference.jobs);
    assert_eq!((merged.cache.hits, merged.cache.misses), (0, 3));
    assert!(
        merged.series[0].dataset_description.is_none(),
        "nothing ran here, so no dataset was materialized"
    );

    // `complete` stored what it was given: the next probe is all hits.
    let warm = Sweep::probe(&spec, &opts).unwrap();
    assert!(warm.pending().is_empty());
    let warm = warm.finish();
    assert_eq!((warm.cache.hits, warm.cache.misses), (3, 0));
    assert!(warm.series[0]
        .cells
        .iter()
        .all(|c| c.from_cache && c.verified));
    assert_eq!(
        cells(&warm).replace("from_cache: true", "from_cache: false"),
        cells(&reference)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
