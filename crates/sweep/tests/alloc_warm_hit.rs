//! An allocation budget for a warm sweep's per-cell work — the gate that
//! catches the cache's one-pass decoder silently falling back to the JSON
//! tree, or a key that goes back to building its canonical string.
//!
//! This binary holds a single `#[test]` so nothing else allocates while it
//! counts, and it asserts *counts*, which repeat exactly run to run; it
//! cannot flake the way a timing would.
//!
//! The 72-cell spec `dpbench`'s `sweep-warm` runs (BFS, BT, MSTV and SP on
//! their Table-I datasets at scale 0.001, nine variants each):
//!
//! | | `enumerate_cells` | `check`, all 72 entries | `check`, one entry at most |
//! |---|---|---|---|
//! | canonical string per key, JSON tree per check | 1 121 | 2 452 | 41 |
//! | one digest per source, one tail per series, one-pass decode | 19 | 90 | 2 |
//!
//! The budgets are today's counts. If a change needs more, find the copy
//! before raising them.

use dp_sweep::{cache, enumerate_cells, run_sweep, spec_from_json, SweepOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a relaxed statistic on the side.
// (`realloc` keeps its default, which calls `alloc`, so a growing `Vec` or
// `String` counts once per growth.)
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let value = f();
    (value, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

const WARM_SPEC: &str = r#"{"scale":0.001,"seed":7,"benchmarks":["BFS","BT","MSTV","SP"],"variants":[{"no_cdp":true},{"label":"CDP"},{"threshold":128},{"coarsen":16},{"agg":"multiblock:8"},{"threshold":128,"coarsen":16},{"threshold":128,"agg":"multiblock:8"},{"coarsen":16,"agg":"multiblock:8"},{"threshold":128,"coarsen":16,"agg":"multiblock:8"}]}"#;

/// Allocations for the 72 keys: the cell vector, the source digests' vector
/// (grown twice for eight sources), and per series (eight) a benchmark
/// handle and its tail.
const ENUMERATE_BUDGET: u64 = 19;

/// Allocations per checked entry: its output vectors, each allocated once
/// (every entry has integer outputs, 18 of the 72 float outputs too).
const CHECK_BUDGET_PER_ENTRY: u64 = 2;
const CHECK_BUDGET: u64 = 90;

#[test]
fn a_warm_hit_stays_inside_its_allocation_budget() {
    let spec = spec_from_json(WARM_SPEC).expect("the warm spec parses");
    let (cells, enumerate) = allocations_during(|| enumerate_cells(&spec).expect("known names"));
    assert_eq!(cells.len(), 72);

    // Fill a cache with the entries a cold sweep writes, then check each.
    let dir = std::env::temp_dir().join(format!("dp-sweep-alloc-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = SweepOptions {
        jobs: 1,
        cache: true,
        cache_dir: Some(dir.clone()),
        quiet: true,
    };
    assert_eq!(run_sweep(&spec, &opts).cache.misses, 72);
    let entries: Vec<(u64, String)> = cells
        .iter()
        .map(|cell| {
            let path = dir.join(format!("{:016x}.json", cell.key));
            (
                cell.key,
                std::fs::read_to_string(path).expect("the cold sweep stored it"),
            )
        })
        .collect();
    let (mut total, mut most) = (0, 0);
    for (key, text) in &entries {
        let (verdict, n) = allocations_during(|| cache::check(text, *key));
        assert!(verdict.is_ok(), "{key:016x}: {verdict:?}");
        total += n;
        most = most.max(n);
    }
    std::fs::remove_dir_all(&dir).ok();
    println!("enumerate_cells: {enumerate} allocations; check: {total} in all, {most} at most");

    assert!(
        enumerate <= ENUMERATE_BUDGET,
        "enumerate_cells made {enumerate} allocations for 72 cells; the budget is {ENUMERATE_BUDGET}"
    );
    assert!(
        most <= CHECK_BUDGET_PER_ENTRY,
        "one check made {most} allocations; the budget is {CHECK_BUDGET_PER_ENTRY} (its output vectors)"
    );
    assert!(
        total <= CHECK_BUDGET,
        "checking 72 entries made {total} allocations; the budget is {CHECK_BUDGET}"
    );
}
