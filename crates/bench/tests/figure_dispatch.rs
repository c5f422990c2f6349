//! The figure cells under both dispatchers: every benchmark's cells give
//! the same output, memory, statistics and trace whether the threaded loop
//! or the reference interpreter (`DispatchMode::Match`) runs them.
//!
//! The threaded loop replays uniform prefixes, skips idle loop iterations
//! and retires idle lanes; `Match` does none of that, so this is the check
//! that those shortcuts change nothing a figure reads, on the programs the
//! figures run.
//!
//! - One `#[test]` per benchmark (two for TC) runs its first Table-I
//!   dataset at scale 0.001, CDP and the tuned T+C+A variant, fused and
//!   unfused.
//! - `every_fig9_cell_matches_under_both_dispatchers` (`#[ignore]`d; run it
//!   in release with `--ignored --nocapture`) runs all 126 Fig. 9 cells at
//!   0.001 and at 0.01 and prints, per scale, what the threaded loop did
//!   not dispatch, so a shortcut that stops firing at scale shows.

use dp_bench::figures::bench_names;
use dp_bench::{fig9_variants, scale_for, tuned_for};
use dp_core::Compiler;
use dp_vm::machine::DispatchProfile;
use dp_vm::{DispatchMode, ExecutionTrace, MachineStats, Value};
use dp_workloads::benchmarks::{benchmark_by_name, Variant};
use dp_workloads::{datasets_for, BenchInput, DatasetId};

const SEED: u64 = 42;

/// What one run leaves that a figure can read, floats as their bits.
#[derive(Debug, PartialEq)]
struct Seen {
    ints: Vec<i64>,
    floats: Vec<u64>,
    memory: Vec<(u8, i64, u64)>,
    stats: MachineStats,
    trace: ExecutionTrace,
}

/// A memory word with its tag, a float as its bits.
fn word(v: &Value) -> (u8, i64, u64) {
    match *v {
        Value::Int(v) => (0, v, 0),
        Value::Float(f) => (1, 0, f.to_bits()),
        Value::Dim3 { x, yz } => (2, x, yz as u64),
    }
}

/// Runs `variant` of `bench` on `input` under `dispatch`.
fn run(
    bench: &str,
    variant: Variant,
    input: &BenchInput,
    fuse: bool,
    dispatch: DispatchMode,
) -> (Seen, DispatchProfile) {
    let bench = benchmark_by_name(bench).expect("a Table-I benchmark");
    let (source, config) = variant.program(bench.as_ref());
    let compiled = Compiler::new()
        .config(config)
        .fusion(fuse)
        .dispatch(dispatch)
        .compile(source)
        .unwrap();
    let mut exec = compiled.executor();
    let output = bench.run(&mut exec, input).unwrap();
    let m = exec.machine_mut();
    let words = m.mem.allocated_words();
    let memory = m
        .mem
        .read_range(1, words - 1)
        .unwrap()
        .iter()
        .map(word)
        .collect();
    let profile = m.dispatch_profile();
    let report = exec.finish();
    let seen = Seen {
        ints: output.ints,
        floats: output.floats.iter().map(|f| f.to_bits()).collect(),
        memory,
        stats: report.stats,
        trace: report.trace,
    };
    (seen, profile)
}

/// Runs one cell under both dispatchers, asserts they agree, and returns
/// the threaded loop's profile.
fn check(
    bench: &str,
    dataset: DatasetId,
    scale: f64,
    label: &str,
    variant: Variant,
    fuse: bool,
) -> DispatchProfile {
    let input = dataset.instantiate(scale_for(bench, scale), SEED);
    let (threaded, profile) = run(bench, variant, &input, fuse, DispatchMode::Threaded);
    let (reference, _) = run(bench, variant, &input, fuse, DispatchMode::Match);
    let cell = format!("{bench}/{dataset:?} at {scale}, {label}, fuse={fuse}");
    assert_eq!(threaded.ints, reference.ints, "{cell}: integer output");
    assert_eq!(threaded.floats, reference.floats, "{cell}: float output");
    assert!(threaded.memory == reference.memory, "{cell}: memory");
    assert_eq!(threaded.stats, reference.stats, "{cell}: statistics");
    assert!(threaded.trace == reference.trace, "{cell}: trace");
    profile
}

/// The tier-1 slice of one benchmark: its first dataset at 0.001, the
/// variants labelled `labels` (CDP and tuned T+C+A), fused and unfused.
fn slice(bench: &str, labels: &[&str]) {
    let dataset = datasets_for(bench)[0];
    for (label, variant) in fig9_variants(tuned_for(bench)) {
        if !labels.contains(&label) {
            continue;
        }
        for fuse in [true, false] {
            check(bench, dataset, 0.001, label, variant, fuse);
        }
    }
}

const SLICE: [&str; 2] = ["CDP", "CDP+T+C+A"];

#[test]
fn bfs_cells_match_under_both_dispatchers() {
    slice("BFS", &SLICE);
}

#[test]
fn bt_cells_match_under_both_dispatchers() {
    slice("BT", &SLICE);
}

#[test]
fn mstf_cells_match_under_both_dispatchers() {
    slice("MSTF", &SLICE);
}

#[test]
fn mstv_cells_match_under_both_dispatchers() {
    slice("MSTV", &SLICE);
}

#[test]
fn sp_cells_match_under_both_dispatchers() {
    slice("SP", &SLICE);
}

#[test]
fn sssp_cells_match_under_both_dispatchers() {
    slice("SSSP", &SLICE);
}

// TC's two variants are a test each, so that the harness overlaps them:
// they take most of the slice's time.
#[test]
fn tc_cdp_cells_match_under_both_dispatchers() {
    slice("TC", &SLICE[..1]);
}

#[test]
fn tc_tuned_cells_match_under_both_dispatchers() {
    slice("TC", &SLICE[1..]);
}

/// Every Fig. 9 cell — each benchmark's nine variants at its tuned
/// parameters, on each of its datasets — at both scales, fused.
#[test]
#[ignore = "the figures soak: minutes in release"]
fn every_fig9_cell_matches_under_both_dispatchers() {
    const SCALES: [f64; 2] = [0.001, 0.01];
    for scale in SCALES {
        let mut sum = DispatchProfile::default();
        let mut cells = 0;
        for bench in bench_names() {
            for dataset in datasets_for(bench) {
                for (label, variant) in fig9_variants(tuned_for(bench)) {
                    let p = check(bench, dataset, scale, label, variant, true);
                    sum.replayed_lanes += p.replayed_lanes;
                    sum.replayed_instructions += p.replayed_instructions;
                    sum.skipped_iterations += p.skipped_iterations;
                    sum.skipped_instructions += p.skipped_instructions;
                    sum.skipped_lanes += p.skipped_lanes;
                    sum.skipped_lane_instructions += p.skipped_lane_instructions;
                    cells += 1;
                }
            }
        }
        println!(
            "scale {scale}: {cells} cells agree; replayed {} lanes ({} instructions), \
             skipped {} iterations ({} instructions) and {} lanes ({} instructions)",
            sum.replayed_lanes,
            sum.replayed_instructions,
            sum.skipped_iterations,
            sum.skipped_instructions,
            sum.skipped_lanes,
            sum.skipped_lane_instructions,
        );
        assert_eq!(cells, 126, "scale {scale}");
    }
}
