//! Criterion wrappers around the figure harnesses, at miniature scale.
//!
//! These keep `cargo bench` fast while exercising the same code paths as
//! the full `fig9`/`fig10`/`fig11`/`fig12` binaries (which remain the way
//! to regenerate the paper's tables).

use criterion::{criterion_group, criterion_main, Criterion};
use dp_bench::{fig9_variants, run_series, tuned_for, Harness};
use dp_core::TimingParams;
use dp_workloads::benchmarks::{bfs::Bfs, sssp::Sssp, Variant};
use dp_workloads::datasets::DatasetId;
use std::hint::black_box;

const MINI_SCALE: f64 = 0.008;

fn bench_fig9_cell(c: &mut Criterion) {
    let input = DatasetId::Kron.instantiate(MINI_SCALE, 42);
    let timing = TimingParams::default();
    let mut group = c.benchmark_group("fig9_bfs_kron_mini");
    group.sample_size(10);
    for (label, variant) in fig9_variants(tuned_for("BFS")) {
        group.bench_function(label, |b| {
            b.iter(|| {
                let cells = run_series(&Bfs, &input, &[(label, variant)], &timing);
                black_box(cells[0].time_us)
            })
        });
    }
    group.finish();
}

fn bench_fig10_breakdown(c: &mut Criterion) {
    let input = DatasetId::Kron.instantiate(MINI_SCALE, 42);
    let harness = Harness {
        scale: MINI_SCALE,
        ..Default::default()
    };
    let variants: Vec<(&'static str, Variant)> = fig9_variants(tuned_for("SSSP"))
        .into_iter()
        .filter(|(l, _)| matches!(*l, "KLAP (CDP+A)" | "CDP+T+A" | "CDP+T+C+A"))
        .collect();
    let mut group = c.benchmark_group("fig10_sssp_kron_mini");
    group.sample_size(10);
    group.bench_function("breakdown_three_variants", |b| {
        b.iter(|| {
            let cells = run_series(&Sssp, &input, &variants, &harness.timing);
            let b0 = cells[0].run.report.simulate(&harness.timing).breakdown;
            black_box(b0.total())
        })
    });
    group.finish();
}

fn bench_fig12_road(c: &mut Criterion) {
    let input = DatasetId::RoadNy.instantiate(MINI_SCALE, 42);
    let timing = TimingParams::default();
    let variants = fig9_variants(tuned_for("BFS"));
    let mut group = c.benchmark_group("fig12_bfs_road_mini");
    group.sample_size(10);
    group.bench_function("all_variants", |b| {
        b.iter(|| {
            let cells = run_series(&Bfs, &input, &variants, &timing);
            black_box(cells.len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fig9_cell,
    bench_fig10_breakdown,
    bench_fig12_road
);
criterion_main!(benches);
