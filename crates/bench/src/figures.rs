//! The paper's figures as sweep specs plus formatters.
//!
//! Each figure/table is split into
//!
//! 1. a **spec builder** (`*_spec`) that declares the benchmark × dataset ×
//!    variant grid as a [`SweepSpec`], and
//! 2. a **formatter** (`*_format`) that renders a merged [`SweepResult`]
//!    into the exact stdout text the original sequential driver printed
//!    (byte-identical — enforced by `tests/golden_figures.rs`),
//!
//! with a `*_report` convenience that runs the spec through the engine and
//! formats it. The binaries in `src/bin/` are thin wrappers around the
//! report functions, which makes every figure reproduction parallel
//! (`DPOPT_JOBS`) and incrementally re-runnable (`.dpopt-cache/`).
//!
//! All formatters take a `benchmarks` slice so tests can render a subset;
//! the binaries pass [`bench_names`] (the full Table-I set).

use crate::{fig9_variants, geomean, row, scale_for, tuned_for, Harness};
use dp_core::{AggConfig, AggGranularity, OptConfig, TimingParams};
use dp_sweep::{
    run_sweep, CellSummary, DatasetSpec, SeriesResult, SeriesSpec, SweepOptions, SweepResult,
    SweepSpec, VariantSpec,
};
use dp_vm::bytecode::CostModel;
use dp_workloads::benchmarks::Variant;
use dp_workloads::{datasets_for, DatasetId};
use std::collections::HashMap;
use std::fmt::Write as _;

/// The Table-I benchmark names, in registry order.
pub fn bench_names() -> Vec<&'static str> {
    vec!["BFS", "BT", "MSTF", "MSTV", "SP", "SSSP", "TC"]
}

fn variant_specs(variants: Vec<(&'static str, Variant)>) -> Vec<VariantSpec> {
    variants
        .into_iter()
        .map(|(label, variant)| VariantSpec::new(label, variant))
        .collect()
}

/// Speedup of every cell over the cell labelled `baseline`.
fn summary_speedups(cells: &[CellSummary], baseline: &str) -> Vec<(String, f64)> {
    let base = cells
        .iter()
        .find(|c| c.label == baseline)
        .unwrap_or_else(|| panic!("baseline `{baseline}` not in series"))
        .total_us;
    cells
        .iter()
        .map(|c| (c.label.clone(), base / c.total_us))
        .collect()
}

// ----------------------------------------------------------------------
// Table I
// ----------------------------------------------------------------------

/// Table I: one zero-variant series per benchmark × dataset — the engine
/// materializes the datasets and reports their descriptions.
pub fn table1_spec(harness: &Harness, benchmarks: &[&str]) -> SweepSpec {
    let mut series = Vec::new();
    for bench in benchmarks {
        for dataset in datasets_for(bench) {
            series.push(
                SeriesSpec::new(
                    *bench,
                    DatasetSpec::table(dataset, harness.scale, harness.seed),
                    vec![],
                )
                .with_timing(harness.timing.clone()),
            );
        }
    }
    SweepSpec { series }
}

/// Renders Table I.
pub fn table1_format(result: &SweepResult, harness: &Harness) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Table I — benchmarks and datasets (scale={})",
        harness.scale
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<10} {:<12} generated instance",
        "benchmark", "dataset"
    );
    for series in &result.series {
        let _ = writeln!(
            out,
            "{:<10} {:<12} {}",
            series.benchmark,
            series.dataset_name,
            series
                .dataset_description
                .as_deref()
                .expect("table1 series materialize their dataset")
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "# dataset substitutions (see DESIGN.md)");
    for id in DatasetId::ALL {
        let _ = writeln!(out, "{:<12} {}", id.name(), id.description());
    }
    out
}

/// Runs and renders Table I.
pub fn table1_report(harness: &Harness, benchmarks: &[&str], opts: &SweepOptions) -> String {
    table1_format(&run_sweep(&table1_spec(harness, benchmarks), opts), harness)
}

// ----------------------------------------------------------------------
// Fig. 9
// ----------------------------------------------------------------------

const FIG9_WIDTHS: [usize; 11] = [9, 9, 8, 8, 12, 8, 8, 8, 8, 8, 10];

/// Fig. 9: every benchmark × Table-I dataset across the nine variant
/// combinations at the per-benchmark tuned parameters.
pub fn fig9_spec(harness: &Harness, benchmarks: &[&str]) -> SweepSpec {
    let mut series = Vec::new();
    for bench in benchmarks {
        let variants = variant_specs(fig9_variants(tuned_for(bench)));
        for dataset in datasets_for(bench) {
            series.push(
                SeriesSpec::new(
                    *bench,
                    DatasetSpec::table(dataset, scale_for(bench, harness.scale), harness.seed),
                    variants.clone(),
                )
                .with_timing(harness.timing.clone()),
            );
        }
    }
    SweepSpec { series }
}

/// Renders Fig. 9 (speedup table + headline geomeans). Output mismatches
/// are additionally reported on stderr, as the sequential driver did.
pub fn fig9_format(result: &SweepResult, harness: &Harness, csv: bool) -> String {
    let labels: Vec<&str> = fig9_variants(tuned_for("BFS"))
        .iter()
        .map(|(l, _)| *l)
        .collect();
    let mut out = String::new();

    if csv {
        let _ = writeln!(out, "benchmark,dataset,{}", labels.join(","));
    } else {
        let _ = writeln!(out, "# Fig. 9 — speedup over CDP (higher is better)");
        let _ = writeln!(out, "# scale={} seed={}", harness.scale, harness.seed);
        let mut header = vec!["benchmark".to_string(), "dataset".to_string()];
        header.extend(labels.iter().map(|s| s.to_string()));
        let _ = writeln!(out, "{}", row(&header, &FIG9_WIDTHS));
    }

    // speedups[label] -> per-cell values for geomeans.
    let mut per_label: Vec<Vec<f64>> = vec![Vec::new(); labels.len()];
    let mut all_verified = true;

    for series in &result.series {
        all_verified &= series.cells.iter().all(|c| c.verified);
        for c in &series.cells {
            if !c.verified {
                dp_obs::diag!(
                    "  !! output mismatch for {} on {}/{}",
                    c.label,
                    series.benchmark,
                    series.dataset_name
                );
            }
        }
        let speedups = summary_speedups(&series.cells, "CDP");
        for (i, (_, s)) in speedups.iter().enumerate() {
            per_label[i].push(*s);
        }
        let mut cols = vec![series.benchmark.clone(), series.dataset_name.clone()];
        cols.extend(speedups.iter().map(|(_, s)| format!("{s:.2}")));
        if csv {
            let _ = writeln!(out, "{}", cols.join(","));
        } else {
            let _ = writeln!(out, "{}", row(&cols, &FIG9_WIDTHS));
        }
    }

    let mut cols = vec!["Geomean".to_string(), "".to_string()];
    cols.extend(per_label.iter().map(|v| format!("{:.2}", geomean(v))));
    if csv {
        let _ = writeln!(out, "{}", cols.join(","));
    } else {
        let _ = writeln!(out, "{}", row(&cols, &FIG9_WIDTHS));
    }

    // Headline numbers (paper: 43.0x over CDP, 8.7x over No CDP, 3.6x over KLAP).
    let idx = |l: &str| labels.iter().position(|x| *x == l).unwrap();
    let full = geomean(&per_label[idx("CDP+T+C+A")]);
    let no_cdp = geomean(&per_label[idx("No CDP")]);
    let klap = geomean(&per_label[idx("KLAP (CDP+A)")]);
    let _ = writeln!(out);
    let _ = writeln!(out, "CDP+T+C+A over CDP     : {full:.1}x   (paper: 43.0x)");
    let _ = writeln!(
        out,
        "CDP+T+C+A over No CDP  : {:.1}x   (paper: 8.7x)",
        full / no_cdp
    );
    let _ = writeln!(
        out,
        "CDP+T+C+A over KLAP    : {:.1}x   (paper: 3.6x)",
        full / klap
    );
    let _ = writeln!(
        out,
        "output verification     : {}",
        if all_verified {
            "all variants match"
        } else {
            "MISMATCH (see stderr)"
        }
    );
    out
}

/// Runs and renders Fig. 9.
pub fn fig9_report(
    harness: &Harness,
    benchmarks: &[&str],
    csv: bool,
    opts: &SweepOptions,
) -> String {
    fig9_format(
        &run_sweep(&fig9_spec(harness, benchmarks), opts),
        harness,
        csv,
    )
}

// ----------------------------------------------------------------------
// Fig. 10
// ----------------------------------------------------------------------

const FIG10_WIDTHS: [usize; 9] = [9, 9, 13, 7, 7, 7, 7, 7, 7];

fn fig10_variants(bench: &str) -> Vec<(&'static str, Variant)> {
    let t = tuned_for(bench);
    let agg = AggConfig::new(t.granularity);
    vec![
        (
            "KLAP (CDP+A)",
            Variant::Cdp(OptConfig::none().aggregation(agg)),
        ),
        (
            "CDP+T+A",
            Variant::Cdp(OptConfig::none().threshold(t.threshold).aggregation(agg)),
        ),
        (
            "CDP+T+C+A",
            Variant::Cdp(
                OptConfig::none()
                    .threshold(t.threshold)
                    .coarsen_factor(t.cfactor)
                    .aggregation(agg),
            ),
        ),
    ]
}

/// Fig. 10: the three aggregated variants per benchmark × dataset.
pub fn fig10_spec(harness: &Harness, benchmarks: &[&str]) -> SweepSpec {
    let mut series = Vec::new();
    for bench in benchmarks {
        let variants = variant_specs(fig10_variants(bench));
        for dataset in datasets_for(bench) {
            series.push(
                SeriesSpec::new(
                    *bench,
                    DatasetSpec::table(dataset, scale_for(bench, harness.scale), harness.seed),
                    variants.clone(),
                )
                .with_timing(harness.timing.clone()),
            );
        }
    }
    SweepSpec { series }
}

/// Renders Fig. 10 (execution-time breakdown normalized to KLAP's total).
pub fn fig10_format(result: &SweepResult, harness: &Harness, csv: bool) -> String {
    let mut out = String::new();
    if csv {
        let _ = writeln!(
            out,
            "benchmark,dataset,variant,parent,child,launch,aggregation,disaggregation,total"
        );
    } else {
        let _ = writeln!(
            out,
            "# Fig. 10 — execution-time breakdown, normalized to KLAP (CDP+A) total"
        );
        let _ = writeln!(out, "# scale={} seed={}", harness.scale, harness.seed);
        let header = [
            "benchmark",
            "dataset",
            "variant",
            "parent",
            "child",
            "launch",
            "agg",
            "disagg",
            "total",
        ]
        .map(String::from);
        let _ = writeln!(out, "{}", row(&header, &FIG10_WIDTHS));
    }

    for series in &result.series {
        let base_total = series.cells[0].breakdown_total();
        for c in &series.cells {
            let norm = |x: f64| x / base_total.max(1e-12);
            let cols = vec![
                series.benchmark.clone(),
                series.dataset_name.clone(),
                c.label.clone(),
                format!("{:.3}", norm(c.parent_us)),
                format!("{:.3}", norm(c.child_us)),
                format!("{:.3}", norm(c.launch_us)),
                format!("{:.3}", norm(c.aggregation_us)),
                format!("{:.3}", norm(c.disaggregation_us)),
                format!("{:.3}", norm(c.breakdown_total())),
            ];
            if csv {
                let _ = writeln!(out, "{}", cols.join(","));
            } else {
                let _ = writeln!(out, "{}", row(&cols, &FIG10_WIDTHS));
            }
        }
    }
    out
}

/// Runs and renders Fig. 10.
pub fn fig10_report(
    harness: &Harness,
    benchmarks: &[&str],
    csv: bool,
    opts: &SweepOptions,
) -> String {
    fig10_format(
        &run_sweep(&fig10_spec(harness, benchmarks), opts),
        harness,
        csv,
    )
}

// ----------------------------------------------------------------------
// Fig. 11
// ----------------------------------------------------------------------

/// Thresholds swept (paper: none, 1..32768; subsampled for runtime).
pub(crate) const FIG11_THRESHOLDS: [Option<i64>; 8] = [
    None,
    Some(1),
    Some(8),
    Some(32),
    Some(128),
    Some(512),
    Some(2048),
    Some(8192),
];

const FIG11_WIDTHS: [usize; 9] = [12, 7, 7, 7, 7, 7, 7, 7, 7];

fn fig11_granularities() -> Vec<(&'static str, Option<AggGranularity>)> {
    vec![
        ("none", None),
        ("warp", Some(AggGranularity::Warp)),
        ("block", Some(AggGranularity::Block)),
        ("multi-block", Some(AggGranularity::MultiBlock(8))),
        ("grid", Some(AggGranularity::Grid)),
    ]
}

/// The dataset shown per benchmark in the paper's Fig. 11.
pub(crate) fn fig11_dataset(bench: &str) -> DatasetId {
    match bench {
        "BFS" | "MSTF" | "MSTV" | "SSSP" | "TC" => DatasetId::Kron,
        "BT" => DatasetId::T2048C64,
        "SP" => DatasetId::Sat5,
        other => panic!("unknown benchmark `{other}`"),
    }
}

fn fmt_threshold(t: Option<i64>) -> String {
    match t {
        None => "none".to_string(),
        Some(v) => v.to_string(),
    }
}

/// Fig. 11: per benchmark, the full granularity × threshold sweep (plus a
/// CDP baseline) on the paper's dataset, coarsening fixed at the tuned
/// value.
pub fn fig11_spec(harness: &Harness, benchmarks: &[&str]) -> SweepSpec {
    let mut series = Vec::new();
    for bench in benchmarks {
        let tuned = tuned_for(bench);
        // The sweep runs ~41 variants per benchmark, so it uses a reduced
        // scale (the paper notes smaller datasets show the same trends).
        let sweep_scale = scale_for(bench, harness.scale * 0.4);
        let mut variants = vec![VariantSpec::new("CDP", Variant::Cdp(OptConfig::none()))];
        for (gname, gran) in fig11_granularities() {
            for threshold in FIG11_THRESHOLDS {
                let mut config = OptConfig::none().coarsen_factor(tuned.cfactor);
                if let Some(t) = threshold {
                    config = config.threshold(t);
                }
                if let Some(g) = gran {
                    config = config.aggregation(AggConfig::new(g));
                }
                variants.push(VariantSpec::new(
                    format!("{gname}/{}", fmt_threshold(threshold)),
                    Variant::Cdp(config),
                ));
            }
        }
        series.push(
            SeriesSpec::new(
                *bench,
                DatasetSpec::table(fig11_dataset(bench), sweep_scale, harness.seed),
                variants,
            )
            .with_timing(harness.timing.clone()),
        );
    }
    SweepSpec { series }
}

/// Renders Fig. 11 (threshold × granularity sweep, optionally the Section
/// VIII-C claims check).
pub fn fig11_format(result: &SweepResult, csv: bool, claims: bool) -> String {
    let mut out = String::new();
    if csv {
        let _ = writeln!(out, "benchmark,granularity,threshold,speedup");
    }

    // (benchmark, granularity-label) -> best speedup; plus global tables
    // for the claims check.
    let mut best_by_gran: HashMap<(String, String), f64> = HashMap::new();
    let mut fixed128: Vec<f64> = Vec::new();
    let mut best_overall: Vec<f64> = Vec::new();

    for series in &result.series {
        let bench = series.benchmark.as_str();
        let tuned = tuned_for(bench);
        let cells = &series.cells;
        let base = cells[0].total_us;
        assert!(
            cells.iter().all(|c| c.verified),
            "{bench}: outputs diverged"
        );

        if !csv {
            let _ = writeln!(
                out,
                "\n## {} ({}) — speedup over CDP, coarsening factor {}",
                bench, series.dataset_name, tuned.cfactor
            );
            let mut header = vec!["granularity".to_string()];
            header.extend(FIG11_THRESHOLDS.iter().map(|t| fmt_threshold(*t)));
            let _ = writeln!(out, "{}", row(&header, &FIG11_WIDTHS));
        }
        for (gname, _) in fig11_granularities() {
            let mut cols = vec![gname.to_string()];
            for threshold in FIG11_THRESHOLDS {
                let label = format!("{gname}/{}", fmt_threshold(threshold));
                let idx = cells
                    .iter()
                    .position(|c| c.label == label)
                    .unwrap_or_else(|| panic!("missing cell `{label}`"));
                let speedup = base / cells[idx].total_us;
                let entry = best_by_gran
                    .entry((bench.to_string(), gname.to_string()))
                    .or_insert(0.0);
                *entry = entry.max(speedup);
                if threshold == Some(128) && gname == "multi-block" {
                    fixed128.push(speedup);
                }
                if csv {
                    let _ = writeln!(
                        out,
                        "{},{},{},{:.3}",
                        bench,
                        gname,
                        fmt_threshold(threshold),
                        speedup
                    );
                } else {
                    cols.push(format!("{speedup:.2}"));
                }
            }
            if !csv {
                let _ = writeln!(out, "{}", row(&cols, &FIG11_WIDTHS));
            }
        }
        let best = fig11_granularities()
            .iter()
            .map(|(g, _)| best_by_gran[&(bench.to_string(), g.to_string())])
            .fold(0.0f64, f64::max);
        best_overall.push(best);
    }

    if claims {
        let _ = writeln!(out, "\n# Section VIII-C observations");
        // 1. Warp granularity is never the best.
        let mut warp_never_best = true;
        for series in &result.series {
            let name = series.benchmark.clone();
            let warp = best_by_gran[&(name.clone(), "warp".to_string())];
            let others = ["none", "block", "multi-block", "grid"]
                .iter()
                .map(|g| best_by_gran[&(name.clone(), g.to_string())])
                .fold(0.0f64, f64::max);
            if warp > others {
                warp_never_best = false;
                let _ = writeln!(out, "  warp granularity best for {name} (unexpected)");
            }
        }
        let _ = writeln!(
            out,
            "warp granularity never favorable: {}  (paper: true)",
            warp_never_best
        );
        // 2. Fixed threshold 128 retains much of the tuned speedup.
        let _ = writeln!(
            out,
            "geomean speedup at fixed threshold 128 (multi-block): {:.1}x; best tuned: {:.1}x",
            geomean(&fixed128),
            geomean(&best_overall)
        );
    }
    out
}

/// Runs and renders Fig. 11.
pub fn fig11_report(
    harness: &Harness,
    benchmarks: &[&str],
    csv: bool,
    claims: bool,
    opts: &SweepOptions,
) -> String {
    fig11_format(
        &run_sweep(&fig11_spec(harness, benchmarks), opts),
        csv,
        claims,
    )
}

// ----------------------------------------------------------------------
// Fig. 12
// ----------------------------------------------------------------------

const FIG12_WIDTHS: [usize; 10] = [9, 8, 8, 12, 8, 8, 8, 8, 8, 10];

/// The graph benchmarks shown in Fig. 12, filtered from `benchmarks`.
fn fig12_benchmarks<'a>(benchmarks: &[&'a str]) -> Vec<&'a str> {
    benchmarks
        .iter()
        .copied()
        .filter(|b| matches!(*b, "BFS" | "MSTF" | "MSTV" | "SSSP" | "TC"))
        .collect()
}

/// Fig. 12: the graph benchmarks on the road network (one shared dataset).
pub fn fig12_spec(harness: &Harness, benchmarks: &[&str]) -> SweepSpec {
    let mut series = Vec::new();
    for bench in fig12_benchmarks(benchmarks) {
        series.push(
            SeriesSpec::new(
                bench,
                DatasetSpec::table(DatasetId::RoadNy, harness.scale, harness.seed),
                variant_specs(fig9_variants(tuned_for(bench))),
            )
            .with_timing(harness.timing.clone()),
        );
    }
    SweepSpec { series }
}

/// Renders Fig. 12 (road graph, low nested parallelism).
pub fn fig12_format(result: &SweepResult, harness: &Harness, csv: bool) -> String {
    let labels: Vec<&str> = fig9_variants(tuned_for("BFS"))
        .iter()
        .map(|(l, _)| *l)
        .collect();
    let mut out = String::new();

    if csv {
        let _ = writeln!(out, "benchmark,{}", labels.join(","));
    } else {
        let _ = writeln!(
            out,
            "# Fig. 12 — road graph (low nested parallelism), speedup over CDP"
        );
        let _ = writeln!(out, "# scale={} seed={}", harness.scale, harness.seed);
        let mut header = vec!["benchmark".to_string()];
        header.extend(labels.iter().map(|s| s.to_string()));
        let _ = writeln!(out, "{}", row(&header, &FIG12_WIDTHS));
    }

    let mut per_label: Vec<Vec<f64>> = vec![Vec::new(); labels.len()];
    for series in &result.series {
        assert!(
            series.cells.iter().all(|c| c.verified),
            "{}: outputs diverged",
            series.benchmark
        );
        let speedups = summary_speedups(&series.cells, "CDP");
        for (i, (_, s)) in speedups.iter().enumerate() {
            per_label[i].push(*s);
        }
        let mut cols = vec![series.benchmark.clone()];
        cols.extend(speedups.iter().map(|(_, s)| format!("{s:.2}")));
        if csv {
            let _ = writeln!(out, "{}", cols.join(","));
        } else {
            let _ = writeln!(out, "{}", row(&cols, &FIG12_WIDTHS));
        }
    }

    let mut cols = vec!["Geomean".to_string()];
    cols.extend(per_label.iter().map(|v| format!("{:.2}", geomean(v))));
    if csv {
        let _ = writeln!(out, "{}", cols.join(","));
    } else {
        let _ = writeln!(out, "{}", row(&cols, &FIG12_WIDTHS));
    }

    // The Section VIII-D observation: even the best CDP variant does not
    // fully recover to No CDP on low-nested-parallelism inputs.
    let idx = |l: &str| labels.iter().position(|x| *x == l).unwrap();
    let no_cdp = geomean(&per_label[idx("No CDP")]);
    let best_cdp = per_label
        .iter()
        .enumerate()
        .filter(|(i, _)| labels[*i] != "No CDP")
        .map(|(_, v)| geomean(v))
        .fold(0.0f64, f64::max);
    let _ = writeln!(out);
    let _ = writeln!(out, "No CDP geomean        : {no_cdp:.2}x over CDP");
    let _ = writeln!(out, "best CDP variant      : {best_cdp:.2}x over CDP");
    let _ = writeln!(
        out,
        "CDP recovers fully?    {} (paper: no — launch presence overhead remains)",
        if best_cdp >= no_cdp { "yes" } else { "no" }
    );
    out
}

/// Runs and renders Fig. 12.
pub fn fig12_report(
    harness: &Harness,
    benchmarks: &[&str],
    csv: bool,
    opts: &SweepOptions,
) -> String {
    fig12_format(
        &run_sweep(&fig12_spec(harness, benchmarks), opts),
        harness,
        csv,
    )
}

// ----------------------------------------------------------------------
// Ablation study
// ----------------------------------------------------------------------

/// The ablation's huge threshold (serializes every launch).
const ABLATION_HUGE_THRESHOLD: i64 = 1 << 20;

/// The ablation study as four series over BFS: KRON and the road graph,
/// each under the normal and the ablated timing/cost model.
pub fn ablation_spec(harness: &Harness) -> SweepSpec {
    let scale = harness.scale * 0.5;
    let kron = || DatasetSpec::table(DatasetId::Kron, scale, harness.seed);
    let road = || DatasetSpec::table(DatasetId::RoadNy, scale, harness.seed);
    let normal = TimingParams::default();
    let no_pipe = TimingParams {
        device_launch_pipe_us: 0.0,
        ..normal.clone()
    };
    let cost_no_presence = CostModel {
        launch_presence_overhead: 0,
        ..CostModel::default()
    };
    let huge = Variant::Cdp(OptConfig::none().threshold(ABLATION_HUGE_THRESHOLD));
    SweepSpec {
        series: vec![
            // 1+3: KRON under the normal model (CDP vs No CDP for the
            // congestion ratio; the two thresholds for the divergence study).
            SeriesSpec::new(
                "BFS",
                kron(),
                vec![
                    VariantSpec::new("CDP", Variant::Cdp(OptConfig::none())),
                    VariantSpec::new("No CDP", Variant::NoCdp),
                    VariantSpec::new("CDP+T128", Variant::Cdp(OptConfig::none().threshold(128))),
                    VariantSpec::new("CDP+Thuge", huge),
                ],
            )
            .with_timing(normal.clone()),
            // 1b: KRON with the launch pipe's service time zeroed.
            SeriesSpec::new(
                "BFS",
                kron(),
                vec![
                    VariantSpec::new("CDP", Variant::Cdp(OptConfig::none())),
                    VariantSpec::new("No CDP", Variant::NoCdp),
                ],
            )
            .with_timing(no_pipe),
            // 2: road graph, with and without the launch-presence overhead.
            SeriesSpec::new(
                "BFS",
                road(),
                vec![
                    VariantSpec::new("No CDP", Variant::NoCdp),
                    VariantSpec::new("CDP+Thuge", huge),
                ],
            )
            .with_timing(normal.clone()),
            SeriesSpec::new(
                "BFS",
                road(),
                vec![
                    VariantSpec::new("No CDP", Variant::NoCdp),
                    VariantSpec::new("CDP+Thuge", huge),
                ],
            )
            .with_timing(normal)
            .with_cost(cost_no_presence),
        ],
    }
}

/// Renders the ablation study.
pub fn ablation_format(result: &SweepResult, harness: &Harness) -> String {
    let scale = harness.scale * 0.5;
    let cell = |series: &SeriesResult, label: &str| -> CellSummary {
        series
            .cells
            .iter()
            .find(|c| c.label == label)
            .unwrap_or_else(|| panic!("missing ablation cell `{label}`"))
            .clone()
    };
    let kron_normal = &result.series[0];
    let kron_no_pipe = &result.series[1];
    let road_normal = &result.series[2];
    let road_no_presence = &result.series[3];

    let mut out = String::new();
    let _ = writeln!(out, "# Ablation study (scale={scale})\n");

    // ------------------------------------------------------------------
    // 1. Launch-pipe congestion.
    // ------------------------------------------------------------------
    let ratio = |cdp: &CellSummary, no_cdp: &CellSummary| no_cdp.total_us / cdp.total_us;
    let _ = writeln!(
        out,
        "## 1. launch-pipe congestion (BFS/KRON, No CDP speedup over CDP)"
    );
    let _ = writeln!(
        out,
        "   with congestion model : {:.2}x",
        ratio(&cell(kron_normal, "CDP"), &cell(kron_normal, "No CDP")).recip()
    );
    let _ = writeln!(
        out,
        "   pipe service zeroed   : {:.2}x",
        ratio(&cell(kron_no_pipe, "CDP"), &cell(kron_no_pipe, "No CDP")).recip()
    );
    let _ = writeln!(
        out,
        "   -> congestion is what makes plain CDP pathological\n"
    );

    // ------------------------------------------------------------------
    // 2. Launch-presence overhead (Fig. 12 residual).
    // ------------------------------------------------------------------
    // Compare pure device work (the host launch/sync timeline is identical
    // for both versions, so total time dilutes the per-thread effect).
    let work = |c: &CellSummary| c.origin_cycles_total as f64;
    let t_gap = work(&cell(road_normal, "CDP+Thuge")) / work(&cell(road_normal, "No CDP"));
    let t_gap_nop =
        work(&cell(road_no_presence, "CDP+Thuge")) / work(&cell(road_no_presence, "No CDP"));
    let _ = writeln!(
        out,
        "## 2. launch-presence overhead (BFS/road, fully-thresholded CDP vs No CDP)"
    );
    let _ = writeln!(
        out,
        "   with presence overhead: CDP+T executes {:.3}x the device cycles of No CDP",
        t_gap
    );
    let _ = writeln!(
        out,
        "   overhead zeroed       : CDP+T executes {:.3}x the device cycles of No CDP",
        t_gap_nop
    );
    let _ = writeln!(
        out,
        "   -> the overhead (plus the threshold checks) is the Fig. 12 gap that never closes\n"
    );

    // ------------------------------------------------------------------
    // 3. Divergence (warp-max) accounting.
    // ------------------------------------------------------------------
    let moderate = cell(kron_normal, "CDP+T128");
    let excessive = cell(kron_normal, "CDP+Thuge");
    let max_deg = excessive.total_us / moderate.total_us;
    let avg_deg = excessive.warp_avg_total_us / moderate.warp_avg_total_us;
    let _ = writeln!(
        out,
        "## 3. warp-max divergence accounting (BFS/KRON, threshold 128 -> 2^20)"
    );
    let _ = writeln!(
        out,
        "   warp-max cost         : over-thresholding costs {max_deg:.2}x"
    );
    let _ = writeln!(
        out,
        "   warp-average cost     : over-thresholding costs {avg_deg:.2}x"
    );
    let _ = writeln!(
        out,
        "   -> divergence accounting contributes to the Fig. 11 fall-off"
    );
    out
}

/// Runs and renders the ablation study.
pub fn ablation_report(harness: &Harness, opts: &SweepOptions) -> String {
    ablation_format(&run_sweep(&ablation_spec(harness), opts), harness)
}
