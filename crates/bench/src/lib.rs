//! # dp-bench
//!
//! Harness that regenerates every table and figure of the paper's
//! evaluation (Section VIII). Each artifact is a declarative sweep spec
//! plus a formatter ([`figures`]) executed by the `dp-sweep` engine:
//!
//! | binary | reproduces | spec/formatter |
//! |---|---|---|
//! | `table1`   | Table I (benchmarks and dataset statistics) | [`figures::table1_spec`] |
//! | `fig9`     | Fig. 9 (speedup over CDP, all optimization combinations) | [`figures::fig9_spec`] |
//! | `fig10`    | Fig. 10 (execution-time breakdown) | [`figures::fig10_spec`] |
//! | `fig11`    | Fig. 11 (threshold × aggregation-granularity sweeps) | [`figures::fig11_spec`] |
//! | `fig12`    | Fig. 12 (road graph, low nested parallelism) | [`figures::fig12_spec`] |
//! | `ablation` | timing-model ablation study | [`figures::ablation_spec`] |
//!
//! Run them with `cargo run --release -p dp-bench --bin fig9`. Every
//! binary is parallel and incrementally re-runnable:
//!
//! - **Workers.** Cells (benchmark × dataset × variant) execute across a
//!   worker pool — `DPOPT_JOBS` threads, default = available parallelism.
//!   Results are merged in spec order, so stdout is byte-identical to
//!   sequential execution regardless of worker count (enforced by
//!   `tests/golden_figures.rs`).
//! - **Cache.** Each cell's summary is persisted under `.dpopt-cache/`
//!   (override with `DPOPT_CACHE_DIR`), keyed by a stable content hash of
//!   (source text, variant config, dataset id + scale + seed, timing
//!   params, cost model, cache-format version). Re-running after touching
//!   one variant recomputes only that column; a repeated identical run is
//!   100% cache hits. Opt out per-run with `--no-cache` or globally with
//!   `DPOPT_NO_CACHE=1`.
//!
//! Dataset sizes are scaled for simulator throughput; set `DPOPT_SCALE`
//! (fraction of the paper's sizes, default 0.05) and `DPOPT_SEED` to
//! override (unparsable values fall back with a stderr warning).

pub mod autotune;
pub mod figures;
pub mod gate;

use dp_core::{AggConfig, AggGranularity, OptConfig, TimingParams};
use dp_sweep::env_parsed;
use dp_workloads::benchmarks::Variant;

/// Harness-wide configuration (scale, seed, timing model).
#[derive(Debug, Clone)]
pub struct Harness {
    /// Fraction of the paper's dataset sizes.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Hardware model.
    pub timing: TimingParams,
}

impl Default for Harness {
    fn default() -> Self {
        // `env_parsed` warns on stderr when a variable is set but
        // unparsable instead of silently using the fallback.
        Harness {
            scale: env_parsed("DPOPT_SCALE", 0.05),
            seed: env_parsed("DPOPT_SEED", 42),
            timing: TimingParams::default(),
        }
    }
}

/// Tuned optimization parameters for one benchmark × dataset cell.
///
/// The paper tunes exhaustively (Section VII); these values follow its
/// reported guidance — thresholds sized so roughly thousands of launches
/// survive, coarsening factors ≥ 8 except where blocks are large (BT), and
/// the per-benchmark best granularities from Fig. 11.
#[derive(Debug, Clone, Copy)]
pub struct Tuned {
    /// Launch threshold for `+T` combinations.
    pub threshold: i64,
    /// Coarsening factor for `+C` combinations.
    pub cfactor: i64,
    /// Aggregation granularity for `+A` combinations.
    pub granularity: AggGranularity,
}

/// Per-benchmark tuned parameters (paper Fig. 11 best points).
pub fn tuned_for(benchmark: &str) -> Tuned {
    match benchmark {
        "BFS" => Tuned {
            threshold: 128,
            cfactor: 16,
            granularity: AggGranularity::MultiBlock(8),
        },
        "BT" => Tuned {
            threshold: 32,
            cfactor: 2,
            granularity: AggGranularity::Block,
        },
        "MSTF" => Tuned {
            threshold: 128,
            cfactor: 32,
            granularity: AggGranularity::Block,
        },
        "MSTV" => Tuned {
            threshold: 256,
            cfactor: 1,
            granularity: AggGranularity::Block,
        },
        "SP" => Tuned {
            threshold: 32,
            cfactor: 32,
            granularity: AggGranularity::Grid,
        },
        "SSSP" => Tuned {
            threshold: 128,
            cfactor: 8,
            granularity: AggGranularity::MultiBlock(8),
        },
        "TC" => Tuned {
            threshold: 64,
            cfactor: 4,
            granularity: AggGranularity::Grid,
        },
        other => panic!("unknown benchmark `{other}`"),
    }
}

/// The Fig. 9 series: label → variant, in the paper's legend order.
pub fn fig9_variants(t: Tuned) -> Vec<(&'static str, Variant)> {
    let agg = AggConfig::new(t.granularity);
    vec![
        ("No CDP", Variant::NoCdp),
        ("CDP", Variant::Cdp(OptConfig::none())),
        (
            "KLAP (CDP+A)",
            Variant::Cdp(OptConfig::none().aggregation(agg)),
        ),
        (
            "CDP+T",
            Variant::Cdp(OptConfig::none().threshold(t.threshold)),
        ),
        (
            "CDP+C",
            Variant::Cdp(OptConfig::none().coarsen_factor(t.cfactor)),
        ),
        (
            "CDP+T+C",
            Variant::Cdp(
                OptConfig::none()
                    .threshold(t.threshold)
                    .coarsen_factor(t.cfactor),
            ),
        ),
        (
            "CDP+T+A",
            Variant::Cdp(OptConfig::none().threshold(t.threshold).aggregation(agg)),
        ),
        (
            "CDP+C+A",
            Variant::Cdp(OptConfig::none().coarsen_factor(t.cfactor).aggregation(agg)),
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

/// Per-benchmark dataset scale adjustment: TC's intersection kernel is
/// quadratic in degree, so its inputs are capped — the paper does the same
/// ("for TC, we use parts of the graphs ... due to memory constraints",
/// Section VII).
pub fn scale_for(benchmark: &str, scale: f64) -> f64 {
    match benchmark {
        "TC" => scale.min(0.03),
        _ => scale,
    }
}

/// Geometric mean of a slice (empty → 1.0).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Formats a row of a fixed-width table.
pub fn row(cols: &[String], widths: &[usize]) -> String {
    cols.iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = *w))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_sweep::{DatasetSpec, SeriesSpec, SweepOptions, SweepSpec, VariantSpec};
    use dp_workloads::datasets::graphs::rmat;
    use dp_workloads::BenchInput;
    use std::sync::Arc;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
        assert!((geomean(&[8.0]) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn tuned_params_exist_for_all_benchmarks() {
        for b in ["BFS", "BT", "MSTF", "MSTV", "SP", "SSSP", "TC"] {
            let t = tuned_for(b);
            assert!(t.threshold > 0);
            assert!(t.cfactor >= 1);
        }
    }

    #[test]
    fn fig9_has_nine_series() {
        let v = fig9_variants(tuned_for("BFS"));
        assert_eq!(v.len(), 9);
        assert_eq!(v[0].0, "No CDP");
        assert_eq!(v.last().unwrap().0, "CDP+T+C+A");
    }

    #[test]
    fn series_runs_and_verifies_on_tiny_input() {
        let input = Arc::new(BenchInput::Graph(rmat(6, 4, 5)));
        let variants = fig9_variants(tuned_for("BFS"))
            .into_iter()
            .map(|(label, variant)| VariantSpec::new(label, variant))
            .collect();
        let spec = SweepSpec {
            series: vec![SeriesSpec::new(
                "BFS",
                DatasetSpec::provided(input, "tiny"),
                variants,
            )],
        };
        let opts = SweepOptions {
            jobs: 1,
            cache: false,
            cache_dir: None,
            quiet: true,
        };
        let cells = dp_sweep::run_sweep(&spec, &opts).series.remove(0).cells;
        assert_eq!(cells.len(), 9);
        assert!(
            cells.iter().all(|c| c.verified),
            "all variants must agree: {:?}",
            cells
                .iter()
                .map(|c| (&c.label, c.verified))
                .collect::<Vec<_>>()
        );
    }
}
