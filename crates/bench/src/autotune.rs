//! A budget-limited autotuner for the optimization parameters.
//!
//! Section VIII-C of the paper argues an exhaustive search is unnecessary:
//! the best threshold leaves a moderate number of launches, performance is
//! insensitive to the coarsening factor once it is large enough, warp
//! granularity is never favorable, and "users can typically find a
//! combination of parameters that is very close to the best with less than
//! ten runs". This tuner encodes exactly that procedure: a coordinate
//! search over granularity, then threshold, then coarsening factor, in
//! decreasing order of measured impact.
//!
//! Each coordinate phase's candidates are independent, so the tuner
//! submits every phase as one batched **sweep generation** through the
//! `dp-sweep` engine: the candidates of a generation run in parallel
//! across the worker pool (and can be served from the result cache), then
//! the best-so-far advances to seed the next generation.

use crate::Tuned;
use dp_core::{AggConfig, AggGranularity, OptConfig, TimingParams};
use dp_sweep::{run_sweep, DatasetSpec, SeriesSpec, SweepOptions, SweepSpec, VariantSpec};
use dp_workloads::benchmarks::{BenchInput, Benchmark, Variant};
use std::sync::Arc;

/// One evaluated configuration.
#[derive(Debug, Clone, Copy)]
pub struct Evaluation {
    /// The configuration tried.
    pub tuned: Tuned,
    /// Simulated time (µs).
    pub(crate) time_us: f64,
}

/// Autotuning outcome.
#[derive(Debug, Clone)]
pub struct AutotuneResult {
    /// Best configuration found.
    pub best: Tuned,
    /// Its simulated time (µs).
    pub best_time_us: f64,
    /// Every evaluation, in order.
    pub history: Vec<Evaluation>,
}

impl AutotuneResult {
    /// Number of configurations evaluated.
    pub fn evaluations(&self) -> usize {
        self.history.len()
    }
}

fn config_of(t: Tuned) -> OptConfig {
    OptConfig::none()
        .threshold(t.threshold)
        .coarsen_factor(t.cfactor)
        .aggregation(AggConfig::new(t.granularity))
}

fn same_config(a: &Tuned, b: &Tuned) -> bool {
    a.threshold == b.threshold && a.cfactor == b.cfactor && a.granularity == b.granularity
}

/// Tunes `(granularity, threshold, cfactor)` for one benchmark × input
/// within `budget` evaluations (the paper's "less than ten runs" procedure
/// needs 8), running each coordinate phase as one parallel sweep
/// generation. Results are not cached (pass explicit [`SweepOptions`] via
/// [`autotune_with`] to enable the cache).
///
/// # Panics
///
/// Panics if `budget` is zero or a benchmark run fails.
pub fn autotune(
    bench: &dyn Benchmark,
    input: &BenchInput,
    timing: &TimingParams,
    budget: usize,
) -> AutotuneResult {
    autotune_with(
        bench,
        input,
        timing,
        budget,
        &SweepOptions {
            cache: false,
            quiet: true,
            ..SweepOptions::default()
        },
    )
}

/// [`autotune`] with explicit engine options (worker count, caching).
///
/// # Panics
///
/// Panics if `budget` is zero or a benchmark run fails.
pub fn autotune_with(
    bench: &dyn Benchmark,
    input: &BenchInput,
    timing: &TimingParams,
    budget: usize,
    opts: &SweepOptions,
) -> AutotuneResult {
    assert!(budget > 0, "autotune needs at least one evaluation");
    let dataset = DatasetSpec::provided(
        Arc::new(input.clone()),
        format!("{}-autotune-input", bench.name()),
    );
    let mut history: Vec<Evaluation> = Vec::new();

    // Runs one generation of candidates as a batched sweep, respecting the
    // remaining budget; previously evaluated configurations are reused
    // rather than re-submitted.
    let run_generation = |candidates: &[Tuned], history: &mut Vec<Evaluation>| {
        let fresh: Vec<Tuned> = candidates
            .iter()
            .filter(|t| !history.iter().any(|e| same_config(&e.tuned, t)))
            .take(budget.saturating_sub(history.len()))
            .copied()
            .collect();
        if fresh.is_empty() {
            return;
        }
        let spec = SweepSpec {
            series: vec![SeriesSpec::new(
                bench.name(),
                dataset.clone(),
                fresh
                    .iter()
                    .enumerate()
                    .map(|(i, t)| VariantSpec::new(format!("gen-{i}"), Variant::Cdp(config_of(*t))))
                    .collect(),
            )
            .with_timing(timing.clone())],
        };
        let result = run_sweep(&spec, opts);
        for (tuned, cell) in fresh.iter().zip(&result.series[0].cells) {
            history.push(Evaluation {
                tuned: *tuned,
                time_us: cell.total_us,
            });
        }
    };

    // First minimum wins on ties, matching the sequential tuner's strict
    // `<` improvement rule.
    let best_of = |history: &[Evaluation]| -> Evaluation {
        let mut best = history.first().expect("at least the seed was evaluated");
        for e in &history[1..] {
            if e.time_us < best.time_us {
                best = e;
            }
        }
        *best
    };

    // Generation 0 — the paper's guidance values (threshold 128, cfactor
    // 16, multi-block granularity).
    let seed = Tuned {
        threshold: 128,
        cfactor: 16,
        granularity: AggGranularity::MultiBlock(8),
    };
    run_generation(&[seed], &mut history);

    // Generation 1: granularity (warp is skipped — "never favorable").
    let base = best_of(&history).tuned;
    run_generation(
        &[AggGranularity::Block, AggGranularity::Grid].map(|granularity| Tuned {
            granularity,
            ..base
        }),
        &mut history,
    );

    // Generation 2: threshold, geometric steps around the seed.
    let base = best_of(&history).tuned;
    run_generation(
        &[16, 512, 2048].map(|threshold| Tuned { threshold, ..base }),
        &mut history,
    );

    // Generation 3: coarsening factor (coarse steps; insensitive above 8).
    let base = best_of(&history).tuned;
    run_generation(
        &[2, 32].map(|cfactor| Tuned { cfactor, ..base }),
        &mut history,
    );

    let best = best_of(&history);
    AutotuneResult {
        best: best.tuned,
        best_time_us: best.time_us,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_workloads::benchmarks::bfs::Bfs;
    use dp_workloads::benchmarks::run_variant;
    use dp_workloads::datasets::graphs::rmat;

    #[test]
    fn stays_within_budget_and_improves_on_worst() {
        let input = BenchInput::Graph(rmat(7, 8, 3));
        let timing = TimingParams::default();
        let result = autotune(&Bfs, &input, &timing, 8);
        assert!(result.evaluations() <= 8);
        let worst = result
            .history
            .iter()
            .map(|e| e.time_us)
            .fold(0.0f64, f64::max);
        assert!(result.best_time_us <= worst);
        // The returned best really is the minimum of the history.
        let min = result
            .history
            .iter()
            .map(|e| e.time_us)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(result.best_time_us, min);
    }

    #[test]
    fn tight_budgets_are_respected() {
        let input = BenchInput::Graph(rmat(6, 4, 9));
        let timing = TimingParams::default();
        for budget in [1, 2, 4] {
            let result = autotune(&Bfs, &input, &timing, budget);
            assert!(
                result.evaluations() <= budget,
                "budget {budget} exceeded: {}",
                result.evaluations()
            );
        }
    }

    #[test]
    fn close_to_exhaustive_best_within_ten_runs() {
        // The paper's claim: < 10 runs get "very close" to the tuned best.
        let input = BenchInput::Graph(rmat(7, 8, 4));
        let timing = TimingParams::default();
        let tuned = autotune(&Bfs, &input, &timing, 9);

        // Exhaustive over the same axes.
        let mut exhaustive_best = f64::INFINITY;
        for granularity in [
            AggGranularity::Block,
            AggGranularity::MultiBlock(8),
            AggGranularity::Grid,
        ] {
            for threshold in [16, 128, 512, 2048] {
                for cfactor in [2, 16, 32] {
                    let run = run_variant(
                        &Bfs,
                        Variant::Cdp(config_of(Tuned {
                            threshold,
                            cfactor,
                            granularity,
                        })),
                        &input,
                    )
                    .unwrap();
                    exhaustive_best = exhaustive_best.min(run.report.simulate(&timing).total_us);
                }
            }
        }
        assert!(
            tuned.best_time_us <= exhaustive_best * 1.5,
            "autotuned {:.1}µs should be within 1.5x of exhaustive {:.1}µs",
            tuned.best_time_us,
            exhaustive_best
        );
    }

    #[test]
    #[should_panic(expected = "at least one evaluation")]
    fn zero_budget_panics() {
        let input = BenchInput::Graph(rmat(5, 4, 5));
        autotune(&Bfs, &input, &TimingParams::default(), 0);
    }
}
