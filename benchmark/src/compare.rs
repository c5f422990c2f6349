//! `dpbench compare A.json B.json`: two result files, metric by metric and
//! workload by workload. A is the base of every ratio.

use crate::stats;
use dp_sweep::json::{self, Json};

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The spread between a side's own samples is wider than the bound, so
    /// a difference of that size says nothing either way.
    Unresolved,
}

/// One side's value for one metric: the reported value and the samples
/// (repetitions or windows) behind it.
pub struct Side {
    pub value: f64,
    pub samples: Vec<f64>,
}

/// How much worse `b` is than `a`, as a share of `a`; negative when better.
pub fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

pub fn judge(a: &Side, b: &Side, higher_is_better: bool, bound: f64) -> Verdict {
    let spread = [a, b]
        .iter()
        .filter_map(|side| stats::iqr_share(&side.samples))
        .fold(0.0, f64::max);
    let worse = worse_by(a.value, b.value, higher_is_better);
    // Every sample of B better than every sample of A settles it whatever
    // the spread.
    let clear_win = !a.samples.is_empty()
        && !b.samples.is_empty()
        && a.samples.iter().all(|x| {
            b.samples
                .iter()
                .all(|y| worse_by(*x, *y, higher_is_better) < 0.0)
        });
    if spread > bound && !clear_win {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn side(metric: &Json) -> Option<Side> {
    Some(Side {
        value: metric.get("value")?.as_f64()?,
        samples: metric
            .get("samples")
            .and_then(Json::as_array)
            .map(|s| s.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default(),
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints one row per bounded metric and workload present in both files.
/// Returns how many rows regressed.
pub fn run(path_a: &str, path_b: &str) -> Result<usize, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let workloads = |doc: &Json| match doc.get("workloads") {
        Some(Json::Object(w)) => Ok(w.clone()),
        _ => Err("not a dpbench result file: no `workloads`".to_string()),
    };
    let (workloads_a, workloads_b) = (workloads(&a)?, workloads(&b)?);
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let mut regressed = 0;
    for (workload, run_a) in &workloads_a {
        let Some(run_b) = workloads_b.get(workload) else {
            continue;
        };
        let Some(Json::Object(metrics_a)) = run_a.get("metrics") else {
            continue;
        };
        for (name, metric_a) in metrics_a {
            // Only end-to-end metrics carry a bound.
            let Some(bound) = metric_a.get("bound").and_then(Json::as_f64) else {
                continue;
            };
            let metric_b = run_b.get("metrics").and_then(|m| m.get(name));
            let (Some(side_a), Some(side_b)) = (side(metric_a), metric_b.and_then(side)) else {
                continue;
            };
            let higher = metric_a.get("better").and_then(Json::as_str) == Some("higher");
            let verdict = judge(&side_a, &side_b, higher, bound);
            regressed += usize::from(verdict == Verdict::Regressed);
            println!(
                "{workload:<12} {name:<14} {:>14.4} {:>14.4} {:>9.4} {:>6.0}%  {}",
                side_a.value,
                side_b.value,
                side_b.value / side_a.value,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady(value: f64) -> Side {
        Side {
            value,
            samples: vec![value * 0.99, value, value * 1.01, value, value],
        }
    }

    #[test]
    fn bound_logic() {
        // Lower is better, bound 10 %.
        assert_eq!(
            judge(&steady(100.0), &steady(105.0), false, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady(100.0), &steady(111.0), false, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&steady(100.0), &steady(50.0), false, 0.10),
            Verdict::Ok
        );
        // Higher is better: the same numbers the other way round.
        assert_eq!(
            judge(&steady(100.0), &steady(89.0), true, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&steady(100.0), &steady(95.0), true, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady(100.0), &steady(200.0), true, 0.10),
            Verdict::Ok
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_sample_wins() {
        let noisy = |value: f64| Side {
            value,
            samples: vec![value * 0.7, value * 0.9, value, value * 1.1, value * 1.3],
        };
        assert_eq!(
            judge(&noisy(100.0), &noisy(100.0), false, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy(100.0), &noisy(120.0), false, 0.10),
            Verdict::Unresolved
        );
        // B's slowest sample (1.3 x 40) beats A's fastest (0.7 x 100).
        assert_eq!(judge(&noisy(100.0), &noisy(40.0), false, 0.10), Verdict::Ok);
        // No samples: nothing to take a spread from, the values decide.
        let bare = |value| Side {
            value,
            samples: vec![],
        };
        assert_eq!(
            judge(&bare(100.0), &bare(120.0), false, 0.10),
            Verdict::Regressed
        );
    }

    #[test]
    fn worse_by_has_a_sign() {
        assert!((worse_by(100.0, 110.0, false) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, true) + 0.10).abs() < 1e-12);
    }
}
