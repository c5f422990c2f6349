//! Order statistics over small sample vectors.

/// Sorts in place; NaN never occurs in measured times, so it is a bug.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measured values are never NaN"));
}

/// Nearest-rank percentile of an ascending slice: the smallest value with at
/// least `q` of the samples at or below it. `q` in `(0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The value the fastest five-hundredth of `values` are at or below
/// ([`crate::spec::FAST_QUANTILE`]); the smallest of fewer than five hundred.
pub fn fast_end(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    percentile_sorted(&sorted, crate::spec::FAST_QUANTILE)
}

/// The mean over the kinds of request of each kind's [`fast_end`]: what a
/// request costs at the run's fast end, every kind counting the same however
/// cheap it is.
pub fn fast_end_of_kinds(kinds: &[Vec<f64>]) -> f64 {
    kinds.iter().map(|kind| fast_end(kind)).sum::<f64>() / kinds.len() as f64
}

/// Median of an ascending slice; the mean of the middle two when even.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    median_sorted(&sorted)
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (the exclusive method). `None` below two samples or at a zero median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    let quartile = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let below = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - below as f64;
        sorted[below - 1] + frac * (sorted[below] - sorted[below - 1])
    };
    let median = median_sorted(&sorted);
    (median != 0.0).then(|| (quartile(3) - quartile(1)) / median.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        // Fewer than 100 samples: p99 is the largest one.
        assert_eq!(percentile_sorted(&[3.0, 5.0, 9.0], 0.99), 9.0);
        assert_eq!(percentile_sorted(&[3.0, 5.0, 9.0], 0.50), 5.0);
        assert_eq!(percentile_sorted(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn iqr_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((iqr_share(&[1.0, 2.0]).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[1.0]), None);
    }

    #[test]
    fn fast_end_is_the_fastest_five_hundredth() {
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(fast_end(&v), 2.0);
        // Fewer than five hundred: the fastest one.
        assert_eq!(fast_end(&[9.0, 3.0, 5.0]), 3.0);
        // Every kind of request counts the same, however many it has.
        assert_eq!(fast_end_of_kinds(&[v, vec![9.0, 3.0, 5.0]]), 2.5);
    }
}
