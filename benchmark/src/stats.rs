//! Order statistics for benchmark samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! "exclusive" method), because the driver that judges this benchmark
//! computes its spreads that way and the two must agree.

/// Median of `values` (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile, as `statistics.quantiles(values, n=4)` gives
/// them. With fewer than two samples both quartiles are the sample itself.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let sorted = sorted(values);
    let n = sorted.len();
    if n < 2 {
        return (sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // Signed: after clamping `j`, the weight may leave 0..4 (Python
        // extrapolates there too).
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median — the spread the
/// benchmark contract bounds.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / m.abs()
    }
}

/// The percentile rule of the metrics guide: the highest of p99.9 / p99 /
/// p95 / p90 that still has at least ten samples beyond it, with its value —
/// or `None` when only the median can be reported honestly.
pub fn highest_percentile(values: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| samples_beyond(values.len(), *p) >= 10)
        .map(|p| (p, percentile(values, p)))
}

fn samples_beyond(n: usize, p: f64) -> usize {
    // Whole samples strictly above the percentile's rank.
    (n as f64 * (100.0 - p) / 100.0 + 1e-9).floor() as usize
}

/// Nearest-rank percentile (`p` in 0..=100).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let sorted = sorted(values);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0]), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn spread_is_interquartile_distance_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        let n = |count: usize| -> Vec<f64> { (0..count).map(|i| i as f64).collect() };
        // 99 samples: even p90 has only 9 beyond it -> median only.
        assert_eq!(highest_percentile(&n(99)), None);
        // 100 samples: p90 has exactly 10 beyond.
        assert_eq!(highest_percentile(&n(100)).unwrap().0, 90.0);
        // 120 samples: p95 would have 6 beyond -> still p90.
        assert_eq!(highest_percentile(&n(120)).unwrap().0, 90.0);
        assert_eq!(highest_percentile(&n(200)).unwrap().0, 95.0);
        assert_eq!(highest_percentile(&n(1_000)).unwrap().0, 99.0);
        assert_eq!(highest_percentile(&n(10_000)).unwrap().0, 99.9);
        assert_eq!(highest_percentile(&n(199)).unwrap().0, 90.0);
        assert_eq!(highest_percentile(&n(240)).unwrap().0, 95.0);
        // The value reported is the nearest-rank percentile.
        assert_eq!(highest_percentile(&n(200)).unwrap().1, 189.0);
    }
}
