//! Order statistics for timing samples.

/// Sorts a copy of `samples` ascending (timings are never NaN).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of `samples` (mean of the two middle values for even counts).
/// Panics on an empty slice: a workload that measured nothing is a bug.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` (in `0.0..=1.0`) of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank `p` percentile.
pub fn samples_beyond(count: usize, p: f64) -> usize {
    let rank = ((p * count as f64).ceil() as usize).clamp(1, count.max(1));
    count.saturating_sub(rank)
}

/// The percentiles a latency report may quote for `count` samples: a
/// tail percentile is only supported when at least ten samples lie
/// beyond it (fewer, and it is an order statistic of noise).
pub fn supported_tails(count: usize) -> Vec<f64> {
    [0.95, 0.99, 0.999]
        .into_iter()
        .filter(|&p| samples_beyond(count, p) >= 10)
        .collect()
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the "exclusive" method) — the driver judges run-to-run spread
/// with exactly this function, so the harness must agree with it.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let v = sorted(samples);
    assert!(v.len() >= 2, "quartiles need two samples");
    let n = 4;
    let m = v.len() + 1;
    std::array::from_fn(|i| {
        let i = i + 1;
        let j = (i * m / n).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    })
}

/// Interquartile range as a share of the median — the spread measure the
/// benchmark contract uses. `None` with fewer than two samples.
pub fn relative_iqr(samples: &[f64]) -> Option<f64> {
    if samples.len() < 2 {
        return None;
    }
    let [q1, q2, q3] = quartiles(samples);
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Geometric mean (0 for an empty slice: "nothing measured").
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50.0);
        assert_eq!(percentile_sorted(&v, 0.95), 95.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&[5.0], 0.95), 5.0);
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        // p95 of 200 samples is the 190th: exactly ten beyond.
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(supported_tails(200), vec![0.95]);
        assert!(supported_tails(199).is_empty());
        assert_eq!(supported_tails(1_000), vec![0.95, 0.99]);
        assert_eq!(supported_tails(10_000), vec![0.95, 0.99, 0.999]);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        assert_eq!(relative_iqr(&v), Some(1.0));
        assert_eq!(relative_iqr(&[1.0]), None);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
