//! The harness's own arithmetic: medians, nearest-rank percentiles with
//! the "at least ten samples beyond" rule, and the quartile spread the
//! acceptance check is stated in.

/// Sorts a sample ascending. Timings are finite by construction.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    values
}

/// Median of an ascending sample (mean of the two middle values when the
/// count is even); 0 for an empty sample.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    median_sorted(&sorted(values.to_vec()))
}

/// 1-based nearest rank of percentile `p` (0 < p ≤ 1) in `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    (((n as f64) * p).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending sample; 0 for an empty one.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// How many samples lie strictly beyond percentile `p`'s rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// A percentile is only quoted when at least this many samples lie beyond
/// it; fewer, and it is the maximum in disguise.
pub const MIN_BEYOND: usize = 10;

/// The highest of the usual tail percentiles that still has
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median does
/// not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9, 0.75, 0.5]
        .into_iter()
        .find(|&p| n > 0 && samples_beyond(n, p) >= MIN_BEYOND)
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// does, because that is what the acceptance check uses.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values.to_vec());
    let n = data.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median — the "spread" a metric
/// must keep within its bound.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, _, q3]) => {
            let med = median(values);
            if med == 0.0 {
                0.0
            } else {
                (q3 - q1) / med.abs()
            }
        }
        None => 0.0,
    }
}

/// By how much `b` is worse than `a`, as a share of `a`; negative when it
/// is better. `lower_is_better` picks the direction.
pub fn worse_by(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if lower_is_better {
        (b - a) / a.abs()
    } else {
        (a - b) / a.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentile_selects_the_documented_sample() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 0.5), 50.0);
        assert_eq!(percentile_sorted(&s, 0.99), 99.0);
        assert_eq!(percentile_sorted(&s, 1.0), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
        assert_eq!(percentile_sorted(&[], 0.99), 0.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 1,400 samples: p99 is rank 1,386, so 14 lie beyond — the figure
        // the serve workload's sizing quotes.
        assert_eq!(rank(1400, 0.99), 1386);
        assert_eq!(samples_beyond(1400, 0.99), 14);
        assert_eq!(highest_supported_percentile(1400), Some(0.99));
        // 1,000 samples leave exactly ten beyond p99; 999 do not.
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(999), Some(0.95));
        // 60 batch iterations support p75, 20 only the median, 19 nothing.
        assert_eq!(highest_supported_percentile(60), Some(0.75));
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(0), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[20.0, 10.0, 40.0]), Some([10.0, 20.0, 40.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by(100.0, 110.0, true) - 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, false) + 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, false) - 0.1).abs() < 1e-12);
    }
}
