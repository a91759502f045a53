//! Order statistics for the ledger: nearest-rank percentiles, the "ten
//! beyond" rule, and the spread measures the agreement tool reports.

/// Nearest-rank percentile of `sorted` (ascending): the smallest value with
/// at least `p` of the samples at or below it. `p` in `(0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `times` holds whole rounds of `per_round` operations, the same operations
/// in the same order every round: the median of each operation's replays.
pub fn replay_medians(times: &[f64], per_round: usize) -> Vec<f64> {
    assert!(
        per_round > 0 && times.len() % per_round == 0,
        "whole rounds"
    );
    (0..per_round)
        .map(|i| {
            let replays: Vec<f64> = times.iter().skip(i).step_by(per_round).copied().collect();
            median(&replays)
        })
        .collect()
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// A percentile is reported only with at least ten samples beyond it.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    n > 0 && samples_beyond(n, p) >= 10
}

/// `(max − min) / 2` as a share of the median.
pub fn half_range_share(values: &[f64]) -> f64 {
    let s = sorted(values);
    let m = median(values);
    if m.abs() < f64::MIN_POSITIVE {
        return 0.0;
    }
    (s[s.len() - 1] - s[0]) / 2.0 / m.abs()
}

/// The distance between the first and third quartile as a share of the
/// median, quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (the exclusive method). Needs at least two values.
pub fn iqr_share(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    assert!(n >= 2, "quartiles need two values");
    let quartile = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    let m = median(values);
    if m.abs() < f64::MIN_POSITIVE {
        return 0.0;
    }
    (quartile(3) - quartile(1)) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn a_burst_in_one_round_leaves_the_replay_medians_alone() {
        // Three rounds of two operations; the second round's first is slow.
        let times = [1.0, 5.0, 9.0, 5.1, 1.2, 4.9];
        assert_eq!(replay_medians(&times, 2), vec![1.2, 5.0]);
        assert_eq!(replay_medians(&times, 6), times.to_vec());
    }

    #[test]
    fn ten_beyond_rule() {
        // p90 of 100 samples is the 90th: exactly ten beyond it.
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!(supports_percentile(100, 0.9));
        assert!(!supports_percentile(99, 0.9));
        assert!(!supports_percentile(150, 0.99));
        assert!(supports_percentile(1000, 0.99));
        assert!(!supports_percentile(0, 0.5));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11, 15, 9], n=4) == [9.5, 11.0, 13.5]
        let w = [10.0, 12.0, 11.0, 15.0, 9.0];
        assert!((iqr_share(&w) - (13.5 - 9.5) / 11.0).abs() < 1e-12);
        assert!((half_range_share(&w) - 3.0 / 11.0).abs() < 1e-12);
    }
}
