//! Paired t-test (the `*` markers of Tables III and IV, p < 0.01).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]

/// Result of a paired t-test between per-case metric samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TTestResult {
    pub t_statistic: f32,
    pub degrees_of_freedom: usize,
    /// Two-sided p-value (normal approximation; d.o.f. in these experiments
    /// is in the thousands, where the t and normal distributions coincide).
    pub p_value: f32,
    pub mean_difference: f32,
}

impl TTestResult {
    pub fn significant(&self, alpha: f32) -> bool {
        self.p_value < alpha
    }
}

/// Paired t-test on samples `a` and `b` (same cases, two systems).
/// Returns `None` when fewer than 2 pairs or zero variance of differences.
pub fn paired_t_test(a: &[f32], b: &[f32]) -> Option<TTestResult> {
    assert_eq!(a.len(), b.len(), "paired test needs aligned samples");
    let n = a.len();
    if n < 2 {
        return None;
    }
    let diffs: Vec<f64> = a.iter().zip(b).map(|(&x, &y)| (x - y) as f64).collect();
    let mean = diffs.iter().sum::<f64>() / n as f64;
    let var = diffs.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / (n as f64 - 1.0);
    if var <= 0.0 {
        return None;
    }
    let se = (var / n as f64).sqrt();
    let t = mean / se;
    let p = 2.0 * (1.0 - standard_normal_cdf(t.abs()));
    Some(TTestResult {
        t_statistic: t as f32,
        degrees_of_freedom: n - 1,
        p_value: p as f32,
        mean_difference: mean as f32,
    })
}

/// Φ(x) via the Abramowitz–Stegun erf approximation (|err| < 1.5e-7).
fn standard_normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_tensor::Rng64;

    #[test]
    fn identical_samples_are_not_significant() {
        let a = vec![0.5f32; 100];
        assert!(paired_t_test(&a, &a).is_none()); // zero variance
    }

    #[test]
    fn clear_difference_is_significant() {
        let mut rng = Rng64::seed_from(1);
        let a: Vec<f32> = (0..500).map(|_| 0.6 + 0.1 * rng.normal()).collect();
        let b: Vec<f32> = (0..500).map(|_| 0.4 + 0.1 * rng.normal()).collect();
        let r = paired_t_test(&a, &b).unwrap();
        assert!(r.significant(0.01), "p = {}", r.p_value);
        assert!(r.mean_difference > 0.15);
        assert!(r.t_statistic > 10.0);
    }

    #[test]
    fn noise_is_not_significant() {
        let mut rng = Rng64::seed_from(2);
        let a: Vec<f32> = (0..200).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..200).map(|_| rng.normal()).collect();
        let r = paired_t_test(&a, &b).unwrap();
        assert!(!r.significant(0.01), "false positive: p = {}", r.p_value);
    }

    #[test]
    fn erf_sanity() {
        assert!((erf(0.0)).abs() < 1e-9);
        assert!((erf(1.0) - 0.8427).abs() < 1e-3);
        assert!((standard_normal_cdf(1.96) - 0.975).abs() < 1e-3);
    }

    #[test]
    fn too_few_samples() {
        assert!(paired_t_test(&[1.0], &[2.0]).is_none());
    }
}
