//! Embedding-geometry statistics used throughout the paper's analysis.

use wr_tensor::{Rng64, Tensor};

/// `‖cov(Z) − I‖_F / √d` — 0 for perfectly whitened rows.
pub fn whiteness_error(z: &Tensor) -> f32 {
    let d = z.cols();
    let cov = wr_linalg::covariance_of_rows(z, 0.0);
    cov.sub(&Tensor::eye(d)).frob_norm() / (d as f32).sqrt()
}

/// Cosine similarities of `samples` random distinct row pairs.
pub fn pairwise_cosines(x: &Tensor, samples: usize, seed: u64) -> Vec<f32> {
    assert!(x.rank() == 2 && x.rows() >= 2, "need at least two rows");
    let mut rng = Rng64::seed_from(seed);
    let n = x.rows();
    let mut out = Vec::with_capacity(samples);
    for _ in 0..samples {
        let i = rng.below(n);
        let mut j = rng.below(n);
        while j == i {
            j = rng.below(n);
        }
        out.push(cosine(x.row(i), x.row(j)));
    }
    out
}

/// Mean cosine similarity over sampled item pairs (the paper's ≈0.85
/// anisotropy statistic, §III-B).
pub fn average_pairwise_cosine(x: &Tensor, samples: usize, seed: u64) -> f32 {
    let cs = pairwise_cosines(x, samples, seed);
    cs.iter().sum::<f32>() / cs.len() as f32
}

/// Empirical CDF of pairwise cosine similarities evaluated on a fixed grid
/// (Fig. 4). Returns `(grid, cdf)` with `cdf[k] = P(cos ≤ grid[k])`.
pub fn pairwise_cosine_cdf(
    x: &Tensor,
    samples: usize,
    grid_points: usize,
    seed: u64,
) -> (Vec<f32>, Vec<f32>) {
    let mut cs = pairwise_cosines(x, samples, seed);
    cs.sort_by(|a, b| a.total_cmp(b));
    let grid: Vec<f32> = (0..grid_points)
        .map(|k| -1.0 + 2.0 * k as f32 / (grid_points - 1) as f32)
        .collect();
    let cdf = grid
        .iter()
        .map(|&g| {
            let count = cs.partition_point(|&c| c <= g);
            count as f32 / cs.len() as f32
        })
        .collect();
    (grid, cdf)
}

fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let dot = wr_tensor::dot(a, b);
    let na = wr_tensor::dot(a, a).sqrt();
    let nb = wr_tensor::dot(b, b).sqrt();
    // Exact zero-norm guard before the division; a tolerance here would
    // silently zero out tiny-but-real vectors.
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whiteness_of_gaussian_is_small() {
        let mut rng = Rng64::seed_from(1);
        let z = Tensor::randn(&[3000, 8], &mut rng);
        assert!(whiteness_error(&z) < 0.1);
    }

    #[test]
    fn whiteness_of_anisotropic_is_large() {
        let mut rng = Rng64::seed_from(2);
        let mut x = Tensor::randn(&[500, 8], &mut rng);
        for r in 0..500 {
            let base = x.at2(r, 0) * 10.0;
            for v in x.row_mut(r) {
                *v += base;
            }
        }
        assert!(whiteness_error(&x) > 1.0);
    }

    #[test]
    fn cosine_of_identical_rows_is_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 1.0, 2.0, 1.0, 2.0], &[3, 2]);
        let avg = average_pairwise_cosine(&x, 50, 3);
        assert!((avg - 1.0).abs() < 1e-5);
    }

    #[test]
    fn cosine_of_random_rows_near_zero() {
        let mut rng = Rng64::seed_from(4);
        let x = Tensor::randn(&[400, 64], &mut rng);
        let avg = average_pairwise_cosine(&x, 500, 5);
        assert!(avg.abs() < 0.1, "avg cosine {avg}");
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let mut rng = Rng64::seed_from(6);
        let x = Tensor::randn(&[200, 64], &mut rng);
        let (grid, cdf) = pairwise_cosine_cdf(&x, 1000, 41, 7);
        assert_eq!(grid.len(), 41);
        assert_eq!(cdf.len(), 41);
        for w in cdf.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(cdf[0] >= 0.0 && cdf[40] <= 1.0 + 1e-6);
        // random vectors: nearly everything below cos=0.5
        let idx = grid.iter().position(|&g| g >= 0.5).unwrap();
        assert!(cdf[idx] > 0.99);
    }

    #[test]
    fn zero_rows_yield_zero_cosine() {
        let x = Tensor::zeros(&[3, 4]);
        assert_eq!(average_pairwise_cosine(&x, 10, 1), 0.0);
    }
}
