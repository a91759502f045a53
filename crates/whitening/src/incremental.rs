//! Incremental whitening: fold newly arrived items into a fitted
//! transform without refitting from scratch.
//!
//! The paper's cold-start motivation is exactly this scenario —
//! "e-commerce platforms introduce thousands of new products daily." A
//! production deployment keeps running mean/covariance moments and refits
//! the whitening matrix on demand; re-deriving it from the moments costs
//! one `d × d` eigendecomposition instead of an `n × d` pass.

use crate::{WhiteningMethod, WhiteningTransform};
use wr_linalg::sym_eig;
use wr_tensor::Tensor;

/// Running first/second moments of item embeddings, updatable one batch at
/// a time, from which a [`WhiteningTransform`] can be derived at any point.
#[derive(Debug, Clone)]
pub struct IncrementalWhitening {
    dim: usize,
    count: f64,
    /// Σx per dimension.
    sum: Vec<f64>,
    /// Σ x xᵀ (upper triangle including diagonal, row-major packed).
    cross: Vec<f64>,
    eps: f32,
}

impl IncrementalWhitening {
    pub fn new(dim: usize, eps: f32) -> Self {
        IncrementalWhitening {
            dim,
            count: 0.0,
            sum: vec![0.0; dim],
            cross: vec![0.0; dim * (dim + 1) / 2],
            eps,
        }
    }

    /// Fold a batch of rows into the moments.
    pub fn update(&mut self, x: &Tensor) {
        assert_eq!(x.cols(), self.dim, "dimension mismatch in update");
        for r in 0..x.rows() {
            let row = x.row(r);
            let mut k = 0;
            for i in 0..self.dim {
                self.sum[i] += row[i] as f64;
                for j in i..self.dim {
                    self.cross[k] += row[i] as f64 * row[j] as f64;
                    k += 1;
                }
            }
            self.count += 1.0;
        }
    }

    /// Items folded in so far.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Derive the ZCA transform from the current moments.
    ///
    /// Panics with fewer than 2 items (covariance undefined).
    pub fn transform(&self) -> WhiteningTransform {
        assert!(self.count >= 2.0, "need at least two items");
        let n = self.count;
        let mean: Vec<f32> = self.sum.iter().map(|&s| (s / n) as f32).collect();
        // Cov = E[xxᵀ] − μμᵀ + εI.
        let mut cov = Tensor::zeros(&[self.dim, self.dim]);
        let mut k = 0;
        for i in 0..self.dim {
            for j in i..self.dim {
                let e_xy = self.cross[k] / n;
                let c = (e_xy - (self.sum[i] / n) * (self.sum[j] / n)) as f32;
                *cov.at2_mut(i, j) = c;
                *cov.at2_mut(j, i) = c;
                k += 1;
            }
        }
        for i in 0..self.dim {
            *cov.at2_mut(i, i) += self.eps;
        }
        #[expect(
            clippy::expect_used,
            reason = "cov is symmetric by construction (mirrored writes above) and Jacobi rotation on a symmetric matrix converges"
        )]
        let eig = sym_eig(&cov).expect("incremental covariance eigendecomposition");
        let eps = self.eps;
        let w = eig.rebuild_with(|l| 1.0 / l.max(eps).sqrt());
        WhiteningTransform {
            mean: Tensor::from_vec(mean, &[self.dim]),
            w,
            method: WhiteningMethod::Zca,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_eval::whiteness_error;
    use wr_tensor::Rng64;

    fn correlated(n: usize, d: usize, seed: u64) -> Tensor {
        let mut rng = Rng64::seed_from(seed);
        let mix = Tensor::randn(&[d, d], &mut rng).scale(0.4).add(&Tensor::eye(d));
        Tensor::randn(&[n, d], &mut rng).matmul(&mix)
    }

    #[test]
    fn matches_batch_fit() {
        let x = correlated(500, 8, 1);
        let batch = WhiteningTransform::fit(&x, WhiteningMethod::Zca, 1e-5);

        let mut inc = IncrementalWhitening::new(8, 1e-5);
        // Feed in uneven chunks.
        inc.update(&x.slice_rows(0, 100));
        inc.update(&x.slice_rows(100, 101));
        inc.update(&x.slice_rows(101, 500));
        assert_eq!(inc.count(), 500);
        let t = inc.transform();

        let za = batch.apply(&x);
        let zb = t.apply(&x);
        let rel = za.sub(&zb).frob_norm() / za.frob_norm();
        assert!(rel < 1e-2, "incremental vs batch differ by {rel}");
    }

    #[test]
    fn new_items_improve_the_estimate() {
        // Fit on a small prefix, then fold in the rest: whiteness of the
        // full set under the updated transform must improve.
        let x = correlated(600, 6, 2);
        let mut inc = IncrementalWhitening::new(6, 1e-5);
        inc.update(&x.slice_rows(0, 30));
        let early = inc.transform();
        let err_early = whiteness_error(&early.apply(&x));

        inc.update(&x.slice_rows(30, 600));
        let late = inc.transform();
        let err_late = whiteness_error(&late.apply(&x));
        assert!(
            err_late < err_early,
            "more data should whiten better: {err_early} -> {err_late}"
        );
    }

    #[test]
    #[should_panic(expected = "at least two items")]
    fn requires_two_items() {
        let inc = IncrementalWhitening::new(4, 1e-5);
        inc.transform();
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn rejects_wrong_width() {
        let mut inc = IncrementalWhitening::new(4, 1e-5);
        inc.update(&Tensor::zeros(&[3, 5]));
    }
}
