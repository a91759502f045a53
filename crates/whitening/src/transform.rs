//! Fitted linear whitening transforms.

use wr_linalg::{cholesky, covariance_of_rows, solve_lower_triangular, sym_eig};
use wr_tensor::Tensor;

/// The non-parametric whitening operators compared in Table VI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WhiteningMethod {
    /// Zero-phase component analysis: `W = D Λ^{-1/2} Dᵀ`. Rotation back to
    /// the original axes keeps whitened features closest to the input.
    Zca,
    /// Principal component analysis: `W = D Λ^{-1/2}` (row layout), i.e.
    /// project onto eigenvectors then rescale. Axes are permuted to
    /// eigen-order.
    Pca,
    /// Cholesky whitening: `W = L⁻ᵀ` from `Σ = L Lᵀ`.
    Cholesky,
    /// BatchNorm-style: per-dimension `1/σ` scaling, no decorrelation.
    BatchNorm,
}

impl WhiteningMethod {
    pub const ALL: [WhiteningMethod; 4] = [
        WhiteningMethod::Zca,
        WhiteningMethod::Pca,
        WhiteningMethod::Cholesky,
        WhiteningMethod::BatchNorm,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            WhiteningMethod::Zca => "ZCA",
            WhiteningMethod::Pca => "PCA",
            WhiteningMethod::Cholesky => "CD",
            WhiteningMethod::BatchNorm => "BN",
        }
    }
}

/// A fitted affine whitening: `z = (x − μ) W` for row vectors `x`.
///
/// Pre-computed once from the full item-embedding matrix (the paper's
/// "pre-processing step"; §IV-E notes this costs nothing at training time).
#[derive(Debug, Clone)]
pub struct WhiteningTransform {
    /// Feature mean, length `d`.
    pub mean: Tensor,
    /// `[d, d]` whitening matrix applied on the right of centered rows.
    pub w: Tensor,
    pub method: WhiteningMethod,
}

/// The ZCA matrix `W = D Λ^{-1/2} Dᵀ` of a covariance that already
/// carries its `+ eps` ridge, each eigenvalue floored at `eps` — the one
/// rebuild behind [`WhiteningTransform::fit`]'s ZCA arm and
/// [`crate::IncrementalWhitening::transform`].
pub(crate) fn zca_matrix(cov: &Tensor, eps: f32) -> Tensor {
    #[expect(
        clippy::expect_used,
        reason = "both callers build cov symmetric (mirrored writes); Jacobi on a symmetric matrix converges"
    )]
    let eig = sym_eig(cov).expect("covariance eigendecomposition failed");
    eig.rebuild_with(|l| 1.0 / l.max(eps).sqrt())
}

impl WhiteningTransform {
    /// Fit on `x: [n, d]` (rows are items). `eps` regularizes Σ's diagonal.
    ///
    /// Panics when the eigen/Cholesky decomposition fails, which for a
    /// covariance matrix with `eps > 0` indicates non-finite inputs.
    pub fn fit(x: &Tensor, method: WhiteningMethod, eps: f32) -> Self {
        assert!(x.rank() == 2, "fit expects [n, d]");
        assert!(x.rows() >= 2, "need at least two samples to whiten");
        let d = x.cols();
        let mean = x.mean_rows();
        let cov = covariance_of_rows(x, eps);

        let w = match method {
            WhiteningMethod::Zca => zca_matrix(&cov, eps),
            WhiteningMethod::Pca => {
                #[expect(clippy::expect_used, reason = "same symmetry argument as zca_matrix's")]
                let eig = sym_eig(&cov).expect("covariance eigendecomposition failed");
                // Row layout: z = c D Λ^{-1/2}; scale eigenvector columns.
                let mut w = eig.vectors.clone();
                for j in 0..d {
                    let s = 1.0 / eig.values[j].max(eps).sqrt();
                    for i in 0..d {
                        *w.at2_mut(i, j) *= s;
                    }
                }
                w
            }
            WhiteningMethod::Cholesky => {
                #[expect(
                    clippy::expect_used,
                    reason = "cov carries the +eps ridge from covariance_of_rows, making it positive definite"
                )]
                let l = cholesky(&cov).expect("covariance Cholesky failed");
                // zᵀ = L⁻¹ cᵀ  ⇒  z = c L⁻ᵀ; compute L⁻¹ once.
                let linv = solve_lower_triangular(&l, &Tensor::eye(d));
                linv.transpose()
            }
            WhiteningMethod::BatchNorm => {
                let var = x.var_rows();
                let mut w = Tensor::zeros(&[d, d]);
                for i in 0..d {
                    *w.at2_mut(i, i) = 1.0 / (var.data()[i] + eps).sqrt();
                }
                w
            }
        };

        WhiteningTransform { mean, w, method }
    }

    /// Apply to rows of `x: [m, d]`.
    pub fn apply(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.cols(), self.mean.numel(), "dimension mismatch in apply");
        x.sub_row_broadcast(&self.mean).matmul(&self.w)
    }

    /// Dimensionality this transform was fitted for.
    pub fn dim(&self) -> usize {
        self.mean.numel()
    }

    /// The inverse ("coloring") transform: maps whitened rows back to the
    /// original distribution, `x = z·W⁻¹ + μ` (the WC-transform direction
    /// of Siarohin et al., cited by the paper as \[36\]).
    ///
    /// Computed via the pseudoinverse so it also behaves for
    /// ε-regularized, nearly singular fits.
    #[expect(
        clippy::expect_used,
        reason = "pinv only fails on shape errors; w is square d x d by construction of every fit path"
    )]
    pub fn coloring_matrix(&self) -> Tensor {
        wr_linalg::pinv(&self.w).expect("whitening matrix pseudoinverse")
    }

    /// Apply the inverse transform to whitened rows.
    pub fn uncolor(&self, z: &Tensor) -> Tensor {
        assert_eq!(z.cols(), self.dim(), "dimension mismatch in uncolor");
        z.matmul(&self.coloring_matrix()).add_row_broadcast(&self.mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_linalg::covariance_of_rows;
    use wr_tensor::Rng64;

    /// Anisotropic sample matrix: strong shared direction + small noise.
    fn anisotropic(n: usize, d: usize, seed: u64) -> Tensor {
        let mut rng = Rng64::seed_from(seed);
        let shared = Tensor::randn(&[1, d], &mut rng).scale(4.0);
        let mut x = Tensor::zeros(&[n, d]);
        for r in 0..n {
            let a = 1.0 + 0.3 * rng.normal();
            for (j, v) in x.row_mut(r).iter_mut().enumerate() {
                *v = a * shared.data()[j] + 0.3 * rng.normal();
            }
        }
        x
    }

    fn cov_error_from_identity(z: &Tensor) -> f32 {
        let d = z.cols();
        let cov = covariance_of_rows(z, 0.0);
        cov.sub(&Tensor::eye(d)).frob_norm() / (d as f32).sqrt()
    }

    #[test]
    fn zca_whitens_to_identity_covariance() {
        let x = anisotropic(800, 12, 1);
        let t = WhiteningTransform::fit(&x, WhiteningMethod::Zca, 1e-6);
        let z = t.apply(&x);
        assert!(cov_error_from_identity(&z) < 0.05);
        // mean ≈ 0
        assert!(z.mean_rows().frob_norm() < 1e-3);
    }

    #[test]
    fn pca_whitens_to_identity_covariance() {
        let x = anisotropic(800, 12, 2);
        let t = WhiteningTransform::fit(&x, WhiteningMethod::Pca, 1e-6);
        let z = t.apply(&x);
        assert!(cov_error_from_identity(&z) < 0.05);
    }

    #[test]
    fn cholesky_whitens_to_identity_covariance() {
        let x = anisotropic(800, 12, 3);
        let t = WhiteningTransform::fit(&x, WhiteningMethod::Cholesky, 1e-6);
        let z = t.apply(&x);
        assert!(cov_error_from_identity(&z) < 0.05);
    }

    #[test]
    fn batchnorm_standardizes_but_keeps_correlation() {
        let x = anisotropic(800, 6, 4);
        let t = WhiteningTransform::fit(&x, WhiteningMethod::BatchNorm, 1e-6);
        let z = t.apply(&x);
        // diagonal ≈ 1 …
        let cov = covariance_of_rows(&z, 0.0);
        for i in 0..6 {
            assert!((cov.at2(i, i) - 1.0).abs() < 0.05, "var {} = {}", i, cov.at2(i, i));
        }
        // … but off-diagonals stay large (no decorrelation).
        let mut max_off = 0.0f32;
        for i in 0..6 {
            for j in 0..6 {
                if i != j {
                    max_off = max_off.max(cov.at2(i, j).abs());
                }
            }
        }
        assert!(max_off > 0.5, "BN unexpectedly decorrelated (max off-diag {max_off})");
    }

    #[test]
    fn zca_is_closest_to_input_among_rotations() {
        // ZCA's defining property: among whitening transforms, it minimizes
        // distortion from the original data. Check vs PCA on the same input.
        let x = anisotropic(600, 8, 5);
        let zca = WhiteningTransform::fit(&x, WhiteningMethod::Zca, 1e-6).apply(&x);
        let pca = WhiteningTransform::fit(&x, WhiteningMethod::Pca, 1e-6).apply(&x);
        let centered = x.sub_row_broadcast(&x.mean_rows());
        let d_zca = zca.sub(&centered).frob_norm();
        let d_pca = pca.sub(&centered).frob_norm();
        assert!(d_zca <= d_pca + 1e-3, "ZCA {d_zca} should distort less than PCA {d_pca}");
    }

    #[test]
    fn apply_is_affine() {
        // apply(αx + c) relationships: check apply on mean gives ~0 vector.
        let x = anisotropic(300, 5, 6);
        let t = WhiteningTransform::fit(&x, WhiteningMethod::Zca, 1e-6);
        let mu = t.mean.reshape(&[1, 5]);
        let z = t.apply(&mu);
        assert!(z.frob_norm() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "two samples")]
    fn fit_requires_samples() {
        let x = Tensor::zeros(&[1, 4]);
        WhiteningTransform::fit(&x, WhiteningMethod::Zca, 1e-5);
    }

    #[test]
    fn coloring_inverts_whitening() {
        let x = anisotropic(400, 10, 8);
        for method in [WhiteningMethod::Zca, WhiteningMethod::Cholesky] {
            let t = WhiteningTransform::fit(&x, method, 1e-6);
            let z = t.apply(&x);
            let back = t.uncolor(&z);
            let rel = back.sub(&x).frob_norm() / x.frob_norm();
            assert!(rel < 1e-2, "{:?}: roundtrip error {rel}", method);
        }
    }

    #[test]
    fn methods_have_names() {
        for m in WhiteningMethod::ALL {
            assert!(!m.name().is_empty());
        }
    }
}
