//! Thin singular value decomposition via the Gram matrix.

use crate::{
    jacobi::{sym_eig, sym_eigvals},
    Result,
};
use wr_tensor::Tensor;

/// Thin SVD `A = U diag(σ) Vᵀ` of an `m × n` matrix with `r = min(m, n)`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// `m × r` left singular vectors.
    pub u: Tensor,
    /// Singular values, descending, length `r`.
    pub sigma: Vec<f32>,
    /// `n × r` right singular vectors.
    pub v: Tensor,
}

/// Threshold below which a singular value is treated as zero, relative to
/// the largest singular value.
const SV_RELATIVE_EPS: f32 = 1e-6;

/// Compute a thin SVD by eigendecomposing the smaller Gram matrix.
///
/// For `m ≥ n` this uses `AᵀA = V Σ² Vᵀ` and recovers `U = A V Σ⁻¹`;
/// otherwise it operates on `AAᵀ`. Accuracy for tiny singular values is
/// limited by the squaring (≈ sqrt of machine epsilon), which is ample for
/// the spectrum plots and whitening checks in this project.
pub fn svd_thin(a: &Tensor) -> Result<Svd> {
    assert!(a.rank() == 2, "svd_thin requires a matrix");
    let (m, n) = (a.rows(), a.cols());
    if m >= n {
        let gram = a.matmul_tn(a); // n×n
        let eig = sym_eig(&gram)?;
        let sigma: Vec<f32> = eig.values.iter().map(|&l| l.max(0.0).sqrt()).collect();
        let v = eig.vectors; // n×n, columns are right singular vectors
        // U = A V Σ^{-1}, zero column where σ ~ 0.
        let av = a.matmul(&v); // m×n
        let mut u = av;
        let smax = sigma.first().copied().unwrap_or(0.0).max(1e-30);
        for j in 0..n {
            let s = sigma[j];
            let inv = if s > SV_RELATIVE_EPS * smax { 1.0 / s } else { 0.0 };
            for i in 0..m {
                *u.at2_mut(i, j) *= inv;
            }
        }
        Ok(Svd { u, sigma, v })
    } else {
        // Decompose the transpose and swap factors.
        let svd_t = svd_thin(&a.transpose())?;
        Ok(Svd {
            u: svd_t.v,
            sigma: svd_t.sigma,
            v: svd_t.u,
        })
    }
}

/// Singular values only (descending).
pub fn singular_values(a: &Tensor) -> Result<Vec<f32>> {
    let (m, n) = (a.rows(), a.cols());
    let gram = if m >= n { a.matmul_tn(a) } else { a.matmul_nt(a) };
    let values = sym_eigvals(&gram)?;
    Ok(values.iter().map(|&l| l.max(0.0).sqrt()).collect())
}

impl Svd {
    /// Reconstruct the original matrix `U diag(σ) Vᵀ`.
    pub fn reconstruct(&self) -> Tensor {
        let r = self.sigma.len();
        let mut us = self.u.clone();
        for j in 0..r {
            for i in 0..self.u.rows() {
                *us.at2_mut(i, j) *= self.sigma[j];
            }
        }
        us.matmul_nt(&self.v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(m: usize, n: usize, seed: u64) -> Tensor {
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f32 / u32::MAX as f32) - 0.5
        };
        Tensor::from_vec((0..m * n).map(|_| next()).collect(), &[m, n])
    }

    #[test]
    fn svd_reconstructs_tall() {
        let a = pseudo(20, 8, 3);
        let svd = svd_thin(&a).unwrap();
        let err = a.sub(&svd.reconstruct()).frob_norm() / a.frob_norm();
        assert!(err < 1e-3, "reconstruction error {err}");
    }

    #[test]
    fn svd_reconstructs_wide() {
        let a = pseudo(6, 17, 5);
        let svd = svd_thin(&a).unwrap();
        let err = a.sub(&svd.reconstruct()).frob_norm() / a.frob_norm();
        assert!(err < 1e-3, "reconstruction error {err}");
    }

    #[test]
    fn singular_values_of_diagonal() {
        let a = Tensor::from_vec(vec![3.0, 0.0, 0.0, 0.0, 2.0, 0.0], &[2, 3]);
        let s = singular_values(&a).unwrap();
        assert!((s[0] - 3.0).abs() < 1e-4);
        assert!((s[1] - 2.0).abs() < 1e-4);
    }

    #[test]
    fn sigma_descending_nonnegative() {
        let a = pseudo(30, 10, 7);
        let s = singular_values(&a).unwrap();
        for w in s.windows(2) {
            assert!(w[0] >= w[1] - 1e-5);
        }
        assert!(s.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn rank_deficient_matrix() {
        // rank-1 matrix: outer product
        let u = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3, 1]);
        let v = Tensor::from_vec(vec![4.0, 5.0], &[1, 2]);
        let a = u.matmul(&v);
        let s = singular_values(&a).unwrap();
        assert!(s[1] / s[0] < 1e-3, "second sv should vanish: {s:?}");
        let svd = svd_thin(&a).unwrap();
        let err = a.sub(&svd.reconstruct()).frob_norm() / a.frob_norm();
        assert!(err < 1e-3);
    }

    #[test]
    fn orthonormal_factors() {
        let a = pseudo(15, 6, 11);
        let svd = svd_thin(&a).unwrap();
        let vtv = svd.v.matmul_tn(&svd.v);
        assert!(vtv.sub(&Tensor::eye(6)).frob_norm() < 1e-3);
        let utu = svd.u.matmul_tn(&svd.u);
        assert!(utu.sub(&Tensor::eye(6)).frob_norm() < 1e-2);
    }
}
