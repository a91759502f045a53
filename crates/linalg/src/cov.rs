//! Covariance, condition number and spectral statistics.

use wr_tensor::Tensor;

/// Covariance of a `d × n` matrix whose *columns* are samples
/// (the paper's `X ∈ R^{d_t × |I|}` layout):
/// `Σ = (X - μ1ᵀ)(X - μ1ᵀ)ᵀ / n + ε I`.
pub fn covariance(x: &Tensor, eps: f32) -> Tensor {
    assert!(x.rank() == 2, "covariance requires a matrix");
    let (d, n) = (x.rows(), x.cols());
    assert!(n > 0, "covariance of zero samples");
    // Column-sample layout: mean over columns = mean of each row.
    let mu = x.mean_cols(); // length d
    let centered = x.add_col_broadcast(&mu.scale(-1.0));
    let mut cov = centered.matmul_nt(&centered).scale(1.0 / n as f32);
    for i in 0..d {
        *cov.at2_mut(i, i) += eps;
    }
    cov
}

/// Covariance of an `n × d` matrix whose *rows* are samples (the layout the
/// models use for item-embedding matrices).
pub fn covariance_of_rows(x: &Tensor, eps: f32) -> Tensor {
    assert!(x.rank() == 2, "covariance_of_rows requires a matrix");
    let (n, d) = (x.rows(), x.cols());
    assert!(n > 0, "covariance of zero samples");
    let mu = x.mean_rows(); // length d
    let centered = x.sub_row_broadcast(&mu);
    let mut cov = centered.matmul_tn(&centered).scale(1.0 / n as f32);
    for i in 0..d {
        *cov.at2_mut(i, i) += eps;
    }
    cov
}

/// Condition number `κ(A) = λ_max / λ_min` of a symmetric PSD matrix,
/// given its eigenvalues in descending order (`sym_eigvals`).
///
/// Both ends are floored at `floor` to keep κ finite for numerically
/// singular matrices; the paper plots κ on a log scale, so a
/// huge-but-finite value carries the same signal as infinity.
pub fn condition_number(eigenvalues: &[f32], floor: f32) -> f32 {
    let lmax = eigenvalues.first().copied().unwrap_or(0.0).max(floor);
    let lmin = eigenvalues.last().copied().unwrap_or(0.0).max(floor);
    lmax / lmin
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym_eigvals;
    use wr_tensor::Rng64;

    #[test]
    fn covariance_of_isotropic_samples() {
        let mut rng = Rng64::seed_from(1);
        let x = Tensor::randn(&[4, 5000], &mut rng); // d=4, n=5000 columns
        let cov = covariance(&x, 0.0);
        // Should be close to identity.
        let err = cov.sub(&Tensor::eye(4)).frob_norm();
        assert!(err < 0.15, "covariance deviates from I by {err}");
    }

    #[test]
    fn row_layout_matches_column_layout() {
        let mut rng = Rng64::seed_from(2);
        let xr = Tensor::randn(&[100, 6], &mut rng); // rows are samples
        let c1 = covariance_of_rows(&xr, 1e-5);
        let c2 = covariance(&xr.transpose(), 1e-5);
        assert!(c1.sub(&c2).frob_norm() < 1e-4);
    }

    #[test]
    fn eps_regularizes_diagonal() {
        let x = Tensor::zeros(&[3, 10]);
        let cov = covariance(&x, 0.5);
        assert!(cov.sub(&Tensor::eye(3).scale(0.5)).frob_norm() < 1e-6);
    }

    #[test]
    fn condition_number_diagonal() {
        let a = Tensor::from_vec(vec![8.0, 0.0, 0.0, 2.0], &[2, 2]);
        let k = condition_number(&sym_eigvals(&a).unwrap(), 1e-12);
        assert!((k - 4.0).abs() < 1e-4);
        let eye = sym_eigvals(&Tensor::eye(5)).unwrap();
        assert!((condition_number(&eye, 1e-12) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn anisotropic_has_high_condition_number() {
        let mut rng = Rng64::seed_from(5);
        // samples dominated by one direction
        let n = 2000;
        let mut data = Vec::with_capacity(3 * n);
        for _ in 0..n {
            let shared = rng.normal() * 10.0;
            data.push(shared + 0.1 * rng.normal());
        }
        for _ in 0..n {
            data.push(0.1 * rng.normal());
        }
        for _ in 0..n {
            data.push(0.1 * rng.normal());
        }
        let x = Tensor::from_vec(data, &[3, n]);
        let cov = covariance(&x, 1e-6);
        let k = condition_number(&sym_eigvals(&cov).unwrap(), 1e-12);
        assert!(k > 100.0, "expected ill-conditioned covariance, κ={k}");
    }
}
