//! Covariance, condition number and spectral statistics.

use wr_tensor::Tensor;

/// Covariance of an `n × d` matrix whose *rows* are samples (the layout the
/// models use for item-embedding matrices):
/// `Σ = (X - 1μᵀ)ᵀ(X - 1μᵀ) / n + ε I`.
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
        let x = Tensor::randn(&[5000, 4], &mut rng); // n=5000 rows, d=4
        let cov = covariance_of_rows(&x, 0.0);
        // Should be close to identity.
        let err = cov.sub(&Tensor::eye(4)).frob_norm();
        assert!(err < 0.15, "covariance deviates from I by {err}");
    }

    #[test]
    fn eps_regularizes_diagonal() {
        let x = Tensor::zeros(&[10, 3]);
        let cov = covariance_of_rows(&x, 0.5);
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
        let mut data = Vec::with_capacity(n * 3);
        for _ in 0..n {
            let shared = rng.normal() * 10.0;
            data.push(shared + 0.1 * rng.normal());
            data.push(0.1 * rng.normal());
            data.push(0.1 * rng.normal());
        }
        let x = Tensor::from_vec(data, &[n, 3]);
        let cov = covariance_of_rows(&x, 1e-6);
        let k = condition_number(&sym_eigvals(&cov).unwrap(), 1e-12);
        assert!(k > 100.0, "expected ill-conditioned covariance, κ={k}");
    }
}
