//! Cholesky factorization and the forward triangular solve.

use crate::{LinalgError, Result};
use wr_tensor::Tensor;

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
///
/// The input must be symmetric positive definite; a non-positive pivot
/// returns [`LinalgError::NotPositiveDefinite`]. Internal arithmetic is
/// `f64`.
pub fn cholesky(a: &Tensor) -> Result<Tensor> {
    if a.rank() != 2 || a.rows() != a.cols() {
        return Err(LinalgError::NotSquare {
            rows: if a.rank() == 2 { a.rows() } else { 0 },
            cols: if a.rank() == 2 { a.cols() } else { 0 },
        });
    }
    if a.non_finite_count() > 0 {
        return Err(LinalgError::NonFinite);
    }
    let n = a.rows();
    let mut l = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a.at2(i, j) as f64;
            for k in 0..j {
                sum -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(LinalgError::NotPositiveDefinite {
                        pivot: i,
                        value: sum,
                    });
                }
                l[i * n + j] = sum.sqrt();
            } else {
                l[i * n + j] = sum / l[j * n + j];
            }
        }
    }
    Ok(Tensor::from_vec(l.into_iter().map(|x| x as f32).collect(), &[n, n]))
}

/// Solve `L X = B` for lower-triangular `L` (forward substitution), where
/// `B` is a matrix whose columns are independent right-hand sides.
pub fn solve_lower_triangular(l: &Tensor, b: &Tensor) -> Tensor {
    assert!(l.rank() == 2 && l.rows() == l.cols(), "L must be square");
    assert_eq!(l.rows(), b.rows(), "dimension mismatch in forward solve");
    let n = l.rows();
    let m = b.cols();
    let mut x = vec![0.0f64; n * m];
    for col in 0..m {
        for i in 0..n {
            let mut sum = b.at2(i, col) as f64;
            for k in 0..i {
                sum -= l.at2(i, k) as f64 * x[k * m + col];
            }
            x[i * m + col] = sum / l.at2(i, i) as f64;
        }
    }
    Tensor::from_vec(x.into_iter().map(|v| v as f32).collect(), &[n, m])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize, seed: u64) -> Tensor {
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f32 / u32::MAX as f32) - 0.5
        };
        let b = Tensor::from_vec((0..n * n).map(|_| next()).collect(), &[n, n]);
        let mut a = b.matmul_tn(&b);
        for i in 0..n {
            *a.at2_mut(i, i) += 0.5; // ensure strictly PD
        }
        a
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd(16, 9);
        let l = cholesky(&a).unwrap();
        let llt = l.matmul_nt(&l);
        let err = a.sub(&llt).frob_norm() / a.frob_norm();
        assert!(err < 1e-5, "reconstruction error {err}");
        // strictly lower triangle of L^T is zero => L is lower triangular
        for i in 0..16 {
            for j in (i + 1)..16 {
                assert_eq!(l.at2(i, j), 0.0);
            }
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 2.0, 1.0], &[2, 2]); // eigenvalues 3, -1
        assert!(matches!(
            cholesky(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        assert!(cholesky(&Tensor::zeros(&[2, 3])).is_err());
    }

    #[test]
    fn forward_solve_inverts() {
        let l = cholesky(&spd(8, 4)).unwrap();
        let b = spd(8, 5); // arbitrary right-hand sides
        let y = solve_lower_triangular(&l, &b);
        let err = l.matmul(&y).sub(&b).frob_norm() / b.frob_norm();
        assert!(err < 1e-3, "solve error {err}");
    }

    #[test]
    fn identity_factor() {
        let l = cholesky(&Tensor::eye(4)).unwrap();
        assert!(l.sub(&Tensor::eye(4)).frob_norm() < 1e-6);
    }
}
