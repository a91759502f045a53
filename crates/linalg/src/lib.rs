//! Numerical linear algebra for the WhitenRec reproduction.
//!
//! Everything operates on [`wr_tensor::Tensor`] matrices and does its
//! internal accumulation in `f64` for stability (whitening is sensitive to
//! the accuracy of small eigenvalues), returning `f32` tensors.
//!
//! Provided decompositions:
//! * [`sym_eig`] — cyclic Jacobi eigendecomposition of a symmetric matrix,
//!   eigenvalues sorted descending; [`sym_eigvals`] is the same sweep for
//!   callers that read the spectrum only.
//! * [`cholesky`] — lower-triangular Cholesky factor of an SPD matrix.
//! * [`svd_thin`] — thin SVD of a rectangular matrix via the Gram matrix.
//! * [`pinv`] — Moore–Penrose pseudoinverse.
//!
//! Plus the statistics the paper's analysis needs: [`covariance`],
//! [`condition_number`].

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]

mod cholesky;
mod cov;
mod jacobi;
mod pinv;
mod svd;

pub use cholesky::{cholesky, solve_lower_triangular};
pub use cov::{condition_number, covariance, covariance_of_rows};
pub use jacobi::{sym_eig, sym_eigvals, SymEig};
pub use pinv::pinv;
pub use svd::{singular_values, svd_thin, Svd};

/// Numerical failure modes for the decompositions.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Input was not square where a square matrix is required.
    NotSquare { rows: usize, cols: usize },
    /// Cholesky hit a non-positive pivot: the matrix is not positive definite.
    NotPositiveDefinite { pivot: usize, value: f64 },
    /// Jacobi failed to converge within the sweep budget.
    NoConvergence { off_diagonal_norm: f64 },
    /// Input contained NaN or infinite entries.
    NonFinite,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix is {rows}x{cols}, square required")
            }
            LinalgError::NotPositiveDefinite { pivot, value } => {
                write!(f, "not positive definite: pivot {pivot} = {value}")
            }
            LinalgError::NoConvergence { off_diagonal_norm } => {
                write!(f, "Jacobi did not converge (off-diag norm {off_diagonal_norm})")
            }
            LinalgError::NonFinite => write!(f, "input contains NaN/inf"),
        }
    }
}

impl std::error::Error for LinalgError {}

pub type Result<T> = std::result::Result<T, LinalgError>;
