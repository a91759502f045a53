//! Whitening transformations for pre-trained item text embeddings.
//!
//! Implements §IV of the paper plus the rows of Table VI computed once, by
//! linear algebra alone (PW is `wr-models`' tower, BERT-flow `wr-bench`'s):
//!
//! * [`WhiteningMethod::Zca`] — `Φ = D Λ^{-1/2} Dᵀ` (Eq. 4), the default.
//! * [`WhiteningMethod::Pca`] — `Φ = Λ^{-1/2} Dᵀ` (rotates into the
//!   eigenbasis; suffers stochastic axis swapping, Table VI).
//! * [`WhiteningMethod::Cholesky`] — `Φ = L⁻¹` from `Σ = L Lᵀ`.
//! * [`WhiteningMethod::BatchNorm`] — per-dimension standardization only
//!   (no decorrelation).
//! * [`group_whiten`] — relaxed whitening with `G` dimension groups (Eq. 5).
//!
//! Convention: embedding matrices are **row-sample**: `[n_items, d]`. The
//! paper writes the transposed layout `X ∈ R^{d_t×|I|}`; all formulas here
//! are the row-layout equivalents, and the whitened output satisfies
//! `cov(Z) ≈ I_d`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]

mod ensemble;
mod group;
mod incremental;
mod transform;

pub use ensemble::EnsembleMode;
pub use group::{group_whiten, GroupWhitening};
pub use incremental::IncrementalWhitening;
pub use transform::{WhiteningMethod, WhiteningTransform};

/// Default covariance regularizer `ε` (added to the diagonal before
/// factorization, as in the paper's Σ definition).
pub const DEFAULT_EPS: f32 = 1e-5;
