//! Whitening transformations for pre-trained item text embeddings.
//!
//! Implements §IV of the paper plus the ablations of Table VI:
//!
//! * [`WhiteningMethod::Zca`] — `Φ = D Λ^{-1/2} Dᵀ` (Eq. 4), the default.
//! * [`WhiteningMethod::Pca`] — `Φ = Λ^{-1/2} Dᵀ` (rotates into the
//!   eigenbasis; suffers stochastic axis swapping, Table VI).
//! * [`WhiteningMethod::Cholesky`] — `Φ = L⁻¹` from `Σ = L Lᵀ`.
//! * [`WhiteningMethod::BatchNorm`] — per-dimension standardization only
//!   (no decorrelation).
//! * [`group_whiten`] — relaxed whitening with `G` dimension groups (Eq. 5).
//! * [`FlowWhitening`] — a small normalizing flow trained by maximum
//!   likelihood (our stand-in for BERT-flow).
//!
//! Convention: embedding matrices are **row-sample**: `[n_items, d]`. The
//! paper writes the transposed layout `X ∈ R^{d_t×|I|}`; all formulas here
//! are the row-layout equivalents, and the whitened output satisfies
//! `cov(Z) ≈ I_d`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]

mod ensemble;
mod flow;
mod group;
mod incremental;
mod metrics;
mod observed;
mod transform;

pub use ensemble::EnsembleMode;
pub use flow::FlowWhitening;
pub use group::{group_whiten, GroupWhitening};
pub use incremental::IncrementalWhitening;
pub use observed::{observed_group_whiten, record_embedding_health};
pub use metrics::{
    average_pairwise_cosine, pairwise_cosine_cdf, pairwise_cosines, whiteness_error,
};
pub use transform::{WhiteningMethod, WhiteningTransform};

/// Default covariance regularizer `ε` (added to the diagonal before
/// factorization, as in the paper's Σ definition).
pub const DEFAULT_EPS: f32 = 1e-5;
