//! Synthetic item catalogs and a simulated pre-trained language-model
//! encoder.
//!
//! The paper feeds each item's concatenated *title | categories | brand*
//! through BERT and takes the `[CLS]` vector. We can't ship BERT, so this
//! crate builds the closest controllable substitute:
//!
//! 1. [`Catalog`] — a generative item catalog: categories and brands carry
//!    latent *semantic factor* vectors; item titles are sampled from
//!    category-topical vocabularies; each item gets a ground-truth semantic
//!    vector (category + brand + word effects + idiosyncratic noise).
//! 2. [`PlmEncoder`] — maps semantic vectors to `d_t`-dimensional
//!    "pre-trained text embeddings" exhibiting the three properties the
//!    paper measures on real BERT embeddings (§III-B):
//!    * a dominant shared direction → average pairwise cosine ≈ 0.85,
//!    * fast-decaying singular values (Fig. 2),
//!    * semantic clustering (same-category items stay close).
//!
//! The tests in this crate *assert* those properties — with `wr-eval`'s
//! estimators, the ones the figures print — so the substitution is
//! checked, not assumed.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

mod catalog;
mod encoder;

pub use catalog::{Catalog, CatalogConfig, Item};
pub use encoder::{PlmConfig, PlmEncoder};
