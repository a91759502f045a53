//! Evaluation for sequential recommendation.
//!
//! * [`ranking`](evaluate_cases) — full-catalog Recall@K / NDCG@K under the
//!   leave-one-out protocol, with training-history exclusion (no negative
//!   sampling, following Krichene & Rendle as the paper does).
//! * [`geometry`](average_pairwise_cosine) — the paper's embedding-geometry
//!   statistics, each stated once: pairwise cosine and its CDF (§III-B,
//!   Fig. 4), the normalized singular spectrum (Fig. 2), [`alignment`] /
//!   [`uniformity`] (Eq. 7, Fig. 6), [`item_condition_number`] (Fig. 7),
//!   the whiteness error — behind the figures, `whitenrec analyze` and the
//!   `whiten.*` gauges alike.
//!
//! The experiment-only t-SNE (Fig. 3) and paired t-test (Tables III/IV)
//! live with their one caller each, in `wr-bench`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]

mod geometry;
mod ranking;

pub use geometry::{
    alignment, average_pairwise_cosine, covariance_spectrum, item_condition_number,
    normalized_singular_values, pairwise_cosine_cdf, pairwise_cosines, spectrum_condition_number,
    top_k_singular_mass, uniformity, whiteness_error, EmbeddingReport, UniformityReport,
};
pub use ranking::{
    evaluate_cases, merge_top_k, order_key, rank_of_target, top_k_filtered, MetricSet,
    RankAccumulator, ScoredItem, TopK, DEFAULT_KS,
};
