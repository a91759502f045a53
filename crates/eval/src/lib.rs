//! Evaluation for sequential recommendation.
//!
//! * [`ranking`](evaluate_cases) — full-catalog Recall@K / NDCG@K under the
//!   leave-one-out protocol, with training-history exclusion (no negative
//!   sampling, following Krichene & Rendle as the paper does).
//! * [`uniformity`] / [`alignment`] — Eq. 7 statistics behind Fig. 6.
//! * [`item_condition_number`] — conditioning of the projected item
//!   embedding matrix (Fig. 7).
//! * [`tsne_2d`] — exact t-SNE for the qualitative embedding plots
//!   (Fig. 3), with numeric dispersion statistics so the claim is testable.
//! * [`paired_t_test`] — the significance stars in Tables III/IV.

mod conditioning;
mod ranking;
mod tsne;
mod ttest;
mod uniformity;

pub use conditioning::item_condition_number;
pub use ranking::{
    evaluate_cases, history_map, merge_top_k, order_key, per_case_pairs, rank_of_target,
    top_k_filtered, MetricSet, RankAccumulator, ScoredItem, TopK, DEFAULT_KS,
};
pub use tsne::{radial_dispersion, tsne_2d, TsneConfig};
pub use ttest::{paired_t_test, TTestResult};
pub use uniformity::{alignment, uniformity, UniformityReport};
