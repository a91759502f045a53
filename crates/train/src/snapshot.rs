//! The one statement of "rank the catalogue for these histories".
//!
//! The paper's prediction layer is `ŷ = s · Vᵀ` (Eq. 1–2) over an item
//! matrix that does not change between the moment a model stops training
//! and the moment its scores are read. [`ModelSnapshot`] is that moment,
//! and the only code that knows how a model ranks: by `s · v`, or by
//! `cos(s, v) / τ` when the model declares [`SeqRecModel::cosine_tau`].
//! `dyn SeqRecModel::score`, [`evaluate`] (the tables *and* early stopping)
//! and serving (`wr_serve::HistoryEncoder`, whose cache, shards and IVF
//! index hold [`ModelSnapshot::items`]) all rank through it.

use std::sync::Arc;

use crate::SeqRecModel;
use wr_data::{Batch, EvalCase};
use wr_eval::MetricSet;
use wr_nn::FrozenEncoder;
use wr_tensor::Tensor;

/// A trained model frozen for inference: the ranked table, its transpose
/// and — for every model with a frozen form — the tape-free encoder over
/// the raw `V`. Later training or parameter restores do not reach it.
/// `Send + Sync`; cloning the `Arc`s shares the buffers.
pub struct ModelSnapshot {
    items: Arc<Tensor>,
    items_t: Arc<Tensor>,
    cosine_tau: Option<f32>,
    frozen: Option<FrozenEncoder>,
}

impl ModelSnapshot {
    /// Tower once, normalise once (cosine models), transpose once, freeze once.
    pub fn of<M: SeqRecModel + ?Sized>(model: &M) -> Self {
        let table = Arc::new(model.item_representations());
        let cosine_tau = model.cosine_tau();
        let items = match cosine_tau {
            Some(_) => Arc::new(table.l2_normalize_rows()),
            None => table.clone(),
        };
        let items_t = Arc::new(items.transpose());
        let frozen = model.freeze(table);
        ModelSnapshot { items, items_t, cosine_tau, frozen }
    }

    /// The ranked item matrix `[n_items, d]`: `V` for an inner-product
    /// model (the tower's own `Arc`, nothing copied), `V̂` for a cosine one.
    pub fn items(&self) -> &Arc<Tensor> {
        &self.items
    }

    /// The pre-materialized transpose of [`Self::items`]: `[d, n_items]`.
    pub fn items_t(&self) -> &Arc<Tensor> {
        &self.items_t
    }

    /// User representations `[batch, d]` for `contexts` (non-empty, most
    /// recent item last), as ranked ([`Self::ranked`]): through the frozen
    /// encoder when `model` has one, through its taped
    /// `user_representations` otherwise — bit-identical where both exist.
    /// Which arm runs is a property of the model type, never of a caller.
    /// `model` must be the model this snapshot was taken of.
    pub fn users<M: SeqRecModel + ?Sized>(&self, model: &M, contexts: &[&[usize]]) -> Tensor {
        self.ranked(match &self.frozen {
            Some(frozen) => {
                let batch = Batch::inference(contexts, frozen.max_seq());
                frozen.encode(&batch.items, &batch.lengths)
            }
            None => model.user_representations(contexts),
        })
    }

    /// `users` as this snapshot ranks them: unchanged, or for a cosine
    /// model each row at unit norm (`wr_tensor::l2_normalize_row`).
    pub fn ranked(&self, users: Tensor) -> Tensor {
        if self.cosine_tau.is_some() { users.l2_normalize_rows() } else { users }
    }

    /// `users · Vᵀ → [batch, n_items]`, then `· 1/τ` for a cosine model:
    /// the prediction layer, written once. Plain `Tensor::matmul` — what
    /// `Graph::matmul` computes its forward value with, hence the bits of
    /// the training logits.
    pub fn scores<M: SeqRecModel + ?Sized>(&self, model: &M, contexts: &[&[usize]]) -> Tensor {
        let scores = self.users(model, contexts).matmul(&self.items_t);
        match self.cosine_tau { Some(tau) => scores.scale(1.0 / tau), None => scores }
    }
}

/// Full-ranking Recall@K / NDCG@K of `model` over `cases`, every case's
/// history excluded from its candidates (the RecBole convention), scored
/// `batch` cases at a time against one [`ModelSnapshot`] — the item tower
/// runs once per evaluation, not once per chunk. The only evaluator:
/// early stopping reads its NDCG@20, the experiment tables its
/// [`MetricSet`].
pub fn evaluate<M: SeqRecModel + ?Sized>(
    model: &M,
    cases: &[EvalCase],
    ks: &[usize],
    batch: usize,
) -> MetricSet {
    let snapshot = ModelSnapshot::of(model);
    wr_eval::evaluate_cases(cases, ks, batch, true, |contexts| {
        snapshot.scores(model, contexts)
    })
}
