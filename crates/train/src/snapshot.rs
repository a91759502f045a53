//! The one statement of "rank the catalogue for these histories".
//!
//! The paper's prediction layer is `ŷ = s · Vᵀ` (Eq. 1–2) over an item
//! matrix that does not change between the moment a model stops training
//! and the moment its scores are read. [`ModelSnapshot`] is that moment:
//! the item tower's output `V`, its transpose and the tape-free encoder,
//! each computed once. [`SeqRecModel::score`], [`evaluate`] (the reported
//! tables *and* the early-stopping validation) and the serving stack
//! (`wr_serve::HistoryEncoder`, whose `EmbeddingCache` shares the two
//! `Arc`s) are all clients of it, so they rank the same numbers by
//! construction.

use std::sync::Arc;

use crate::SeqRecModel;
use wr_data::{Batch, EvalCase};
use wr_eval::MetricSet;
use wr_nn::FrozenEncoder;
use wr_tensor::Tensor;

/// A trained model frozen for inference: `V`, `Vᵀ` and — for every model
/// with a frozen form — the tape-free encoder over `V`. Later training or
/// parameter restores do not reach it. `Send + Sync`; cloning the `Arc`s
/// shares the buffers.
pub struct ModelSnapshot {
    items: Arc<Tensor>,
    items_t: Arc<Tensor>,
    frozen: Option<FrozenEncoder>,
}

impl ModelSnapshot {
    /// Run the item tower once, transpose once, freeze once.
    pub fn of<M: SeqRecModel + ?Sized>(model: &M) -> Self {
        let items = Arc::new(model.item_representations());
        let items_t = Arc::new(items.transpose());
        let frozen = model.freeze(items.clone());
        ModelSnapshot {
            items,
            items_t,
            frozen,
        }
    }

    /// The item matrix `V: [n_items, d]`.
    pub fn items(&self) -> &Arc<Tensor> {
        &self.items
    }

    /// The pre-materialized transpose `Vᵀ: [d, n_items]`.
    pub fn items_t(&self) -> &Arc<Tensor> {
        &self.items_t
    }

    /// User representations `[batch, d]` for `contexts` (non-empty, most
    /// recent item last): through the frozen encoder when `model` has one,
    /// through its taped `user_representations` otherwise — bit-identical
    /// where both exist. Which arm runs is a property of the model type,
    /// never of a caller. `model` must be the model this snapshot was
    /// taken of.
    pub fn users<M: SeqRecModel + ?Sized>(&self, model: &M, contexts: &[&[usize]]) -> Tensor {
        match &self.frozen {
            Some(frozen) => {
                let batch = Batch::inference(contexts, frozen.max_seq());
                frozen.encode(&batch.items, &batch.lengths)
            }
            None => model.user_representations(contexts),
        }
    }

    /// `users · Vᵀ → [batch, n_items]`: the prediction layer, written
    /// once. Plain `Tensor::matmul` — what `Graph::matmul` computes its
    /// forward value with, hence the bits of the training logits.
    pub fn inner_products<M: SeqRecModel + ?Sized>(&self, model: &M, contexts: &[&[usize]]) -> Tensor {
        self.users(model, contexts).matmul(&self.items_t)
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
        model.score_with(&snapshot, contexts)
    })
}
