//! The one serving encode: request histories → user representations.
//!
//! [`crate::ServeEngine`] and the sharded gateway both encode through a
//! [`HistoryEncoder`]. It is snapshotted once at construction: the model's
//! item matrix `V` (computed once, shared with the scoring cache) and,
//! for every model with a frozen form, a [`FrozenEncoder`] — tape-free,
//! `Send + Sync`, looking history rows up in `V` instead of re-running
//! the item tower. Models without one (`SeqRecModel::freeze` → `None`)
//! keep the taped `user_representations` behind the same call; which arm
//! runs is decided by the model type, never by a caller.

use std::sync::Arc;

use crate::{MicroBatcher, Request};
use wr_data::Batch;
use wr_nn::FrozenEncoder;
use wr_tensor::Tensor;
use wr_train::SeqRecModel;

/// One encoded micro-batch.
pub struct EncodedBatch {
    /// `[b, d]`, one row per request, in request order.
    pub users: Tensor,
    /// Rows whose history names an item outside the catalogue. Such a
    /// request is encoded as an empty history so the batch keeps its
    /// shape (its peers' rows do not depend on it), and the front end
    /// answers it alone with an empty list.
    pub invalid: Vec<usize>,
}

/// The model half of serving, frozen at construction.
pub struct HistoryEncoder {
    model: Box<dyn SeqRecModel>,
    /// The clean `V: [n_items, d]` snapshot. Never injector-poisoned —
    /// fault drills re-arm scoring caches *from* it — so encoding is
    /// unaffected by cache damage.
    items: Arc<Tensor>,
    frozen: Option<FrozenEncoder>,
}

impl HistoryEncoder {
    /// Freeze `model` over `items`, the output of its `item_representations`.
    pub fn new(model: Box<dyn SeqRecModel>, items: Arc<Tensor>) -> Self {
        let frozen = model.freeze(items.clone());
        HistoryEncoder {
            model,
            items,
            frozen,
        }
    }

    /// The source model: the taped reference (`serve_naive`) and the
    /// model's name.
    pub fn model(&self) -> &dyn SeqRecModel {
        &*self.model
    }

    /// The clean item matrix `V` the encoder was frozen over.
    pub fn items(&self) -> &Tensor {
        &self.items
    }

    /// Encode one micro-batch. Bit-identical to the model's taped
    /// `user_representations` over the same (sanitized) histories.
    pub fn encode_requests(&self, slice: &[Request]) -> EncodedBatch {
        let n_items = self.items.rows();
        let mut invalid = Vec::new();
        let contexts: Vec<&[usize]> = slice
            .iter()
            .enumerate()
            .map(|(r, req)| {
                if req.history.iter().any(|&item| item >= n_items) {
                    invalid.push(r);
                    MicroBatcher::sanitize(&[])
                } else {
                    MicroBatcher::sanitize(&req.history)
                }
            })
            .collect();
        let users = match &self.frozen {
            Some(frozen) => {
                let batch = Batch::inference(&contexts, frozen.max_seq());
                frozen.encode(&batch.items, &batch.lengths)
            }
            None => self.model.user_representations(&contexts),
        };
        EncodedBatch { users, invalid }
    }
}
