//! The one serving encode: request histories → user representations.
//!
//! [`crate::ServeEngine`] and the sharded gateway both encode through a
//! [`HistoryEncoder`]. It takes a [`ModelSnapshot`] of the model once at
//! construction — the ranked item matrix, its transpose (both shared with
//! the scoring cache) and, for every model with a frozen form, the
//! tape-free encoder that looks history rows up in `V` instead of
//! re-running the item tower — the snapshot the offline evaluator scores
//! against, whose users come out as it ranks them. This type adds what
//! only serving needs: histories arrive from outside the program, so they
//! are checked against the catalogue and empty ones get the pad context.

use crate::{MicroBatcher, Request};
use wr_tensor::Tensor;
use wr_train::{ModelSnapshot, SeqRecModel};

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
    /// Never injector-poisoned — fault drills re-arm scoring caches
    /// *from* its clean `V` — so encoding is unaffected by cache damage.
    snapshot: ModelSnapshot,
}

impl HistoryEncoder {
    /// Snapshot `model`: the item tower runs once, here.
    pub fn new(model: Box<dyn SeqRecModel>) -> Self {
        let snapshot = ModelSnapshot::of(&*model);
        HistoryEncoder { model, snapshot }
    }

    /// The source model: the taped reference (`serve_naive`) and the
    /// model's name.
    pub fn model(&self) -> &dyn SeqRecModel {
        &*self.model
    }

    /// The snapshot the encoder runs: the clean ranked table, its
    /// transpose and the frozen encoder.
    pub fn model_snapshot(&self) -> &ModelSnapshot {
        &self.snapshot
    }

    /// Encode one micro-batch. Bit-identical to the model's taped
    /// `user_representations` over the same (sanitized) histories.
    pub fn encode_requests(&self, slice: &[Request]) -> EncodedBatch {
        let n_items = self.snapshot.items().rows();
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
        let users = self.snapshot.users(&*self.model, &contexts);
        EncodedBatch { users, invalid }
    }
}
