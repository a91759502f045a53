//! Training infrastructure: Adam, the training loop, early stopping.
//!
//! Models implement [`SeqRecModel`]; [`fit`] drives epochs of shuffled
//! mini-batches, evaluates NDCG@20 on validation after each epoch, applies
//! the paper's early-stopping rule (stop after 10 stagnant epochs), and
//! restores the best parameters. [`ModelSnapshot`] is a trained model
//! frozen for inference and [`evaluate`] the one full-ranking evaluator
//! over it — what early stopping, the experiment tables and serving all
//! rank through.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

mod adam;
mod resume;
mod snapshot;
mod trainer;

pub use adam::{Adam, AdamConfig, AdamStateExport};
pub use resume::{
    latest_valid_train_checkpoint, load_train_checkpoint, save_train_checkpoint, TrainCheckpoint,
};
pub use snapshot::{evaluate, ModelSnapshot};
pub use trainer::{
    fit, fit_resumable, CheckpointPolicy, EpochRecord, SeqRecModel, TrainConfig, TrainReport,
};
