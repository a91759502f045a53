//! # wr-serve — online batched inference for the WhitenRec reproduction
//!
//! Everything before this crate scores items inside offline experiment
//! loops. `wr-serve` turns a trained checkpoint plus the paper's central
//! artifact — the frozen, pre-whitened item-embedding table (Eq. 4–6) —
//! into a subsystem that answers top-k next-item queries for batches of
//! live user histories:
//!
//! * [`MicroBatcher`] groups a call's requests, in arrival order, into
//!   micro-batches of at most `max_batch` rows, and [`FrontEnd`] is the
//!   one loop over those groups and the one admission check in front of
//!   it, under the engine's metric names or the gateway's (padding to the
//!   model's `max_seq` is the encode's job: `wr_train::ModelSnapshot::users`
//!   packs with `wr_data::Batch::inference`, the conventions the models
//!   were trained with);
//! * [`EmbeddingCache`] stores the ranked item matrix (`V`, or a cosine
//!   model's `V̂`) and its transpose once behind `Arc`s — the snapshot's
//!   own two, on a healthy engine — so every pool thread scores against
//!   the same buffer — no per-request copies;
//! * [`HistoryEncoder`] is the one serving encode: a
//!   `wr_train::ModelSnapshot` of the model taken at construction — the
//!   only code that knows how a model ranks, `wr_train::evaluate`'s too —
//!   whose tape-free `wr_nn::FrozenEncoder` looks history rows up in `V`
//!   (the item tower runs once per build, never per micro-batch), with the
//!   taped `user_representations` kept behind the same call for models
//!   without a frozen form; it adds the catalogue-bounds check and the
//!   empty-history pad context that only serving needs;
//! * [`ServeEngine`] restores a `wr_nn::checkpoint`, encodes each
//!   micro-batch of histories, scores `users · Vᵀ`, and extracts top-k
//!   with seen-item filtering through the one selector shared with
//!   `wr_eval` ([`wr_eval::TopK`], one `scan` per row), parallelized over
//!   the batch;
//! * [`CatalogShard`] is the scoring half of the engine on its own: one
//!   (window of the) frozen catalog plus quarantine/retry/ANN machinery,
//!   scoring *pre-encoded* user representations — the unit `wr-gateway`
//!   fans out across the pool while the encode stays on the caller
//!   thread;
//! * [`QueryLog`] + [`replay`] record/replay query traffic (uniform or
//!   Zipf user-skewed synthetic generation) and report p50/p95/p99
//!   latency and QPS as one JSON document (`whitenrec bench` in
//!   `wr-core` is the CLI); the loop is generic over [`Replay`], so the
//!   sharded gateway replays through the same code.
//!
//! # Determinism contract
//!
//! Serving results are *bit-identical* across
//!
//! 1. batch compositions — the response for a history does not depend on
//!    which other histories shared its micro-batch, because every kernel on
//!    the scoring path (gemm, attention, layer norm) computes each batch
//!    row with the same arithmetic sequence regardless of neighbors;
//! 2. thread counts — all parallelism goes through `wr-runtime`, whose
//!    chunking is thread-count-independent.
//!
//! Both claims are enforced by `tests/differential.rs`, which compares the
//! batched engine against a naive one-user-at-a-time full-sort scorer and
//! against itself under `WR_THREADS=1` vs `8`.
//!
//! # Degraded mode
//!
//! The engine stays up when individual requests go bad ([`ServeEngine`]
//! docs): [`ServeEngine::try_serve`] applies admission control
//! ([`ServeError::Overloaded`]), micro-batches that panic are retried
//! with bounded backoff and then re-scored one request at a time so a
//! poisoned request fails alone, and non-finite embeddings/scores are
//! quarantined (masked items, full-sort fallback rows). `wr_fault`
//! injects these failures deterministically in `tests/degraded.rs`.

mod batcher;
mod cache;
mod encode;
mod engine;
mod latency;
mod querylog;
mod shard;
pub mod topk;

pub use batcher::{FrontEnd, MicroBatcher};
pub use cache::EmbeddingCache;
pub use encode::{EncodedBatch, HistoryEncoder};
pub use engine::{Request, ResilienceConfig, Response, Scorer, ServeConfig, ServeEngine, ServeError};
pub use latency::{replay, top1_digest, Replay, ReplayReport};
pub use querylog::{QueryLog, QueryLogError, ZipfError};
pub use shard::{CatalogShard, ShardCall};
pub use topk::{batch_top_k_shifted, merge_top_k};

pub use wr_ann::{AnnError, IvfIndex, SearchStats};
pub use wr_eval::{top_k_filtered, ScoredItem};

// The serve suites' model fixture, for the unit tests. It names this crate
// `wr_serve`, as an integration test does.
#[cfg(test)]
extern crate self as wr_serve;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod test_fixture;
