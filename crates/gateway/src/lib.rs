//! # wr-gateway — sharded serving for the WhitenRec reproduction
//!
//! The paper's central serving artifact — a *frozen* whitened item table —
//! makes horizontal scale-out embarrassingly exact: scoring is one gemm
//! `users·Vᵀ`, so the catalog can be cut into contiguous row windows, each
//! window scored independently, and the per-window top-k lists merged
//! under the workspace's one total order (`total_cmp` descending,
//! ascending item index) into *bit-for-bit* the single-engine answer.
//! This crate is that scale-out layer:
//!
//! * [`ShardPlan`] — the deterministic catalog partition (contiguous,
//!   uneven-capable windows);
//! * [`Gateway`] — one request router holding one encoder model plus N
//!   [`wr_serve::CatalogShard`] scoring cores. Histories are encoded
//!   *once* on the caller thread (the model is not `Sync` — parameters
//!   live behind `Rc` for the autograd tape), then every micro-batch is
//!   fanned out across the shards on the `wr-runtime` pool and merged
//!   with [`wr_serve::merge_top_k`];
//! * degraded answers — every shard takes the whole micro-batch through
//!   its one call, [`wr_serve::CatalogShard::serve_window`], which retries
//!   and then isolates request by request, so a shard that keeps dying
//!   *degrades* the affected responses (flagged, counted) instead of
//!   failing the request. A window has one shard and no replicas: a
//!   replica would be a handle clone of the same frozen cache, failing
//!   exactly when its siblings fail;
//! * a [`wr_serve::Replay`] impl — the gateway replays query logs through
//!   the same [`wr_serve::replay`] loop as a bare engine (p50/p95/p99 +
//!   QPS, the shared `top1_checksum` digest, `shards` / `degraded`
//!   columns; `whitenrec bench --shards N` in `wr-core` is the CLI).
//!
//! # Determinism contract
//!
//! A healthy partitioned gateway is bit-identical to a single
//! [`wr_serve::ServeEngine`] over the same model: same items, same score
//! bits, same tie order, for every shard count, thread count, and scorer
//! (exact, or IVF at full probe). `tests/differential.rs` pins this on a
//! 2048-query replay; `tests/chaos.rs` pins the degraded-mode contract
//! (one shard poisoned → surviving shards' contributions bit-identical to
//! the fault-free run, per-seed-deterministic checksums).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

mod gateway;
mod plan;

pub use gateway::{Gateway, GatewayConfig, GatewayError, GatewayResponse};
pub use plan::ShardPlan;
