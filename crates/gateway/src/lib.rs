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
//! * admission control + backpressure — [`Gateway::try_serve`] bounds the
//!   request queue globally ([`GatewayError::Overloaded`]), and each
//!   shard bounds its own per-call rows ([`wr_serve::ServeError`]); a
//!   rejecting or dying shard *degrades* the affected responses (flagged,
//!   counted) instead of failing the request;
//! * replica sets — [`GatewayConfig::replicas`] handle clones of each
//!   window's frozen cache, each behind a [`HealthTracker`] circuit
//!   breaker, walked in a fixed hash rotation: a replica that panics past
//!   its retries fails over to a sibling, and the last one left absorbs
//!   the failure into per-request isolation. Every replica answers with
//!   the same bits, so a set never races or compares two of them, and
//!   the gateway's clock decides breaker cooldowns only;
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
mod health;
mod plan;

pub use gateway::{Gateway, GatewayConfig, GatewayError, GatewayResponse};
pub use health::{BreakerConfig, HealthTracker, ReplicaSet};
pub use plan::ShardPlan;
