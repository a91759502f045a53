//! The serving engine: checkpoint → shared cache → batched top-k answers,
//! hardened for degraded-mode operation (admission control, per-batch
//! panic containment, NaN/Inf quarantine, bounded retry).
//!
//! The engine is a thin composition: a [`HistoryEncoder`] — the model
//! snapshotted at construction — encodes histories on the caller thread, and a
//! full-catalog [`CatalogShard`] — the `Sync` scoring core shared with
//! the sharded gateway — does everything after the encode (scoring,
//! quarantine, top-k extraction, fault hooks). The shard's
//! retry/isolation loops run a closure that re-encodes, so a genuine
//! panic in the encode is contained too.

use std::path::Path;
use std::sync::Arc;

use crate::{CatalogShard, FrontEnd, HistoryEncoder, MicroBatcher, ScoredItem};
use wr_ann::IvfIndex;
use wr_fault::{RetryPolicy, SharedInjector, Sleeper};
use wr_nn::{load_params, restore_params, CheckpointError};
use wr_obs::{Telemetry, TraceContext};
use wr_train::SeqRecModel;

/// What the engine reports its micro-batches and refused calls under.
const ENGINE: FrontEnd = FrontEnd {
    category: "serve",
    batches: "serve.batches",
    requests: "serve.requests",
    queue_depth: "serve.queue_depth",
    rejected_overload: "serve.rejected_overload",
    admission: "serve.admission",
};

/// One top-k query: an opaque request id plus the user's session history
/// (most recent item last, the convention of `wr_data`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub id: u64,
    pub history: Vec<usize>,
}

/// The answer to one [`Request`]: up to `k` items, best first.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub id: u64,
    pub items: Vec<ScoredItem>,
}

/// Serving knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Recommendations per query.
    pub k: usize,
    /// Micro-batch row bound.
    pub max_batch: usize,
    /// Read by nothing: histories are padded and truncated to the served
    /// snapshot's own length (`wr_nn::FrozenEncoder::max_seq`, or the
    /// model's config on the taped arm), whatever this says. Kept because
    /// `bench/ledger` builds `ServeConfig` by literal; the next benchmark
    /// PR drops it (ROADMAP item 3).
    pub max_seq: usize,
    /// Exclude items already in the user's history from the candidates
    /// (the RecBole convention the offline eval uses).
    pub filter_seen: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            k: 10,
            max_batch: 64,
            max_seq: 20,
            filter_seen: true,
        }
    }
}

/// Degraded-mode knobs, separate from [`ServeConfig`] so the happy-path
/// configuration stays untouched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Admission-control bound: [`ServeEngine::try_serve`] rejects a call
    /// carrying more than this many requests with
    /// [`ServeError::Overloaded`] instead of queuing unbounded work. For
    /// a [`CatalogShard`] fanned out by the gateway, the same field
    /// bounds the rows accepted per shard call (per-shard backpressure).
    pub max_queue_depth: usize,
    /// Bounded retry-with-backoff for micro-batches that panic.
    pub retry: RetryPolicy,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            max_queue_depth: 1024,
            retry: RetryPolicy::default(),
        }
    }
}

/// Which retrieval strategy [`ServeEngine`] scores candidates with.
///
/// `Exact` is the default dense path: one gemm `users·Vᵀ` over the whole
/// catalog. `Ivf` probes an attached [`IvfIndex`] instead, scanning only
/// the `nprobe` most promising inverted lists per query — sublinear in
/// |I|, with `nprobe = nlist` provably (and differentially tested)
/// bit-identical to `Exact` on healthy engines.
///
/// Degraded-mode semantics differ in one documented corner: `Exact`
/// masks quarantined item rows to `-inf` (they can still surface when
/// fewer than `k` finite candidates exist), while `Ivf` excludes them
/// from the candidate set outright. On a healthy engine the quarantine
/// set is empty and the two are indistinguishable. Injected *score*
/// poisoning (`serve.score`) only exists on the dense path — the IVF
/// scan never materializes a dense score row — so chaos drills exercise
/// the `Exact` scorer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scorer {
    /// Dense gemm over the full catalog.
    Exact,
    /// IVF-flat probe of `nprobe` inverted lists (clamped to `nlist`).
    Ivf { nprobe: usize },
}

/// Typed serving failures surfaced by [`ServeEngine::try_serve`] and
/// [`CatalogShard::serve_window`].
#[derive(Debug)]
pub enum ServeError {
    /// The call exceeded [`ResilienceConfig::max_queue_depth`]. The caller
    /// should shed load (split the batch, back off) — nothing was scored.
    Overloaded { depth: usize, limit: usize },
    /// The micro-batch panicked on every retry attempt. Nothing was
    /// answered; a replica-aware caller should fail over to a sibling
    /// (same window, same cache ⇒ bit-identical answers) instead of
    /// degrading.
    Panicked { attempts: u32 },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { depth, limit } => {
                write!(f, "serve overloaded: {depth} requests exceed queue depth {limit}")
            }
            ServeError::Panicked { attempts } => {
                write!(f, "serve micro-batch panicked on all {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Online inference over a trained sequential recommender.
///
/// Construction takes one `wr_train::ModelSnapshot` of the model — the
/// item tower runs once (for WhitenRec: whitened table → trained
/// projection head, baked into one frozen `V`) — held by the
/// [`HistoryEncoder`] that looks history rows up in it and shared, the
/// ranked table and its transpose both, with the [`crate::EmbeddingCache`],
/// so per-query work is only
///
/// ```text
/// encode histories → users: [b, d]   (V lookup + tape-free transformer)
/// score            → users · Vᵀ      (one gemm against the shared cache)
/// extract          → top-k per row   (bounded heap, pool-parallel)
/// ```
///
/// # Scoring contract
///
/// The engine scores the snapshot's users against the snapshot's ranked
/// table — the product `wr_train::evaluate` scores by, so the served top-k
/// is the top-k of the evaluator's score row, for every model. A cosine
/// model (UniSRec) is served its cosines `ŝ · v̂` (its snapshot holds `V̂`
/// and normalises users); the evaluator multiplies the same bits by a
/// positive `1/τ`, which keeps their order up to the ties rounding makes.
pub struct ServeEngine {
    encoder: HistoryEncoder,
    /// The full catalog as a single window at offset 0. Scoring,
    /// quarantine, extraction, and the fault hooks all live here.
    shard: CatalogShard,
    batcher: MicroBatcher,
    cfg: ServeConfig,
    /// Optional write-only telemetry: per-micro-batch spans, request/batch
    /// counters, a queue-depth gauge. Never consulted when producing
    /// responses — the differential suite asserts instrumented ==
    /// uninstrumented bit-for-bit. (The shard holds a clone for its own
    /// retry/quarantine/ANN counters.)
    telemetry: Option<Telemetry>,
}

impl ServeEngine {
    /// Serve an in-memory model.
    pub fn new(model: Box<dyn SeqRecModel>, cfg: ServeConfig) -> Self {
        // The tower runs once; cache and encoder share the one `V` and `Vᵀ`.
        let encoder = HistoryEncoder::new(model);
        let cache = crate::EmbeddingCache::of_snapshot(encoder.model_snapshot());
        let shard = CatalogShard::from_cache(cache, &cfg);
        let batcher = MicroBatcher::new(cfg.max_batch);
        ServeEngine {
            encoder,
            shard,
            batcher,
            cfg,
            telemetry: None,
        }
    }

    /// Switch the engine to IVF retrieval (builder-style): score via
    /// `index` with the given `nprobe` instead of the dense gemm. The
    /// index must have been built over (or loaded against) this engine's
    /// item table — shape disagreement is a construction bug, checked
    /// at attach time rather than discovered per query.
    pub fn with_ann(mut self, index: Arc<IvfIndex>, nprobe: usize) -> Self {
        self.shard.set_ann(index, nprobe);
        self
    }

    /// The active retrieval strategy.
    pub fn scorer(&self) -> Scorer {
        self.shard.scorer()
    }

    /// The attached IVF index, when [`Scorer::Ivf`] is active.
    pub fn ann_index(&self) -> Option<&Arc<IvfIndex>> {
        self.shard.ann_index()
    }

    /// Attach a fault injector (builder-style). The item cache is
    /// re-snapshotted from the encoder's clean `V` through the injector's
    /// `cache.load` site so poisoned rows are quarantined exactly as a
    /// damaged on-disk cache would be; `serve.row` / `serve.score` faults
    /// are injected per request on the hot path and absorbed by retry,
    /// isolation, and quarantine.
    pub fn with_faults(mut self, injector: SharedInjector) -> Self {
        self.shard.rearm(self.encoder.model_snapshot().items(), injector);
        self
    }

    /// Override degraded-mode knobs (builder-style).
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.shard = self.shard.with_resilience(resilience);
        self
    }

    /// Replace the backoff sleeper (builder-style). Tests inject
    /// [`wr_fault::NoSleep`] so retry storms never block the suite.
    pub fn with_sleeper(mut self, sleeper: Arc<dyn Sleeper>) -> Self {
        self.shard = self.shard.with_sleeper(sleeper);
        self
    }

    /// Item rows quarantined at cache load (non-finite embeddings).
    pub fn quarantined_items(&self) -> &[usize] {
        self.shard.quarantined_items()
    }

    /// Attach telemetry (builder-style). Serving records, per micro-batch:
    /// a `serve.batch` span, `serve.requests` / `serve.batches` counters, a
    /// `serve.cache_scored_rows` counter (rows scored against the shared
    /// cache — the cache-share signal: every row of every batch hits the
    /// same `Arc`'d matrix), and the `serve.queue_depth` gauge (requests
    /// still waiting after the current batch).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.shard = self.shard.with_telemetry(telemetry.clone());
        self.telemetry = Some(telemetry);
        self
    }

    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// Restore `checkpoint` into `model` (same architecture it was saved
    /// from), then serve it. This is the deployment path: train offline,
    /// `wr_nn::save_params`, ship the file, load here.
    pub fn from_checkpoint(
        model: Box<dyn SeqRecModel>,
        checkpoint: impl AsRef<Path>,
        cfg: ServeConfig,
    ) -> Result<Self, CheckpointError> {
        let loaded = load_params(checkpoint)?;
        restore_params(&model.params(), &loaded)?;
        Ok(ServeEngine::new(model, cfg))
    }

    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    pub fn cache(&self) -> &crate::EmbeddingCache {
        self.shard.cache()
    }

    /// The full-catalog scoring core (window offset 0) this engine wraps.
    pub fn shard(&self) -> &CatalogShard {
        &self.shard
    }

    pub fn model_name(&self) -> String {
        self.encoder.model().name()
    }

    pub fn n_items(&self) -> usize {
        self.shard.n_items()
    }

    /// Answer a batch of queries. Requests are micro-batched in arrival
    /// order; responses come back in the same order.
    ///
    /// Degraded-mode behavior: a micro-batch that panics is retried up to
    /// [`ResilienceConfig::retry`] times with exponential backoff; if it
    /// still fails, its requests are re-scored one at a time so a single
    /// poisoned request fails alone (empty item list) while its batch
    /// peers get their normal, bit-identical answers. Score rows carrying
    /// NaN/+Inf fall back to a full-sort path that skips non-finite
    /// candidates (counted as `serve.quarantined_rows`). A request whose
    /// history names an item outside the catalogue is answered with an
    /// empty list without disturbing its batch.
    pub fn serve(&self, requests: &[Request]) -> Vec<Response> {
        let telemetry = self.telemetry.as_ref();
        ENGINE.each_batch(&self.batcher, requests, telemetry, |slice, ctx| {
            if let Some(tel) = telemetry {
                tel.registry
                    .counter("serve.cache_scored_rows")
                    .add(slice.len() as u64);
            }
            self.serve_group_with_recovery(slice, ctx)
        })
    }

    /// [`ServeEngine::serve`] behind admission control: calls carrying
    /// more than [`ResilienceConfig::max_queue_depth`] requests are
    /// rejected outright (typed, counted) instead of queuing unbounded
    /// work behind the micro-batcher.
    pub fn try_serve(&self, requests: &[Request]) -> Result<Vec<Response>, ServeError> {
        let (depth, limit) = (requests.len(), self.shard.resilience().max_queue_depth);
        if !ENGINE.admits(depth, limit, self.telemetry.as_ref()) {
            return Err(ServeError::Overloaded { depth, limit });
        }
        Ok(self.serve(requests))
    }

    /// Run one micro-batch with containment: panic → bounded retry with
    /// backoff → per-request isolation, through the shard's two
    /// containment loops. The closures re-encode per attempt, so the
    /// model forward is inside the containment boundary.
    fn serve_group_with_recovery(&self, slice: &[Request], ctx: TraceContext) -> Vec<Response> {
        self.shard
            .retry_batch(ctx, |attempt| self.process_group(slice, attempt, ctx))
            .unwrap_or_else(|_| {
                self.shard
                    .isolate_each(slice, ctx, |_, one, attempt| self.process_group(one, attempt, ctx))
            })
    }

    /// Encode one micro-batch and hand it to the scoring core. May panic
    /// (induced faults or genuine bugs); the caller contains it.
    /// `attempt` feeds the injector so transient faults clear on retry.
    fn process_group(&self, slice: &[Request], attempt: u32, ctx: TraceContext) -> Vec<Response> {
        let encoded = self.encoder.encode_requests(slice);
        let mut responses = self.shard.score(slice, &encoded.users, attempt, ctx);
        for &r in &encoded.invalid {
            if let Some(response) = responses.get_mut(r) {
                response.items.clear();
            }
        }
        responses
    }

    /// Reference scorer for the differential tests: one user at a time, no
    /// micro-batching, no bounded heap — a full sort of every score row
    /// under the same (`total_cmp`, ascending index) policy, then filter
    /// and truncate. Deliberately shares *no* code with
    /// [`ServeEngine::serve`] beyond the cache: it encodes through the
    /// model's taped forward (then `ModelSnapshot::ranked`), so every serve
    /// ≡ naive comparison is also a frozen-vs-taped bit comparison. It does
    /// apply `serve`'s input rule: a history naming an item outside the
    /// catalogue is answered empty.
    pub fn serve_naive(&self, requests: &[Request]) -> Vec<Response> {
        let (model, snapshot) = (self.encoder.model(), self.encoder.model_snapshot());
        let n_items = self.n_items();
        requests
            .iter()
            .map(|req| {
                if req.history.iter().any(|&item| item >= n_items) {
                    return crate::shard::unanswered(req);
                }
                let ctx = MicroBatcher::sanitize(&req.history);
                let users = snapshot.ranked(model.user_representations(&[ctx]));
                let scores = users.matmul(self.shard.cache().items_t());
                let row = scores.row(0);
                let mut order: Vec<(usize, f32)> = row.iter().copied().enumerate().collect();
                order.sort_by(|(a, sa), (b, sb)| sb.total_cmp(sa).then(a.cmp(b)));
                let mut excluded = vec![false; row.len()];
                if self.cfg.filter_seen {
                    for &h in &req.history {
                        if let Some(e) = excluded.get_mut(h) {
                            *e = true;
                        }
                    }
                }
                let items: Vec<ScoredItem> = order
                    .into_iter()
                    .filter(|&(i, _)| excluded.get(i) == Some(&false))
                    .take(self.cfg.k)
                    .map(|(item, score)| ScoredItem { item, score })
                    .collect();
                Response { id: req.id, items }
            })
            .collect()
    }

    /// Single-query convenience (the interactive path): one request
    /// through [`ServeEngine::serve`], so it honors the active [`Scorer`],
    /// the quarantine set and the recovery machinery exactly like the
    /// batch path.
    pub fn recommend(&self, history: &[usize]) -> Vec<ScoredItem> {
        let request = Request {
            id: 0,
            history: history.to_vec(),
        };
        self.serve(std::slice::from_ref(&request))
            .pop()
            .map(|r| r.items)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixture::{id_model, model_config, serve_cfg};

    fn tiny_engine(filter_seen: bool) -> ServeEngine {
        let model = id_model("unit", 30, model_config(1, 8), 17);
        ServeEngine::new(
            model,
            ServeConfig {
                filter_seen,
                ..serve_cfg(5, 4, 8)
            },
        )
    }

    #[test]
    fn serve_answers_every_request_in_order() {
        let engine = tiny_engine(true);
        let requests: Vec<Request> = (0..11)
            .map(|i| Request {
                id: 100 + i as u64,
                history: vec![(i % 7) + 1, (i % 5) + 2],
            })
            .collect();
        let responses = engine.serve(&requests);
        assert_eq!(responses.len(), 11);
        for (req, resp) in requests.iter().zip(&responses) {
            assert_eq!(req.id, resp.id);
            assert_eq!(resp.items.len(), 5);
            for s in &resp.items {
                assert!(!req.history.contains(&s.item), "seen item recommended");
                assert!(s.item < engine.n_items());
            }
            // Best-first ordering.
            for w in resp.items.windows(2) {
                assert!(
                    w[0].score > w[1].score
                        || (w[0].score == w[1].score && w[0].item < w[1].item)
                );
            }
        }
    }

    #[test]
    fn filter_seen_toggle_changes_candidates() {
        let with = tiny_engine(true);
        let without = tiny_engine(false);
        let req = Request {
            id: 1,
            history: vec![3, 4, 5],
        };
        for s in &with.serve(&[req.clone()])[0].items {
            assert!(![3usize, 4, 5].contains(&s.item));
        }
        // Without filtering the candidate pool is strictly larger; results
        // must still be internally consistent.
        let resp = without.serve(&[req])[0].clone();
        assert_eq!(resp.items.len(), 5);
    }

    #[test]
    fn recommend_matches_serve_single() {
        // A healthy cache, and one with NaN rows: the interactive path
        // must apply the same quarantine as the batch path.
        let rates = wr_fault::FaultRates {
            io_error: 0.0,
            corrupt: 0.0,
            poison: 0.2,
            panic: 0.0,
        };
        let damaged = tiny_engine(true).with_faults(Arc::new(wr_fault::FaultPlan::with_rates(77, rates)));
        assert!(!damaged.quarantined_items().is_empty());
        for engine in [tiny_engine(true), damaged] {
            let history = vec![2, 9, 4];
            let solo = engine.recommend(&history);
            let served = engine.serve(&[Request { id: 0, history }]);
            assert_eq!(solo, served[0].items);
            assert!(solo.iter().all(|s| s.score.is_finite()));
        }
    }

    #[test]
    fn empty_history_is_served() {
        let engine = tiny_engine(true);
        let resp = engine.serve(&[Request {
            id: 0,
            history: Vec::new(),
        }]);
        assert_eq!(resp[0].items.len(), 5);
    }

    #[test]
    fn cache_is_shared_not_copied() {
        let engine = tiny_engine(true);
        let handle = engine.cache().clone();
        assert!(handle.shares_storage_with(engine.cache()));
        // A healthy engine's cache *is* the encoder snapshot's `V` and
        // `Vᵀ`: nothing is transposed twice.
        let of_snapshot = crate::EmbeddingCache::of_snapshot(engine.encoder.model_snapshot());
        assert!(of_snapshot.shares_storage_with(engine.cache()));
    }

    #[test]
    fn engine_shard_covers_the_whole_catalog_at_offset_zero() {
        let engine = tiny_engine(true);
        assert_eq!(engine.shard().item_offset(), 0);
        assert_eq!(engine.shard().item_range(), 0..engine.n_items());
    }
}
