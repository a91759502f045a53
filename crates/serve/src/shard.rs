//! The `Sync` scoring core behind [`crate::ServeEngine`] and the sharded
//! gateway: one contiguous window of the frozen item catalog, plus
//! everything needed to turn pre-encoded user representations into
//! hardened top-k answers.
//!
//! # Why this split exists
//!
//! The model half of serving ([`crate::HistoryEncoder`]) keeps the
//! source `Box<dyn SeqRecModel>`, which is *not* `Sync` — parameters live
//! behind `Rc<RefCell<…>>` for the autograd tape — so an engine can never
//! be fanned out across `wr-runtime` pool threads, and the encode is done
//! once per micro-batch anyway. The catalog half is a frozen `Arc`'d
//! matrix and a handful of `Send + Sync` hooks (injector, sleeper,
//! telemetry). [`CatalogShard`] is that second half on its own: encode
//! once on the caller thread, then hand the `users` tensor to any number
//! of shards concurrently.
//!
//! # Catalog windows
//!
//! A shard owns rows `[item_offset, item_offset + n_items)` of the global
//! catalog. Scoring a window is bit-identical to the corresponding
//! columns of the full-catalog gemm (`wr_tensor::matmul` accumulates each
//! output element over the inner dimension only, independent of how many
//! columns are computed), so per-shard top-k lists merge *exactly* into
//! the single-engine answer via [`crate::merge_top_k`] — the property the
//! gateway's differential suite pins. All public inputs and outputs use
//! global item ids: seen-item filters are remapped into the window on the
//! way in, recommendations are remapped back on the way out.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::topk::batch_scan;
use crate::{Request, ResilienceConfig, Response, Scorer, ServeConfig, ServeError};
use wr_ann::{IvfIndex, SearchStats};
use wr_eval::{order_key, ScoredItem};
use wr_fault::{no_faults, SharedInjector, Sleeper, ThreadSleeper};
use wr_obs::{Telemetry, TraceContext};
use wr_tensor::Tensor;

/// Rows of `items` containing any non-finite value — these are
/// quarantined out of every candidate set.
pub(crate) fn non_finite_rows(items: &Tensor) -> Vec<usize> {
    (0..items.rows())
        .filter(|&r| items.row(r).iter().any(|v| !v.is_finite()))
        .collect()
}

/// Whether a row whose scores' [`order_key`]s span `lo..=hi` holds a score
/// that must disqualify it from the fast path: NaN poisons every
/// comparison, +Inf pins the top slot. Under the total order +Inf and
/// +NaN are everything above `f32::MAX` and -NaN everything below -Inf,
/// so the two extremes decide it. The shard's own quarantine mask
/// (`NEG_INFINITY`) is *not* poison — it deliberately sorts last.
pub(crate) fn is_poisoned((lo, hi): (i32, i32)) -> bool {
    hi > order_key(f32::MAX) || lo < order_key(f32::NEG_INFINITY)
}

/// Copy rows `range` of `full: [n, d]` into an owned `[range.len(), d]`
/// tensor. The copy preserves bit patterns (including any non-finite
/// values a damaged cache carries into quarantine detection).
fn slice_rows(full: &Tensor, range: &Range<usize>) -> Tensor {
    assert!(full.rank() == 2, "slice_rows expects [n_items, d]");
    assert!(
        range.start <= range.end && range.end <= full.rows(),
        "catalog window {range:?} out of bounds for {} rows",
        full.rows()
    );
    let d = full.cols();
    let data = full.data().get(range.start * d..range.end * d).unwrap_or_default().to_vec();
    Tensor::from_vec(data, &[range.end - range.start, d])
}

/// One catalog window plus the degraded-mode machinery to serve it:
/// quarantine of non-finite rows, fault-injection hooks, bounded retry
/// with per-request isolation, optional IVF retrieval, write-only
/// telemetry. Everything inside is `Send + Sync`, so shards are fanned
/// out across the `wr-runtime` pool by the gateway while the encode
/// stays on the caller thread.
///
/// All methods take *pre-encoded* user representations (`users: [b, d]`,
/// one row per request, produced by [`crate::HistoryEncoder`] on the
/// caller thread) and answer in **global** item ids.
#[derive(Clone)]
pub struct CatalogShard {
    cache: crate::EmbeddingCache,
    /// Global id of this window's first row.
    item_offset: usize,
    /// Local (window-relative) indices of non-finite cache rows; masked
    /// to `-inf` in every score row so they can never be recommended.
    quarantined: Vec<usize>,
    k: usize,
    filter_seen: bool,
    resilience: ResilienceConfig,
    /// Fault-injection hook on the hot path ([`wr_fault::NoFaults`] in
    /// production). Consulted for induced panics and score poisoning; the
    /// recovery machinery below must absorb whatever it injects.
    injector: SharedInjector,
    /// How batch-retry backoff waits ([`ThreadSleeper`] in production,
    /// [`wr_fault::NoSleep`] in tests so nothing ever blocks).
    sleeper: Arc<dyn Sleeper>,
    /// Optional write-only telemetry (quarantine/retry/ANN counters).
    telemetry: Option<Telemetry>,
    /// IVF retrieval — the index over this window and its `nprobe` dial,
    /// stored together so [`Scorer::Ivf`] without an index cannot be
    /// built. `None` is the dense [`Scorer::Exact`] gemm.
    ann: Option<(Arc<IvfIndex>, usize)>,
}

/// One encoded micro-batch addressed to a shard: the requests, their
/// pre-encoded `users: [b, d]` rows, and the trace identity that
/// degraded-mode flight notes are filed under.
pub struct ShardCall<'a> {
    pub slice: &'a [Request],
    pub users: &'a Tensor,
    pub ctx: TraceContext,
}

/// The empty answer of a request that could not be, or must not be, scored.
pub(crate) fn unanswered(req: &Request) -> Response {
    Response {
        id: req.id,
        items: Vec::new(),
    }
}

impl CatalogShard {
    /// Wrap an existing full-catalog cache (window offset 0).
    pub fn from_cache(cache: crate::EmbeddingCache, cfg: &ServeConfig) -> Self {
        let quarantined = non_finite_rows(cache.items());
        CatalogShard {
            cache,
            item_offset: 0,
            quarantined,
            k: cfg.k,
            filter_seen: cfg.filter_seen,
            resilience: ResilienceConfig::default(),
            injector: no_faults(),
            sleeper: Arc::new(ThreadSleeper),
            telemetry: None,
            ann: None,
        }
    }

    /// Snapshot rows `range` of the global catalog into a shard window.
    pub fn from_window(full_items: &Tensor, range: Range<usize>, cfg: &ServeConfig) -> Self {
        let window = slice_rows(full_items, &range);
        let mut shard = CatalogShard::from_cache(crate::EmbeddingCache::new(window), cfg);
        shard.item_offset = range.start;
        shard
    }

    /// Re-snapshot this shard's window from `full_items` through
    /// `injector`'s `cache.load` site — indexed by **global** row id, so
    /// a given fault plan damages the same catalog rows no matter how
    /// the catalog is sharded — then recompute the quarantine set and arm
    /// the injector for the hot-path sites (`serve.row`, `serve.score`).
    /// Other knobs (resilience, sleeper, telemetry, scorer) are kept.
    pub fn rearm(&mut self, full_items: &Tensor, injector: SharedInjector) {
        let range = self.item_offset..self.item_offset + self.cache.n_items();
        let mut window = slice_rows(full_items, &range);
        for r in 0..window.rows() {
            injector.poison("cache.load", (range.start + r) as u64, window.row_mut(r));
        }
        self.quarantined = non_finite_rows(&window);
        self.cache = crate::EmbeddingCache::new(window);
        self.injector = injector;
    }

    /// A serving replica of this shard: the same catalog window through
    /// handle clones of the same cache and ANN index (no embedding
    /// copies), the same quarantine set, config, injector, sleeper, and
    /// telemetry. Same window + same frozen cache ⇒ every replica scores
    /// bit-identically to its primary — the invariant that makes replica
    /// failover answer-preserving.
    pub fn replica(&self) -> CatalogShard {
        self.clone()
    }

    /// Replace this shard's hot-path injector *without* re-snapshotting
    /// the cache. This is the "replica process died" arming: injectors
    /// like [`wr_fault::KillAfter`] only panic, never poison, so the
    /// cache (and therefore every surviving answer) stays bit-identical
    /// to the healthy replicas'. For data-damage chaos use
    /// [`CatalogShard::rearm`], which re-snapshots through `cache.load`.
    pub fn set_injector(&mut self, injector: SharedInjector) {
        self.injector = injector;
    }

    /// Override degraded-mode knobs (builder-style). `max_queue_depth`
    /// is this shard's per-call row bound for
    /// [`CatalogShard::serve_window`] — the gateway's per-shard
    /// backpressure valve.
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = resilience;
        self
    }

    /// Replace the backoff sleeper (builder-style). Tests inject
    /// [`wr_fault::NoSleep`] so retry storms never block the suite.
    pub fn with_sleeper(mut self, sleeper: Arc<dyn Sleeper>) -> Self {
        self.sleeper = sleeper;
        self
    }

    /// Attach write-only telemetry (builder-style): the degraded-mode
    /// counters (`serve.rejected_overload`, `serve.quarantined_rows`,
    /// `serve.retries`) and the ANN probe accounting (`serve.ann.*`).
    /// All are created at 0 eagerly: a metrics export from a healthy
    /// process must still name them, so dashboards can alert on them
    /// going *from* zero and tell "ANN off" (0) from "ANN missing"
    /// (absent).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        for name in [
            "serve.rejected_overload",
            "serve.quarantined_rows",
            "serve.retries",
            "serve.ann.lists_probed",
            "serve.ann.rows_scanned",
        ] {
            telemetry.registry.counter(name);
        }
        self.telemetry = Some(telemetry);
        self
    }

    /// Switch this shard to IVF retrieval. The index must have been built
    /// over this shard's *window* (local row ids) — shape disagreement is
    /// a construction bug, checked here rather than discovered per query.
    pub fn set_ann(&mut self, index: Arc<IvfIndex>, nprobe: usize) {
        assert_eq!(
            (index.n_items(), index.dim()),
            (self.cache.n_items(), self.cache.dim()),
            "IVF index shape disagrees with the shard window"
        );
        self.ann = Some((index, nprobe));
    }

    pub fn cache(&self) -> &crate::EmbeddingCache {
        &self.cache
    }

    /// Global id of this window's first row.
    pub fn item_offset(&self) -> usize {
        self.item_offset
    }

    /// Rows in this window.
    pub fn n_items(&self) -> usize {
        self.cache.n_items()
    }

    /// This window as a global-id range.
    pub fn item_range(&self) -> Range<usize> {
        self.item_offset..self.item_offset + self.cache.n_items()
    }

    /// Local (window-relative) indices quarantined at cache load.
    pub fn quarantined_items(&self) -> &[usize] {
        &self.quarantined
    }

    pub fn scorer(&self) -> Scorer {
        match self.ann {
            Some((_, nprobe)) => Scorer::Ivf { nprobe },
            None => Scorer::Exact,
        }
    }

    pub fn ann_index(&self) -> Option<&Arc<IvfIndex>> {
        self.ann.as_ref().map(|(index, _)| index)
    }

    pub fn resilience(&self) -> ResilienceConfig {
        self.resilience
    }

    /// Flight-recorder hook: only fires when telemetry is attached, and
    /// only on degraded-mode paths — the healthy hot path never reads the
    /// clock for it.
    fn flight_note(&self, kind: &'static str, site: &str, ctx: TraceContext, req: u64, batch: u64) {
        if let Some(tel) = &self.telemetry {
            tel.flight.note(kind, site, ctx, req, batch, tel.clock.now_ns());
        }
    }

    /// Score one micro-batch of pre-encoded users. May panic (induced
    /// faults or genuine bugs); the caller contains it. `attempt` feeds
    /// the injector so transient faults clear on retry.
    pub fn process_encoded(&self, slice: &[Request], users: &Tensor, attempt: u32) -> Vec<Response> {
        self.score(slice, users, attempt, TraceContext::UNTRACED)
    }

    /// [`CatalogShard::process_encoded`] under a trace identity: the
    /// scoring is bit-identical (the context is write-only), but injected
    /// score poisoning is noted in the flight recorder under `ctx`.
    pub(crate) fn score(
        &self,
        slice: &[Request],
        users: &Tensor,
        attempt: u32,
        ctx: TraceContext,
    ) -> Vec<Response> {
        for req in slice {
            self.injector.maybe_panic("serve.row", req.id, attempt);
        }
        if let Some((index, nprobe)) = &self.ann {
            return self.score_ann(slice, users, index, *nprobe, ctx);
        }
        let mut scores = users.matmul(self.cache.items_t());
        for (r, req) in slice.iter().enumerate() {
            let poisoned = self.injector.poison("serve.score", req.id, scores.row_mut(r));
            if poisoned > 0 {
                self.flight_note("fault", "serve.score", ctx, req.id, u64::MAX);
            }
        }
        self.extract_top_k(slice, scores, ctx)
    }

    /// THE serve call: per-shard backpressure (calls carrying more than
    /// `resilience.max_queue_depth` rows are rejected, typed and counted,
    /// so one slow shard sheds load instead of queuing unbounded work),
    /// then scoring under bounded retry. A micro-batch that still dies surfaces as
    /// [`ServeError::Panicked`]: a caller with a sibling replica over the
    /// same window fails over (bit-identical answer); a caller without
    /// one absorbs the failure with [`CatalogShard::isolate`].
    pub fn serve_window(&self, call: &ShardCall<'_>) -> Result<Vec<Response>, ServeError> {
        let limit = self.resilience.max_queue_depth;
        if call.slice.len() > limit {
            if let Some(tel) = &self.telemetry {
                tel.registry.counter("serve.rejected_overload").inc();
            }
            self.flight_note("overload", "serve.queue", call.ctx, u64::MAX, u64::MAX);
            return Err(ServeError::Overloaded {
                depth: call.slice.len(),
                limit,
            });
        }
        self.retry_batch(call.ctx, |attempt| {
            self.score(call.slice, call.users, attempt, call.ctx)
        })
    }

    /// The last line of defense once [`CatalogShard::serve_window`] gave
    /// up on a batch: every request is re-scored alone from its own
    /// `users` row, so a poisoned request fails with an empty item list
    /// while its batch peers get their normal answers. Single-row scoring
    /// is bit-identical to batched scoring (row independence — the
    /// differential suite's contract), so survivors' answers match what
    /// the healthy batch would have produced.
    pub fn isolate(&self, call: &ShardCall<'_>) -> Vec<Response> {
        self.isolate_each(call.slice, call.ctx, |r, one, attempt| {
            let row = Tensor::from_vec(call.users.row(r).to_vec(), &[1, call.users.cols()]);
            self.score(one, &row, attempt, call.ctx)
        })
    }

    /// Bounded retry with backoff around one micro-batch attempt —
    /// containment site one of two. `try_batch(attempt)` may panic; each
    /// panic is counted (`serve.retries`) and flight-noted under `ctx`.
    /// The engine passes a closure that re-encodes, so a genuine panic in
    /// the encode is contained by the same loop.
    pub(crate) fn retry_batch(
        &self,
        ctx: TraceContext,
        try_batch: impl Fn(u32) -> Vec<Response>,
    ) -> Result<Vec<Response>, ServeError> {
        let policy = self.resilience.retry;
        for attempt in 0..policy.max_attempts {
            match catch_unwind(AssertUnwindSafe(|| try_batch(attempt))) {
                Ok(responses) => return Ok(responses),
                Err(_payload) => {
                    if let Some(tel) = &self.telemetry {
                        tel.registry.counter("serve.retries").inc();
                    }
                    self.flight_note("retry", "serve.row", ctx, u64::MAX, u64::MAX);
                    if attempt + 1 < policy.max_attempts {
                        self.sleeper.sleep_ns(policy.delay_ns(attempt));
                    }
                }
            }
        }
        Err(ServeError::Panicked {
            attempts: policy.max_attempts,
        })
    }

    /// Per-request isolation — containment site two of two.
    /// `try_one(row, request, attempt)` scores one request alone, past the
    /// retry budget (`attempt = max_attempts`, so transient faults have
    /// cleared). A request that panics even alone is the victim: named in
    /// the flight ring, answered empty, and a sealed flight dump is
    /// triggered when one is armed.
    pub(crate) fn isolate_each(
        &self,
        slice: &[Request],
        ctx: TraceContext,
        try_one: impl Fn(usize, &[Request], u32) -> Vec<Response>,
    ) -> Vec<Response> {
        let attempt = self.resilience.retry.max_attempts;
        let mut permanent = false;
        let out: Vec<Response> = slice
            .iter()
            .enumerate()
            .map(|(r, req)| {
                let one = std::slice::from_ref(req);
                match catch_unwind(AssertUnwindSafe(|| try_one(r, one, attempt))) {
                    Ok(mut responses) => responses.pop().unwrap_or_else(|| unanswered(req)),
                    Err(_) => {
                        self.flight_note("panic", "serve.row", ctx, req.id, u64::MAX);
                        permanent = true;
                        unanswered(req)
                    }
                }
            })
            .collect();
        if permanent {
            if let Some(tel) = &self.telemetry {
                tel.flight.trigger("permanent-panic");
            }
        }
        out
    }

    /// Score one micro-batch through the IVF index: probe per query in
    /// parallel (one pool task per request row, stitched in order — the
    /// usual thread-count-independent shape). Seen-item filtering and the
    /// item quarantine are applied as candidate exclusions, remapped into
    /// the window.
    fn score_ann(
        &self,
        slice: &[Request],
        users: &Tensor,
        index: &IvfIndex,
        nprobe: usize,
        ctx: TraceContext,
    ) -> Vec<Response> {
        let (k, filter_seen, offset) = (self.k, self.filter_seen, self.item_offset);
        let n_local = self.cache.n_items();
        let quarantined = &self.quarantined;
        let results: Vec<(Vec<ScoredItem>, SearchStats)> =
            wr_runtime::parallel_map(slice.len(), 1, |r| {
                // Built once, sorted and deduplicated, so the index reads
                // it in place; sized by the request, not grown.
                let history: &[usize] = match slice.get(r) {
                    Some(req) if filter_seen => &req.history,
                    _ => &[],
                };
                let mut excluded = Vec::with_capacity(history.len() + quarantined.len());
                excluded.extend(history.iter().filter_map(|&h| {
                    let local = h.checked_sub(offset)?;
                    (local < n_local).then_some(local)
                }));
                excluded.extend_from_slice(quarantined);
                excluded.sort_unstable();
                excluded.dedup();
                index.search_traced(users.row(r), k, nprobe, &excluded, ctx.trace_id)
            });
        if let Some(tel) = &self.telemetry {
            let (lists, rows) = results.iter().fold((0u64, 0u64), |(l, s), (_, st)| {
                (l + st.lists_probed as u64, s + st.rows_scanned as u64)
            });
            tel.registry.counter("serve.ann.lists_probed").add(lists);
            tel.registry.counter("serve.ann.rows_scanned").add(rows);
        }
        slice
            .iter()
            .zip(results)
            .map(|(req, (mut items, _))| {
                for s in &mut items {
                    s.item += offset;
                }
                Response { id: req.id, items }
            })
            .collect()
    }

    /// Top-k extraction with quarantine: masked items sort last, poisoned
    /// rows take the slow non-finite-aware path. Outputs global ids.
    /// Rows that fall back to the quarantine path are noted in the flight
    /// recorder under `ctx`.
    fn extract_top_k(&self, slice: &[Request], mut scores: Tensor, ctx: TraceContext) -> Vec<Response> {
        // Quarantined items (non-finite cache rows) are masked to -inf
        // *first*: one bad item column must not poison whole rows.
        if !self.quarantined.is_empty() {
            for r in 0..slice.len() {
                let row = scores.row_mut(r);
                for &c in &self.quarantined {
                    if let Some(cell) = row.get_mut(c) {
                        *cell = f32::NEG_INFINITY;
                    }
                }
            }
        }
        let seen: Vec<&[usize]> = slice
            .iter()
            .map(|r| {
                if self.filter_seen {
                    r.history.as_slice()
                } else {
                    &[]
                }
            })
            .collect();
        // One pass per row selects the top-k and reports the extremes of
        // the row's score keys, which is all the poison test needs.
        let rows = batch_scan(&scores, self.k, &seen, self.item_offset);
        let n_poisoned = rows.iter().filter(|(_, keys)| is_poisoned(*keys)).count();
        if n_poisoned > 0 {
            if let Some(tel) = &self.telemetry {
                tel.registry
                    .counter("serve.quarantined_rows")
                    .add(n_poisoned as u64);
            }
            for (req, (_, keys)) in slice.iter().zip(&rows) {
                if is_poisoned(*keys) {
                    self.flight_note("quarantine", "serve.score", ctx, req.id, u64::MAX);
                }
            }
        }
        slice
            .iter()
            .zip(rows)
            .enumerate()
            .map(|(r, (req, (items, keys)))| {
                let items = if is_poisoned(keys) {
                    // The selector's total_cmp order ranks NaN/+Inf first;
                    // re-rank this row from scratch, finite scores only.
                    self.quarantined_row_top_k(scores.row(r), &req.history)
                } else {
                    items
                };
                Response { id: req.id, items }
            })
            .collect()
    }

    /// Degraded per-row scorer: full sort over finite scores only, same
    /// (`total_cmp` descending, ascending index) tie policy as the fast
    /// path. NaN and +Inf entries are dropped from the candidate set.
    /// `row` is window-local; the returned items are global.
    fn quarantined_row_top_k(&self, row: &[f32], history: &[usize]) -> Vec<ScoredItem> {
        let mut excluded = vec![false; row.len()];
        if self.filter_seen {
            for &h in history {
                if let Some(local) = h.checked_sub(self.item_offset) {
                    if let Some(e) = excluded.get_mut(local) {
                        *e = true;
                    }
                }
            }
        }
        let mut order: Vec<usize> = row
            .iter()
            .zip(&excluded)
            .enumerate()
            .filter(|(_, (v, ex))| v.is_finite() && !**ex)
            .map(|(i, _)| i)
            .collect();
        // `order` holds in-bounds indices by construction; the checked
        // reads (with a -inf default that never wins) keep this total.
        let score_at = |i: usize| row.get(i).copied().unwrap_or(f32::NEG_INFINITY);
        order.sort_by(|&a, &b| score_at(b).total_cmp(&score_at(a)).then(a.cmp(&b)));
        order
            .into_iter()
            .take(self.k)
            .filter_map(|i| {
                row.get(i).map(|&score| ScoredItem {
                    item: self.item_offset + i,
                    score,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_fault::RetryPolicy;
    use wr_tensor::Rng64;

    fn shard_fixture(n_items: usize, range: Range<usize>, k: usize) -> (Tensor, CatalogShard) {
        let mut rng = Rng64::seed_from(41);
        let items = Tensor::randn(&[n_items, 8], &mut rng);
        let cfg = ServeConfig {
            k,
            max_batch: 8,
            max_seq: 6,
            filter_seen: true,
        };
        let shard = CatalogShard::from_window(&items, range, &cfg);
        (items, shard)
    }

    /// An untraced call.
    fn untraced<'a>(slice: &'a [Request], users: &'a Tensor) -> ShardCall<'a> {
        ShardCall {
            slice,
            users,
            ctx: TraceContext::UNTRACED,
        }
    }

    #[test]
    fn poison_by_key_is_the_scalar_definition_on_every_float_class() {
        // What the fast path used to ask of every score, one at a time.
        let scalar = |v: f32| v.is_nan() || (v.is_infinite() && v > 0.0);
        let classes = [
            f32::from_bits(0xFFFF_FFFF), // -NaN
            f32::from_bits(0xFFC0_0000), // -NaN
            f32::NEG_INFINITY,           // the quarantine mask: legal
            f32::MIN,
            -1.5,
            -1e-45,
            -0.0,
            0.0,
            1e-45,
            1.5,
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
            f32::from_bits(0x7FFF_FFFF), // +NaN
        ];
        for &v in &classes {
            assert_eq!(is_poisoned((order_key(v), order_key(v))), scalar(v), "{v:?}");
            // Inside a row, at every position of a block and across two.
            for n in [1usize, 31, 32, 33, 70] {
                for at in 0..n {
                    let mut row = vec![0.25f32; n];
                    row[at] = v;
                    row[(at + 1) % n] = f32::NEG_INFINITY;
                    let keys = wr_eval::TopK::new(3).scan(0, &row, &[at]);
                    let want = row.iter().copied().any(scalar);
                    assert_eq!(is_poisoned(keys), want, "{v:?} at {at} of {n}");
                }
            }
        }
        assert!(!is_poisoned(wr_eval::TopK::new(3).scan(0, &[], &[])), "an empty row is clean");
    }

    #[test]
    fn window_scoring_matches_full_catalog_columns() {
        let (items, shard) = shard_fixture(37, 11..29, 5);
        let mut rng = Rng64::seed_from(7);
        let users = Tensor::randn(&[3, 8], &mut rng);
        let full = users.matmul(&items.transpose());
        let windowed = users.matmul(shard.cache().items_t());
        for r in 0..3 {
            for c in 0..18 {
                assert_eq!(
                    windowed.row(r)[c].to_bits(),
                    full.row(r)[11 + c].to_bits(),
                    "window gemm must be bit-identical to the full gemm's columns"
                );
            }
        }
    }

    #[test]
    fn windowed_results_are_global_ids_with_global_seen_filter() {
        let (_, shard) = shard_fixture(37, 11..29, 40);
        let mut rng = Rng64::seed_from(8);
        let users = Tensor::randn(&[2, 8], &mut rng);
        let reqs = vec![
            Request { id: 0, history: vec![12, 28, 3] },  // 12, 28 in window
            Request { id: 1, history: vec![] },
        ];
        let responses = shard.serve_window(&untraced(&reqs, &users)).unwrap();
        // k exceeds the window: all unseen window items come back.
        assert_eq!(responses[0].items.len(), 16);
        assert_eq!(responses[1].items.len(), 18);
        for resp in &responses {
            for s in &resp.items {
                assert!((11..29).contains(&s.item), "global id {}", s.item);
            }
        }
        assert!(responses[0].items.iter().all(|s| s.item != 12 && s.item != 28));
    }

    #[test]
    fn shard_backpressure_rejects_oversized_calls() {
        let (_, shard) = shard_fixture(20, 0..20, 3);
        let shard = shard.with_resilience(ResilienceConfig {
            max_queue_depth: 2,
            retry: RetryPolicy::default(),
        });
        let mut rng = Rng64::seed_from(9);
        let users = Tensor::randn(&[3, 8], &mut rng);
        let reqs: Vec<Request> = (0..3)
            .map(|i| Request { id: i, history: vec![] })
            .collect();
        match shard.serve_window(&untraced(&reqs, &users)) {
            Err(ServeError::Overloaded { depth, limit }) => {
                assert_eq!((depth, limit), (3, 2));
            }
            other => panic!("expected per-shard backpressure rejection, got {other:?}"),
        }
        let two = Tensor::randn(&[2, 8], &mut rng);
        assert!(shard.serve_window(&untraced(&reqs[..2], &two)).is_ok());
    }

    #[test]
    fn replica_shares_the_cache_and_scores_bit_identically() {
        let (_, shard) = shard_fixture(37, 11..29, 5);
        let replica = shard.replica();
        assert!(replica.cache().shares_storage_with(shard.cache()));
        assert_eq!(replica.item_offset(), shard.item_offset());
        assert_eq!(replica.quarantined_items(), shard.quarantined_items());
        let mut rng = Rng64::seed_from(12);
        let users = Tensor::randn(&[4, 8], &mut rng);
        let reqs: Vec<Request> = (0..4)
            .map(|i| Request { id: i, history: vec![12, 3] })
            .collect();
        let a = shard.serve_window(&untraced(&reqs, &users)).unwrap();
        let b = replica.serve_window(&untraced(&reqs, &users)).unwrap();
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.id, rb.id);
            assert_eq!(ra.items.len(), rb.items.len());
            for (sa, sb) in ra.items.iter().zip(&rb.items) {
                assert_eq!(sa.item, sb.item);
                assert_eq!(sa.score.to_bits(), sb.score.to_bits());
            }
        }
    }

    #[test]
    fn rearm_quarantines_poisoned_global_rows() {
        let mut rng = Rng64::seed_from(10);
        let items = Tensor::randn(&[30, 8], &mut rng);
        let cfg = ServeConfig { k: 4, max_batch: 8, max_seq: 6, filter_seen: false };
        let mut shard = CatalogShard::from_window(&items, 10..20, &cfg);
        assert!(shard.quarantined_items().is_empty());
        // A plan dense enough to hit at least one row in a 10-row window.
        let rates = wr_fault::FaultRates {
            poison: 1.0,
            ..Default::default()
        };
        let plan = wr_fault::FaultPlan::with_rates(3, rates);
        shard.rearm(&items, std::sync::Arc::new(plan));
        assert!(!shard.quarantined_items().is_empty());
        for &q in shard.quarantined_items() {
            assert!(q < 10, "quarantine indices are window-local");
        }
    }
}
