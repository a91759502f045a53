//! The request router: one frozen encoder, N catalog shards, exact merge.

use std::sync::Arc;

use crate::health::{BreakerConfig, ReplicaCall, ReplicaSet};
use crate::ShardPlan;
use wr_fault::{SharedInjector, Sleeper};
use wr_obs::{Clock, MonotonicClock, Telemetry, TraceContext};
use wr_serve::{
    merge_top_k, CatalogShard, FrontEnd, HistoryEncoder, MicroBatcher, Replay, Request,
    ResilienceConfig, Response, ScoredItem, ServeConfig,
};
use wr_tensor::Tensor;
use wr_train::SeqRecModel;

/// What the gateway reports its micro-batches and refused calls under.
const GATEWAY: FrontEnd = FrontEnd {
    category: "gateway",
    batches: "gateway.batches",
    requests: "gateway.requests",
    queue_depth: "gateway.queue_depth",
    rejected_overload: "gateway.rejected_overload",
    admission: "gateway.admission",
};

/// Gateway knobs: the per-shard serving configuration plus the two
/// load-shedding bounds that distinguish a gateway from a lone engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatewayConfig {
    /// Per-shard serving knobs (`k`, micro-batch bound, seen-filtering).
    /// The gateway's merge honors the same `k`.
    pub serve: ServeConfig,
    /// Global admission bound: [`Gateway::try_serve`] rejects calls
    /// carrying more requests than this ([`GatewayError::Overloaded`]).
    pub max_queue_depth: usize,
    /// Per-shard backpressure bound: a single fan-out call may hand a
    /// shard at most this many rows; past it the shard rejects and the
    /// affected responses degrade (missing that window's candidates)
    /// instead of failing. Set it to `serve.max_batch` to never reject;
    /// the default is `ServeConfig::default().max_batch`, which matches
    /// only a default `serve`. Tighten it to shed load per shard.
    pub shard_max_rows: usize,
    /// Replicas per catalog window (`R`). Each replica is a handle clone
    /// of the window's frozen cache behind its own circuit breaker, so
    /// failover changes *which core answers*, never the bits. With `1`
    /// (the default) there is no sibling to fail over to: a batch that
    /// keeps dying is absorbed into per-request isolation.
    pub replicas: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        let serve = ServeConfig::default();
        GatewayConfig {
            serve,
            max_queue_depth: 1024,
            shard_max_rows: serve.max_batch,
            replicas: 1,
        }
    }
}

/// Typed gateway failures.
#[derive(Debug)]
pub enum GatewayError {
    /// The call exceeded [`GatewayConfig::max_queue_depth`]. Nothing was
    /// scored; the caller should shed load.
    Overloaded { depth: usize, limit: usize },
    /// A plan with zero shards.
    NoShards,
    /// More shards than catalog rows — some shard would own nothing.
    EmptyShard { n_items: usize, n_shards: usize },
    /// Per-shard IVF index construction failed.
    Ann(wr_ann::AnnError),
    /// A fault was armed on a shard the plan does not have.
    NoSuchShard { shard: usize, n_shards: usize },
    /// A fault was armed on a replica its set does not have.
    NoSuchReplica { replica: usize, n_replicas: usize },
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::Overloaded { depth, limit } => {
                write!(f, "gateway overloaded: {depth} requests exceed queue depth {limit}")
            }
            GatewayError::NoShards => write!(f, "gateway needs at least one shard"),
            GatewayError::EmptyShard { n_items, n_shards } => {
                write!(f, "{n_shards} shards over {n_items} items leaves a shard empty")
            }
            GatewayError::Ann(e) => write!(f, "gateway ANN build: {e}"),
            GatewayError::NoSuchShard { shard, n_shards } => {
                write!(f, "shard {shard} out of range ({n_shards} shards)")
            }
            GatewayError::NoSuchReplica { replica, n_replicas } => {
                write!(f, "replica {replica} out of range ({n_replicas} replicas)")
            }
        }
    }
}

impl std::error::Error for GatewayError {}

impl From<wr_ann::AnnError> for GatewayError {
    fn from(e: wr_ann::AnnError) -> Self {
        GatewayError::Ann(e)
    }
}

/// The answer to one [`Request`] through the gateway: up to `k` items
/// (global ids, best first) plus a degradation flag.
///
/// `degraded` means a shard *provably* contributed nothing for this
/// request while its window could still have offered candidates — the
/// shard rejected the fan-out call (backpressure) or its recovery path
/// isolated the request to an empty answer — or the request itself was
/// rejected at the encode (a history naming an item outside the
/// catalogue: empty answer, batch peers untouched). The flag is
/// conservative: a poisoned-but-answering shard (NaN quarantine fallback)
/// is not detectable at merge time and stays unflagged.
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayResponse {
    pub id: u64,
    pub items: Vec<ScoredItem>,
    pub degraded: bool,
}

/// A sharded serving gateway: the catalog cut into [`ShardPlan`] windows,
/// each behind a [`CatalogShard`], with one shared [`HistoryEncoder`] —
/// the model frozen at construction — on the caller thread.
///
/// Per micro-batch the gateway encodes histories once, fans the encoded
/// `users` tensor out to every shard on the `wr-runtime` pool (the shards
/// are `Sync`; the pool tasks never touch the encoder), and merges the
/// per-shard top-k lists with [`merge_top_k`] — exact, because the
/// windows are disjoint and every shard ranks under the same total order.
pub struct Gateway {
    encoder: HistoryEncoder,
    /// One replica set per catalog window; `sets[s]` holds `R`
    /// interchangeable [`CatalogShard`] handles over window `s`.
    sets: Vec<ReplicaSet>,
    plan: ShardPlan,
    batcher: MicroBatcher,
    cfg: GatewayConfig,
    telemetry: Option<Telemetry>,
    /// Per-shard span labels, precomputed so the fan-out hot path never
    /// formats strings.
    shard_labels: Vec<String>,
    /// Time source for breaker cooldowns. Defaults to [`MonotonicClock`];
    /// [`Gateway::with_telemetry`] adopts the telemetry clock so breaker
    /// transitions and flight timestamps share one timeline (and a test's
    /// `MockClock` governs both).
    clock: Arc<dyn Clock>,
}

impl Gateway {
    /// Catalog-partition gateway: `n_shards` contiguous windows over the
    /// model's item representations (balanced, uneven-capable split).
    pub fn partitioned(
        model: Box<dyn SeqRecModel>,
        n_shards: usize,
        cfg: GatewayConfig,
    ) -> Result<Gateway, GatewayError> {
        // The tower runs once; the windows are cut from the encoder's `V`.
        let encoder = HistoryEncoder::new(model);
        let items = encoder.model_snapshot().items();
        let plan = ShardPlan::partitioned(items.rows(), n_shards)?;
        let shards = plan
            .ranges()
            .iter()
            .map(|range| CatalogShard::from_window(items, range.clone(), &cfg.serve))
            .collect();
        Ok(Gateway::assemble(encoder, shards, plan, cfg))
    }

    fn assemble(
        encoder: HistoryEncoder,
        shards: Vec<CatalogShard>,
        plan: ShardPlan,
        cfg: GatewayConfig,
    ) -> Gateway {
        // Every shard retries with the default backoff, and every replica
        // trips the default breaker.
        let resilience = ResilienceConfig {
            max_queue_depth: cfg.shard_max_rows,
            ..ResilienceConfig::default()
        };
        let breaker = BreakerConfig::default();
        let sets: Vec<ReplicaSet> = shards
            .into_iter()
            .map(|s| ReplicaSet::new(s.with_resilience(resilience), cfg.replicas, breaker))
            .collect();
        let batcher = MicroBatcher::new(cfg.serve.max_batch);
        let shard_labels = (0..sets.len()).map(|s| format!("shard{s}")).collect();
        Gateway {
            encoder,
            sets,
            plan,
            batcher,
            cfg,
            telemetry: None,
            shard_labels,
            clock: Arc::new(MonotonicClock::new()),
        }
    }

    /// Attach write-only telemetry (builder-style). The gateway records,
    /// per micro-batch: a `batch` span (`gateway` category) plus one span
    /// per shard dispatch, `gateway.requests` / `gateway.batches` /
    /// `gateway.fanout_calls` counters, the `gateway.queue_depth` gauge,
    /// and the degraded-mode counters (`gateway.shard_rejections`,
    /// `gateway.degraded_responses`, `gateway.rejected_overload`). The
    /// shards get a clone for their own `serve.*` recovery counters. All
    /// of it is write-only: the differential suite asserts instrumented
    /// == uninstrumented bit-for-bit.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        // Eager registration at 0, same rationale as ServeEngine: a
        // healthy export must still name every degraded-mode counter so
        // dashboards can alert on them going *from* zero.
        telemetry.registry.counter("gateway.requests");
        telemetry.registry.counter("gateway.batches");
        telemetry.registry.counter("gateway.fanout_calls");
        telemetry.registry.counter("gateway.shard_rejections");
        telemetry.registry.counter("gateway.degraded_responses");
        telemetry.registry.counter("gateway.rejected_overload");
        telemetry.registry.counter("gateway.failovers");
        telemetry.registry.counter("gateway.breaker_open");
        for set in &mut self.sets {
            set.map_replicas(|s| s.with_telemetry(telemetry.clone()));
        }
        // Breaker cooldowns read the telemetry clock from here on.
        self.clock = telemetry.clock.clone();
        self.telemetry = Some(telemetry);
        self
    }

    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// Replace every shard's backoff sleeper (builder-style). Tests
    /// inject [`wr_fault::NoSleep`] so retry storms never block.
    pub fn with_sleeper(mut self, sleeper: Arc<dyn Sleeper>) -> Self {
        for set in &mut self.sets {
            set.map_replicas(|s| s.with_sleeper(sleeper.clone()));
        }
        self
    }

    /// Arm fault injection on one shard (builder-style): its catalog
    /// window is re-snapshotted from the encoder's clean `V` through
    /// `injector`'s `cache.load` site
    /// (global row ids — the same plan damages the same rows no matter
    /// the shard layout) and its hot path consults the injector's
    /// `serve.row` / `serve.score` sites. The other shards stay clean,
    /// which is exactly the chaos suite's "one shard poisoned" shape.
    pub fn with_shard_faults(
        mut self,
        shard: usize,
        injector: SharedInjector,
    ) -> Result<Self, GatewayError> {
        let items = self.encoder.model_snapshot().items();
        let n_shards = self.sets.len();
        let set = self
            .sets
            .get_mut(shard)
            .ok_or(GatewayError::NoSuchShard { shard, n_shards })?;
        set.map_replicas(|mut s| {
            s.rearm(items, injector.clone());
            s
        });
        Ok(self)
    }

    /// Arm fault injection on one *replica* of a set without touching its
    /// cache (builder-style): the replica's hot path consults `injector`
    /// while its siblings — and the shared frozen cache — stay clean.
    /// This is the replica-chaos shape: kill one replica per set (e.g.
    /// with [`wr_fault::KillAfter`]), let the breakers route around it,
    /// and the answer bits cannot change because every sibling scores the
    /// same cache.
    pub fn with_replica_faults(
        mut self,
        shard: usize,
        replica: usize,
        injector: SharedInjector,
    ) -> Result<Self, GatewayError> {
        let n_shards = self.sets.len();
        let set = self
            .sets
            .get_mut(shard)
            .ok_or(GatewayError::NoSuchShard { shard, n_shards })?;
        let n_replicas = set.replicas().len();
        set.replica_mut(replica)
            .ok_or(GatewayError::NoSuchReplica { replica, n_replicas })?
            .set_injector(injector);
        Ok(self)
    }

    /// Switch every shard to IVF retrieval (builder-style): one index per
    /// shard, built over that shard's window with the same `(nlist,
    /// seed)`. At `nprobe = nlist` each per-window probe is bit-identical
    /// to the window's dense scan, so the merged answer stays
    /// bit-identical to the single-engine one — the differential suite's
    /// IVF axis.
    pub fn with_ann(mut self, nlist: usize, nprobe: usize, seed: u64) -> Result<Self, GatewayError> {
        for set in &mut self.sets {
            // One index per *window*, built from the primary's cache and
            // shared (Arc) by every replica — siblings must probe the
            // same lists to stay bit-interchangeable.
            let index = match set.primary() {
                Some(primary) => Arc::new(primary.cache().build_ivf(nlist, seed)?),
                None => continue,
            };
            set.map_replicas(|mut s| {
                s.set_ann(index.clone(), nprobe);
                s
            });
        }
        Ok(self)
    }

    pub fn config(&self) -> &GatewayConfig {
        &self.cfg
    }

    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The primary shard of every replica set, in window order — the
    /// pre-replica view of the gateway.
    pub fn shards(&self) -> Vec<&CatalogShard> {
        self.sets.iter().filter_map(|set| set.primary()).collect()
    }

    /// The replica sets themselves (one per catalog window).
    pub fn sets(&self) -> &[ReplicaSet] {
        &self.sets
    }

    /// Breaker state labels, `[set][replica]` → `"closed"` / `"open"` /
    /// `"half-open"` — `whitenrec bench` exports this as the breaker
    /// trajectory snapshot.
    pub fn breaker_states(&self) -> Vec<Vec<&'static str>> {
        self.sets
            .iter()
            .map(|set| set.health().iter().map(|h| h.state_label()).collect())
            .collect()
    }

    pub fn n_items(&self) -> usize {
        self.plan.n_items()
    }

    pub fn model_name(&self) -> String {
        self.encoder.model().name()
    }

    /// Answer a batch of queries. Requests are micro-batched in arrival
    /// order; per micro-batch the histories are encoded once and fanned
    /// out to the shards; responses come back in request order.
    pub fn serve(&self, requests: &[Request]) -> Vec<GatewayResponse> {
        GATEWAY.each_batch(&self.batcher, requests, self.telemetry.as_ref(), |slice, ctx| {
            let encoded = self.encoder.encode_requests(slice);
            let parts = self.fan_out(slice, &encoded.users, ctx);
            self.merge_group(slice, parts, &encoded.invalid, ctx)
        })
    }

    /// [`Gateway::serve`] behind global admission control: calls carrying
    /// more than [`GatewayConfig::max_queue_depth`] requests are rejected
    /// outright (typed, counted) instead of queuing unbounded work.
    pub fn try_serve(&self, requests: &[Request]) -> Result<Vec<GatewayResponse>, GatewayError> {
        let (depth, limit) = (requests.len(), self.cfg.max_queue_depth);
        if !GATEWAY.admits(depth, limit, self.telemetry.as_ref()) {
            return Err(GatewayError::Overloaded { depth, limit });
        }
        Ok(self.serve(requests))
    }

    /// Dispatch one encoded micro-batch to every replica set on the pool
    /// (one task per set — the closure borrows only `Sync` state; the
    /// encoder stays on this thread). Returns `(shard index, per-request
    /// responses or None)` — `None` when the set shed the batch
    /// (backpressure).
    fn fan_out(
        &self,
        slice: &[Request],
        users: &Tensor,
        ctx: TraceContext,
    ) -> Vec<(usize, Option<Vec<Response>>)> {
        if let Some(tel) = &self.telemetry {
            tel.registry
                .counter("gateway.fanout_calls")
                .add(self.sets.len() as u64);
        }
        // Borrow only the `Sync` pieces into the pool closure: the replica
        // sets, the labels, the clock, the telemetry handle. `self` itself
        // must stay out — the encoder keeps the non-`Sync` source model.
        // One pool task per set means each set's breaker state is touched
        // by exactly one thread per batch, keeping trajectories
        // independent of `WR_THREADS`.
        let sets = &self.sets;
        let labels = &self.shard_labels;
        let tel = self.telemetry.as_ref();
        let clock: &dyn Clock = &*self.clock;
        let results: Vec<Option<Vec<Response>>> =
            wr_runtime::parallel_map(sets.len(), 1, |s| {
                let sctx = ctx.child(s as u64);
                let _span = tel.map(|t| {
                    t.tracer.span_ctx(
                        labels.get(s).cloned().unwrap_or_default(),
                        "gateway.shard",
                        sctx,
                    )
                });
                let call = ReplicaCall {
                    shard: s,
                    slice,
                    users,
                    ctx: sctx,
                    clock,
                    telemetry: tel,
                };
                sets.get(s).and_then(|set| set.dispatch(&call))
            });
        results.into_iter().enumerate().collect()
    }

    /// Merge per-shard parts back into per-request answers with
    /// [`merge_top_k`]. Windows are disjoint, so the merge is exact — no
    /// upstream dedup needed. Missing parts (shard rejection, isolation
    /// fallback) degrade the affected responses; the `invalid` rows the
    /// encoder rejected are answered empty and degraded, whatever the
    /// shards scored for their placeholder.
    fn merge_group(
        &self,
        slice: &[Request],
        mut parts: Vec<(usize, Option<Vec<Response>>)>,
        invalid: &[usize],
        ctx: TraceContext,
    ) -> Vec<GatewayResponse> {
        let k = self.cfg.serve.k;
        let rejected = parts.iter().filter(|(_, p)| p.is_none()).count();
        if rejected > 0 {
            if let Some(tel) = &self.telemetry {
                tel.registry
                    .counter("gateway.shard_rejections")
                    .add(rejected as u64);
            }
        }
        let mut partials: Vec<Vec<ScoredItem>> = Vec::with_capacity(parts.len());
        let mut out = Vec::with_capacity(slice.len());
        let mut degraded_total = 0u64;
        for (r, req) in slice.iter().enumerate() {
            partials.clear();
            let is_invalid = invalid.contains(&r);
            let mut degraded = is_invalid;
            for (s, part) in parts.iter_mut() {
                match part {
                    Some(responses) => match responses.get_mut(r) {
                        Some(resp) => {
                            if resp.items.is_empty() && self.window_can_answer(*s, &req.history) {
                                degraded = true;
                            }
                            partials.push(std::mem::take(&mut resp.items));
                        }
                        // A shard answered with the wrong cardinality —
                        // treat the missing slot like a rejection.
                        None => degraded = true,
                    },
                    None => {
                        if self.window_can_answer(*s, &req.history) {
                            degraded = true;
                        }
                    }
                }
            }
            let mut items = merge_top_k(k, &partials);
            if is_invalid {
                items.clear();
            }
            if degraded {
                degraded_total += 1;
                if let Some(tel) = &self.telemetry {
                    tel.flight.note(
                        "degraded",
                        "gateway.merge",
                        ctx,
                        req.id,
                        u64::MAX,
                        tel.clock.now_ns(),
                    );
                }
            }
            out.push(GatewayResponse {
                id: req.id,
                items,
                degraded,
            });
        }
        if degraded_total > 0 {
            if let Some(tel) = &self.telemetry {
                tel.registry
                    .counter("gateway.degraded_responses")
                    .add(degraded_total);
                tel.flight.trigger("degraded");
            }
        }
        out
    }

    /// Could shard `s`'s window have offered at least one candidate for
    /// this history? Conservative: duplicate history entries over-count
    /// the seen rows, so a `false` may be optimistic but a `true` is
    /// certain — degraded responses are never flagged spuriously healthy
    /// the other way around.
    fn window_can_answer(&self, s: usize, history: &[usize]) -> bool {
        if self.cfg.serve.k == 0 {
            return false;
        }
        let Some(range) = self.plan.ranges().get(s) else {
            return false;
        };
        if !self.cfg.serve.filter_seen {
            return !range.is_empty();
        }
        let hits = history.iter().filter(|h| range.contains(h)).count();
        range.len() > hits
    }
}

/// Query-log replay through a gateway is [`wr_serve::replay`], the one
/// replay loop: same timing, percentiles, JSON export and `top1_checksum`
/// digest as a bare-engine replay — so the two compare as hex strings —
/// with per-batch wall time in the `gateway.latency_ms` histogram, the
/// `replay` span under the `gateway` category, and the report's
/// `n_shards` / `n_degraded` columns filled from the plan and the
/// degraded flags.
impl Replay for Gateway {
    type Answer = GatewayResponse;
    const LATENCY_HISTOGRAM: &'static str = "gateway.latency_ms";
    const SPAN_CATEGORY: &'static str = "gateway";

    fn max_batch(&self) -> usize {
        self.cfg.serve.max_batch
    }

    fn n_shards(&self) -> usize {
        self.plan.n_shards()
    }

    fn answer(&self, group: &[Request]) -> Vec<GatewayResponse> {
        self.serve(group)
    }

    fn view(answer: &GatewayResponse) -> (u64, &[ScoredItem], bool) {
        (answer.id, &answer.items, answer.degraded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_obs::MockClock;
    use wr_serve::{replay, QueryLog};
    use wr_models::{IdTower, LossKind, ModelConfig, SasRec};
    use wr_tensor::Rng64;

    const N_ITEMS: usize = 45;

    fn model() -> Box<dyn SeqRecModel> {
        let mut rng = Rng64::seed_from(77);
        let config = ModelConfig {
            dim: 16,
            heads: 2,
            blocks: 1,
            max_seq: 8,
            dropout: 0.0,
            ..ModelConfig::default()
        };
        Box::new(SasRec::new(
            "gw-unit",
            Box::new(IdTower::new(N_ITEMS, config.dim, &mut rng)),
            LossKind::Softmax,
            config,
            &mut rng,
        ))
    }

    fn cfg() -> GatewayConfig {
        GatewayConfig {
            serve: ServeConfig {
                k: 5,
                max_batch: 4,
                max_seq: 8,
                filter_seen: true,
            },
            ..GatewayConfig::default()
        }
    }

    fn reqs(n: usize) -> Vec<Request> {
        (0..n)
            .map(|i| Request {
                id: i as u64,
                history: vec![(i % 7) + 1, (i % 5) + 2],
            })
            .collect()
    }

    #[test]
    fn partitioned_gateway_answers_in_order_with_global_ids() {
        let gw = Gateway::partitioned(model(), 4, cfg()).unwrap();
        let requests = reqs(11);
        let responses = gw.serve(&requests);
        assert_eq!(responses.len(), 11);
        for (req, resp) in requests.iter().zip(&responses) {
            assert_eq!(req.id, resp.id);
            assert_eq!(resp.items.len(), 5);
            assert!(!resp.degraded);
            for s in &resp.items {
                assert!(s.item < N_ITEMS);
                assert!(!req.history.contains(&s.item), "seen item recommended");
            }
            for w in resp.items.windows(2) {
                assert!(
                    w[0].score > w[1].score
                        || (w[0].score == w[1].score && w[0].item < w[1].item)
                );
            }
        }
    }

    #[test]
    fn global_admission_control_rejects_typed() {
        let mut c = cfg();
        c.max_queue_depth = 4;
        let gw = Gateway::partitioned(model(), 2, c).unwrap();
        match gw.try_serve(&reqs(5)) {
            Err(GatewayError::Overloaded { depth, limit }) => {
                assert_eq!((depth, limit), (5, 4));
            }
            other => panic!("expected overload, got {:?}", other.map(|r| r.len())),
        }
        assert_eq!(gw.try_serve(&reqs(4)).unwrap().len(), 4);
    }

    #[test]
    fn shard_backpressure_degrades_instead_of_failing() {
        let mut c = cfg();
        // Shards accept at most 2 rows per call, but micro-batches carry
        // up to 4 — every full batch is shed by every shard.
        c.shard_max_rows = 2;
        let tel = Telemetry::new();
        let gw = Gateway::partitioned(model(), 2, c)
            .unwrap()
            .with_telemetry(tel.clone());
        let responses = gw.serve(&reqs(4));
        assert_eq!(responses.len(), 4);
        for resp in &responses {
            assert!(resp.degraded, "shed batch must degrade");
            assert!(resp.items.is_empty());
        }
        let snap = tel.registry.snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing counter {name}"))
        };
        assert_eq!(counter("gateway.shard_rejections"), 2);
        assert_eq!(counter("gateway.degraded_responses"), 4);
        assert_eq!(counter("serve.rejected_overload"), 2);
        // A batch small enough for the shard bound goes through intact.
        let ok = gw.serve(&reqs(2));
        assert!(ok.iter().all(|r| !r.degraded && r.items.len() == 5));
    }

    #[test]
    fn telemetry_is_write_only_and_sees_traffic() {
        let requests = reqs(10);
        let plain = Gateway::partitioned(model(), 3, cfg()).unwrap().serve(&requests);
        let tel = Telemetry::new();
        let observed = Gateway::partitioned(model(), 3, cfg())
            .unwrap()
            .with_telemetry(tel.clone());
        let got = observed.serve(&requests);
        assert_eq!(
            plain, got,
            "telemetry must not change gateway results"
        );
        let snap = tel.registry.snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(counter("gateway.requests"), 10);
        assert_eq!(counter("gateway.batches"), 3); // ceil(10 / 4)
        assert_eq!(counter("gateway.fanout_calls"), 9); // 3 batches × 3 shards
        assert_eq!(counter("gateway.degraded_responses"), 0);
        // Spans: one per batch + one per shard dispatch.
        assert_eq!(tel.tracer.events().len(), 3 + 9);
    }

    #[test]
    fn replay_reports_shards_and_degraded_answers() {
        let gw = Gateway::partitioned(model(), 3, cfg()).unwrap();
        let log = QueryLog::synthetic(37, N_ITEMS, 5, 2);
        let (responses, report) = replay(&gw, &log, &Telemetry::new());
        assert_eq!(report.n_queries, 37);
        assert_eq!(report.n_batches, 10); // ceil(37 / 4)
        assert_eq!(report.n_shards, 3);
        assert_eq!(report.n_degraded, 0);
        assert!(report.total_s > 0.0 && report.qps > 0.0);
        assert!(report.p50_ms <= report.p95_ms && report.p95_ms <= report.p99_ms);
        // Replay responses match a direct serve of the same queries.
        assert_eq!(responses, gw.serve(&log.queries));
        // Shards that shed every full batch: 9 batches of 4 degrade, the
        // 1-row tail fits the bound.
        let mut shedding = cfg();
        shedding.shard_max_rows = 2;
        let gw = Gateway::partitioned(model(), 3, shedding).unwrap();
        assert_eq!(replay(&gw, &log, &Telemetry::new()).1.n_degraded, 36);
    }

    #[test]
    fn replay_on_a_mock_clock_is_deterministic_and_lands_in_gateway_telemetry() {
        let gw = Gateway::partitioned(model(), 2, cfg()).unwrap();
        let log = QueryLog::synthetic(20, N_ITEMS, 5, 3);
        let tel = Telemetry::with_clock(Arc::new(MockClock::with_tick(1_000_000)));
        let (_, report) = replay(&gw, &log, &tel);
        assert_eq!(report.n_batches, 5); // ceil(20 / 4)
        assert_eq!((report.p50_ms, report.p99_ms, report.mean_ms), (1.0, 1.0, 1.0));
        let snap = tel.registry.snapshot();
        let (_, lat) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "gateway.latency_ms")
            .unwrap();
        assert_eq!(lat.count, 5);
        assert!(tel
            .tracer
            .events()
            .iter()
            .any(|e| e.name == "replay" && e.cat == "gateway"));
    }
}
