//! Replica health: per-replica circuit breakers and the replica-set
//! dispatch loop (rotation, failover, absorption).
//!
//! # Determinism argument
//!
//! Every *routing* decision here is a pure function of `(first request id
//! of the batch, shard index)` under the fixed [`ROUTER_SEED`] plus
//! breaker state that is itself driven only by deterministic failures —
//! no RNG stream, no wall clock on the decision path. Time enters in
//! exactly one place, through the caller's [`wr_obs::Clock`] handle: the
//! breaker cooldown (when an `Open` breaker lets a probe through). Under
//! a frozen `MockClock` no cooldown ever elapses, so tests are
//! bit-for-bit reproducible; under the production `MonotonicClock` it
//! changes only *which replica* answers — and every replica of a set
//! scores the same frozen window through the same shared cache, so the
//! answer bits cannot change (the whitened item table is immutable;
//! replication is free of divergence by construction). That is why the
//! differential gate holds at every `(shards, replicas, threads)`
//! combination.
//!
//! # Breaker state machine
//!
//! ```text
//!            failure (< threshold)         cooldown elapses
//!   Closed ──────────────────────► Closed'      (allow() observes it)
//!     ▲  │ failure (= threshold)                      │
//!     │  └───────────────► Open ──────────────► HalfOpen
//!     │ success                ▲                      │
//!     └────────────────────────┼──────────────────────┤ probe succeeds
//!                              └──────────────────────┘ probe fails
//! ```
//!
//! `Open` replicas are skipped by dispatch, so a permanently dead
//! replica costs `failure_threshold` failed batches once, not a retry
//! storm per request. After `cooldown_ns` of virtual time the next
//! `allow()` moves the breaker to `HalfOpen`: probes flow again, one
//! success re-closes, one failure re-opens for another cooldown.

use std::sync::Mutex;

use wr_fault::splitmix;
use wr_obs::{Clock, Telemetry, TraceContext};
use wr_serve::{CatalogShard, Request, Response, ServeError, ShardCall};
use wr_tensor::Tensor;

/// Circuit-breaker knobs, per replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failed dispatches that open the breaker.
    pub failure_threshold: u32,
    /// Nanoseconds (of the gateway clock's timeline) an open breaker
    /// waits before letting a half-open probe through.
    pub cooldown_ns: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_ns: 50_000_000, // 50 ms
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed { failures: u32 },
    Open { until_ns: u64 },
    HalfOpen,
}

/// One replica's consecutive-failure circuit breaker. All transitions
/// happen under a short mutex that is never held across another call;
/// a poisoned lock is recovered, never propagated — the
/// breaker is availability machinery and must not add failure modes.
#[derive(Debug)]
pub struct HealthTracker {
    cfg: BreakerConfig,
    state: Mutex<BreakerState>,
}

impl HealthTracker {
    pub fn new(cfg: BreakerConfig) -> Self {
        HealthTracker {
            cfg,
            state: Mutex::new(BreakerState::Closed { failures: 0 }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BreakerState> {
        // Poison recovery: a panic while holding this lock can only have
        // happened between two plain assignments, so the state is valid.
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// May this replica be tried at clock reading `now_ns`? An `Open`
    /// breaker whose cooldown has elapsed transitions to `HalfOpen`
    /// (probe mode) and answers yes.
    pub fn allow(&self, now_ns: u64) -> bool {
        let mut state = self.lock();
        match *state {
            BreakerState::Closed { .. } | BreakerState::HalfOpen => true,
            BreakerState::Open { until_ns } => {
                if now_ns >= until_ns {
                    *state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// A dispatch on this replica answered: close the breaker and forget
    /// the failure streak.
    pub fn record_success(&self) {
        *self.lock() = BreakerState::Closed { failures: 0 };
    }

    /// A dispatch failed (panicked past its retry budget) at clock
    /// reading `now_ns`. Returns `true` when this failure *opened*
    /// the breaker — the caller counts and flight-records that edge.
    pub fn record_failure(&self, now_ns: u64) -> bool {
        let mut state = self.lock();
        match *state {
            BreakerState::Closed { failures } => {
                let failures = failures.saturating_add(1);
                if failures >= self.cfg.failure_threshold {
                    *state = BreakerState::Open {
                        until_ns: now_ns.saturating_add(self.cfg.cooldown_ns),
                    };
                    true
                } else {
                    *state = BreakerState::Closed { failures };
                    false
                }
            }
            // A failed half-open probe re-opens for another cooldown.
            BreakerState::HalfOpen => {
                *state = BreakerState::Open {
                    until_ns: now_ns.saturating_add(self.cfg.cooldown_ns),
                };
                true
            }
            BreakerState::Open { .. } => false,
        }
    }

    /// The state as an export label: `"closed"`, `"open"`, `"half-open"`.
    pub fn state_label(&self) -> &'static str {
        match *self.lock() {
            BreakerState::Closed { .. } => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// The replica-rotation hash seed: routing is a pure function of
/// `(ROUTER_SEED, first request id, shard index)`, so a replay walks the
/// same replicas.
const ROUTER_SEED: u64 = 0x5EED_0017;

/// Everything one dispatch needs from the gateway, bundled so the pool
/// closure borrows a single `Sync` view.
pub(crate) struct ReplicaCall<'a> {
    /// Shard (replica-set) index, for the rotation hash and event labels.
    pub shard: usize,
    pub slice: &'a [Request],
    pub users: &'a Tensor,
    pub ctx: TraceContext,
    /// Time source for breaker cooldowns.
    pub clock: &'a dyn Clock,
    pub telemetry: Option<&'a Telemetry>,
}

impl ReplicaCall<'_> {
    fn first_id(&self) -> u64 {
        self.slice.first().map(|r| r.id).unwrap_or(0)
    }

    fn note(&self, kind: &'static str, req: u64, replica: u64) {
        if let Some(tel) = self.telemetry {
            tel.flight
                .note(kind, "gateway.replica", self.ctx, req, replica, tel.clock.now_ns());
        }
    }

    fn count(&self, name: &'static str) {
        if let Some(tel) = self.telemetry {
            tel.registry.counter(name).inc();
        }
    }
}

/// One catalog window behind `R` interchangeable [`CatalogShard`]
/// replicas (handle clones of the same frozen cache) plus a
/// [`HealthTracker`] per replica.
pub struct ReplicaSet {
    replicas: Vec<CatalogShard>,
    health: Vec<HealthTracker>,
}

impl ReplicaSet {
    /// `primary` plus `n_replicas - 1` handle-clone replicas (minimum 1
    /// total), each with a fresh closed breaker.
    pub fn new(primary: CatalogShard, n_replicas: usize, breaker: BreakerConfig) -> Self {
        let n = n_replicas.max(1);
        let mut replicas = Vec::with_capacity(n);
        for _ in 1..n {
            replicas.push(primary.replica());
        }
        replicas.insert(0, primary);
        let health = (0..n).map(|_| HealthTracker::new(breaker)).collect();
        ReplicaSet { replicas, health }
    }

    pub fn primary(&self) -> Option<&CatalogShard> {
        self.replicas.first()
    }

    pub fn replicas(&self) -> &[CatalogShard] {
        &self.replicas
    }

    pub fn health(&self) -> &[HealthTracker] {
        &self.health
    }

    /// Rebuild every replica through `f` (builder plumbing: telemetry,
    /// sleeper, faults, ANN index). Breaker state is untouched — builders
    /// run before traffic, when every breaker is closed anyway.
    pub(crate) fn map_replicas(&mut self, mut f: impl FnMut(CatalogShard) -> CatalogShard) {
        let replicas = std::mem::take(&mut self.replicas);
        self.replicas = replicas.into_iter().map(&mut f).collect();
    }

    pub(crate) fn replica_mut(&mut self, r: usize) -> Option<&mut CatalogShard> {
        self.replicas.get_mut(r)
    }

    /// Rotation start for this batch: pure hash of `(ROUTER_SEED, first
    /// request id, shard)` — no RNG stream, no clock, so a replay
    /// recomputes it.
    fn rotation_start(&self, call: &ReplicaCall<'_>) -> usize {
        let n = self.replicas.len().max(1);
        let h = splitmix(
            ROUTER_SEED
                ^ call.first_id().wrapping_mul(0x9E3779B97F4A7C15)
                ^ (call.shard as u64).wrapping_mul(0xD1B54A32D192ED03),
        );
        (h % n as u64) as usize
    }

    /// Serve one encoded micro-batch through the first healthy replica in
    /// rotation order. Every batch is answered, one response per request.
    ///
    /// Candidates are walked in rotation order, breaker-gated, each
    /// through the one shard call ([`CatalogShard::serve_window`]). A
    /// replica that panics past its retry budget fails over to the next
    /// sibling — same window, same cache, bit-identical answer. The last
    /// candidate answers whatever happens: its failure is absorbed into
    /// per-request isolation ([`CatalogShard::isolate`]), so a set with
    /// one usable replica degrades request by request instead of losing
    /// the window.
    pub(crate) fn dispatch(&self, call: &ReplicaCall<'_>) -> Vec<Response> {
        let now0 = call.clock.now_ns();
        let n = self.replicas.len();
        let start = self.rotation_start(call);
        let mut candidates: Vec<usize> = Vec::with_capacity(n);
        for i in 0..n {
            let idx = (start + i) % n.max(1);
            if self.health.get(idx).is_some_and(|h| h.allow(now0)) {
                candidates.push(idx);
            }
        }
        // With every breaker open, refusing to answer would degrade the
        // whole window for a cooldown; forcing one attempt keeps
        // availability and lets its success close a breaker.
        let last = candidates.pop().unwrap_or(start);
        let shard_call = ShardCall {
            slice: call.slice,
            users: call.users,
            ctx: call.ctx,
        };
        for &idx in &candidates {
            let Some(replica) = self.replicas.get(idx) else {
                continue;
            };
            match replica.serve_window(&shard_call) {
                Ok(responses) => {
                    self.record_success(idx);
                    return responses;
                }
                // Penalise the breaker, and count and flight-record the
                // edge when that opened it.
                Err(ServeError::Panicked { .. }) => {
                    let now = call.clock.now_ns();
                    call.count("gateway.failovers");
                    call.note("failover", call.first_id(), idx as u64);
                    if self.health.get(idx).is_some_and(|h| h.record_failure(now)) {
                        call.count("gateway.breaker_open");
                        call.note("breaker", call.first_id(), idx as u64);
                        if let Some(tel) = call.telemetry {
                            tel.flight.trigger("breaker-open");
                        }
                    }
                }
            }
        }
        // No sibling left. `ReplicaSet::new` keeps at least one replica
        // and `last < n`, so the lookup finds one. The replica did answer,
        // isolated or not, so its breaker closes like any other success.
        let responses = self.replicas.get(last).map_or_else(Vec::new, |replica| {
            replica
                .serve_window(&shard_call)
                .unwrap_or_else(|_| replica.isolate(&shard_call))
        });
        self.record_success(last);
        responses
    }

    fn record_success(&self, idx: usize) {
        if let Some(h) = self.health.get(idx) {
            h.record_success();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use wr_fault::{Corruption, FaultInjector, KillAfter, NoSleep, RetryPolicy};
    use wr_obs::MockClock;
    use wr_serve::{EmbeddingCache, ServeConfig};
    use wr_tensor::Rng64;

    /// Counts the rows a replica is asked to score, then (optionally)
    /// dies like [`KillAfter`] — the table's "who did the work" probe.
    struct Probe {
        rows: AtomicU64,
        kill: Option<KillAfter>,
    }

    impl FaultInjector for Probe {
        fn write_error(&self, _: &str, _: u64) -> Option<std::io::Error> {
            None
        }
        fn corrupt(&self, _: &str, _: u64, _: &mut Vec<u8>) -> Option<Corruption> {
            None
        }
        fn poison(&self, _: &str, _: u64, _: &mut [f32]) -> usize {
            0
        }
        fn maybe_panic(&self, site: &str, index: u64, attempt: u32) {
            self.rows.fetch_add(1, Ordering::Relaxed);
            if let Some(kill) = &self.kill {
                kill.maybe_panic(site, index, attempt);
            }
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Outcome {
        Healthy,
        Panicked,
    }

    #[derive(Debug, PartialEq)]
    enum Part {
        Full,
        Isolated,
    }

    /// The dispatch truth table: `R` replicas × what happens on the first
    /// candidate of the rotation. 2-request batches, 2 attempts per
    /// batch, a breaker that opens on the first failure, and a ticking
    /// clock whose cooldown never elapses. `rows` is the probe count per
    /// replica in rotation order: a healthy batch offers 2 rows, a dead
    /// replica sees 1 row per attempt (it dies on the first), isolation
    /// offers each row once more.
    #[test]
    fn dispatch_truth_table() {
        use Outcome::*;
        use Part::*;
        // (R, first-candidate outcome) → (part, rows per candidate,
        // first candidate's breaker, [failovers, breaker_open]).
        #[rustfmt::skip]
        let table: &[(usize, Outcome, Part, &[u64], &str, [u64; 2])] = &[
            (1, Healthy,    Full,     &[2],       "closed", [0, 0]),
            (2, Healthy,    Full,     &[2, 0],    "closed", [0, 0]),
            (3, Healthy,    Full,     &[2, 0, 0], "closed", [0, 0]),
            // No sibling: absorbed into isolation (2 attempts + 2 rows
            // alone, all dead), which counts as an answer — no failover,
            // breaker closed.
            (1, Panicked,   Isolated, &[4],       "closed", [0, 0]),
            // Failover after 2 dead attempts; the next sibling answers.
            (2, Panicked,   Full,     &[2, 2],    "open",   [1, 1]),
            (3, Panicked,   Full,     &[2, 2, 0], "open",   [1, 1]),
        ];
        let mut rng = Rng64::seed_from(5);
        let items = Tensor::randn(&[20, 8], &mut rng);
        let users = Tensor::randn(&[2, 8], &mut rng);
        let reqs: Vec<Request> = (0..2).map(|id| Request { id, history: vec![] }).collect();
        let cfg = ServeConfig { k: 3, max_batch: 2, max_seq: 4, filter_seen: true };
        let retry = RetryPolicy { max_attempts: 2, ..RetryPolicy::default() };
        for (n, outcome, want_part, want_rows, want_breaker, want_counters) in table {
            let what = format!("R={n}, first candidate {outcome:?}");
            let tel = Telemetry::with_clock(Arc::new(MockClock::with_tick(10)));
            let primary = CatalogShard::from_cache(EmbeddingCache::new(items.clone()), &cfg)
                .with_retry(retry)
                .with_sleeper(Arc::new(NoSleep))
                .with_telemetry(tel.clone());
            let breaker = BreakerConfig { failure_threshold: 1, cooldown_ns: u64::MAX / 2 };
            let mut set = ReplicaSet::new(primary, *n, breaker);
            let call = ReplicaCall {
                shard: 0,
                slice: &reqs,
                users: &users,
                ctx: TraceContext::UNTRACED,
                clock: &*tel.clock,
                telemetry: Some(&tel),
            };
            let first = set.rotation_start(&call);
            let probes: Vec<Arc<Probe>> = (0..*n)
                .map(|i| {
                    let kill = (*outcome == Panicked && i == first).then(KillAfter::serve_rows);
                    Arc::new(Probe { rows: AtomicU64::new(0), kill })
                })
                .collect();
            let mut i = 0;
            set.map_replicas(|mut replica| {
                replica.set_injector(probes[i].clone());
                i += 1;
                replica
            });

            let answered = set.dispatch(&call);
            assert_eq!(answered.len(), 2, "{what}: one response per request");
            let part = if answered.iter().all(|resp| resp.items.is_empty()) {
                Isolated
            } else {
                assert!(answered.iter().all(|resp| resp.items.len() == 3), "{what}");
                Full
            };
            assert_eq!(part, *want_part, "{what}: part");
            let rows: Vec<u64> = (0..*n)
                .map(|pos| probes[(first + pos) % n].rows.load(Ordering::Relaxed))
                .collect();
            assert_eq!(rows, *want_rows, "{what}: rows scored per candidate");
            let labels: Vec<&str> = set.health().iter().map(|h| h.state_label()).collect();
            for (idx, label) in labels.iter().enumerate() {
                let want = if idx == first { *want_breaker } else { "closed" };
                assert_eq!(*label, want, "{what}: breaker of replica {idx}");
            }
            let snap = tel.registry.snapshot();
            let counters = ["failovers", "breaker_open"].map(|name| {
                snap.counters
                    .iter()
                    .find(|(n, _)| n.strip_prefix("gateway.") == Some(name))
                    .map_or(0, |(_, v)| *v)
            });
            assert_eq!(counters, *want_counters, "{what}: gateway.* counters");
        }
    }

    #[test]
    fn breaker_opens_after_threshold_consecutive_failures() {
        let t = HealthTracker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown_ns: 1_000,
        });
        assert!(t.allow(0));
        assert_eq!(t.state_label(), "closed");
        assert!(!t.record_failure(10));
        assert!(!t.record_failure(20));
        assert!(t.record_failure(30), "third consecutive failure opens");
        assert_eq!(t.state_label(), "open");
        assert!(!t.allow(30));
        assert!(!t.allow(1029), "cooldown not yet elapsed");
        // Cooldown elapses → half-open probe allowed.
        assert!(t.allow(1030));
        assert_eq!(t.state_label(), "half-open");
        // Probe succeeds → closed, streak forgotten.
        t.record_success();
        assert_eq!(t.state_label(), "closed");
        assert!(!t.record_failure(2000), "streak restarted");
    }

    #[test]
    fn failed_half_open_probe_reopens_for_another_cooldown() {
        let t = HealthTracker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown_ns: 500,
        });
        assert!(t.record_failure(0));
        assert!(t.allow(500));
        assert_eq!(t.state_label(), "half-open");
        assert!(t.record_failure(500), "failed probe re-opens");
        assert!(!t.allow(999));
        assert!(t.allow(1_000));
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let t = HealthTracker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown_ns: 100,
        });
        assert!(!t.record_failure(0));
        t.record_success();
        assert!(!t.record_failure(1), "streak was reset");
        assert!(t.record_failure(2));
    }

    #[test]
    fn further_failures_while_open_do_not_re_trigger() {
        let t = HealthTracker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown_ns: 1_000,
        });
        assert!(t.record_failure(0), "first failure opens");
        assert!(!t.record_failure(10), "already open: no new open edge");
        assert_eq!(t.state_label(), "open");
    }

    #[test]
    fn rotation_is_a_pure_function_of_seed_request_and_shard() {
        // Two sets built the same way rotate identically; changing any
        // hash input moves the start for at least some batch.
        let mix = |seed: u64, id: u64, shard: u64| {
            splitmix(
                seed ^ id.wrapping_mul(0x9E3779B97F4A7C15)
                    ^ shard.wrapping_mul(0xD1B54A32D192ED03),
            ) % 3
        };
        for id in 0..64u64 {
            assert_eq!(mix(7, id, 1), mix(7, id, 1));
        }
        let a: Vec<u64> = (0..64).map(|id| mix(7, id, 1)).collect();
        let b: Vec<u64> = (0..64).map(|id| mix(8, id, 1)).collect();
        let c: Vec<u64> = (0..64).map(|id| mix(7, id, 2)).collect();
        assert_ne!(a, b, "seed must matter");
        assert_ne!(a, c, "shard must matter");
        // The set rotates by this hash under the fixed seed 0x5EED_0017:
        // another seed would move every recorded rotation and breaker
        // trajectory.
        let cfg = ServeConfig { k: 3, max_batch: 2, max_seq: 4, filter_seen: true };
        let items = Tensor::randn(&[20, 8], &mut Rng64::seed_from(5));
        let set = ReplicaSet::new(
            CatalogShard::from_cache(EmbeddingCache::new(items), &cfg),
            3,
            BreakerConfig::default(),
        );
        let users = Tensor::zeros(&[1, 8]);
        let clock = MockClock::new();
        for (id, shard) in (0..64u64).zip([0usize, 1, 2].into_iter().cycle()) {
            let slice = [Request { id, history: vec![] }];
            let call = ReplicaCall {
                shard,
                slice: &slice,
                users: &users,
                ctx: TraceContext::UNTRACED,
                clock: &clock,
                telemetry: None,
            };
            assert_eq!(
                set.rotation_start(&call) as u64,
                mix(0x5EED_0017, id, shard as u64),
                "request {id}, shard {shard}"
            );
        }
    }
}
