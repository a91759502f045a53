//! Replica health: per-replica circuit breakers and the replica-set
//! dispatch loop (failover, hedging, deadline enforcement).
//!
//! # Determinism argument
//!
//! Every *routing* decision here is a pure function of `(router seed,
//! first request id of the batch, shard index)` plus breaker state that
//! is itself driven only by deterministic failures — no RNG stream, no
//! wall clock on the decision path. Time enters in exactly two places,
//! both through the caller's [`wr_obs::Clock`] handle: deadline expiry
//! and the hedge threshold. Under a frozen `MockClock` both read zero
//! elapsed, so tests are bit-for-bit reproducible; under the production
//! `MonotonicClock` they change only *which replica* answers — and every
//! replica of a set scores the same frozen window through the same
//! shared cache, so the answer bits cannot change (the whitened item
//! table is immutable; replication is free of divergence by
//! construction). That is why the differential gate holds at every
//! `(shards, replicas, threads)` combination.
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

use wr_obs::{Clock, DeadlineBudget, Telemetry, TraceContext};
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

/// SplitMix64 finalizer — the workspace's standard bit mixer, used here
/// to turn `(router seed, request id, shard)` into a rotation start so
/// replica load spreads without an RNG stream.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Everything one dispatch needs from the gateway, bundled so the pool
/// closure borrows a single `Sync` view.
pub(crate) struct ReplicaCall<'a> {
    /// Shard (replica-set) index, for the rotation hash and event labels.
    pub shard: usize,
    pub slice: &'a [Request],
    pub users: &'a Tensor,
    pub ctx: TraceContext,
    pub deadline: DeadlineBudget,
    pub router_seed: u64,
    /// Hedge a slow-but-successful primary past this many elapsed
    /// nanoseconds; `0` disables hedging.
    pub hedge_threshold_ns: u64,
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

    /// This batch as one shard call entering a replica at `now_ns`.
    fn at(&self, now_ns: u64) -> ShardCall<'_> {
        ShardCall {
            slice: self.slice,
            users: self.users,
            ctx: self.ctx,
            deadline: self.deadline,
            now_ns,
        }
    }
}

/// Bit-level equality of two response vectors — the hedge assertion.
/// Score comparison is on the `f32` bit patterns, not float equality.
fn bits_identical(a: &[Response], b: &[Response]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.id == y.id
                && x.items.len() == y.items.len()
                && x.items
                    .iter()
                    .zip(&y.items)
                    .all(|(p, q)| p.item == q.item && p.score.to_bits() == q.score.to_bits())
        })
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
    /// sleeper, resilience attach). Breaker state is untouched — builders
    /// run before traffic, when every breaker is closed anyway.
    pub(crate) fn map_replicas(&mut self, mut f: impl FnMut(CatalogShard) -> CatalogShard) {
        let replicas = std::mem::take(&mut self.replicas);
        self.replicas = replicas.into_iter().map(&mut f).collect();
    }

    pub(crate) fn replica_mut(&mut self, r: usize) -> Option<&mut CatalogShard> {
        self.replicas.get_mut(r)
    }

    /// Rotation start for this batch: pure hash of `(seed, first request
    /// id, shard)` — no RNG stream, no clock, so a replay recomputes it.
    fn rotation_start(&self, call: &ReplicaCall<'_>) -> usize {
        let n = self.replicas.len().max(1);
        let h = splitmix(
            call.router_seed
                ^ call.first_id().wrapping_mul(0x9E3779B97F4A7C15)
                ^ (call.shard as u64).wrapping_mul(0xD1B54A32D192ED03),
        );
        (h % n as u64) as usize
    }

    /// Serve one encoded micro-batch through the healthiest replica that
    /// will take it. Returns `None` when the set sheds the batch
    /// (backpressure on every candidate, or a spent deadline) — the
    /// gateway degrades those responses.
    ///
    /// Candidates are walked in rotation order, breaker-gated, each
    /// through the one shard call ([`CatalogShard::serve_window`]). A
    /// replica that panics past its retry budget fails over to the next
    /// sibling — same window, same cache, bit-identical answer. Only
    /// when no sibling is left is the failure absorbed into per-request
    /// isolation ([`CatalogShard::isolate`]), so a set with one usable
    /// replica degrades request by request instead of losing the window.
    pub(crate) fn dispatch(&self, call: &ReplicaCall<'_>) -> Option<Vec<Response>> {
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
        if candidates.is_empty() {
            // Every breaker is open. Refusing to answer would degrade the
            // whole window for a cooldown; forcing one attempt keeps
            // availability and lets its success close a breaker.
            candidates.push(start.min(n.saturating_sub(1)));
        }
        let last_pos = candidates.len().saturating_sub(1);
        for (pos, &idx) in candidates.iter().enumerate() {
            let Some(replica) = self.replicas.get(idx) else {
                continue;
            };
            let t0 = call.clock.now_ns();
            let shard_call = call.at(t0);
            let responses = match replica.serve_window(&shard_call) {
                Ok(responses) => responses,
                // No sibling left: absorb. The replica did answer, so
                // its breaker closes below like any other success.
                Err(ServeError::Panicked { .. }) if pos == last_pos => replica.isolate(&shard_call),
                Err(ServeError::Panicked { .. }) => {
                    let now = call.clock.now_ns();
                    call.count("gateway.failovers");
                    call.note("failover", call.first_id(), idx as u64);
                    self.record_failure(call, idx, now);
                    continue;
                }
                // Backpressure is load, not ill-health: no breaker
                // penalty, try the next sibling.
                Err(ServeError::Overloaded { .. }) => continue,
                Err(ServeError::DeadlineExceeded { .. }) => {
                    // The budget is spent; burning more replicas answers
                    // after the caller hung up. Shed the batch.
                    call.note("deadline", call.first_id(), idx as u64);
                    return None;
                }
            };
            if let Some(h) = self.health.get(idx) {
                h.record_success();
            }
            self.maybe_hedge(call, idx, &candidates, &responses, t0);
            return Some(responses);
        }
        None
    }

    /// Replica `idx` failed past its retry budget at clock reading
    /// `now_ns`: penalise its breaker, and count and flight-record the
    /// edge when that opened it.
    fn record_failure(&self, call: &ReplicaCall<'_>, idx: usize, now_ns: u64) {
        if self.health.get(idx).is_some_and(|h| h.record_failure(now_ns)) {
            call.count("gateway.breaker_open");
            call.note("breaker", call.first_id(), idx as u64);
            if let Some(tel) = call.telemetry {
                tel.flight.trigger("breaker-open");
            }
        }
    }

    /// Hedge a slow-but-successful attempt: when the winning replica
    /// took longer than the hedge threshold, fire one more attempt on the
    /// next allowed sibling and *assert* (via counter, never a panic —
    /// this is the hot path) that the two answers are bit-identical. The
    /// answer already in hand wins either way; the hedge buys the breaker
    /// an extra health observation and pins the
    /// replica-interchangeability invariant in production, not just in
    /// tests.
    fn maybe_hedge(
        &self,
        call: &ReplicaCall<'_>,
        winner: usize,
        candidates: &[usize],
        responses: &[Response],
        t0: u64,
    ) {
        if call.hedge_threshold_ns == 0 {
            return;
        }
        let elapsed = call.clock.now_ns().saturating_sub(t0);
        if elapsed < call.hedge_threshold_ns {
            return;
        }
        let Some(&hedge_idx) = candidates.iter().find(|&&i| i != winner) else {
            return; // no sibling to hedge on
        };
        let Some(replica) = self.replicas.get(hedge_idx) else {
            return;
        };
        call.count("gateway.hedges");
        call.note("hedge", call.first_id(), hedge_idx as u64);
        match replica.serve_window(&call.at(call.clock.now_ns())) {
            Ok(hedged) => {
                if let Some(h) = self.health.get(hedge_idx) {
                    h.record_success();
                }
                if !bits_identical(responses, &hedged) {
                    // Replicas disagreeing on a frozen cache is a real
                    // bug (or genuine divergence); surface it loudly but
                    // keep serving the primary's answer.
                    call.count("gateway.hedge_mismatches");
                    call.note("hedge-mismatch", call.first_id(), hedge_idx as u64);
                    if let Some(tel) = call.telemetry {
                        tel.flight.trigger("hedge-mismatch");
                    }
                }
            }
            Err(ServeError::Panicked { .. }) => {
                self.record_failure(call, hedge_idx, call.clock.now_ns());
            }
            Err(_) => {} // overload/deadline on a hedge: drop it silently
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
    use wr_serve::{EmbeddingCache, ResilienceConfig, ServeConfig};
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
        Overloaded,
        Deadline,
    }

    #[derive(Debug, PartialEq)]
    enum Part {
        Full,
        Isolated,
        Shed,
    }

    /// The dispatch truth table: `R` replicas × what happens on the first
    /// candidate of the rotation. 2-request batches, 2 attempts per
    /// batch, a breaker that opens on the first failure, and a ticking
    /// clock with a 1 ns hedge threshold, so every answered batch hedges
    /// on a sibling when one exists. `rows` is the probe count per
    /// replica in rotation order: a healthy batch offers 2 rows, a dead
    /// replica sees 1 row per attempt (it dies on the first), isolation
    /// offers each row once more.
    #[test]
    fn dispatch_truth_table() {
        use Outcome::*;
        use Part::*;
        // (R, first-candidate outcome) → (part, rows per candidate,
        // first candidate's breaker, [failovers, breaker_open, hedges,
        // hedge_mismatches]).
        #[rustfmt::skip]
        let table: &[(usize, Outcome, Part, &[u64], &str, [u64; 4])] = &[
            (1, Healthy,    Full,     &[2],       "closed", [0, 0, 0, 0]),
            (2, Healthy,    Full,     &[2, 2],    "closed", [0, 0, 1, 0]),
            (3, Healthy,    Full,     &[2, 2, 0], "closed", [0, 0, 1, 0]),
            // No sibling: absorbed into isolation (2 attempts + 2 rows
            // alone, all dead), which counts as an answer — no failover,
            // breaker closed.
            (1, Panicked,   Isolated, &[4],       "closed", [0, 0, 0, 0]),
            // Failover; the hedge then retries the corpse (2 more rows)
            // and finds its breaker already open.
            (2, Panicked,   Full,     &[4, 2],    "open",   [1, 1, 1, 0]),
            (3, Panicked,   Full,     &[4, 2, 0], "open",   [1, 1, 1, 0]),
            // Load, not ill-health: next sibling, no breaker penalty.
            (1, Overloaded, Shed,     &[0],       "closed", [0, 0, 0, 0]),
            (2, Overloaded, Full,     &[0, 2],    "closed", [0, 0, 1, 0]),
            (3, Overloaded, Full,     &[0, 2, 0], "closed", [0, 0, 1, 0]),
            // A spent budget sheds at the first candidate — including
            // when it is the only one.
            (1, Deadline,   Shed,     &[0],       "closed", [0, 0, 0, 0]),
            (2, Deadline,   Shed,     &[0, 0],    "closed", [0, 0, 0, 0]),
            (3, Deadline,   Shed,     &[0, 0, 0], "closed", [0, 0, 0, 0]),
        ];
        let mut rng = Rng64::seed_from(5);
        let items = Tensor::randn(&[20, 8], &mut rng);
        let users = Tensor::randn(&[2, 8], &mut rng);
        let reqs: Vec<Request> = (0..2).map(|id| Request { id, history: vec![] }).collect();
        let cfg = ServeConfig { k: 3, max_batch: 2, max_seq: 4, filter_seen: true };
        let resilience = |max_queue_depth| ResilienceConfig {
            max_queue_depth,
            retry: RetryPolicy { max_attempts: 2, ..RetryPolicy::default() },
        };
        for (n, outcome, want_part, want_rows, want_breaker, want_counters) in table {
            let what = format!("R={n}, first candidate {outcome:?}");
            let tel = Telemetry::with_clock(Arc::new(MockClock::with_tick(10)));
            let primary = CatalogShard::from_cache(EmbeddingCache::new(items.clone()), &cfg)
                .with_resilience(resilience(1024))
                .with_sleeper(Arc::new(NoSleep))
                .with_telemetry(tel.clone());
            let breaker = BreakerConfig { failure_threshold: 1, cooldown_ns: u64::MAX / 2 };
            let mut set = ReplicaSet::new(primary, *n, breaker);
            let call = ReplicaCall {
                shard: 0,
                slice: &reqs,
                users: &users,
                ctx: TraceContext::UNTRACED,
                deadline: match outcome {
                    Deadline => DeadlineBudget::started_at(0, 5),
                    _ => DeadlineBudget::unlimited(),
                },
                router_seed: 7,
                hedge_threshold_ns: 1,
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
                if *outcome == Overloaded && i == first {
                    replica = replica.with_resilience(resilience(1));
                }
                i += 1;
                replica
            });

            let part = match set.dispatch(&call) {
                None => Shed,
                Some(r) if r.iter().all(|resp| resp.items.is_empty()) => Isolated,
                Some(r) => {
                    assert!(r.iter().all(|resp| resp.items.len() == 3), "{what}");
                    Full
                }
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
            let counters = ["failovers", "breaker_open", "hedges", "hedge_mismatches"].map(|name| {
                snap.counters
                    .iter()
                    .find(|(n, _)| n.strip_prefix("gateway.") == Some(name))
                    .map_or(0, |(_, v)| *v)
            });
            assert_eq!(counters, *want_counters, "{what}: gateway.* counters");
            assert_eq!(
                tel.flight.events().iter().any(|e| e.kind == "deadline"),
                *outcome == Deadline,
                "{what}: deadline flight note"
            );
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
    }
}
