//! Replica-chaos tests: THE acceptance gate for replica-aware routing.
//!
//! Shape: `R = 2` replicas per catalog window, and one replica of
//! *every* set armed with a [`wr_fault::KillAfter`] that permanently
//! panics `serve.row` from request id [`KILL_FROM`] on — i.e. the
//! replica dies mid-replay. The contract:
//!
//! * **Zero degraded responses** — the full 2048-query Zipf replay
//!   completes with every answer intact: a typed failure on the dead
//!   replica fails over to its sibling, which scores the *same* frozen
//!   cache;
//! * **Bit-identity** — `top1_checksum` (and every score bit) equals the
//!   healthy single-engine run, at `WR_THREADS` 1 and 8;
//! * **Breakers route around the corpse** — each set's dead replica ends
//!   the replay with an `open` breaker (under a frozen clock the
//!   cooldown never elapses), `gateway.failovers` and
//!   `gateway.breaker_open` are nonzero, and the whole trajectory —
//!   counters, states, bits — replays identically from the same seed;
//! * **Hedging is an assertion, not a randomizer** — under a ticking
//!   clock every dispatch hedges, the hedge bit-comparison never
//!   mismatches, and the answers still equal the single-engine run;
//! * **Deadlines shed, never corrupt** — a spent budget degrades the
//!   batch (flagged, counted, flight-noted) instead of serving late.
//!
//! All engines use [`wr_fault::NoSleep`] and all clocks are
//! [`wr_obs::MockClock`]: no test ever sleeps or reads wall time.

mod common;

use std::sync::Arc;

use common::{digest_of, zipf_trace, MAX_SEQ};

use wr_fault::{KillAfter, NoSleep};
use wr_gateway::{Gateway, GatewayConfig, GatewayResponse};
use wr_obs::{MockClock, Telemetry};
use wr_serve::{top1_digest, ServeConfig, ServeEngine};
use wr_train::SeqRecModel;

const N_SHARDS: usize = 3;
const N_REPLICAS: usize = 2;
/// The replica of every set that the chaos arm kills.
const VICTIM_REPLICA: usize = 1;
/// First request id at which the victim replicas start panicking —
/// roughly batch 19 of 64, i.e. genuinely mid-replay.
const KILL_FROM: u64 = 600;

fn whitenrec_model(seed: u64) -> Box<dyn SeqRecModel> {
    common::whitenrec_model("whitenrec-gw-replica", seed)
}

fn serve_cfg() -> ServeConfig {
    common::serve_cfg(10, 32, MAX_SEQ)
}

fn gateway_cfg() -> GatewayConfig {
    GatewayConfig {
        serve: serve_cfg(),
        replicas: N_REPLICAS,
        ..GatewayConfig::default()
    }
}

/// A replica-chaos gateway on a *frozen* virtual clock: every set's
/// victim replica is armed with the same `KillAfter`, siblings and the
/// shared cache stay clean.
fn chaos_gateway() -> (Gateway, Telemetry) {
    let tel = Telemetry::with_clock(Arc::new(MockClock::new()));
    let mut gw = Gateway::partitioned(whitenrec_model(19), N_SHARDS, gateway_cfg())
        .unwrap()
        .with_telemetry(tel.clone())
        .with_sleeper(Arc::new(NoSleep));
    for s in 0..N_SHARDS {
        gw = gw
            .with_replica_faults(s, VICTIM_REPLICA, Arc::new(KillAfter::new("serve.row", KILL_FROM)))
            .unwrap();
    }
    (gw, tel)
}

fn counter(tel: &Telemetry, name: &str) -> u64 {
    tel.registry
        .snapshot()
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("counter {name} must exist in the registry"))
}

fn assert_bit_identical_to_engine(
    got: &[GatewayResponse],
    want: &[wr_serve::Response],
    what: &str,
) {
    assert_eq!(got.len(), want.len(), "{what}: response count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.id, w.id, "{what}: id at {i}");
        assert!(!g.degraded, "{what}: response {i} degraded");
        assert_eq!(g.items.len(), w.items.len(), "{what}: k at {i}");
        for (sg, sw) in g.items.iter().zip(&w.items) {
            assert_eq!(sg.item, sw.item, "{what}: item in response {i}");
            assert_eq!(
                sg.score.to_bits(),
                sw.score.to_bits(),
                "{what}: score bits in response {i}"
            );
        }
    }
}

/// THE gate: kill one replica of every set mid-replay; the 2048-query
/// replay completes with zero degraded responses and a `top1_checksum`
/// bit-identical to the healthy single-engine run, at both thread
/// counts. A dead replica costs failovers (latency), never answers.
#[test]
fn killing_one_replica_per_set_degrades_nothing_and_moves_no_bits() {
    let log = zipf_trace(2048);
    let engine = ServeEngine::new(whitenrec_model(19), serve_cfg());
    wr_runtime::set_threads(1);
    let baseline = engine.serve(&log.queries);
    let baseline_digest =
        top1_digest(baseline.iter().map(|r| (r.id, r.items.first().map(|s| s.item))));

    for threads in [1usize, 8] {
        wr_runtime::set_threads(threads);
        let (gw, tel) = chaos_gateway();
        let got = gw.serve(&log.queries);
        let what = format!("replica chaos, threads={threads}");
        assert_bit_identical_to_engine(&got, &baseline, &what);
        assert_eq!(digest_of(&got), baseline_digest, "{what}: top1_checksum");
        assert_eq!(
            counter(&tel, "gateway.degraded_responses"),
            0,
            "{what}: zero degraded responses"
        );
        assert!(
            counter(&tel, "gateway.failovers") > 0,
            "{what}: the dead replicas must have cost failovers"
        );
        assert!(
            counter(&tel, "gateway.breaker_open") >= N_SHARDS as u64,
            "{what}: every set's victim breaker must open"
        );
        // Under the frozen clock no cooldown ever elapses: every victim
        // ends open, every survivor ends closed.
        for (s, states) in gw.breaker_states().iter().enumerate() {
            assert_eq!(states.len(), N_REPLICAS);
            for (r, state) in states.iter().enumerate() {
                let want = if r == VICTIM_REPLICA { "open" } else { "closed" };
                assert_eq!(*state, want, "{what}: set {s} replica {r}");
            }
        }
        // The flight recorder names both the failovers and the opened
        // breakers — what `scripts/check.sh` greps out of the dump.
        let kinds: Vec<&str> = tel.flight.events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&"failover"), "{what}: flight failover note");
        assert!(kinds.contains(&"breaker"), "{what}: flight breaker note");
    }
    wr_runtime::set_threads(1);
}

/// The breaker trajectory — counters, state labels, and every response
/// bit — is a pure function of the seed: two identically-armed replays
/// agree exactly, even at 8 threads (one pool task per set per batch, so
/// each set's breaker sees a serial history).
#[test]
fn breaker_trajectory_replays_identically_from_the_same_seed() {
    let log = zipf_trace(512);
    wr_runtime::set_threads(8);
    let (gw_a, tel_a) = chaos_gateway();
    let a = gw_a.serve(&log.queries);
    let (gw_b, tel_b) = chaos_gateway();
    let b = gw_b.serve(&log.queries);
    wr_runtime::set_threads(1);

    assert_eq!(a, b, "responses must replay bit-identically");
    assert_eq!(gw_a.breaker_states(), gw_b.breaker_states());
    for name in [
        "gateway.failovers",
        "gateway.breaker_open",
        "gateway.hedges",
        "gateway.hedge_mismatches",
        "serve.retries",
    ] {
        assert_eq!(
            counter(&tel_a, name),
            counter(&tel_b, name),
            "{name} must replay identically"
        );
    }
    // Hedging is off (threshold 0) and the clock is frozen: no hedges.
    assert_eq!(counter(&tel_a, "gateway.hedges"), 0);
}

/// Hedged requests under a ticking clock: every winning dispatch looks
/// slow (the auto-tick strides each read), so every dispatch with a live
/// sibling hedges — and the hedge bit-comparison must never mismatch,
/// because both replicas score the same frozen window. The answers stay
/// bit-identical to the single engine: a hedge observes, it never
/// substitutes anything non-identical.
#[test]
fn hedges_fire_on_slow_dispatches_and_never_mismatch() {
    let log = zipf_trace(256);
    wr_runtime::set_threads(1);
    let engine = ServeEngine::new(whitenrec_model(19), serve_cfg());
    let baseline = engine.serve(&log.queries);

    let tel = Telemetry::with_clock(Arc::new(MockClock::with_tick(10)));
    let mut cfg = gateway_cfg();
    cfg.hedge_threshold_ns = 1; // any elapsed time at all triggers a hedge
    let gw = Gateway::partitioned(whitenrec_model(19), N_SHARDS, cfg)
        .unwrap()
        .with_telemetry(tel.clone())
        .with_sleeper(Arc::new(NoSleep));
    let got = gw.serve(&log.queries);

    assert_bit_identical_to_engine(&got, &baseline, "hedged replay");
    let hedges = counter(&tel, "gateway.hedges");
    let fanout = counter(&tel, "gateway.fanout_calls");
    assert_eq!(
        hedges, fanout,
        "every dispatch has a healthy sibling and a slow winner: all hedge"
    );
    assert_eq!(
        counter(&tel, "gateway.hedge_mismatches"),
        0,
        "replicas of a frozen window must agree bit for bit"
    );
    assert!(tel.flight.events().iter().any(|e| e.kind == "hedge"));
}

/// A spent deadline budget sheds the batch — degraded and counted, with
/// a flight note — rather than serving after the caller hung up. The
/// auto-tick clock burns more than the budget between the batch's
/// admission and the first dispatch, so every batch expires.
#[test]
fn spent_deadline_budgets_shed_batches_as_degraded() {
    let log = zipf_trace(96);
    wr_runtime::set_threads(1);
    // A lone replica is the only — and therefore last — candidate of its
    // set: the budget must bind there too.
    for replicas in [1, N_REPLICAS] {
        let tel = Telemetry::with_clock(Arc::new(MockClock::with_tick(10)));
        let mut cfg = gateway_cfg();
        cfg.replicas = replicas;
        cfg.deadline_ns = 5; // below one tick: spent before any dispatch
        let gw = Gateway::partitioned(whitenrec_model(19), N_SHARDS, cfg)
            .unwrap()
            .with_telemetry(tel.clone())
            .with_sleeper(Arc::new(NoSleep));
        let got = gw.serve(&log.queries);

        assert_eq!(got.len(), log.len());
        for resp in &got {
            assert!(
                resp.degraded,
                "replicas={replicas}, request {}: spent budget must degrade",
                resp.id
            );
            assert!(resp.items.is_empty());
        }
        assert_eq!(counter(&tel, "gateway.degraded_responses"), log.len() as u64);
        assert!(tel.flight.events().iter().any(|e| e.kind == "deadline"));
    }

    // An unlimited budget (deadline_ns = 0, the default) under the same
    // ticking clock answers everything — the budget, not the clock, was
    // the cause.
    let gw_unlimited = Gateway::partitioned(whitenrec_model(19), N_SHARDS, gateway_cfg())
        .unwrap()
        .with_telemetry(Telemetry::with_clock(Arc::new(MockClock::with_tick(10))))
        .with_sleeper(Arc::new(NoSleep));
    assert!(gw_unlimited.serve(&log.queries).iter().all(|r| !r.degraded));
}
