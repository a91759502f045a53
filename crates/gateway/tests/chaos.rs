//! Chaos tests for the sharded gateway: one shard armed with a seeded
//! [`wr_fault::FaultPlan`] while the others stay clean. The contract:
//!
//! * **Survivor isolation** — the surviving shards' contributions are
//!   bit-identical to a fault-free run. Proven by full reconstruction:
//!   independently-built twin shards (clean for the survivors, armed with
//!   the *same* plan for the victim) are scored per micro-batch and merged
//!   with the public `merge_top_k`; the chaos gateway must reproduce that
//!   merge bit for bit.
//! * **Graceful degradation** — a request the victim shard permanently
//!   fails comes back *degraded* (flagged, counted), never as a failed
//!   call; requests the victim survives are answered bit-identically to
//!   the fault-free gateway.
//! * **Determinism** — the same `WR_FAULT_SEED`-style seed produces the
//!   same responses and the same `top1_checksum` at `WR_THREADS` 1 and 8.
//!
//! Every shard uses [`wr_fault::NoSleep`]: no test ever sleeps, retry
//! storms included.

mod common;

use std::sync::Arc;

use common::{chaos_rates, digest_of, zipf_trace, MAX_SEQ, N_ITEMS};

use wr_gateway::{Gateway, GatewayConfig, GatewayResponse};
use wr_fault::{FaultPlan, NoSleep};
use wr_serve::{merge_top_k, CatalogShard, MicroBatcher, QueryLog, ScoredItem, ServeConfig, ShardCall};
use wr_train::SeqRecModel;

const N_SHARDS: usize = 3;
/// The shard the chaos plan poisons (the middle window).
const VICTIM: usize = 1;
/// Same seed `scripts/check.sh` replays under `WR_FAULT_SEED`.
const FAULT_SEED: u64 = 20240613;

fn whitenrec_model(seed: u64) -> Box<dyn SeqRecModel> {
    common::whitenrec_model("whitenrec-gw-chaos", seed)
}

fn serve_cfg() -> ServeConfig {
    common::serve_cfg(10, 16, MAX_SEQ)
}

fn gateway_cfg() -> GatewayConfig {
    GatewayConfig {
        serve: serve_cfg(),
        ..GatewayConfig::default()
    }
}

/// Rates dense enough that a ~200-query replay reliably hits transient
/// panics, permanent panics, and score poisoning on the victim shard.
fn clean_gateway() -> Gateway {
    Gateway::partitioned(whitenrec_model(19), N_SHARDS, gateway_cfg())
        .unwrap()
        .with_sleeper(Arc::new(NoSleep))
}

fn chaos_gateway(fault_seed: u64) -> Gateway {
    clean_gateway()
        .with_shard_faults(VICTIM, Arc::new(FaultPlan::with_rates(fault_seed, chaos_rates())))
        .unwrap()
}

fn assert_bit_identical(a: &[GatewayResponse], b: &[GatewayResponse], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: response count");
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ra.id, rb.id, "{what}: id at {i}");
        assert_eq!(ra.degraded, rb.degraded, "{what}: degraded flag at {i}");
        assert_eq!(ra.items.len(), rb.items.len(), "{what}: k at {i}");
        for (sa, sb) in ra.items.iter().zip(&rb.items) {
            assert_eq!(sa.item, sb.item, "{what}: item in response {i}");
            assert_eq!(
                sa.score.to_bits(),
                sb.score.to_bits(),
                "{what}: score bits in response {i}"
            );
        }
    }
}

/// Full reconstruction of what the chaos gateway *must* produce: twin
/// shards built independently from a twin model (same seeds → same
/// weights, bit for bit), the victim twin armed with the same fault plan,
/// scored per micro-batch and merged with the public `merge_top_k`.
fn reconstruct(log: &QueryLog, fault_seed: u64) -> Vec<Vec<ScoredItem>> {
    let model = whitenrec_model(19);
    let items = model.item_representations();
    let cfg = gateway_cfg();
    let plan = wr_gateway::ShardPlan::partitioned(N_ITEMS, N_SHARDS).unwrap();
    let mut twins: Vec<CatalogShard> = plan
        .ranges()
        .iter()
        .map(|r| {
            CatalogShard::from_window(&items, r.clone(), &cfg.serve).with_sleeper(Arc::new(NoSleep))
        })
        .collect();
    twins[VICTIM].rearm(
        &items,
        Arc::new(FaultPlan::with_rates(fault_seed, chaos_rates())),
    );

    let mut merged: Vec<Vec<ScoredItem>> = Vec::with_capacity(log.len());
    let max_batch = cfg.serve.max_batch;
    let mut start = 0;
    while start < log.len() {
        let end = (start + max_batch).min(log.len());
        let slice = &log.queries[start..end];
        let contexts: Vec<&[usize]> = slice
            .iter()
            .map(|r| MicroBatcher::sanitize(&r.history))
            .collect();
        let users = model.user_representations(&contexts);
        let parts: Vec<Vec<wr_serve::Response>> = twins
            .iter()
            .map(|t| {
                t.serve_window(&ShardCall {
                    slice,
                    users: &users,
                    ctx: wr_obs::TraceContext::UNTRACED,
                })
            })
            .collect();
        for r in 0..slice.len() {
            let partials: Vec<Vec<ScoredItem>> =
                parts.iter().map(|p| p[r].items.clone()).collect();
            merged.push(merge_top_k(cfg.serve.k, &partials));
        }
        start = end;
    }
    merged
}

/// Whether the fault plan permanently kills `serve.row` for this request
/// id — the one way the victim shard answers a request with an empty
/// partial (score poisoning falls back to finite answers; transient
/// panics clear under retry).
fn victim_kills(plan: &FaultPlan, id: u64) -> bool {
    plan.would_panic("serve.row", id, u32::MAX)
}

#[test]
fn one_poisoned_shard_leaves_survivors_bit_identical() {
    let log = zipf_trace(192);
    let tel = wr_obs::Telemetry::new();
    let chaos = chaos_gateway(FAULT_SEED).with_telemetry(tel.clone());
    let responses = chaos.serve(&log.queries);

    // The chaos output IS the merge of [clean twin 0, armed twin 1, clean
    // twin 2] — which proves the surviving shards' contributions are
    // bit-identical to a fault-free run (the twins never saw a fault).
    let expected = reconstruct(&log, FAULT_SEED);
    assert_eq!(responses.len(), expected.len());
    for (resp, want) in responses.iter().zip(&expected) {
        assert_eq!(resp.items.len(), want.len(), "request {}", resp.id);
        for (got, exp) in resp.items.iter().zip(want) {
            assert_eq!(got.item, exp.item, "request {}", resp.id);
            assert_eq!(
                got.score.to_bits(),
                exp.score.to_bits(),
                "request {}",
                resp.id
            );
        }
    }

    // Degradation accounting: exactly the requests the plan permanently
    // kills on the victim shard are flagged, and the counter agrees.
    let oracle = FaultPlan::with_rates(FAULT_SEED, chaos_rates());
    let mut killed = 0u64;
    for resp in &responses {
        let expect_degraded = victim_kills(&oracle, resp.id);
        assert_eq!(
            resp.degraded, expect_degraded,
            "degraded flag for request {}",
            resp.id
        );
        killed += u64::from(expect_degraded);
    }
    assert!(
        killed > 0,
        "panic rate 0.25 over 192 requests must permanently kill some"
    );
    let snap = tel.registry.snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing counter {name}"))
    };
    assert_eq!(counter("gateway.degraded_responses"), killed);
    assert!(counter("serve.retries") > 0, "transient panics must retry");
    assert!(
        counter("serve.quarantined_rows") > 0,
        "poison rate 0.25 must quarantine some score rows"
    );

    // Requests untouched by every fault channel are bit-identical to the
    // fully healthy gateway — degradation never bleeds into healthy
    // answers. A request is touched by a permanent serve.row kill, by
    // serve.score poisoning, or by cache.load quarantine — the last one
    // only when its healthy top-k actually contained a quarantined item
    // (quarantine removes candidates, so answers without them are
    // unchanged).
    let victim_range = chaos.plan().ranges()[VICTIM].clone();
    let quarantined: Vec<usize> = victim_range
        .clone()
        .filter(|&r| oracle.would_poison("cache.load", r as u64))
        .collect();
    assert!(
        !quarantined.is_empty(),
        "poison rate 0.25 over a {}-row window must quarantine something",
        victim_range.len()
    );
    let healthy = clean_gateway().serve(&log.queries);
    let mut survivors = 0;
    for (resp, base) in responses.iter().zip(&healthy) {
        if victim_kills(&oracle, resp.id)
            || oracle.would_poison("serve.score", resp.id)
            || base.items.iter().any(|s| quarantined.contains(&s.item))
        {
            continue;
        }
        survivors += 1;
        assert_eq!(resp.items.len(), base.items.len(), "request {}", resp.id);
        for (got, exp) in resp.items.iter().zip(&base.items) {
            assert_eq!(got.item, exp.item, "request {}", resp.id);
            assert_eq!(got.score.to_bits(), exp.score.to_bits(), "request {}", resp.id);
        }
    }
    assert!(survivors > 30, "plenty of requests must be untouched");
}

#[test]
fn same_seed_is_deterministic_across_runs_and_thread_counts() {
    let log = zipf_trace(128);
    wr_runtime::set_threads(1);
    let serial = chaos_gateway(FAULT_SEED).serve(&log.queries);
    let serial_again = chaos_gateway(FAULT_SEED).serve(&log.queries);
    assert_bit_identical(&serial, &serial_again, "same seed, same thread count");

    wr_runtime::set_threads(8);
    let threaded = chaos_gateway(FAULT_SEED).serve(&log.queries);
    wr_runtime::set_threads(1);
    assert_bit_identical(&serial, &threaded, "WR_THREADS=1 vs 8 under chaos");
    assert_eq!(
        digest_of(&serial),
        digest_of(&threaded),
        "chaos checksum must be thread-count-independent"
    );

    // A different seed is a different (still deterministic) universe; the
    // checksum separates the two replays.
    let other = chaos_gateway(FAULT_SEED + 1).serve(&log.queries);
    assert_ne!(
        digest_of(&serial),
        digest_of(&other),
        "distinct fault seeds should perturb the replay digest"
    );
}

#[test]
fn wr_fault_seed_env_arms_the_same_schedule() {
    // The CLI path: WR_FAULT_SEED in the environment → FaultPlan::from_env.
    // An env-armed gateway must replay exactly like one armed directly
    // with the same seed (rates are the plan defaults in both).
    std::env::set_var(wr_fault::WR_FAULT_SEED_ENV, "4242");
    let plan = FaultPlan::from_env()
        .expect("WR_FAULT_SEED=4242 parses")
        .expect("WR_FAULT_SEED=4242 must arm");
    std::env::remove_var(wr_fault::WR_FAULT_SEED_ENV);
    assert_eq!(plan.seed(), 4242);

    let log = zipf_trace(96);
    let via_env = clean_gateway()
        .with_shard_faults(VICTIM, Arc::new(plan))
        .unwrap()
        .serve(&log.queries);
    let direct = clean_gateway()
        .with_shard_faults(VICTIM, Arc::new(FaultPlan::new(4242)))
        .unwrap()
        .serve(&log.queries);
    assert_bit_identical(&via_env, &direct, "env-armed vs directly-armed");
}
