//! Degraded-mode serving under deterministic fault injection.
//!
//! Every test drives the real WhitenRec+ serving stack (whitened text
//! tower → SASRec → cache → micro-batched top-k) through a seeded
//! [`wr_fault::FaultPlan`] and asserts the recovery contract:
//!
//! * same seed → same faults → same responses, bit for bit;
//! * transient batch panics recover via bounded retry;
//! * a permanently poisoned request fails alone — its batch peers get
//!   answers bit-identical to a fault-free run;
//! * non-finite cache rows are quarantined and never recommended;
//! * NaN-poisoned score rows fall back to a finite-only full sort;
//! * oversized calls are rejected with a typed `Overloaded` error.
//!
//! All engines use [`wr_fault::NoSleep`], so no test ever sleeps.

mod common;

use std::sync::Arc;

use wr_fault::{FaultPlan, FaultRates, NoSleep, RetryPolicy};
use wr_serve::{QueryLog, Request, ResilienceConfig, ServeConfig, ServeEngine, ServeError};
use wr_train::SeqRecModel;

const N_ITEMS: usize = 60;
const MAX_SEQ: usize = 10;

fn whitenrec_model(seed: u64) -> Box<dyn SeqRecModel> {
    common::whitenrec_model_of(
        "whitenrec-degraded",
        N_ITEMS,
        24,
        common::model_config(2, MAX_SEQ),
        seed,
        seed,
    )
}

fn engine(model_seed: u64) -> ServeEngine {
    ServeEngine::new(
        whitenrec_model(model_seed),
        ServeConfig {
            k: 10,
            max_batch: 8,
            max_seq: MAX_SEQ,
            filter_seen: true,
        },
    )
    .with_sleeper(Arc::new(NoSleep))
}

fn queries(n: usize, seed: u64) -> Vec<Request> {
    QueryLog::synthetic(n, N_ITEMS, MAX_SEQ + 3, seed).queries
}

/// Rates that only induce batch panics — no poison, no I/O faults — so
/// the sole difference from a fault-free run is the panic/recovery path.
fn panic_only(rate: f64) -> FaultRates {
    FaultRates {
        io_error: 0.0,
        corrupt: 0.0,
        poison: 0.0,
        panic: rate,
    }
}

fn assert_bit_identical(a: &wr_serve::Response, b: &wr_serve::Response, what: &str) {
    assert_eq!(a.id, b.id, "{what}: id");
    assert_eq!(a.items.len(), b.items.len(), "{what}: k for request {}", a.id);
    for (sa, sb) in a.items.iter().zip(&b.items) {
        assert_eq!(sa.item, sb.item, "{what}: item for request {}", a.id);
        assert_eq!(
            sa.score.to_bits(),
            sb.score.to_bits(),
            "{what}: score bits for request {}",
            a.id
        );
    }
}

fn counter(tel: &wr_obs::Telemetry, name: &str) -> u64 {
    tel.registry
        .snapshot()
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("counter {name} must exist in the registry"))
}

#[test]
fn same_fault_seed_gives_bit_identical_degraded_responses() {
    let reqs = queries(48, 11);
    let rates = FaultRates {
        io_error: 0.0,
        corrupt: 0.0,
        poison: 0.25,
        panic: 0.25,
    };
    let plan_a = Arc::new(FaultPlan::with_rates(99, rates));
    let plan_b = Arc::new(FaultPlan::with_rates(99, rates));
    let a = engine(3).with_faults(plan_a.clone()).serve(&reqs);
    let b = engine(3).with_faults(plan_b.clone()).serve(&reqs);
    assert_eq!(a.len(), b.len());
    for (ra, rb) in a.iter().zip(&b) {
        assert_bit_identical(ra, rb, "same-seed replay");
    }
    // The schedules themselves replayed identically, fault for fault.
    assert_eq!(plan_a.records(), plan_b.records());
    assert!(
        plan_a.injected_total() > 0,
        "rates this high must inject something into 48 requests"
    );
}

#[test]
fn transient_batch_panics_recover_to_fault_free_answers() {
    let reqs = queries(64, 5);
    let baseline = engine(7).serve(&reqs);

    let plan = Arc::new(FaultPlan::with_rates(41, panic_only(0.3)));
    let tel = wr_obs::Telemetry::new();
    let faulty = engine(7)
        .with_faults(plan.clone())
        .with_telemetry(tel.clone());
    let degraded = faulty.serve(&reqs);

    let mut transient_hits = 0;
    let mut permanent_hits = 0;
    for (resp, base) in degraded.iter().zip(&baseline) {
        // `would_panic` at a huge attempt isolates the permanent faults:
        // transient ones clear after at most 3 failures.
        let scheduled = plan.would_panic("serve.row", resp.id, 0);
        let permanent = plan.would_panic("serve.row", resp.id, u32::MAX);
        if permanent {
            permanent_hits += 1;
            assert!(
                resp.items.is_empty(),
                "permanently poisoned request {} must fail alone, empty",
                resp.id
            );
        } else {
            if scheduled {
                transient_hits += 1;
            }
            // Everyone else — including transient victims after retry —
            // gets the exact fault-free answer.
            assert_bit_identical(resp, base, "recovered response");
        }
    }
    assert!(transient_hits > 0, "want at least one transient panic at rate 0.3");
    assert!(permanent_hits > 0, "want at least one permanent panic at rate 0.3");
    assert!(
        counter(&tel, "serve.retries") > 0,
        "retries must be counted when batches panic"
    );
}

#[test]
fn poisoned_cache_rows_are_quarantined_and_never_recommended() {
    let rates = FaultRates {
        io_error: 0.0,
        corrupt: 0.0,
        poison: 0.2,
        panic: 0.0,
    };
    let plan = Arc::new(FaultPlan::with_rates(77, rates));
    let eng = engine(13).with_faults(plan.clone());
    // Quarantine is exactly the schedule's cache.load poison set.
    let expected: Vec<usize> = (0..N_ITEMS)
        .filter(|&r| plan.would_poison("cache.load", r as u64))
        .collect();
    assert_eq!(eng.quarantined_items(), &expected[..]);
    assert!(
        !expected.is_empty(),
        "rate 0.2 over 60 items must quarantine something"
    );

    // Both the batch path and the interactive single-query path.
    let reqs = queries(40, 21);
    let interactive = reqs.iter().map(|r| (r.id, eng.recommend(&r.history)));
    let batched = eng.serve(&reqs).into_iter().map(|r| (r.id, r.items));
    for (id, items) in batched.chain(interactive) {
        for scored in &items {
            assert!(
                !expected.contains(&scored.item),
                "request {id} was recommended quarantined item {}",
                scored.item
            );
            assert!(scored.score.is_finite());
        }
    }
}

#[test]
fn poisoned_score_rows_fall_back_to_finite_answers() {
    let reqs = queries(50, 31);
    let rates = FaultRates {
        io_error: 0.0,
        corrupt: 0.0,
        poison: 0.3,
        panic: 0.0,
    };
    let plan = Arc::new(FaultPlan::with_rates(123, rates));
    let tel = wr_obs::Telemetry::new();
    let eng = engine(9)
        .with_faults(plan.clone())
        .with_telemetry(tel.clone());
    let responses = eng.serve(&reqs);

    let scheduled: Vec<u64> = reqs
        .iter()
        .map(|r| r.id)
        .filter(|&id| plan.would_poison("serve.score", id))
        .collect();
    assert!(!scheduled.is_empty(), "rate 0.3 over 50 rows must poison something");

    for resp in &responses {
        assert!(!resp.items.is_empty(), "fallback must still answer");
        for scored in &resp.items {
            assert!(
                scored.score.is_finite(),
                "request {} leaked non-finite score {}",
                resp.id,
                scored.score
            );
        }
        // The fallback keeps the engine's ranking policy: scores descend.
        for pair in resp.items.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }
    let quarantined = counter(&tel, "serve.quarantined_rows");
    assert!(quarantined > 0, "poisoned rows must be counted");
    assert!(
        quarantined <= scheduled.len() as u64,
        "counted {} quarantined rows but only {} were scheduled",
        quarantined,
        scheduled.len()
    );
}

#[test]
fn try_serve_rejects_overload_with_typed_error() {
    let tel = wr_obs::Telemetry::new();
    let eng = engine(17)
        .with_resilience(ResilienceConfig {
            max_queue_depth: 8,
            retry: RetryPolicy::default(),
        })
        .with_telemetry(tel.clone());

    let reqs = queries(9, 3);
    match eng.try_serve(&reqs) {
        Err(ServeError::Overloaded { depth, limit }) => {
            assert_eq!(depth, 9);
            assert_eq!(limit, 8);
        }
        other => panic!(
            "9 requests over a depth-8 bound must be rejected, got {:?}",
            other.map(|r| r.len())
        ),
    }
    assert_eq!(counter(&tel, "serve.rejected_overload"), 1);

    // At the bound, the call is admitted and identical to plain serve().
    let admitted = eng.try_serve(&reqs[..8]).expect("8 requests fit");
    let direct = eng.serve(&reqs[..8]);
    assert_eq!(admitted.len(), direct.len());
    for (a, b) in admitted.iter().zip(&direct) {
        assert_bit_identical(a, b, "admitted call");
    }
    assert_eq!(counter(&tel, "serve.rejected_overload"), 1, "no new rejection");
}

#[test]
fn fault_free_engine_is_unchanged_by_the_resilience_layer() {
    // The hardened serve() with a NoFaults injector must be bit-identical
    // to what the engine produced before hardening — i.e. to serve_naive.
    let reqs = queries(32, 8);
    let eng = engine(23);
    let fast = eng.serve(&reqs);
    let naive = eng.serve_naive(&reqs);
    assert_eq!(fast.len(), naive.len());
    for (a, b) in fast.iter().zip(&naive) {
        assert_bit_identical(a, b, "fault-free vs naive");
    }
    assert!(eng.quarantined_items().is_empty());
}

#[test]
fn degraded_counters_are_exported_even_at_zero() {
    let tel = wr_obs::Telemetry::new();
    let _eng = engine(29).with_telemetry(tel.clone());
    let snap = tel.registry.snapshot();
    for name in [
        "serve.rejected_overload",
        "serve.quarantined_rows",
        "serve.retries",
    ] {
        assert!(
            snap.counters.iter().any(|(n, _)| n == name),
            "{name} must exist (at zero) before any fault fires"
        );
    }
}
