//! End-to-end tracing tests for the gateway: deterministic trace ids on
//! every span, histogram exemplars that resolve back to exported spans,
//! and flight-recorder dumps that are byte-identical across thread
//! counts and name exactly the permanently-panicked victim requests.
//!
//! Everything here runs under [`wr_fault::NoSleep`] and (where byte
//! determinism is asserted) a frozen [`wr_obs::MockClock`], so no test
//! ever sleeps or depends on wall time.

mod common;

use std::sync::Arc;

use common::chaos_rates;

use wr_fault::{FaultPlan, NoSleep};
use wr_gateway::{Gateway, GatewayConfig};
use wr_obs::{read_dump, MockClock, Telemetry, TraceContext};
use wr_serve::{QueryLog, Request};
use wr_train::SeqRecModel;

const N_ITEMS: usize = 60;
const MAX_SEQ: usize = 8;
const N_SHARDS: usize = 3;
const VICTIM: usize = 1;
const FAULT_SEED: u64 = 20240613;

fn model() -> Box<dyn SeqRecModel> {
    common::id_model("gw-tracing", N_ITEMS, common::model_config(1, MAX_SEQ), 33)
}

fn cfg() -> GatewayConfig {
    GatewayConfig {
        serve: common::serve_cfg(5, 4, MAX_SEQ),
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

fn chaos_gateway(tel: &Telemetry) -> Gateway {
    Gateway::partitioned(model(), N_SHARDS, cfg())
        .unwrap()
        .with_sleeper(Arc::new(NoSleep))
        .with_telemetry(tel.clone())
        .with_shard_faults(
            VICTIM,
            Arc::new(FaultPlan::with_rates(FAULT_SEED, chaos_rates())),
        )
}

#[test]
fn every_span_carries_the_predictable_batch_trace_identity() {
    let tel = Telemetry::new();
    let gw = Gateway::partitioned(model(), N_SHARDS, cfg())
        .unwrap()
        .with_telemetry(tel.clone());
    gw.serve(&reqs(10));

    let events = tel.tracer.events();
    // One batch span per micro-batch + one span per shard dispatch.
    assert_eq!(events.len(), 3 + 9);
    assert!(events.iter().all(|e| e.trace_id != 0 && e.span_id != 0));

    // Batch spans carry exactly the ids a replay harness would predict:
    // root(first request id of the batch, batch index).
    let predicted: Vec<u64> = [(0u64, 0u64), (4, 1), (8, 2)]
        .iter()
        .map(|&(first, idx)| TraceContext::root(first, idx).trace_id)
        .collect();
    let mut batch_ids: Vec<u64> = events
        .iter()
        .filter(|e| e.cat == "gateway")
        .map(|e| e.trace_id)
        .collect();
    batch_ids.sort_unstable();
    let mut want = predicted.clone();
    want.sort_unstable();
    assert_eq!(batch_ids, want);

    // Every shard span belongs to one of the batch traces, with a span id
    // of its own (the child derivation).
    for e in events.iter().filter(|e| e.cat == "gateway.shard") {
        assert!(predicted.contains(&e.trace_id), "orphan shard span");
        let root = TraceContext::root(
            match e.trace_id {
                t if t == predicted[0] => 0,
                t if t == predicted[1] => 4,
                _ => 8,
            },
            predicted.iter().position(|&p| p == e.trace_id).unwrap() as u64,
        );
        assert_ne!(e.span_id, root.span_id, "child span must get a fresh id");
    }
}

#[test]
fn latency_exemplars_resolve_to_exported_spans() {
    let tel = Telemetry::new();
    let gw = Gateway::partitioned(model(), N_SHARDS, cfg())
        .unwrap()
        .with_telemetry(tel.clone());
    let log = QueryLog::synthetic_zipf(64, 500, N_ITEMS, MAX_SEQ + 2, 1.1, 7).unwrap();
    wr_serve::replay(&gw, &log, &tel);

    let span_traces: std::collections::BTreeSet<u64> =
        tel.tracer.events().iter().map(|e| e.trace_id).collect();
    let snap = tel.registry.snapshot();
    let (_, lat) = snap
        .histograms
        .iter()
        .find(|(n, _)| n == "gateway.latency_ms")
        .expect("replay must register the latency histogram");
    let exemplars: Vec<u64> = lat.exemplars.iter().flatten().copied().collect();
    assert!(
        !exemplars.is_empty(),
        "a 64-query replay must leave at least one exemplar"
    );
    for id in exemplars {
        assert_ne!(id, 0, "snapshot must never surface the untraced sentinel");
        assert!(
            span_traces.contains(&id),
            "exemplar {id:016x} does not resolve to any exported span"
        );
    }
}

#[test]
fn flight_dump_is_byte_identical_across_thread_counts_and_names_the_victims() {
    let dir = std::env::temp_dir().join(format!("wr_gw_flight_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let requests = reqs(96);

    let run = |threads: usize, path: &std::path::Path| {
        wr_runtime::set_threads(threads);
        // Frozen clock: every flight ts_ns is 0, so the sealed dump can
        // only depend on *which* events fired, never on when.
        let tel = Telemetry::with_clock(Arc::new(MockClock::new()));
        tel.flight.arm_dump(path);
        let gw = chaos_gateway(&tel);
        let responses = gw.serve(&requests);
        wr_runtime::set_threads(1);
        assert!(tel.flight.dumps() > 0, "chaos must trigger a dump");
        responses
    };

    let p1 = dir.join("flight_t1.jsonl");
    let p8 = dir.join("flight_t8.jsonl");
    let r1 = run(1, &p1);
    let r8 = run(8, &p8);
    assert_eq!(r1, r8, "chaos responses must be thread-count-independent");

    let d1 = std::fs::read(&p1).unwrap();
    let d8 = std::fs::read(&p8).unwrap();
    assert!(!d1.is_empty());
    assert_eq!(d1, d8, "flight dumps must be byte-identical at 1 vs 8 threads");

    // The dump names exactly the permanently-panicked victim requests.
    let body = read_dump(&p1).expect("sealed dump must round-trip");
    let oracle = FaultPlan::with_rates(FAULT_SEED, chaos_rates());
    let expected: std::collections::BTreeSet<u64> = requests
        .iter()
        .map(|r| r.id)
        .filter(|&id| oracle.would_panic("serve.row", id, u32::MAX))
        .collect();
    assert!(!expected.is_empty(), "panic rate 0.25 must kill some request");
    let dumped: std::collections::BTreeSet<u64> = body
        .lines()
        .filter(|l| l.contains("\"kind\":\"panic\""))
        .map(|l| {
            let tail = l.split("\"req\":").nth(1).expect("panic event carries req");
            tail.split(',')
                .next()
                .unwrap()
                .parse::<u64>()
                .expect("req is a number")
        })
        .collect();
    assert_eq!(
        dumped, expected,
        "flight dump must list exactly the permanently-panicked victims"
    );

    // Tampering is rejected like WRCK/WRIV: flip one byte mid-file.
    let mut bent = d1.clone();
    let mid = bent.len() / 2;
    bent[mid] ^= 0x01;
    let p_bad = dir.join("flight_bent.jsonl");
    std::fs::write(&p_bad, &bent).unwrap();
    let err = read_dump(&p_bad).expect_err("bit-flip must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    std::fs::remove_dir_all(&dir).ok();
}
