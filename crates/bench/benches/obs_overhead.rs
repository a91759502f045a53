//! Bench: what the telemetry substrate costs on the serving hot path
//! (ISSUE 9).
//!
//! Replays the same 2048-query seeded Zipf trace through a 3-shard
//! gateway three ways:
//!
//! 1. `off` — no telemetry attached: the raw micro-batched serve loop.
//! 2. `on` — full instrumentation attached: per-shard fault counters,
//!    latency histograms, batch/shard spans with deterministic
//!    [`wr_obs::TraceContext`] ids, write-only flight-note branches.
//! 3. `on_tracing_recorder` — instrumentation *plus* the replay harness
//!    on top: the `gateway.latency_ms` histogram with per-bucket trace-id
//!    exemplars, the replay span export, and an **armed** flight recorder
//!    (dump path configured, ring live; a healthy replay never triggers,
//!    so this prices exactly the always-on cost the serving contract
//!    promises is write-only).
//!
//! The gate: all three configurations must produce the identical
//! `top1_checksum` — telemetry is strictly write-only, so attaching it
//! may cost time but can never move a result bit. The report records the
//! measured deltas (`overhead_on_pct`, `overhead_full_pct`, min-latency
//! estimator) next to the machine shape; the auto-recorded
//! `single_cpu_caveat` meta marks runs where QPS collapses to serial
//! behaviour and should not be compared against multi-core reports.
//!
//! `WR_BENCH_OUT=BENCH_pr9.json cargo bench --bench obs_overhead`
//! regenerates the checked-in report.

use wr_bench::harness::{black_box, Harness};
use wr_gateway::{Gateway, GatewayConfig, GatewayResponse};
use wr_models::{zoo, LossKind, ModelConfig, SasRec, TextTower};
use wr_obs::Telemetry;
use wr_serve::{replay, top1_digest, QueryLog, Request, ServeConfig};
use wr_tensor::{Rng64, Tensor};

const N_ITEMS: usize = 512;
const MAX_SEQ: usize = 8;
const N_SHARDS: usize = 3;
const QUERIES: usize = 2048;
const MAX_BATCH: usize = 32;
const K: usize = 10;

/// The serving configuration under test: whitened text table →
/// projection tower → SASRec encoder, sharded across three catalogs.
fn whitenrec_model(seed: u64) -> Box<SasRec> {
    let mut table_rng = Rng64::seed_from(seed);
    let raw = Tensor::randn(&[N_ITEMS, 24], &mut table_rng);
    let whitened = zoo::whiten_relaxed(&raw, 4);
    let mut rng = Rng64::seed_from(seed);
    let config = ModelConfig {
        dim: 16,
        heads: 2,
        blocks: 1,
        max_seq: MAX_SEQ,
        dropout: 0.0,
        ..ModelConfig::default()
    };
    let tower = TextTower::new(whitened, config.dim, 2, &mut rng);
    Box::new(SasRec::new(
        "whitenrec-obs-overhead",
        Box::new(tower),
        LossKind::Softmax,
        config,
        &mut rng,
    ))
}

fn gateway() -> Gateway {
    Gateway::partitioned(
        whitenrec_model(31),
        N_SHARDS,
        GatewayConfig {
            serve: ServeConfig {
                k: K,
                max_batch: MAX_BATCH,
                max_seq: MAX_SEQ,
                filter_seen: true,
            },
            ..GatewayConfig::default()
        },
    )
    .expect("gateway construction")
}

/// The replay loop without the replay harness: micro-batch groups of
/// `MAX_BATCH`, exactly how `wr_serve::replay` packs them, but with no
/// clock reads, no histogram, no exemplars — so `off` and `on` time the
/// gateway itself and only the third row adds the harness.
fn serve_loop(gw: &Gateway, queries: &[Request]) -> Vec<GatewayResponse> {
    let mut responses = Vec::with_capacity(queries.len());
    for group in queries.chunks(MAX_BATCH) {
        responses.extend(gw.serve(group));
    }
    responses
}

fn checksum(responses: &[GatewayResponse]) -> u64 {
    top1_digest(responses.iter().map(|r| (r.id, r.items.first().map(|s| s.item))))
}

fn main() {
    let mut h = Harness::new("obs_overhead");
    h.meta("queries", QUERIES as f64);
    h.meta("n_items", N_ITEMS as f64);
    h.meta("shards", N_SHARDS as f64);
    h.meta("max_batch", MAX_BATCH as f64);
    h.meta("k", K as f64);

    let log = QueryLog::synthetic_zipf(QUERIES, 500, N_ITEMS, MAX_SEQ + 2, 1.1, 7)
        .expect("zipf parameters are valid");

    // ---- 1. telemetry off: the un-instrumented gateway ----
    let gw_off = gateway();
    let sum_off = checksum(&serve_loop(&gw_off, &log.queries));
    let off_ns = h
        .bench(format!("replay_{QUERIES}q/off"), || {
            black_box(serve_loop(&gw_off, &log.queries));
        })
        .min_ns;
    h.annotate("instrumented", 0.0);

    // ---- 2. telemetry on: counters, histograms, spans, flight notes ----
    let tel_on = Telemetry::new();
    let gw_on = gateway().with_telemetry(tel_on.clone());
    let sum_on = checksum(&serve_loop(&gw_on, &log.queries));
    assert_eq!(
        sum_on, sum_off,
        "attaching telemetry must not move a single result bit"
    );
    let on_ns = h
        .bench(format!("replay_{QUERIES}q/on"), || {
            black_box(serve_loop(&gw_on, &log.queries));
        })
        .min_ns;
    h.annotate("instrumented", 1.0);

    // ---- 3. on + tracing + armed recorder: the full replay harness ----
    let dump = std::env::temp_dir().join(format!("wr_obs_overhead_{}.jsonl", std::process::id()));
    let tel_full = Telemetry::new();
    tel_full.flight.arm_dump(&dump);
    let gw_full = gateway().with_telemetry(tel_full.clone());
    let (_, report) = replay(&gw_full, &log, &tel_full);
    assert_eq!(
        report.top1_checksum, sum_off,
        "the instrumented replay harness must not move a single result bit"
    );
    assert_eq!(
        tel_full.flight.dumps(),
        0,
        "a healthy replay must never trigger the flight recorder"
    );
    let full_ns = h
        .bench(format!("replay_{QUERIES}q/on_tracing_recorder"), || {
            black_box(replay(&gw_full, &log, &tel_full));
        })
        .min_ns;
    h.annotate("instrumented", 1.0);
    h.annotate("recorder_armed", 1.0);
    h.annotate("qps", report.qps);
    h.annotate("p50_ms", report.p50_ms);
    h.annotate("p99_ms", report.p99_ms);
    std::fs::remove_file(&dump).ok();

    // ---- headline deltas, from the min-latency estimator ----
    let overhead_on = (on_ns - off_ns) / off_ns * 100.0;
    let overhead_full = (full_ns - off_ns) / off_ns * 100.0;
    h.meta("overhead_on_pct", overhead_on);
    h.meta("overhead_full_pct", overhead_full);
    h.meta("top1_checksum_equal", 1.0);
    eprintln!(
        "  overhead: telemetry on {overhead_on:+.2}%  on+tracing+recorder {overhead_full:+.2}%  (checksums identical)"
    );
    h.finish();
}
