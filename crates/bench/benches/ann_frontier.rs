//! Bench: the IVF accuracy/throughput frontier (ISSUE 6).
//!
//! Sweeps `nprobe` over a fixed index and replays the same seeded query
//! trace at every point, recording QPS, latency percentiles, recall@20
//! against the exact dense scorer, and the telemetry-counted fraction of
//! catalog rows actually scanned. The endpoints anchor the curve:
//! `nprobe = nlist` is bit-identical to exact (same `top1_checksum`), and
//! small `nprobe` buys throughput with a measured recall cost.
//!
//! The suite *enforces* the PR's frontier gate, and records the winning
//! point in the report meta: some `nprobe < nlist/4` must reach
//! recall@20 ≥ 0.99 while scanning ≤ 1/4 of the catalog. The workload
//! mirrors `crates/serve/tests/ann_differential.rs` (whitened table →
//! projection tower → SASRec), where the same gate is pinned as a test.
//!
//! `WR_BENCH_OUT=BENCH_pr6.json cargo bench --bench ann_frontier`
//! regenerates the checked-in report.

use std::sync::Arc;

use wr_bench::harness::{black_box, Harness};
use wr_models::{zoo, LossKind, ModelConfig, SasRec, TextTower};
use wr_serve::{replay, QueryLog, Response, Scorer, ServeConfig, ServeEngine};
use wr_tensor::{Rng64, Tensor};

const N_ITEMS: usize = 2048;
const MAX_SEQ: usize = 10;
const NLIST: usize = 128;
const K: usize = 20;
const QUERIES: usize = 256;
const NPROBE_SWEEP: [usize; 8] = [1, 2, 4, 8, 16, 31, 64, NLIST];

/// Same serving configuration as the differential suite: whitened text
/// table → projection tower → SASRec encoder.
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
        "whitenrec-ann-frontier",
        Box::new(tower),
        LossKind::Softmax,
        config,
        &mut rng,
    ))
}

fn exact_engine() -> ServeEngine {
    ServeEngine::new(
        whitenrec_model(31),
        ServeConfig {
            k: K,
            max_batch: 32,
            max_seq: MAX_SEQ,
            filter_seen: true,
        },
    )
}

fn recall_vs(exact: &[Response], approx: &[Response]) -> f64 {
    let (mut hits, mut total) = (0usize, 0usize);
    for (e, a) in exact.iter().zip(approx) {
        total += e.items.len();
        for want in &e.items {
            if a.items.iter().any(|got| got.item == want.item) {
                hits += 1;
            }
        }
    }
    hits as f64 / total.max(1) as f64
}

fn main() {
    let mut h = Harness::new("ann_frontier");
    h.meta("n_items", N_ITEMS as f64);
    h.meta("nlist", NLIST as f64);
    h.meta("queries", QUERIES as f64);
    h.meta("k", K as f64);

    let log = QueryLog::synthetic(QUERIES, N_ITEMS, MAX_SEQ + 3, 43);
    let exact = exact_engine();
    let index = Arc::new(exact.cache().build_ivf(NLIST, 7).unwrap());
    eprintln!(
        "  index: {} lists over {} items (max list {})",
        index.nlist(),
        index.n_items(),
        index.max_list_len()
    );

    let (exact_resp, exact_report) = replay(&exact, &log, &wr_obs::Telemetry::new());

    // Frontier point: cheapest nprobe < nlist/4 clearing the recall gate
    // on a quarter-catalog scan budget.
    let mut frontier: Option<(usize, f64, f64)> = None;
    for nprobe in NPROBE_SWEEP {
        let tel = wr_obs::Telemetry::new();
        let engine = exact_engine()
            .with_ann(index.clone(), nprobe)
            .with_telemetry(tel.clone());
        assert_eq!(engine.scorer(), Scorer::Ivf { nprobe });

        // One stats replay: recall, scan budget, checksum, serve-side
        // latency percentiles. The counter delta is taken around this
        // replay only, so harness timing iterations don't pollute it.
        let before = tel.registry.counter("serve.ann.rows_scanned").get();
        let (resp, report) = replay(&engine, &log, &wr_obs::Telemetry::new());
        let scanned = tel.registry.counter("serve.ann.rows_scanned").get() - before;
        let recall = recall_vs(&exact_resp, &resp);
        let scan_fraction = scanned as f64 / (QUERIES * N_ITEMS) as f64;
        if nprobe == NLIST {
            assert_eq!(
                report.top1_checksum, exact_report.top1_checksum,
                "full probe must be bit-identical to the exact scorer"
            );
        }
        if nprobe < NLIST / 4 && recall >= 0.99 && scan_fraction <= 0.25 && frontier.is_none() {
            frontier = Some((nprobe, recall, scan_fraction));
        }

        h.bench(format!("replay_{QUERIES}q/nprobe{nprobe}"), || {
            black_box(replay(&engine, &log, &wr_obs::Telemetry::new()));
        });
        h.annotate("nprobe", nprobe as f64);
        h.annotate("qps", report.qps);
        h.annotate("p50_ms", report.p50_ms);
        h.annotate("p95_ms", report.p95_ms);
        h.annotate("p99_ms", report.p99_ms);
        h.annotate("recall_at_20", recall);
        h.annotate("rows_scanned", scanned as f64);
        h.annotate("scan_fraction", scan_fraction);
        eprintln!(
            "    nprobe {nprobe:>3}: recall@{K} {recall:.4}  scan {:.1}%  {:.0} qps",
            scan_fraction * 100.0,
            report.qps
        );
    }

    // The exact dense scorer as the frontier's reference row.
    h.bench(format!("replay_{QUERIES}q/exact"), || {
        black_box(replay(&exact, &log, &wr_obs::Telemetry::new()));
    });
    h.annotate("qps", exact_report.qps);
    h.annotate("p50_ms", exact_report.p50_ms);
    h.annotate("p95_ms", exact_report.p95_ms);
    h.annotate("p99_ms", exact_report.p99_ms);
    h.annotate("recall_at_20", 1.0);
    h.annotate("scan_fraction", 1.0);

    let (nprobe, recall, fraction) = frontier.expect(
        "frontier gate failed: no nprobe < nlist/4 reached recall@20 >= 0.99 \
         on a quarter-catalog scan budget",
    );
    eprintln!(
        "  frontier: nprobe {nprobe}/{NLIST} -> recall@{K} {recall:.4} at {:.1}% of rows",
        fraction * 100.0
    );
    h.meta("frontier_nprobe", nprobe as f64);
    h.meta("frontier_recall_at_20", recall);
    h.meta("frontier_scan_fraction", fraction);
    h.finish();
}
