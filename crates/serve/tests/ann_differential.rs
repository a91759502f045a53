//! ANN differential gates (ISSUE 6).
//!
//! Two anchors keep the IVF scorer honest:
//!
//! 1. **Exactness at full probe** — `nprobe = nlist` must be
//!    *bit-identical* to the dense gemm scorer on a seeded 2048-query
//!    trace, at `WR_THREADS` 1 and 8, pinned via the replay
//!    `top1_checksum` (and, stronger, per-item score bits).
//! 2. **Recall at partial probe** — at `nprobe ≪ nlist` the index must
//!    still find ≥ 99% of the exact top-20 while scanning at most a
//!    quarter of the catalog (telemetry-verified rows-scanned budget).
//!
//! The model is the paper's serving configuration: whitened text table →
//! projection tower → SASRec encoder (whitening is exactly what makes
//! the IVF cells well-behaved — the isotropy argument in `wr_ann`); the
//! exactness anchor also runs its cosine-loss twin, indexed over `V̂`.

mod common;

use std::sync::Arc;

use wr_serve::{replay, QueryLog, Response, Scorer, ServeConfig, ServeEngine};
use wr_train::SeqRecModel;

const N_ITEMS: usize = 2048;
const MAX_SEQ: usize = 10;
const NLIST: usize = 128;

fn whitenrec_model(table_seed: u64, init_seed: u64) -> Box<dyn SeqRecModel> {
    common::whitenrec_model_of(
        "whitenrec-ann",
        N_ITEMS,
        24,
        common::model_config(1, MAX_SEQ),
        table_seed,
        init_seed,
    )
}

fn cfg(k: usize) -> ServeConfig {
    ServeConfig {
        k,
        max_batch: 32,
        max_seq: MAX_SEQ,
        filter_seen: true,
    }
}

/// The same tower ranking by UniSRec's `cos(s, v) / τ`: the cache — and
/// so the index — holds `V̂`.
fn cosine_model(seed: u64) -> Box<dyn SeqRecModel> {
    common::cosine_model_of(
        "cosine-ann",
        N_ITEMS,
        24,
        common::model_config(1, MAX_SEQ),
        seed,
        seed,
    )
}

fn exact_engine(seed: u64, k: usize) -> ServeEngine {
    ServeEngine::new(whitenrec_model(seed, seed), cfg(k))
}

/// An IVF engine over the *same* weights as [`exact_engine`] (identical
/// seeds → identical model → identical user vectors and item table).
fn ann_engine(seed: u64, k: usize, nprobe: usize) -> ServeEngine {
    with_index(exact_engine(seed, k), nprobe)
}

/// `engine` with an index built over its cache (its ranked table).
fn with_index(engine: ServeEngine, nprobe: usize) -> ServeEngine {
    let index = engine.cache().build_ivf(NLIST, 7).unwrap();
    engine.with_ann(Arc::new(index), nprobe)
}

fn assert_bit_identical(a: &[Response], b: &[Response], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: response count");
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ra.id, rb.id, "{what}: id at {i}");
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

#[test]
fn full_probe_replay_is_bit_identical_to_exact() {
    let log = QueryLog::synthetic(2048, N_ITEMS, MAX_SEQ + 3, 41);
    let cases = [
        ("inner product", exact_engine(23, 10), ann_engine(23, 10, NLIST)),
        (
            "cosine",
            ServeEngine::new(cosine_model(23), cfg(10)),
            with_index(ServeEngine::new(cosine_model(23), cfg(10)), NLIST),
        ),
    ];
    for (rule, exact, ann) in cases {
        assert_eq!(ann.scorer(), Scorer::Ivf { nprobe: NLIST });
        let mut checksums = Vec::new();
        for threads in [1usize, 8] {
            wr_runtime::set_threads(threads);
            let (exact_resp, exact_report) = replay(&exact, &log, &wr_obs::Telemetry::new());
            let (ann_resp, ann_report) = replay(&ann, &log, &wr_obs::Telemetry::new());
            assert_bit_identical(
                &ann_resp,
                &exact_resp,
                &format!("{rule}: nprobe=nlist vs exact, {threads} threads"),
            );
            assert_eq!(
                ann_report.top1_checksum, exact_report.top1_checksum,
                "{rule}: top1_checksum diverged at {threads} threads"
            );
            checksums.push(ann_report.top1_checksum);
        }
        wr_runtime::set_threads(1);
        assert_eq!(checksums[0], checksums[1], "{rule}: checksum not thread-stable");
    }
}

#[test]
fn oversized_nprobe_clamps_to_full_probe() {
    let log = QueryLog::synthetic(64, N_ITEMS, MAX_SEQ + 3, 42);
    let full = ann_engine(29, 10, NLIST);
    let clamped = ann_engine(29, 10, NLIST * 10);
    assert_bit_identical(
        &clamped.serve(&log.queries),
        &full.serve(&log.queries),
        "nprobe clamp",
    );
}

#[test]
fn partial_probe_recall_at_20_is_high_on_quarter_budget() {
    const K: usize = 20;
    const NPROBE: usize = 31; // < NLIST / 4
    let log = QueryLog::synthetic(256, N_ITEMS, MAX_SEQ + 3, 43);
    let exact = exact_engine(31, K);
    let tel = wr_obs::Telemetry::new();
    let ann = ann_engine(31, K, NPROBE).with_telemetry(tel.clone());

    let exact_resp = exact.serve(&log.queries);
    let ann_resp = ann.serve(&log.queries);

    let mut hits = 0usize;
    let mut total = 0usize;
    for (e, a) in exact_resp.iter().zip(&ann_resp) {
        total += e.items.len();
        for want in &e.items {
            if a.items.iter().any(|got| got.item == want.item) {
                hits += 1;
            }
        }
    }
    let recall = hits as f64 / total as f64;
    assert!(
        recall >= 0.99,
        "recall@{K} = {recall:.4} at nprobe={NPROBE}/{NLIST} (hits {hits}/{total})"
    );

    // Scan budget: on average at most a quarter of the catalog per query.
    let scanned = tel.registry.counter("serve.ann.rows_scanned").get() as f64;
    let budget = (log.len() * N_ITEMS) as f64 / 4.0;
    assert!(
        scanned <= budget,
        "scanned {scanned} rows > quarter-catalog budget {budget}"
    );
    let probed = tel.registry.counter("serve.ann.lists_probed").get();
    assert_eq!(probed as usize, log.len() * NPROBE);
}

/// A one-request call through the index answers exactly as the same
/// request inside a larger batch, and at full probe as the exact engine.
#[test]
fn a_one_request_call_through_the_index_matches_the_same_request_in_a_batch() {
    let ann = ann_engine(37, 10, 4);
    let exact = exact_engine(37, 10);
    let request = |id| wr_serve::Request {
        id,
        history: vec![5usize, 17, 300],
    };
    let ann_solo = ann.serve(&[request(0)]);
    let ann_batch = ann.serve(&[request(1), request(0)]);
    assert_eq!(ann_solo[0], ann_batch[1], "solo vs batched ANN path");
    // A one-request call at full probe matches the exact engine too.
    let full = ann_engine(37, 10, NLIST);
    assert_eq!(full.serve(&[request(0)]), exact.serve(&[request(0)]));
}
