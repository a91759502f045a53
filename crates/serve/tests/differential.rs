//! Differential tests for the serving engine: the batched path must be
//! bit-identical to a naive one-user-at-a-time reference, independent of
//! micro-batch size, thread count, and whether the model came from memory
//! or a checkpoint file.
//!
//! The model under test is the paper's configuration: a SASRec encoder
//! over a `TextTower` built from a whitened pre-trained embedding table
//! (zoo `whiten_relaxed`, G=4), Softmax loss — the WhitenRec+ family.

use wr_models::{zoo, LossKind, ModelConfig, SasRec, TextTower};
use wr_serve::{QueryLog, Request, ServeConfig, ServeEngine};
use wr_tensor::{Rng64, Tensor};
use wr_train::SeqRecModel;

const N_ITEMS: usize = 60;
const MAX_SEQ: usize = 10;

/// A WhitenRec+-style model: whitened text table → projection tower →
/// SASRec encoder. The frozen table is derived from `table_seed` and the
/// trainable parameters from `init_seed`; a checkpoint stores only the
/// latter (the whitened table is a pre-processing artifact shipped beside
/// it, exactly as in the paper's pipeline).
fn whitenrec_model(table_seed: u64, init_seed: u64) -> Box<SasRec> {
    let mut table_rng = Rng64::seed_from(table_seed);
    let raw = Tensor::randn(&[N_ITEMS, 24], &mut table_rng);
    let whitened = zoo::whiten_relaxed(&raw, 4);
    let mut rng = Rng64::seed_from(init_seed);
    let config = ModelConfig {
        dim: 16,
        heads: 2,
        blocks: 2,
        max_seq: MAX_SEQ,
        dropout: 0.0,
        ..ModelConfig::default()
    };
    let tower = TextTower::new(whitened, config.dim, 2, &mut rng);
    Box::new(SasRec::new(
        "whitenrec-diff",
        Box::new(tower),
        LossKind::Softmax,
        config,
        &mut rng,
    ))
}

fn engine(seed: u64, max_batch: usize) -> ServeEngine {
    ServeEngine::new(
        whitenrec_model(seed, seed),
        ServeConfig {
            k: 10,
            max_batch,
            max_seq: MAX_SEQ,
            filter_seen: true,
        },
    )
}

fn queries(n: usize, seed: u64) -> Vec<Request> {
    QueryLog::synthetic(n, N_ITEMS, MAX_SEQ + 3, seed).queries
}

/// Bit-level equality: item ids and score bit patterns (an `==` on f32
/// would conflate -0.0/0.0 and reject NaN).
fn assert_bit_identical(a: &[wr_serve::Response], b: &[wr_serve::Response], what: &str) {
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
fn batched_matches_naive_scorer() {
    let engine = engine(11, 16);
    let reqs = queries(100, 1);
    let batched = engine.serve(&reqs);
    let naive = engine.serve_naive(&reqs);
    assert_bit_identical(&batched, &naive, "batched vs naive");
}

#[test]
fn batch_size_does_not_change_results() {
    // The same queries served under different micro-batch bounds (1 row
    // per batch up to everything in one batch) must agree bit-for-bit:
    // a response may not depend on which neighbors shared its batch.
    let reqs = queries(33, 2);
    let reference = engine(12, 1).serve(&reqs);
    for max_batch in [2, 7, 33, 64] {
        let got = engine(12, max_batch).serve(&reqs);
        assert_bit_identical(&got, &reference, &format!("max_batch={max_batch}"));
    }
}

#[test]
fn thread_count_does_not_change_results() {
    let engine = engine(13, 8);
    let reqs = queries(64, 3);
    wr_runtime::set_threads(1);
    let serial = engine.serve(&reqs);
    let naive_serial = engine.serve_naive(&reqs);
    wr_runtime::set_threads(8);
    let threaded = engine.serve(&reqs);
    wr_runtime::set_threads(1);
    assert_bit_identical(&serial, &threaded, "WR_THREADS=1 vs 8");
    assert_bit_identical(&serial, &naive_serial, "batched vs naive, serial");
}

#[test]
fn checkpoint_round_trip_serves_identically() {
    // Save the trained(-init) model, restore into an instance built around
    // the same frozen whitened table but with *differently seeded*
    // trainable parameters, and serve: every trainable parameter is
    // overwritten by the checkpoint, so responses must be bit-identical.
    let dir = std::env::temp_dir().join("wr_serve_differential");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("diff.wrck");

    let original = whitenrec_model(14, 14);
    wr_nn::save_params(&path, &original.params()).unwrap();
    let cfg = ServeConfig {
        k: 10,
        max_batch: 8,
        max_seq: MAX_SEQ,
        filter_seen: true,
    };
    let in_memory = ServeEngine::new(original, cfg);
    let restored = ServeEngine::from_checkpoint(whitenrec_model(14, 99), &path, cfg).unwrap();
    std::fs::remove_file(&path).ok();

    let reqs = queries(48, 4);
    assert_bit_identical(
        &restored.serve(&reqs),
        &in_memory.serve(&reqs),
        "checkpoint vs in-memory",
    );
    assert_bit_identical(
        &restored.serve(&reqs),
        &restored.serve_naive(&reqs),
        "restored batched vs naive",
    );
}

#[test]
fn instrumentation_does_not_change_results() {
    // Telemetry is write-only: the same model served with a full
    // Telemetry attached (spans, counters, gauges, replay latency
    // histogram) must answer bit-for-bit like the bare engine, at every
    // thread count.
    let reqs = queries(50, 6);
    let plain = engine(16, 8).serve(&reqs);

    let tel = wr_obs::Telemetry::new();
    let observed_engine = engine(16, 8).with_telemetry(tel.clone());
    let log = QueryLog {
        queries: reqs.clone(),
    };
    for threads in [1usize, 8] {
        wr_runtime::set_threads(threads);
        let direct = observed_engine.serve(&reqs);
        assert_bit_identical(&direct, &plain, &format!("instrumented, {threads} threads"));
        let (replayed, _report) = wr_serve::replay(&observed_engine, &log, &tel);
        assert_bit_identical(&replayed, &plain, &format!("replayed, {threads} threads"));
    }
    wr_runtime::set_threads(1);

    // And the telemetry actually saw the traffic.
    assert!(tel.registry.counter("serve.batches").get() >= 7 * 4);
    assert_eq!(tel.registry.counter("serve.requests").get(), 50 * 4);
    assert!(!tel.tracer.events().is_empty());
}

#[test]
fn filtering_never_leaks_seen_items_under_batching() {
    let engine = engine(15, 4);
    let reqs = queries(40, 5);
    for (req, resp) in reqs.iter().zip(engine.serve(&reqs)) {
        for s in &resp.items {
            assert!(
                !req.history.contains(&s.item),
                "request {} was recommended seen item {}",
                req.id,
                s.item
            );
        }
    }
}
