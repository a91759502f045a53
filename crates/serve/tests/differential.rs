//! Differential tests for the serving engine: the batched path must be
//! bit-identical to a naive one-user-at-a-time reference, independent of
//! micro-batch size, thread count, and whether the model came from memory
//! or a checkpoint file.
//!
//! The model under test is the paper's configuration: a SASRec encoder
//! over a `TextTower` built from a whitened pre-trained embedding table
//! (zoo `whiten_relaxed`, G=4), Softmax loss — the WhitenRec+ family; the
//! naive reference is also run on its cosine-loss twin (UniSRec's rule).

mod common;

use std::sync::Arc;

use wr_data::{Batch, PAD_ITEM};
use wr_eval::top_k_filtered;
use wr_models::{IdTower, LossKind, ModelConfig, SasRec};
use wr_serve::{HistoryEncoder, MicroBatcher, QueryLog, Request, ServeConfig, ServeEngine};
use wr_tensor::{Rng64, Tensor};
use wr_train::{Adam, AdamConfig, SeqRecModel};

const N_ITEMS: usize = 60;
const MAX_SEQ: usize = 10;

/// A WhitenRec+-style model: whitened text table → projection tower →
/// SASRec encoder.
fn whitenrec_model(table_seed: u64, init_seed: u64) -> Box<dyn SeqRecModel> {
    common::whitenrec_model_of(
        "whitenrec-diff",
        N_ITEMS,
        24,
        common::model_config(2, MAX_SEQ),
        table_seed,
        init_seed,
    )
}

/// The same tower and encoder ranking by UniSRec's `cos(s, v) / τ`,
/// trained a little: the engine serves it over `V̂`.
fn cosine_model(seed: u64) -> Box<dyn SeqRecModel> {
    let config = common::model_config(2, MAX_SEQ);
    let mut model = common::cosine_model_of("cosine-diff", N_ITEMS, 24, config, seed, seed);
    train_a_little(model.as_mut(), seed);
    model
}

fn engine(seed: u64, max_batch: usize) -> ServeEngine {
    engine_of(whitenrec_model(seed, seed), max_batch)
}

fn engine_of(model: Box<dyn SeqRecModel>, max_batch: usize) -> ServeEngine {
    ServeEngine::new(
        model,
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
    let reqs = queries(100, 1);
    for (engine, what) in [
        (engine(11, 16), "batched vs naive"),
        (engine_of(cosine_model(11), 16), "batched vs naive, cosine"),
    ] {
        let batched = engine.serve(&reqs);
        let naive = engine.serve_naive(&reqs);
        assert_bit_identical(&batched, &naive, what);
    }
}

#[test]
fn a_history_outside_the_catalogue_is_answered_empty_by_both_paths() {
    // A recorded trace is not checked against the catalogue it is replayed
    // on: the reference has to answer an unknown id the way the system
    // does (empty, by `item >= n_items`), not die in the embedding lookup,
    // and the request's batch peers must not notice it.
    let engine = engine(11, 16);
    let clean = queries(40, 9);
    let mut reqs = clean.clone();
    reqs[5].history = vec![3, N_ITEMS + 939];
    reqs[17].history = vec![N_ITEMS];
    reqs[18].history.push(usize::MAX);
    let batched = engine.serve(&reqs);
    let naive = engine.serve_naive(&reqs);
    assert_bit_identical(&batched, &naive, "batched vs naive, unknown ids");
    let untouched = engine.serve(&clean);
    for (r, resp) in batched.iter().enumerate() {
        if [5, 17, 18].contains(&r) {
            assert!(resp.items.is_empty(), "request {r} names an unknown item");
        } else {
            assert_bit_identical(
                std::slice::from_ref(resp),
                std::slice::from_ref(&untouched[r]),
                "a peer of an unknown-id request",
            );
        }
    }
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
    let fresh = whitenrec_model(14, 99);
    wr_nn::restore_params(&fresh.params(), &wr_nn::load_params(&path).unwrap()).unwrap();
    let restored = ServeEngine::new(fresh, cfg);
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

/// A few optimizer steps, so the served weights are not the initial ones.
fn train_a_little(model: &mut dyn SeqRecModel, seed: u64) {
    let mut rng = Rng64::seed_from(seed);
    let sequences: Vec<Vec<usize>> = (0..12)
        .map(|u| {
            (0..MAX_SEQ + 1)
                .map(|t| (u * 7 + t * 11) % N_ITEMS)
                .collect()
        })
        .collect();
    let refs: Vec<&[usize]> = sequences.iter().map(Vec::as_slice).collect();
    let batch = Batch::from_sequences(&refs, MAX_SEQ);
    let mut optimizer = Adam::new(AdamConfig {
        lr: 1e-2,
        ..AdamConfig::default()
    });
    for _ in 0..3 {
        assert!(model
            .train_step(&batch, &mut optimizer, &mut rng)
            .is_finite());
    }
}

#[test]
fn serving_ranks_exactly_what_the_evaluator_scores() {
    // `SeqRecModel::score` — what `evaluate_cases` and the trainer's
    // validation rank — and `ServeEngine::serve` share one encoder, so the
    // served top-k is the top-k of the evaluator's score row: same ids,
    // same score bits, for empty, short, full and over-long histories.
    let trained = |seed| {
        let mut model = whitenrec_model(seed, seed);
        train_a_little(model.as_mut(), seed);
        model
    };
    let offline = trained(17);
    let cfg = ServeConfig {
        k: 10,
        max_batch: 8,
        max_seq: MAX_SEQ,
        filter_seen: true,
    };
    let engine = ServeEngine::new(trained(17), cfg);

    let mut reqs = queries(60, 7);
    reqs[0].history.clear();
    reqs[1].history.truncate(1);
    let contexts: Vec<&[usize]> = reqs
        .iter()
        .map(|r| MicroBatcher::sanitize(&r.history))
        .collect();
    let scores = offline.score(&contexts);
    let served = engine.serve(&reqs);
    assert_eq!(served.len(), reqs.len());
    for (r, (req, resp)) in reqs.iter().zip(&served).enumerate() {
        let want = top_k_filtered(scores.row(r), cfg.k, &req.history);
        assert_eq!(resp.items.len(), want.len(), "k at {r}");
        for (got, want) in resp.items.iter().zip(&want) {
            assert_eq!(got.item, want.item, "item in response {r}");
            assert_eq!(
                got.score.to_bits(),
                want.score.to_bits(),
                "score bits in response {r}"
            );
        }
    }
}

#[test]
fn a_non_finite_model_is_served_through_the_taped_encode() {
    // The frozen encoder never reads a masked operand, the taped
    // forward multiplies it by zero — equal on finite values only. A model
    // with a NaN or an infinity therefore has no frozen form and serving
    // encodes it through the tape: the user rows the engine scores are the
    // reference's, NaNs included (from there the shard's score quarantine
    // answers a poisoned row from its finite scores, as it always has).
    let build = |poison: fn(&SasRec)| {
        let mut rng = Rng64::seed_from(18);
        let config = ModelConfig {
            dim: 16,
            heads: 2,
            blocks: 2,
            max_seq: MAX_SEQ,
            dropout: 0.0,
            ..ModelConfig::default()
        };
        let tower = IdTower::new(N_ITEMS, config.dim, &mut rng);
        let mut model = SasRec::new(
            "poisoned",
            Box::new(tower),
            LossKind::Softmax,
            config,
            &mut rng,
        );
        train_a_little(&mut model, 18);
        poison(&model);
        Box::new(model)
    };
    let nan_pad_row: fn(&SasRec) =
        |m| m.tower.params()[0].update(|t| t.row_mut(PAD_ITEM)[0] = f32::NAN);
    let inf_wk: fn(&SasRec) = |m| {
        let wk = &m.encoder.blocks[0].attn.wk;
        wk.weight.update(|t| t.data_mut()[0] = f32::INFINITY);
    };

    let mut reqs = queries(40, 8);
    reqs[0].history.clear();
    let contexts: Vec<&[usize]> = reqs
        .iter()
        .map(|r| MicroBatcher::sanitize(&r.history))
        .collect();
    for (poison, what) in [(nan_pad_row, "NaN in V[PAD_ITEM]"), (inf_wk, "Inf in wk")] {
        let reference = build(poison);
        let items = Arc::new(reference.item_representations());
        assert!(
            reference.freeze(items.clone()).is_none(),
            "{what}: must not freeze"
        );

        let want = reference.user_representations(&contexts);
        assert!(
            want.data().iter().any(|v| !v.is_finite()),
            "{what}: the poison must reach a user row, or the case proves nothing"
        );
        let got = HistoryEncoder::new(build(poison)).encode_requests(&reqs);
        assert!(got.invalid.is_empty());
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&got.users),
            bits(&want),
            "{what}: serving encode vs taped"
        );

        let cfg = ServeConfig {
            k: 10,
            max_batch: 8,
            max_seq: MAX_SEQ,
            filter_seen: true,
        };
        for resp in ServeEngine::new(build(poison), cfg).serve(&reqs) {
            assert!(resp.items.iter().all(|s| s.score.is_finite()), "{what}");
        }
    }
}
