//! `freeze().encode(ctx)` ≡ `user_representations(ctx)`, and
//! `score(ctx)` — which encodes through the frozen encoder — ≡ the
//! prediction layer over the taped `user_representations` ×
//! `item_representations` (the chassis' training `logits`, graph ops and
//! all), bit for bit, for every item tower of the SASRec chassis and both
//! full-softmax losses — including the empty-history
//! context and contexts longer than `max_seq` — and the frozen encoder is
//! a snapshot: training or restoring the source model afterwards does not
//! reach it.

use std::sync::Arc;

use wr_autograd::Graph;
use wr_data::{Batch, PAD_ITEM};
use wr_models::{
    Bert4Rec, Cl4SRec, DifSr, EnsembleTower, Fdsa, Gru4Rec, IdTower, ItemTower, LossKind,
    ModelConfig, MoeTower, PwTower, S3Rec, SasRec, TextIdTower, TextTower, VqTower,
};
use wr_nn::FrozenEncoder;
use wr_tensor::{Rng64, Tensor};
use wr_train::{Adam, AdamConfig, SeqRecModel};
use wr_whiten::EnsembleMode;

const N_ITEMS: usize = 24;
const TEXT_DIM: usize = 12;

fn config() -> ModelConfig {
    ModelConfig {
        dim: 8,
        heads: 2,
        blocks: 2,
        ff_mult: 2,
        max_seq: 6,
        dropout: 0.1,
        proj_layers: 2,
        seed: 5,
    }
}

fn text(rng: &mut Rng64) -> Tensor {
    Tensor::randn(&[N_ITEMS, TEXT_DIM], rng)
}

/// Every tower the chassis is built with in the zoo.
fn towers(rng: &mut Rng64) -> Vec<(&'static str, Box<dyn ItemTower>)> {
    let cfg = config();
    let mut towers: Vec<(&'static str, Box<dyn ItemTower>)> = vec![
        ("id", Box::new(IdTower::new(N_ITEMS, cfg.dim, rng))),
        (
            "text",
            Box::new(TextTower::new(text(rng), cfg.dim, cfg.proj_layers, rng)),
        ),
        (
            "text+id",
            Box::new(TextIdTower::new(text(rng), cfg.dim, cfg.proj_layers, rng)),
        ),
        (
            "pw",
            Box::new(PwTower::new(text(rng), cfg.dim, cfg.proj_layers, rng)),
        ),
        ("moe", Box::new(MoeTower::new(text(rng), cfg.dim, 3, rng))),
        ("vq", Box::new(VqTower::new(&text(rng), 3, 4, cfg.dim, rng))),
    ];
    for mode in EnsembleMode::ALL {
        let tower = EnsembleTower::new(text(rng), text(rng), cfg.dim, cfg.proj_layers, mode, rng);
        towers.push((mode.name(), Box::new(tower)));
    }
    towers
}

/// A few optimizer steps, so biases are non-zero and LayerNorms are not
/// the identity affine by the time the model is frozen.
fn train_a_little(model: &mut dyn SeqRecModel, rng: &mut Rng64) {
    let sequences: Vec<Vec<usize>> = (0..8)
        .map(|u| (0..7).map(|t| (u * 3 + t * 5) % N_ITEMS).collect())
        .collect();
    let refs: Vec<&[usize]> = sequences.iter().map(Vec::as_slice).collect();
    let batch = Batch::from_sequences(&refs, config().max_seq);
    let mut optimizer = Adam::new(AdamConfig {
        lr: 1e-2,
        ..AdamConfig::default()
    });
    for _ in 0..3 {
        assert!(model.train_step(&batch, &mut optimizer, rng).is_finite());
    }
}

fn contexts() -> Vec<Vec<usize>> {
    vec![
        vec![PAD_ITEM],                               // MicroBatcher's empty-history context
        vec![7],                                      // length 1
        vec![3, 9, 1],                                // mid
        vec![2, 4, 6, 8, 10, 12],                     // = max_seq
        (0..15).map(|i| (i * 7) % N_ITEMS).collect(), // > max_seq: truncated
        vec![5, 5, 5, 5],
    ]
}

fn freeze(model: &dyn SeqRecModel) -> FrozenEncoder {
    model
        .freeze(Arc::new(model.item_representations()))
        .expect("the SASRec chassis has a frozen form")
}

fn encode(frozen: &FrozenEncoder, contexts: &[&[usize]]) -> Tensor {
    let batch = Batch::inference(contexts, frozen.max_seq());
    frozen.encode(&batch.items, &batch.lengths)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn assert_frozen_matches_taped(model: &dyn SeqRecModel, what: &str) {
    let frozen = freeze(model);
    let owned = contexts();
    let refs: Vec<&[usize]> = owned.iter().map(Vec::as_slice).collect();
    let want = model.user_representations(&refs);
    let got = encode(&frozen, &refs);
    assert_eq!(got.dims(), want.dims(), "{what}");
    assert_eq!(bits(&got), bits(&want), "{what}: batched");
    for (r, ctx) in refs.iter().enumerate() {
        let alone = encode(&frozen, &[ctx]);
        assert_eq!(
            bits(&alone),
            bits(&model.user_representations(&[ctx])),
            "{what}: row {r} alone"
        );
    }
}

/// `model.score` against the taped reference: the prediction layer of
/// `loss` (the arithmetic of the chassis' `logits`) over the taped
/// `user_representations` and `item_representations`.
fn assert_score_matches_taped(model: &dyn SeqRecModel, loss: LossKind, what: &str) {
    let owned = contexts();
    let refs: Vec<&[usize]> = owned.iter().map(Vec::as_slice).collect();
    let reference = |contexts: &[&[usize]]| {
        let g = Graph::new();
        let users = g.constant(model.user_representations(contexts));
        let items = g.constant(model.item_representations());
        let logits = match loss {
            LossKind::CosineSoftmax { tau } => {
                let un = g.l2_normalize_rows(users);
                let vn = g.l2_normalize_rows(items);
                g.scale(g.matmul(un, g.transpose(vn)), 1.0 / tau)
            }
            _ => g.matmul(users, g.transpose(items)),
        };
        g.value(logits)
    };
    let got = model.score(&refs);
    assert_eq!(got.dims(), &[refs.len(), N_ITEMS], "{what}");
    assert_eq!(bits(&got), bits(&reference(&refs)), "{what}: batched score");
    for (r, ctx) in refs.iter().enumerate() {
        assert_eq!(
            bits(&model.score(&[ctx])),
            bits(&reference(&[ctx])),
            "{what}: score of row {r} alone"
        );
    }
}

#[test]
fn every_chassis_tower_and_loss_freezes_bit_identically() {
    for loss in [LossKind::Softmax, LossKind::CosineSoftmax { tau: 0.07 }] {
        let mut rng = Rng64::seed_from(31);
        for (name, tower) in towers(&mut rng) {
            let mut model = SasRec::new(name, tower, loss, config(), &mut rng);
            train_a_little(&mut model, &mut rng);
            let what = format!("{name} / {loss:?}");
            assert_frozen_matches_taped(&model, &what);
            assert_score_matches_taped(&model, loss, &what);
        }
    }
}

#[test]
fn the_id_tower_auxiliary_loss_models_freeze_too() {
    let mut rng = Rng64::seed_from(32);
    let categories: Vec<usize> = (0..N_ITEMS).map(|i| i % 4).collect();
    let mut s3 = S3Rec::new(categories, config(), &mut rng);
    train_a_little(&mut s3, &mut rng);
    assert_frozen_matches_taped(&s3, "S3Rec");
    assert_score_matches_taped(&s3, LossKind::Softmax, "S3Rec");
    let mut cl = Cl4SRec::new(N_ITEMS, config(), &mut rng);
    train_a_little(&mut cl, &mut rng);
    assert_frozen_matches_taped(&cl, "CL4SRec");
    assert_score_matches_taped(&cl, LossKind::Softmax, "CL4SRec");
}

#[test]
fn freeze_is_a_snapshot_of_the_source_model() {
    let mut rng = Rng64::seed_from(33);
    let tower = TextTower::new(text(&mut rng), config().dim, 2, &mut rng);
    let mut model = SasRec::new(
        "snapshot",
        Box::new(tower),
        LossKind::Softmax,
        config(),
        &mut rng,
    );
    train_a_little(&mut model, &mut rng);
    let path = std::env::temp_dir().join("wr_models_frozen_snapshot.wrck");
    wr_nn::save_params(&path, &model.params()).unwrap();

    let frozen = freeze(&model);
    let owned = contexts();
    let refs: Vec<&[usize]> = owned.iter().map(Vec::as_slice).collect();
    let before = encode(&frozen, &refs);

    // Keep training the source: the taped forward moves, the snapshot
    // does not.
    train_a_little(&mut model, &mut rng);
    assert_eq!(bits(&encode(&frozen, &refs)), bits(&before));
    assert_ne!(bits(&model.user_representations(&refs)), bits(&before));

    // Restore the freeze-time weights: the taped forward comes back to
    // the snapshot, which never left.
    wr_nn::restore_params(&model.params(), &wr_nn::load_params(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(bits(&model.user_representations(&refs)), bits(&before));
    assert_eq!(bits(&encode(&frozen, &refs)), bits(&before));
}

#[test]
fn models_without_a_frozen_form_keep_the_taped_encode() {
    let mut rng = Rng64::seed_from(34);
    let categories: Vec<usize> = (0..N_ITEMS).map(|i| i % 4).collect();
    let models: Vec<Box<dyn SeqRecModel>> = vec![
        Box::new(Gru4Rec::new(N_ITEMS, config(), &mut rng)),
        Box::new(Fdsa::new(text(&mut rng), config(), &mut rng)),
        Box::new(Bert4Rec::new(N_ITEMS, config(), &mut rng)),
        Box::new(DifSr::new(categories, config(), &mut rng)),
    ];
    for mut model in models {
        train_a_little(model.as_mut(), &mut rng);
        let items = Arc::new(model.item_representations());
        assert!(
            model.freeze(items).is_none(),
            "{} has no frozen form",
            model.name()
        );
        // … and their `score` is still the taped forward.
        assert_score_matches_taped(model.as_ref(), LossKind::Softmax, &model.name());
    }
}

#[test]
fn a_non_finite_model_does_not_freeze_and_scores_through_the_tape() {
    // A masked non-finite operand poisons the taped row (`0.0 · NaN`) but
    // would never be read by the frozen encoder, so such a model has no
    // frozen form and `score` stays on the tape — the two cannot disagree.
    // Under either loss: the snapshot's cosine rule applies to the taped
    // users as to the frozen ones.
    for loss in [LossKind::Softmax, LossKind::CosineSoftmax { tau: 0.07 }] {
        let mut rng = Rng64::seed_from(35);
        let build = |rng: &mut Rng64| {
            let tower = IdTower::new(N_ITEMS, config().dim, rng);
            let mut model = SasRec::new("poisoned", Box::new(tower), loss, config(), rng);
            train_a_little(&mut model, rng);
            model
        };

        let nan_pad_row = build(&mut rng);
        nan_pad_row.tower.params()[0].update(|t| t.row_mut(PAD_ITEM)[0] = f32::NAN);
        let inf_wk = build(&mut rng);
        inf_wk.encoder.blocks[0]
            .attn
            .wk
            .weight
            .update(|t| t.data_mut()[0] = f32::INFINITY);

        for (model, what) in [(nan_pad_row, "NaN in V[PAD_ITEM]"), (inf_wk, "Inf in wk")] {
            let what = format!("{what} / {loss:?}");
            let items = Arc::new(model.item_representations());
            assert!(model.freeze(items).is_none(), "{what}");
            let owned = contexts();
            let refs: Vec<&[usize]> = owned.iter().map(Vec::as_slice).collect();
            let got = (&model as &dyn SeqRecModel).score(&refs);
            assert!(
                got.data().iter().any(|v| v.is_nan()),
                "{what}: the poison must reach a score"
            );
            assert_score_matches_taped(&model, loss, &what);
        }
    }
}
