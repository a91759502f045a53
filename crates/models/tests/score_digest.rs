//! `score` is pinned, bit for bit, for every model the repo can build.
//!
//! The digests were first computed with the ten hand-written
//! `SeqRecModel::score` bodies of PR 17's tree, before they were replaced
//! by the one rule (`ModelSnapshot::scores`: `users · Vᵀ`, or `ŝ · V̂ᵀ · 1/τ`
//! for the two UniSRec rows, whose own override it later absorbed without
//! moving a bit); a
//! change to the scoring path that moves one bit of one model's score
//! moves its digest. They were re-pinned once, in PR 20, when libm's
//! `tanhf` under GELU and `Tensor::tanh` became `wr_tensor::tanh_scalar`
//! (a fixed rational, within 4.1 × 10⁻⁷ of tanh): every row with a
//! Transformer FFN or a GRU on its path moved, and the six rows without
//! one — `Pop`, `BM3`, `GRCN`, in both tables — kept PR 17's values, which
//! is the evidence that nothing else changed (old → new table in
//! CHANGES.md). The digests no longer depend on the box's C library.
//! They were re-pinned a second time when dropout's keep bit became a hash
//! of the factor's position (`wr_tensor::KeepMask`) instead of the next
//! draw of the session's `Rng64`: every row whose model drops out moved,
//! and the seven rows that drop nothing — `Pop`, `BM3`, `GRCN` in both
//! tables, and `GRU4Rec` — kept their values (old → new table in
//! CHANGES.md).
//!
//! Covered: every name `zoo::build` accepts — called
//! through `Box<dyn SeqRecModel>`, so a provided method the box forgets
//! to forward (`cosine_tau`, the two UniSRec rows) shows here — plus
//! the models built directly, each after a few optimizer steps, on the
//! empty-history context, a single item, a mid-length history, one of
//! exactly `max_seq`, one longer, and a repeated item; batched and one
//! row at a time, and once more against a snapshot built beforehand (how
//! `wr_train::evaluate` scores).

use wr_data::{Batch, PAD_ITEM};
use wr_models::{zoo, Bert4Rec, Bm3Lite, DifSr, GrcnLite, ModelConfig, Popularity};
use wr_tensor::{Rng64, Tensor};
use wr_train::{Adam, AdamConfig, ModelSnapshot, SeqRecModel};

const N_ITEMS: usize = 24;
const TEXT_DIM: usize = 16;

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

fn sequences() -> Vec<Vec<usize>> {
    (0..8)
        .map(|u| (0..7).map(|t| (u * 3 + t * 5) % N_ITEMS).collect())
        .collect()
}

/// A few optimizer steps, so biases are non-zero and LayerNorms are not
/// the identity affine by the time the model is scored.
fn train_a_little<M: SeqRecModel>(model: &mut M, rng: &mut Rng64) {
    let sequences = sequences();
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
        vec![5, 5, 5, 5],                             // repeated item
    ]
}

fn fnv1a(digest: &mut u64, t: &Tensor) {
    for v in t.data() {
        for byte in v.to_bits().to_le_bytes() {
            *digest = (*digest ^ byte as u64).wrapping_mul(0x100000001b3);
        }
    }
}

/// FNV-1a over the bits of the batched score, then of every row scored
/// alone. Generic over `M` so a `Box<dyn SeqRecModel>` is scored through
/// the box's own `impl SeqRecModel`; each `score` is what
/// `dyn SeqRecModel::score` runs, a snapshot built for the call.
fn score_digest<M: SeqRecModel>(model: &M) -> u64 {
    let score = |contexts: &[&[usize]]| ModelSnapshot::of(model).scores(model, contexts);
    let owned = contexts();
    let refs: Vec<&[usize]> = owned.iter().map(Vec::as_slice).collect();
    let batched = score(&refs);
    assert_eq!(batched.dims(), &[refs.len(), N_ITEMS], "{}", model.name());
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let once = ModelSnapshot::of(model);
    assert!(
        bits(&once.scores(model, &refs)) == bits(&batched),
        "{}: a snapshot built once differs from score",
        model.name()
    );
    let mut digest = 0xcbf29ce484222325u64;
    fnv1a(&mut digest, &batched);
    for (r, ctx) in refs.iter().enumerate() {
        let alone = score(&[ctx]);
        assert!(
            bits(&alone) == batched.row(r).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{}: row {r} alone differs from its batched row",
            model.name()
        );
        fnv1a(&mut digest, &alone);
    }
    digest
}

fn assert_pinned(name: &str, got: u64, pinned: &[(&str, u64)]) {
    let want = pinned
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no pinned digest for {name}: {got:#018x}"))
        .1;
    assert_eq!(got, want, "{name}: score moved: {got:#018x}");
}

/// Every name `zoo::build` accepts: the Table III roster, the extra
/// baselines, and one of each parameterized form.
const ZOO: [(&str, u64); 25] = [
    ("GRCN", 0x6d67ed26c9d43505),
    ("BM3", 0xa3fd9468262d934d),
    ("SASRec(ID)", 0x2ffdbf97abae62ad),
    ("CL4SRec", 0xbc6129b3ae0e0ff5),
    ("SASRec(T)", 0xc63052e22c1b83a9),
    ("SASRec(T+ID)", 0x569e33882b6b5d55),
    ("S3Rec", 0xff6964066fab3311),
    ("FDSA", 0x06f84bb7a6fd6889),
    ("UniSRec(T)", 0x977ee3ccecec4d59),
    ("UniSRec(T+ID)", 0xe4891f6ee09461f5),
    ("VQRec", 0xf98ff6a4420dad5d),
    ("WhitenRec", 0x0263285b5812ffb5),
    ("WhitenRec+", 0x41c8909c16e4ea0d),
    ("DIF-SR", 0xc19b76ba07aa3859),
    ("GRU4Rec", 0xf5bedfa207b7e7ed),
    ("BERT4Rec", 0xe1a8272d8b07b609),
    ("Pop", 0x2111aea958efbd25),
    ("WhitenRec(T+ID)", 0xae136d5d351beef5),
    ("WhitenRec+(T+ID)", 0x53df2788d77c82a5),
    ("WhitenRec@G=8", 0xb57107d901821415),
    ("WhitenRec+@G=8", 0x9105e2bcbdcfae25),
    ("WhitenRec+(GatedID)", 0x477b14f92aa4bac9),
    ("WhitenRec+@Sum", 0x41c8909c16e4ea0d),
    ("WhitenRec+@Concat", 0xfd2503995b731269),
    ("WhitenRec+@Attn", 0xff398ef7a2eb83d1),
];

#[test]
fn every_zoo_model_scores_the_pinned_bits_through_the_box() {
    let mut rng = Rng64::seed_from(42);
    let emb = Tensor::randn(&[N_ITEMS, TEXT_DIM], &mut rng);
    let cats: Vec<usize> = (0..N_ITEMS).map(|i| i % 4).collect();
    let seqs = sequences();
    let inputs = zoo::ZooInputs {
        embeddings: &emb,
        item_categories: &cats,
        train_sequences: &seqs,
        relaxed_groups: 4,
    };
    for name in zoo::WARM_ROSTER {
        assert!(ZOO.iter().any(|(n, _)| *n == name), "{name} not swept");
    }
    for (name, _) in ZOO {
        let mut rng = Rng64::seed_from(7);
        let mut model: Box<dyn SeqRecModel> = zoo::build(name, &inputs, config(), &mut rng);
        train_a_little(&mut model, &mut rng);
        assert_pinned(name, score_digest(&model), &ZOO);
    }
}

const DIRECT: [(&str, u64); 5] = [
    ("BM3", 0x415b98c70b86e2fd),
    ("GRCN", 0xa9192bb5b30cdf4d),
    ("Pop", 0x2111aea958efbd25),
    ("BERT4Rec", 0x2824f58ad98eb365),
    ("DIF-SR", 0xc042b7f1de19597d),
];

#[test]
fn directly_built_models_score_the_pinned_bits() {
    let mut rng = Rng64::seed_from(43);
    let emb = Tensor::randn(&[N_ITEMS, TEXT_DIM], &mut rng);
    let cats: Vec<usize> = (0..N_ITEMS).map(|i| i % 4).collect();
    let seqs = sequences();

    let mut bm3 = Bm3Lite::new(emb.clone(), config(), &mut rng);
    train_a_little(&mut bm3, &mut rng);
    assert_pinned("BM3", score_digest(&bm3), &DIRECT);

    let mut grcn = GrcnLite::new(emb, &seqs, 4, config(), &mut rng);
    train_a_little(&mut grcn, &mut rng);
    assert_pinned("GRCN", score_digest(&grcn), &DIRECT);

    let pop = Popularity::new(&seqs, N_ITEMS);
    assert_pinned("Pop", score_digest(&pop), &DIRECT);

    let mut bert = Bert4Rec::new(N_ITEMS, config(), &mut rng);
    train_a_little(&mut bert, &mut rng);
    assert_pinned("BERT4Rec", score_digest(&bert), &DIRECT);

    let mut dif = DifSr::new(cats, config(), &mut rng);
    train_a_little(&mut dif, &mut rng);
    assert_pinned("DIF-SR", score_digest(&dif), &DIRECT);
}
