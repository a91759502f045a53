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
//! CHANGES.md). They were re-pinned a third time when libm's `expf` under
//! every softmax, `Tensor::exp` and `Tensor::sigmoid` became
//! `wr_tensor::exp_scalar` (a fixed Cephes-style polynomial, within 1 ulp
//! of the correctly rounded exp): every row whose model trains through the
//! softmax cross-entropy moved, and the two `Pop` rows, which neither train
//! nor take an exp, kept their values (old → new table in CHANGES.md).
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
    ("GRCN", 0xda3b36fd19674381),
    ("BM3", 0x1a1f59af2c61b105),
    ("SASRec(ID)", 0xd7e25ad6ae56bfcd),
    ("CL4SRec", 0xbfe962e6cc154da5),
    ("SASRec(T)", 0x70e43c26e828f4b1),
    ("SASRec(T+ID)", 0x1c93175b0bc8d4ed),
    ("S3Rec", 0xe1a6bcf20541ad55),
    ("FDSA", 0x0b877e953d26cbd9),
    ("UniSRec(T)", 0x22f8f578f7385645),
    ("UniSRec(T+ID)", 0x32be60d2754bd46d),
    ("VQRec", 0x619cd53583a707c5),
    ("WhitenRec", 0x1856d3b78210609d),
    ("WhitenRec+", 0x1283ef41fe45ef3d),
    ("DIF-SR", 0xb45a034589a249b5),
    ("GRU4Rec", 0x96641f12915114cd),
    ("BERT4Rec", 0x275a0cb9643b2925),
    ("Pop", 0x2111aea958efbd25),
    ("WhitenRec(T+ID)", 0x09e4377d7496af41),
    ("WhitenRec+(T+ID)", 0x1f6bc871e7018a15),
    ("WhitenRec@G=8", 0x774bdb483f9a32a5),
    ("WhitenRec+@G=8", 0xe231bd911b95eb21),
    ("WhitenRec+(GatedID)", 0xbdba77f9a678f2c5),
    ("WhitenRec+@Sum", 0x1283ef41fe45ef3d),
    ("WhitenRec+@Concat", 0x6836d46b4f0f8085),
    ("WhitenRec+@Attn", 0xfd93affb10c9fe15),
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
    ("BM3", 0x2a429fa313aedf8d),
    ("GRCN", 0x7889004559f77bb5),
    ("Pop", 0x2111aea958efbd25),
    ("BERT4Rec", 0x6cd7444df0d03ecd),
    ("DIF-SR", 0xf2a10bc51f8f454d),
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
