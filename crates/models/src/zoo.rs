//! Model factory for the experiment harness.
//!
//! Builds every row of Tables III/IV by name, handling the whitening
//! pre-processing each model expects.

use wr_autograd::Var;
use wr_nn::{Embedding, Module, Param, Session};
use wr_tensor::{Rng64, Tensor};
use wr_train::SeqRecModel;
use wr_whiten::{group_whiten, EnsembleMode, WhiteningMethod, WhiteningTransform, DEFAULT_EPS};

use crate::{
    Bm3Lite, Cl4SRec, EnsembleTower, Fdsa, GrcnLite, Gru4Rec, IdTower, ItemTower, LossKind,
    ModelConfig, MoeTower, S3Rec, SasRec, TextIdTower, TextTower, VqTower,
};

/// Everything a model might need at construction time.
pub struct ZooInputs<'a> {
    /// Raw (un-whitened) pre-trained text embeddings `[n_items, d_t]`.
    pub embeddings: &'a Tensor,
    /// Category id per item (S³-Rec's attributes).
    pub item_categories: &'a [usize],
    /// Training sequences (GRCN's co-occurrence graph).
    pub train_sequences: &'a [Vec<usize>],
    /// Group count for relaxed whitening (WhitenRec+ default 4).
    pub relaxed_groups: usize,
}

/// Any tower plus trainable ID embeddings (UniSRec's transductive setting).
struct PlusIdTower {
    inner: Box<dyn ItemTower>,
    id: Embedding,
}

impl ItemTower for PlusIdTower {
    fn all_items(&self, sess: &mut Session) -> Var {
        let t = self.inner.all_items(sess);
        let i = sess.bind(&self.id.table);
        sess.graph.add(t, i)
    }

    fn params(&self) -> Vec<Param> {
        let mut ps = self.inner.params();
        ps.extend(self.id.params());
        ps
    }

    fn n_items(&self) -> usize {
        self.inner.n_items()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }
}

/// Extension (the paper's Table VIII future-work direction): *gated* ID
/// fusion instead of plain summation. A sigmoid gate computed from the
/// text representation decides per item and dimension how much of the ID
/// embedding enters: `V = T + sigmoid(T W_g) * E_id`. Cold items — whose
/// ID rows are untrained noise — can be gated out; the plain sum of
/// Table VIII cannot do that.
struct GatedIdTower {
    inner: Box<dyn ItemTower>,
    id: Embedding,
    gate: wr_nn::Linear,
}

impl GatedIdTower {
    fn new(inner: Box<dyn ItemTower>, n_items: usize, dim: usize, rng: &mut Rng64) -> Self {
        GatedIdTower {
            inner,
            id: Embedding::new(n_items, dim, rng),
            gate: wr_nn::Linear::new(dim, dim, true, rng),
        }
    }
}

impl ItemTower for GatedIdTower {
    fn all_items(&self, sess: &mut Session) -> Var {
        let g = sess.graph;
        let t = self.inner.all_items(sess);
        let i = sess.bind(&self.id.table);
        let gate = g.sigmoid(self.gate.forward(sess, t));
        g.add(t, g.mul(gate, i))
    }

    fn params(&self) -> Vec<Param> {
        let mut ps = self.inner.params();
        ps.extend(self.id.params());
        ps.extend(self.gate.params());
        ps
    }

    fn n_items(&self) -> usize {
        self.inner.n_items()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }
}

/// The Table III roster, in paper column order.
pub const WARM_ROSTER: [&str; 13] = [
    "GRCN",
    "BM3",
    "SASRec(ID)",
    "CL4SRec",
    "SASRec(T)",
    "SASRec(T+ID)",
    "S3Rec",
    "FDSA",
    "UniSRec(T)",
    "UniSRec(T+ID)",
    "VQRec",
    "WhitenRec",
    "WhitenRec+",
];

/// ZCA-whiten embeddings fully (`G = 1`).
pub fn whiten_full(embeddings: &Tensor) -> Tensor {
    WhiteningTransform::fit(embeddings, WhiteningMethod::Zca, DEFAULT_EPS).apply(embeddings)
}

/// Relaxed whitening with `groups` groups.
pub fn whiten_relaxed(embeddings: &Tensor, groups: usize) -> Tensor {
    group_whiten(embeddings, groups, WhiteningMethod::Zca, DEFAULT_EPS)
}

/// Build a model by its Table III name. Panics on unknown names — the
/// roster is a closed set.
///
/// Every SASRec-chassis row is an item tower and a loss under one
/// [`SasRec::new`]; the tower draws from `rng` before the encoder does.
pub fn build(name: &str, inputs: &ZooInputs, config: ModelConfig, rng: &mut Rng64) -> Box<dyn SeqRecModel> {
    let emb = inputs.embeddings;
    let n_items = emb.rows();
    let (dim, layers, groups) = (config.dim, config.proj_layers, inputs.relaxed_groups);
    let ensemble = |g: usize, mode: EnsembleMode, rng: &mut Rng64| {
        let (full, relaxed) = (whiten_full(emb), whiten_relaxed(emb, g));
        EnsembleTower::new(full, relaxed, dim, layers, mode, rng)
    };
    let plus_id = |inner: Box<dyn ItemTower>, rng: &mut Rng64| PlusIdTower {
        inner,
        id: Embedding::new(n_items, dim, rng),
    };
    let (softmax, cosine) = (LossKind::Softmax, LossKind::CosineSoftmax { tau: 0.07 });
    let (tower, loss): (Box<dyn ItemTower>, LossKind) = match name {
        "GRCN" => {
            return Box::new(GrcnLite::new(emb.clone(), inputs.train_sequences, 6, config, rng))
        }
        "BM3" => return Box::new(Bm3Lite::new(emb.clone(), config, rng)),
        "CL4SRec" => return Box::new(Cl4SRec::new(n_items, config, rng)),
        "S3Rec" => return Box::new(S3Rec::new(inputs.item_categories.to_vec(), config, rng)),
        "DIF-SR" => {
            return Box::new(crate::DifSr::new(inputs.item_categories.to_vec(), config, rng))
        }
        "FDSA" => return Box::new(Fdsa::new(emb.clone(), config, rng)),
        "GRU4Rec" => return Box::new(Gru4Rec::new(n_items, config, rng)),
        "BERT4Rec" => return Box::new(crate::Bert4Rec::new(n_items, config, rng)),
        "Pop" => return Box::new(crate::Popularity::new(inputs.train_sequences, n_items)),
        "SASRec(ID)" => (Box::new(IdTower::new(n_items, dim, rng)), softmax),
        "SASRec(T)" => (Box::new(TextTower::new(emb.clone(), dim, layers, rng)), softmax),
        "SASRec(T+ID)" => (Box::new(TextIdTower::new(emb.clone(), dim, layers, rng)), softmax),
        "UniSRec(T)" => (Box::new(MoeTower::new(emb.clone(), dim, 4, rng)), cosine),
        "UniSRec(T+ID)" => {
            let text = Box::new(MoeTower::new(emb.clone(), dim, 4, rng));
            (Box::new(plus_id(text, rng)), cosine)
        }
        "VQRec" => {
            let m = if emb.cols() % 8 == 0 { 8 } else { 4 };
            let k = 32.min(n_items.max(2) - 1).max(2);
            (Box::new(VqTower::new(emb, m, k, dim, rng)), softmax)
        }
        "WhitenRec" => (Box::new(TextTower::new(whiten_full(emb), dim, layers, rng)), softmax),
        "WhitenRec+" => (Box::new(ensemble(groups, EnsembleMode::Sum, rng)), softmax),
        "WhitenRec(T+ID)" => {
            let text = Box::new(TextTower::new(whiten_full(emb), dim, layers, rng));
            (Box::new(plus_id(text, rng)), softmax)
        }
        "WhitenRec+(T+ID)" => {
            let text = Box::new(ensemble(groups, EnsembleMode::Sum, rng));
            (Box::new(plus_id(text, rng)), softmax)
        }
        // Extension: gated ID fusion over the WhitenRec+ ensemble.
        "WhitenRec+(GatedID)" => {
            let text = Box::new(ensemble(groups, EnsembleMode::Sum, rng));
            (Box::new(GatedIdTower::new(text, n_items, dim, rng)), softmax)
        }
        // Parameterized names: "WhitenRec@G=8" (relaxed-only, Fig. 5) and
        // "WhitenRec+@G=8" (ensemble with that relaxed view, Fig. 8),
        // "WhitenRec+@Concat" / "WhitenRec+@Attn" (Table VII).
        other => {
            let tower: Box<dyn ItemTower> = if let Some(gs) = other.strip_prefix("WhitenRec@G=") {
                let g: usize = gs.parse().expect("group count");
                Box::new(TextTower::new(whiten_relaxed(emb, g), dim, layers, rng))
            } else if let Some(gs) = other.strip_prefix("WhitenRec+@G=") {
                let g: usize = gs.parse().expect("group count");
                Box::new(ensemble(g, EnsembleMode::Sum, rng))
            } else if let Some(mode_name) = other.strip_prefix("WhitenRec+@") {
                let mode = match mode_name {
                    "Sum" => EnsembleMode::Sum,
                    "Concat" => EnsembleMode::Concat,
                    "Attn" => EnsembleMode::Attn,
                    m => panic!("unknown ensemble mode {m}"),
                };
                Box::new(ensemble(groups, mode, rng))
            } else {
                panic!("unknown model name: {other}")
            };
            (tower, softmax)
        }
    };
    Box::new(SasRec::new(name, tower, loss, config, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_data::Batch;
    use wr_train::{Adam, AdamConfig};

    fn tiny_inputs() -> (Tensor, Vec<usize>, Vec<Vec<usize>>) {
        let mut rng = Rng64::seed_from(42);
        let emb = Tensor::randn(&[24, 16], &mut rng);
        let cats: Vec<usize> = (0..24).map(|i| i % 4).collect();
        let seqs: Vec<Vec<usize>> = (0..20).map(|u| (0..6).map(|t| (u + t) % 24).collect()).collect();
        (emb, cats, seqs)
    }

    #[test]
    fn every_roster_model_builds_and_steps() {
        let (emb, cats, seqs) = tiny_inputs();
        let inputs = ZooInputs {
            embeddings: &emb,
            item_categories: &cats,
            train_sequences: &seqs,
            relaxed_groups: 4,
        };
        let config = ModelConfig {
            dim: 16,
            blocks: 1,
            max_seq: 6,
            dropout: 0.1,
            proj_layers: 2,
            ..ModelConfig::default()
        };
        let refs: Vec<&[usize]> = seqs[..8].iter().map(|s| s.as_slice()).collect();
        let batch = Batch::from_sequences(&refs, config.max_seq);
        for name in WARM_ROSTER {
            let mut rng = Rng64::seed_from(7);
            let mut model = build(name, &inputs, config, &mut rng);
            assert_eq!(model.name(), name);
            let mut opt = Adam::new(AdamConfig::default());
            let loss = model.train_step(&batch, &mut opt, &mut rng);
            assert!(loss.is_finite(), "{name}: loss {loss}");
            let scores = model.score(&[&[1, 2, 3][..]]);
            assert_eq!(scores.dims(), &[1, 24], "{name}");
            assert_eq!(scores.non_finite_count(), 0, "{name}");
        }
    }

    #[test]
    fn parameterized_names() {
        let (emb, cats, seqs) = tiny_inputs();
        let inputs = ZooInputs {
            embeddings: &emb,
            item_categories: &cats,
            train_sequences: &seqs,
            relaxed_groups: 4,
        };
        let config = ModelConfig {
            dim: 16,
            blocks: 1,
            max_seq: 6,
            ..ModelConfig::default()
        };
        for name in [
            "WhitenRec@G=8",
            "WhitenRec+@G=8",
            "WhitenRec+@Concat",
            "WhitenRec+@Attn",
            "WhitenRec(T+ID)",
            "WhitenRec+(T+ID)",
            "GRU4Rec",
        ] {
            let mut rng = Rng64::seed_from(8);
            let model = build(name, &inputs, config, &mut rng);
            assert!(model.param_count() > 0, "{name}");
        }
    }

    #[test]
    fn gated_id_extension_builds_and_gates() {
        let (emb, cats, seqs) = tiny_inputs();
        let inputs = ZooInputs {
            embeddings: &emb,
            item_categories: &cats,
            train_sequences: &seqs,
            relaxed_groups: 4,
        };
        let config = ModelConfig {
            dim: 16,
            blocks: 1,
            max_seq: 6,
            ..ModelConfig::default()
        };
        let mut rng = Rng64::seed_from(21);
        let mut model = build("WhitenRec+(GatedID)", &inputs, config, &mut rng);
        // Carries the ID table + gate on top of the ensemble head.
        let plain = build("WhitenRec+", &inputs, config, &mut rng);
        assert_eq!(
            model.param_count(),
            plain.param_count() + 24 * 16 + (16 * 16 + 16)
        );
        let refs: Vec<&[usize]> = seqs[..4].iter().map(|s| s.as_slice()).collect();
        let batch = wr_data::Batch::from_sequences(&refs, config.max_seq);
        let mut opt = wr_train::Adam::new(wr_train::AdamConfig::default());
        let loss = model.train_step(&batch, &mut opt, &mut rng);
        assert!(loss.is_finite());
    }

    #[test]
    #[should_panic(expected = "unknown model name")]
    fn unknown_name_panics() {
        let (emb, cats, seqs) = tiny_inputs();
        let inputs = ZooInputs {
            embeddings: &emb,
            item_categories: &cats,
            train_sequences: &seqs,
            relaxed_groups: 4,
        };
        let mut rng = Rng64::seed_from(9);
        build("NotAModel", &inputs, ModelConfig::default(), &mut rng);
    }

    #[test]
    fn whitenrec_has_fewer_params_than_id_variants() {
        let (emb, cats, seqs) = tiny_inputs();
        let inputs = ZooInputs {
            embeddings: &emb,
            item_categories: &cats,
            train_sequences: &seqs,
            relaxed_groups: 4,
        };
        let config = ModelConfig {
            dim: 16,
            blocks: 1,
            max_seq: 6,
            ..ModelConfig::default()
        };
        let mut rng = Rng64::seed_from(10);
        let wr = build("WhitenRec", &inputs, config, &mut rng);
        let wrid = build("WhitenRec(T+ID)", &inputs, config, &mut rng);
        // Table IX: the +ID variant carries the n_items×d embedding matrix.
        assert_eq!(wrid.param_count(), wr.param_count() + 24 * 16);
    }
}
