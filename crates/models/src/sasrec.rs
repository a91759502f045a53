//! The SASRec chassis shared by most of the zoo.

use std::sync::Arc;

use wr_autograd::{Graph, Var};
use wr_data::Batch;
use wr_nn::{FrozenEncoder, Module, Param, Session, TransformerConfig, TransformerEncoder};
use wr_tensor::{Rng64, Tensor};
use wr_train::{Adam, SeqRecModel};

use crate::ItemTower;

/// Prediction-layer loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossKind {
    /// Full softmax cross-entropy over raw inner products (SASRec family;
    /// the paper's Eq. 1).
    Softmax,
    /// Cross-entropy over cosine similarities with temperature `tau`
    /// (UniSRec's fine-tuning objective).
    CosineSoftmax { tau: f32 },
    /// Sampled softmax with `negatives` uniform negatives per positive —
    /// the production-scale approximation of the full softmax (the paper's
    /// 21k–40k-item catalogs are near the practical full-softmax limit).
    SampledSoftmax { negatives: usize },
    /// Bayesian personalized ranking: `−log σ(s⁺ − s⁻)` with one uniform
    /// negative per positive (original SASRec's objective).
    Bpr,
}

/// Shared hyper-parameters for the zoo.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    pub dim: usize,
    pub heads: usize,
    pub blocks: usize,
    pub ff_mult: usize,
    pub max_seq: usize,
    pub dropout: f32,
    /// Hidden layers in the text projection head (paper default 2).
    pub proj_layers: usize,
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            dim: 32,
            heads: 2,
            blocks: 2,
            ff_mult: 2,
            max_seq: 20,
            dropout: 0.2,
            proj_layers: 2,
            seed: 1234,
        }
    }
}

impl ModelConfig {
    pub fn transformer(&self) -> TransformerConfig {
        TransformerConfig {
            dim: self.dim,
            heads: self.heads,
            blocks: self.blocks,
            ff_mult: self.ff_mult,
            max_seq: self.max_seq,
            dropout: self.dropout,
            bidirectional: false,
        }
    }
}

/// Rows of the padded `[batch * seq, dim]` hidden states that hold the user
/// representations: left padding puts every sequence's last real position
/// at `seq - 1`.
pub(crate) fn last_rows(batch: &Batch) -> Vec<usize> {
    (0..batch.batch)
        .map(|b| b * batch.seq + batch.seq - 1)
        .collect()
}

/// SASRec with a pluggable item tower — this one type *is* SASRec^ID,
/// SASRec^T, SASRec^T+ID, WhitenRec, WhitenRec+, and UniSRec depending on
/// the tower and loss it's built with (see [`crate::zoo`]).
pub struct SasRec {
    pub model_name: String,
    pub tower: Box<dyn ItemTower>,
    pub encoder: TransformerEncoder,
    pub loss: LossKind,
    pub config: ModelConfig,
    /// When set, training logits span only these items (cold-start
    /// protocol); `None` = full catalog.
    train_candidates: Option<Vec<usize>>,
}

impl SasRec {
    pub fn new(
        name: impl Into<String>,
        tower: Box<dyn ItemTower>,
        loss: LossKind,
        config: ModelConfig,
        rng: &mut Rng64,
    ) -> Self {
        assert_eq!(tower.dim(), config.dim, "tower dim must match encoder dim");
        SasRec {
            model_name: name.into(),
            tower,
            encoder: TransformerEncoder::new(config.transformer(), rng),
            loss,
            config,
            train_candidates: None,
        }
    }

    /// Hidden states for a batch: returns `(V, hidden)` graph nodes.
    fn forward(&self, sess: &mut Session, batch: &Batch) -> (Var, Var) {
        let g = sess.graph;
        let v = self.tower.all_items(sess);
        let seq_emb = g.gather_rows(v, &batch.items);
        let hidden =
            self.encoder
                .forward_hidden(sess, seq_emb, batch.batch, batch.seq, &batch.lengths);
        (v, hidden)
    }

    /// Logits for arbitrary user-representation rows against all items.
    fn logits(&self, g: &Graph, users: Var, v: Var) -> Var {
        match self.loss {
            LossKind::Softmax | LossKind::SampledSoftmax { .. } | LossKind::Bpr => {
                g.matmul(users, g.transpose(v))
            }
            LossKind::CosineSoftmax { tau } => {
                let un = g.l2_normalize_rows(users);
                let vn = g.l2_normalize_rows(v);
                g.scale(g.matmul(un, g.transpose(vn)), 1.0 / tau)
            }
        }
    }

    /// One step of a sampled objective: per loss position, the positive
    /// target plus `negatives` uniform negatives (resampled if they collide
    /// with the positive).
    fn sampled_step(
        &mut self,
        batch: &Batch,
        optimizer: &mut Adam,
        rng: &mut Rng64,
        negatives: usize,
        bpr: bool,
    ) -> f32 {
        assert!(negatives >= 1);
        let n_items = self.tower.n_items();
        let g = Graph::new();
        let mut sess = Session::train(&g, rng.fork());
        let (v, hidden) = self.forward(&mut sess, batch);
        let users = g.gather_rows(hidden, &batch.loss_positions); // [p, d]

        // Candidate rows per position: positive first, then negatives.
        let width = 1 + negatives;
        let mut cand: Vec<usize> = Vec::with_capacity(batch.targets.len() * width);
        for &t in &batch.targets {
            cand.push(t);
            for _ in 0..negatives {
                let mut neg = rng.below(n_items);
                while neg == t {
                    neg = rng.below(n_items);
                }
                cand.push(neg);
            }
        }
        let cand_rows = g.gather_rows(v, &cand); // [p*width, d]
        // Per-position scores: elementwise dot of the repeated user rows
        // with their candidates.
        let rep: Vec<usize> = (0..batch.targets.len())
            .flat_map(|p| std::iter::repeat(p).take(width))
            .collect();
        let users_rep = g.gather_rows(users, &rep); // [p*width, d]
        let prod = g.mul(users_rep, cand_rows);
        let d = self.config.dim;
        let ones = g.constant(Tensor::ones(&[d, 1]));
        let scores = g.matmul(prod, ones); // [p*width, 1]
        let scores = g.reshape(scores, &[batch.targets.len(), width]);

        let loss = if bpr {
            // −log σ(s⁺ − s⁻), averaged (width == 2).
            let pos = g.slice_cols(scores, 0, 1);
            let neg = g.slice_cols(scores, 1, 2);
            let diff = g.sub(pos, neg);
            let p = g.sigmoid(diff);
            let logp = g.ln(g.add_scalar(p, 1e-8));
            g.scale(g.mean_all(logp), -1.0)
        } else {
            // Softmax CE over [positive | negatives]: target index 0.
            let targets = vec![0usize; batch.targets.len()];
            g.cross_entropy(scores, &targets)
        };
        let value = g.value(loss).item();
        g.backward(loss);
        optimizer.step(&g, sess.bindings());
        value
    }
}

impl SeqRecModel for SasRec {
    fn name(&self) -> String {
        self.model_name.clone()
    }

    fn params(&self) -> Vec<Param> {
        let mut ps = self.tower.params();
        ps.extend(self.encoder.params());
        ps
    }

    fn train_step(&mut self, batch: &Batch, optimizer: &mut Adam, rng: &mut Rng64) -> f32 {
        // Sampled objectives bypass the all-items logits path entirely.
        match self.loss {
            LossKind::SampledSoftmax { negatives } => {
                return self.sampled_step(batch, optimizer, rng, negatives, false)
            }
            LossKind::Bpr => return self.sampled_step(batch, optimizer, rng, 1, true),
            _ => {}
        }
        let g = Graph::new();
        let mut sess = Session::train(&g, rng.fork());
        let (v, hidden) = self.forward(&mut sess, batch);
        let user_rows = g.gather_rows(hidden, &batch.loss_positions);
        let (v_train, targets) = match &self.train_candidates {
            None => (v, batch.targets.clone()),
            Some(cands) => {
                // Map targets into candidate-local indices; items outside
                // the candidate set never appear as cold-training targets
                // by construction of the cold split.
                let mut local = vec![usize::MAX; self.tower.n_items()];
                for (j, &c) in cands.iter().enumerate() {
                    local[c] = j;
                }
                let targets: Vec<usize> = batch
                    .targets
                    .iter()
                    .map(|&t| {
                        let l = local[t];
                        assert!(l != usize::MAX, "target {t} outside train candidates");
                        l
                    })
                    .collect();
                (g.gather_rows(v, cands), targets)
            }
        };
        let logits = self.logits(&g, user_rows, v_train);
        let loss = g.cross_entropy(logits, &targets);
        let value = g.value(loss).item();
        g.backward(loss);
        optimizer.step(&g, sess.bindings());
        value
    }

    /// A cosine-softmax model ranks as it trains ([`Self::logits`]); every
    /// other loss — sampled softmax and BPR included — by the raw product.
    fn cosine_tau(&self) -> Option<f32> {
        match self.loss {
            LossKind::CosineSoftmax { tau } => Some(tau),
            _ => None,
        }
    }

    fn item_representations(&self) -> Tensor {
        let g = Graph::new();
        let mut sess = Session::eval(&g);
        let v = self.tower.all_items(&mut sess);
        g.value(v)
    }

    fn user_representations(&self, contexts: &[&[usize]]) -> Tensor {
        let batch = Batch::inference(contexts, self.config.max_seq);
        let g = Graph::new();
        let mut sess = Session::eval(&g);
        let (_, hidden) = self.forward(&mut sess, &batch);
        g.value(g.gather_rows(hidden, &last_rows(&batch)))
    }

    fn freeze(&self, items: Arc<Tensor>) -> Option<FrozenEncoder> {
        self.encoder.freeze(items)
    }

    fn set_train_candidates(&mut self, candidates: Option<Vec<usize>>) {
        self.train_candidates = candidates;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IdTower, TextTower};
    use wr_train::{AdamConfig, ModelSnapshot};

    pub(crate) fn tiny_config() -> ModelConfig {
        ModelConfig {
            dim: 16,
            heads: 2,
            blocks: 1,
            ff_mult: 2,
            max_seq: 8,
            dropout: 0.0,
            proj_layers: 2,
            seed: 3,
        }
    }

    /// Cyclic next-item data: item i → i+1 mod n.
    fn cyclic_batches(n_items: usize, n_seq: usize, max_seq: usize) -> Vec<Batch> {
        let mut seqs = Vec::new();
        for u in 0..n_seq {
            let start = u % n_items;
            let s: Vec<usize> = (0..6).map(|t| (start + t) % n_items).collect();
            seqs.push(s);
        }
        seqs.chunks(8)
            .map(|chunk| {
                let refs: Vec<&[usize]> = chunk.iter().map(|s| s.as_slice()).collect();
                Batch::from_sequences(&refs, max_seq)
            })
            .collect()
    }

    #[test]
    fn sasrec_id_learns_cyclic_pattern() {
        let mut rng = Rng64::seed_from(1);
        let n_items = 10;
        let cfg = tiny_config();
        let tower = IdTower::new(n_items, cfg.dim, &mut rng);
        let mut model = SasRec::new("SASRec(ID)", Box::new(tower), LossKind::Softmax, cfg, &mut rng);
        let mut opt = Adam::new(AdamConfig {
            lr: 5e-3,
            ..AdamConfig::default()
        });
        let batches = cyclic_batches(n_items, 40, cfg.max_seq);
        let mut first = 0.0;
        let mut last = 0.0;
        for epoch in 0..30 {
            let mut sum = 0.0;
            for b in &batches {
                sum += model.train_step(b, &mut opt, &mut rng);
            }
            if epoch == 0 {
                first = sum;
            }
            last = sum;
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");

        // Prediction: after [3,4,5] the next item should be 6.
        let ctx: &[usize] = &[3, 4, 5];
        let scores = ModelSnapshot::of(&model).scores(&model, &[ctx]);
        let best = scores.row(0).iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        assert_eq!(best, 6, "scores {:?}", scores.row(0));
    }

    #[test]
    fn text_tower_model_trains() {
        let mut rng = Rng64::seed_from(2);
        let n_items = 12;
        let cfg = tiny_config();
        let emb = Tensor::randn(&[n_items, 24], &mut rng);
        let tower = TextTower::new(emb, cfg.dim, cfg.proj_layers, &mut rng);
        let mut model = SasRec::new("SASRec(T)", Box::new(tower), LossKind::Softmax, cfg, &mut rng);
        let mut opt = Adam::new(AdamConfig {
            lr: 5e-3,
            ..AdamConfig::default()
        });
        let batches = cyclic_batches(n_items, 24, cfg.max_seq);
        let mut losses = Vec::new();
        for _ in 0..10 {
            let mut sum = 0.0;
            for b in &batches {
                sum += model.train_step(b, &mut opt, &mut rng);
            }
            losses.push(sum);
        }
        assert!(losses.last().unwrap() < &(losses[0] * 0.9));
        // Frozen table: the tower only trains its MLP-2 head
        // (24→16 then 16→16, with biases) — never the n_items×24 table.
        let tower_params: usize = model.tower.params().iter().map(|p| p.numel()).sum();
        assert_eq!(tower_params, 24 * 16 + 16 + 16 * 16 + 16);
    }

    #[test]
    fn cosine_loss_variant_runs() {
        let mut rng = Rng64::seed_from(3);
        let cfg = tiny_config();
        let emb = Tensor::randn(&[10, 16], &mut rng);
        let tower = TextTower::new(emb, cfg.dim, 1, &mut rng);
        let mut model = SasRec::new(
            "UniSRec-like",
            Box::new(tower),
            LossKind::CosineSoftmax { tau: 0.1 },
            cfg,
            &mut rng,
        );
        let mut opt = Adam::new(AdamConfig::default());
        for b in cyclic_batches(10, 8, cfg.max_seq) {
            let loss = model.train_step(&b, &mut opt, &mut rng);
            assert!(loss.is_finite());
        }
        let s = ModelSnapshot::of(&model).scores(&model, &[&[1, 2][..]]);
        assert_eq!(s.dims(), &[1, 10]);
    }

    #[test]
    fn sampled_losses_learn_the_cycle() {
        for loss in [LossKind::SampledSoftmax { negatives: 4 }, LossKind::Bpr] {
            let mut rng = Rng64::seed_from(9);
            let n_items = 10;
            let cfg = tiny_config();
            let tower = IdTower::new(n_items, cfg.dim, &mut rng);
            let mut model = SasRec::new("sampled", Box::new(tower), loss, cfg, &mut rng);
            let mut opt = Adam::new(AdamConfig {
                lr: 5e-3,
                ..AdamConfig::default()
            });
            let batches = cyclic_batches(n_items, 40, cfg.max_seq);
            let mut first = 0.0;
            let mut last = 0.0;
            for e in 0..30 {
                let mut sum = 0.0;
                for b in &batches {
                    let l = model.train_step(b, &mut opt, &mut rng);
                    assert!(l.is_finite(), "{loss:?} produced non-finite loss");
                    sum += l;
                }
                if e == 0 {
                    first = sum;
                }
                last = sum;
            }
            assert!(last < first, "{loss:?}: loss {first} -> {last}");
            // the learned scores still rank the true successor on top
            let scores = ModelSnapshot::of(&model).scores(&model, &[&[3, 4, 5][..]]);
            let best = scores
                .row(0)
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            assert_eq!(best, 6, "{loss:?} failed to learn the cycle");
        }
    }

    #[test]
    fn representations_shapes() {
        let mut rng = Rng64::seed_from(4);
        let cfg = tiny_config();
        let tower = IdTower::new(9, cfg.dim, &mut rng);
        let model = SasRec::new("m", Box::new(tower), LossKind::Softmax, cfg, &mut rng);
        assert_eq!(model.item_representations().dims(), &[9, cfg.dim]);
        let u = model.user_representations(&[&[1, 2][..], &[3][..]]);
        assert_eq!(u.dims(), &[2, cfg.dim]);
    }
}
