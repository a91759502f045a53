//! CL4SRec: contrastive learning for sequential recommendation.
//!
//! SASRec^ID plus a contrastive auxiliary task built from three sequence
//! augmentations — crop, mask, reorder — with an InfoNCE loss over the two
//! augmented views of every sequence in the batch.

use std::sync::Arc;

use wr_autograd::{Graph, Var};
use wr_data::Batch;
use wr_nn::{FrozenEncoder, Module, Param, Session, TransformerEncoder};
use wr_tensor::{Rng64, Tensor};
use wr_train::{Adam, SeqRecModel};

use crate::sasrec::last_rows;
use crate::{IdTower, ItemTower, ModelConfig};

/// The three augmentation operators of CL4SRec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Augmentation {
    /// Keep a random contiguous sub-sequence of ratio `η` (default 0.6).
    Crop,
    /// Replace a random `γ` fraction of items with the mask token (here:
    /// item dropout — masked items are removed, mirroring RecBole's
    /// implementation at short lengths).
    Mask,
    /// Shuffle a random contiguous sub-sequence of ratio `β`.
    Reorder,
}

/// Apply one random augmentation to a sequence.
pub fn augment_sequence(seq: &[usize], rng: &mut Rng64) -> Vec<usize> {
    if seq.len() < 2 {
        return seq.to_vec();
    }
    let choice = match rng.below(3) {
        0 => Augmentation::Crop,
        1 => Augmentation::Mask,
        _ => Augmentation::Reorder,
    };
    apply_augmentation(seq, choice, rng)
}

/// Apply a specific augmentation (exposed for testing).
pub fn apply_augmentation(seq: &[usize], aug: Augmentation, rng: &mut Rng64) -> Vec<usize> {
    let n = seq.len();
    match aug {
        Augmentation::Crop => {
            let keep = ((n as f32 * 0.6).round() as usize).clamp(1, n);
            let start = rng.below(n - keep + 1);
            seq.iter().skip(start).take(keep).copied().collect()
        }
        Augmentation::Mask => {
            let out: Vec<usize> = seq
                .iter()
                .cloned()
                .filter(|_| !rng.chance(0.3))
                .collect();
            if out.is_empty() {
                seq.get(rng.below(n)).copied().into_iter().collect()
            } else {
                out
            }
        }
        Augmentation::Reorder => {
            let span = ((n as f32 * 0.6).round() as usize).clamp(1, n);
            let start = rng.below(n - span + 1);
            let mut out = seq.to_vec();
            if let Some(span) = out.get_mut(start..start + span) {
                rng.shuffle(span);
            }
            out
        }
    }
}

/// CL4SRec model.
pub struct Cl4SRec {
    pub tower: IdTower,
    pub encoder: TransformerEncoder,
    pub config: ModelConfig,
    /// Weight λ of the contrastive loss (paper default 0.1).
    pub lambda: f32,
    /// InfoNCE temperature.
    pub tau: f32,
}

impl Cl4SRec {
    pub fn new(n_items: usize, config: ModelConfig, rng: &mut Rng64) -> Self {
        Cl4SRec {
            tower: IdTower::new(n_items, config.dim, rng),
            encoder: TransformerEncoder::new(config.transformer(), rng),
            config,
            lambda: 0.1,
            tau: 1.0,
        }
    }

    fn encode_batch(&self, sess: &mut Session, batch: &Batch) -> (Var, Var) {
        let g = sess.graph;
        let v = self.tower.all_items(sess);
        let seq_emb = g.gather_rows(v, &batch.items);
        let hidden =
            self.encoder
                .forward_hidden(sess, seq_emb, batch.batch, batch.seq, &batch.lengths);
        (v, hidden)
    }

    /// InfoNCE between two aligned views `[b, d]`: positives are matching
    /// rows, negatives are every other row of the second view.
    fn info_nce(&self, g: &Graph, a: Var, b: Var) -> Var {
        let an = g.l2_normalize_rows(a);
        let bn = g.l2_normalize_rows(b);
        let sim = g.scale(g.matmul(an, g.transpose(bn)), 1.0 / self.tau);
        let n = g.dims(a).first().copied().unwrap_or(0);
        let targets: Vec<usize> = (0..n).collect();
        g.cross_entropy(sim, &targets)
    }
}

impl SeqRecModel for Cl4SRec {
    fn name(&self) -> String {
        "CL4SRec".into()
    }

    fn params(&self) -> Vec<Param> {
        let mut ps = self.tower.params();
        ps.extend(self.encoder.params());
        ps
    }

    fn train_step(&mut self, batch: &Batch, optimizer: &mut Adam, rng: &mut Rng64) -> f32 {
        // Rebuild the raw sequences from the batch to derive two augmented
        // views per sequence.
        let sequences = batch.contexts();
        let aug1: Vec<Vec<usize>> = sequences.iter().map(|s| augment_sequence(s, rng)).collect();
        let aug2: Vec<Vec<usize>> = sequences.iter().map(|s| augment_sequence(s, rng)).collect();
        let refs1: Vec<&[usize]> = aug1.iter().map(|s| s.as_slice()).collect();
        let refs2: Vec<&[usize]> = aug2.iter().map(|s| s.as_slice()).collect();
        let b1 = Batch::inference(&refs1, batch.seq);
        let b2 = Batch::inference(&refs2, batch.seq);

        let g = Graph::new();
        let mut sess = Session::train(&g, rng.fork());

        // Main next-item loss.
        let (v, hidden) = self.encode_batch(&mut sess, batch);
        let users = g.gather_rows(hidden, &batch.loss_positions);
        let logits = g.matmul(users, g.transpose(v));
        let main = g.cross_entropy(logits, &batch.targets);

        // Contrastive loss between the two augmented views.
        let (_, h1) = self.encode_batch(&mut sess, &b1);
        let (_, h2) = self.encode_batch(&mut sess, &b2);
        let u1 = g.gather_rows(h1, &last_rows(&b1));
        let u2 = g.gather_rows(h2, &last_rows(&b2));
        let nce = self.info_nce(&g, u1, u2);

        let loss = g.add(main, g.scale(nce, self.lambda));
        let value = g.value(loss).item();
        g.backward(loss);
        optimizer.step(&g, sess.bindings());
        value
    }

    fn item_representations(&self) -> Tensor {
        self.tower.emb.table.get()
    }

    fn user_representations(&self, contexts: &[&[usize]]) -> Tensor {
        let batch = Batch::inference(contexts, self.config.max_seq);
        let g = Graph::new();
        let mut sess = Session::eval(&g);
        let (_, hidden) = self.encode_batch(&mut sess, &batch);
        let users = g.gather_rows(hidden, &last_rows(&batch));
        g.value(users)
    }

    fn freeze(&self, items: Arc<Tensor>) -> Option<FrozenEncoder> {
        self.encoder.freeze(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_train::AdamConfig;

    #[test]
    fn crop_keeps_contiguous_subsequence() {
        let mut rng = Rng64::seed_from(1);
        let seq: Vec<usize> = (10..20).collect();
        let out = apply_augmentation(&seq, Augmentation::Crop, &mut rng);
        assert_eq!(out.len(), 6); // 60% of 10
        // contiguity: each element is predecessor + 1
        for w in out.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
    }

    #[test]
    fn mask_drops_items_but_never_all() {
        let mut rng = Rng64::seed_from(2);
        let seq: Vec<usize> = (0..10).collect();
        for _ in 0..50 {
            let out = apply_augmentation(&seq, Augmentation::Mask, &mut rng);
            assert!(!out.is_empty());
            assert!(out.len() <= 10);
            // masked view preserves order
            for w in out.windows(2) {
                assert!(w[1] > w[0]);
            }
        }
    }

    #[test]
    fn reorder_is_a_permutation() {
        let mut rng = Rng64::seed_from(3);
        let seq: Vec<usize> = (0..12).collect();
        let out = apply_augmentation(&seq, Augmentation::Reorder, &mut rng);
        assert_eq!(out.len(), 12);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, seq);
    }

    #[test]
    fn training_step_is_finite_and_learns() {
        let mut rng = Rng64::seed_from(4);
        let cfg = ModelConfig {
            dim: 16,
            max_seq: 8,
            dropout: 0.0,
            blocks: 1,
            ..ModelConfig::default()
        };
        let mut model = Cl4SRec::new(10, cfg, &mut rng);
        let mut opt = Adam::new(AdamConfig {
            lr: 5e-3,
            ..AdamConfig::default()
        });
        let seqs: Vec<Vec<usize>> = (0..24).map(|u| (0..6).map(|t| (u + t) % 10).collect()).collect();
        let batches: Vec<Batch> = seqs
            .chunks(8)
            .map(|c| {
                let refs: Vec<&[usize]> = c.iter().map(|s| s.as_slice()).collect();
                Batch::from_sequences(&refs, cfg.max_seq)
            })
            .collect();
        let mut first = 0.0;
        let mut last = 0.0;
        for e in 0..12 {
            let mut sum = 0.0;
            for b in &batches {
                let l = model.train_step(b, &mut opt, &mut rng);
                assert!(l.is_finite());
                sum += l;
            }
            if e == 0 {
                first = sum;
            }
            last = sum;
        }
        assert!(last < first, "loss {first} -> {last}");
    }
}
