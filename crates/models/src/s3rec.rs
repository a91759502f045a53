//! S³-Rec (lite): self-supervised attribute objectives on top of SASRec.
//!
//! The original pre-trains with four mutual-information objectives and then
//! fine-tunes. At this scale we fold the key signal — item–attribute
//! correlation — into training as an auxiliary loss: every loss position
//! additionally predicts the *category* of its target item from the hidden
//! state.

use std::sync::Arc;

use wr_autograd::Graph;
use wr_data::Batch;
use wr_nn::{FrozenEncoder, Linear, Module, Param, Session, TransformerEncoder};
use wr_tensor::{Rng64, Tensor};
use wr_train::{Adam, SeqRecModel};

use crate::sasrec::last_rows;
use crate::{IdTower, ItemTower, ModelConfig};

/// S³-Rec-lite model.
pub struct S3Rec {
    pub tower: IdTower,
    pub encoder: TransformerEncoder,
    pub attr_head: Linear,
    /// Category id per item (the attribute vocabulary).
    pub item_category: Vec<usize>,
    pub n_categories: usize,
    pub lambda: f32,
    pub config: ModelConfig,
}

impl S3Rec {
    pub fn new(item_category: Vec<usize>, config: ModelConfig, rng: &mut Rng64) -> Self {
        let n_items = item_category.len();
        let n_categories = item_category.iter().copied().max().unwrap_or(0) + 1;
        S3Rec {
            tower: IdTower::new(n_items, config.dim, rng),
            encoder: TransformerEncoder::new(config.transformer(), rng),
            attr_head: Linear::new(config.dim, n_categories, true, rng),
            item_category,
            n_categories,
            lambda: 0.2,
            config,
        }
    }
}

impl SeqRecModel for S3Rec {
    fn name(&self) -> String {
        "S3Rec".into()
    }

    fn params(&self) -> Vec<Param> {
        let mut ps = self.tower.params();
        ps.extend(self.encoder.params());
        ps.extend(self.attr_head.params());
        ps
    }

    fn train_step(&mut self, batch: &Batch, optimizer: &mut Adam, rng: &mut Rng64) -> f32 {
        let g = Graph::new();
        let mut sess = Session::train(&g, rng.fork());
        let v = self.tower.all_items(&mut sess);
        let seq_emb = g.gather_rows(v, &batch.items);
        let hidden =
            self.encoder
                .forward_hidden(&mut sess, seq_emb, batch.batch, batch.seq, &batch.lengths);
        let users = g.gather_rows(hidden, &batch.loss_positions);

        let logits = g.matmul(users, g.transpose(v));
        let main = g.cross_entropy(logits, &batch.targets);

        // Attribute prediction: category of the target item.
        let attr_logits = self.attr_head.forward(&mut sess, users);
        let attr_targets: Vec<usize> = batch
            .targets
            .iter()
            .map(|&t| self.item_category[t])
            .collect();
        let attr = g.cross_entropy(attr_logits, &attr_targets);

        let loss = g.add(main, g.scale(attr, self.lambda));
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
        let v = self.tower.all_items(&mut sess);
        let seq_emb = g.gather_rows(v, &batch.items);
        let hidden =
            self.encoder
                .forward_hidden(&mut sess, seq_emb, batch.batch, batch.seq, &batch.lengths);
        g.value(g.gather_rows(hidden, &last_rows(&batch)))
    }

    fn freeze(&self, items: Arc<Tensor>) -> Option<FrozenEncoder> {
        self.encoder.freeze(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_train::{AdamConfig, ModelSnapshot};

    #[test]
    fn s3rec_trains_with_attribute_loss() {
        let mut rng = Rng64::seed_from(1);
        let cfg = ModelConfig {
            dim: 12,
            blocks: 1,
            max_seq: 6,
            dropout: 0.0,
            ..ModelConfig::default()
        };
        // 10 items in 3 categories
        let cats: Vec<usize> = (0..10).map(|i| i % 3).collect();
        let mut model = S3Rec::new(cats, cfg, &mut rng);
        assert_eq!(model.n_categories, 3);
        let mut opt = Adam::new(AdamConfig {
            lr: 5e-3,
            ..AdamConfig::default()
        });
        let seqs: Vec<Vec<usize>> = (0..16).map(|u| (0..5).map(|t| (u + t) % 10).collect()).collect();
        let batches: Vec<Batch> = seqs
            .chunks(8)
            .map(|c| {
                let refs: Vec<&[usize]> = c.iter().map(|s| s.as_slice()).collect();
                Batch::from_sequences(&refs, cfg.max_seq)
            })
            .collect();
        let mut first = 0.0;
        let mut last = 0.0;
        for e in 0..10 {
            let mut sum = 0.0;
            for b in &batches {
                sum += model.train_step(b, &mut opt, &mut rng);
            }
            if e == 0 {
                first = sum;
            }
            last = sum;
        }
        assert!(last < first, "loss {first} -> {last}");
        assert_eq!(ModelSnapshot::of(&model).scores(&model, &[&[0, 1][..]]).dims(), &[1, 10]);
    }
}
