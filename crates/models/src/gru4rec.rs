//! GRU4Rec: recurrent sequence encoder over ID embeddings.

use wr_autograd::Graph;
use wr_data::Batch;
use wr_nn::{GruStack, Module, Param, Session};
use wr_tensor::{Rng64, Tensor};
use wr_train::{Adam, SeqRecModel};

use crate::{IdTower, ItemTower, ModelConfig};

/// GRU4Rec with a full-softmax objective (the strongest published variant
/// at this scale). The final GRU state is the user representation; scoring
/// is the inner product against the ID embedding table.
pub struct Gru4Rec {
    pub tower: IdTower,
    pub gru: GruStack,
    pub config: ModelConfig,
}

impl Gru4Rec {
    pub fn new(n_items: usize, config: ModelConfig, rng: &mut Rng64) -> Self {
        Gru4Rec {
            tower: IdTower::new(n_items, config.dim, rng),
            gru: GruStack::new(config.dim, config.dim, 2, rng),
            config,
        }
    }
}

impl SeqRecModel for Gru4Rec {
    fn name(&self) -> String {
        "GRU4Rec".into()
    }

    fn params(&self) -> Vec<Param> {
        let mut ps = self.tower.params();
        ps.extend(self.gru.params());
        ps
    }

    fn train_step(&mut self, batch: &Batch, optimizer: &mut Adam, rng: &mut Rng64) -> f32 {
        let g = Graph::new();
        let mut sess = Session::train(&g, rng.fork());
        let v = self.tower.all_items(&mut sess);
        let seq_emb = g.gather_rows(v, &batch.items);
        let users = self
            .gru
            .forward_user(&mut sess, seq_emb, batch.batch, batch.seq, &batch.lengths);
        // GRU predicts each sequence's final next item (session-based style).
        let targets: Vec<usize> = final_targets(batch);
        let logits = g.matmul(users, g.transpose(v));
        let loss = g.cross_entropy(logits, &targets);
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
        let users = self
            .gru
            .forward_user(&mut sess, seq_emb, batch.batch, batch.seq, &batch.lengths);
        g.value(users)
    }
}

/// The last target of every sequence in the batch.
pub(crate) fn final_targets(batch: &Batch) -> Vec<usize> {
    let mut targets = vec![0usize; batch.batch];
    for (&pos, &t) in batch.loss_positions.iter().zip(&batch.targets) {
        targets[pos / batch.seq] = t; // positions are ordered; last write wins
    }
    targets
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_train::{AdamConfig, ModelSnapshot};

    #[test]
    fn final_targets_extraction() {
        let s1: &[usize] = &[1, 2, 3];
        let s2: &[usize] = &[4, 5, 6, 7];
        let b = Batch::from_sequences(&[s1, s2], 5);
        assert_eq!(final_targets(&b), vec![3, 7]);
    }

    #[test]
    fn gru4rec_learns() {
        let mut rng = Rng64::seed_from(1);
        let n_items = 8;
        let cfg = ModelConfig {
            dim: 12,
            max_seq: 6,
            dropout: 0.0,
            seed: 2,
            ..ModelConfig::default()
        };
        let mut model = Gru4Rec::new(n_items, cfg, &mut rng);
        let mut opt = Adam::new(AdamConfig {
            lr: 1e-2,
            ..AdamConfig::default()
        });
        let seqs: Vec<Vec<usize>> = (0..32)
            .map(|u| (0..5).map(|t| (u + t) % n_items).collect())
            .collect();
        let batches: Vec<Batch> = seqs
            .chunks(8)
            .map(|c| {
                let refs: Vec<&[usize]> = c.iter().map(|s| s.as_slice()).collect();
                Batch::from_sequences(&refs, cfg.max_seq)
            })
            .collect();
        let mut first = 0.0;
        let mut last = 0.0;
        for e in 0..25 {
            let mut sum = 0.0;
            for b in &batches {
                sum += model.train_step(b, &mut opt, &mut rng);
            }
            if e == 0 {
                first = sum;
            }
            last = sum;
        }
        assert!(last < first * 0.7, "loss {first} -> {last}");
        // Match the training shape: length-4 contexts predict first+4.
        let s = ModelSnapshot::of(&model).scores(&model, &[&[0, 1, 2, 3][..]]);
        assert_eq!(s.dims(), &[1, n_items]);
        let best = s.row(0).iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        assert_eq!(best, 4);
    }
}
