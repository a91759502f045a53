//! BERT4Rec: bidirectional Transformer trained with the Cloze (masked
//! item) objective — the related-work baseline of §II-A.
//!
//! A special mask token (id `n_items`) replaces a random fraction of
//! input items; the model predicts the original item at every masked
//! position. Inference appends the mask token after the context and
//! predicts it.

use wr_autograd::Graph;
use wr_data::Batch;
use wr_nn::{Embedding, Module, Param, Session, TransformerEncoder};
use wr_tensor::{Rng64, Tensor};
use wr_train::{Adam, SeqRecModel};

use crate::ModelConfig;

/// BERT4Rec model.
pub struct Bert4Rec {
    /// `n_items + 1` rows; the last row is the mask token.
    pub emb: Embedding,
    pub encoder: TransformerEncoder,
    pub config: ModelConfig,
    /// Cloze masking probability (paper default 0.2 at short lengths).
    pub mask_prob: f32,
    n_items: usize,
}

impl Bert4Rec {
    pub fn new(n_items: usize, config: ModelConfig, rng: &mut Rng64) -> Self {
        let mut tconfig = config.transformer();
        tconfig.bidirectional = true;
        Bert4Rec {
            emb: Embedding::new(n_items + 1, config.dim, rng),
            encoder: TransformerEncoder::new(tconfig, rng),
            config,
            mask_prob: 0.2,
            n_items,
        }
    }

    fn mask_token(&self) -> usize {
        self.n_items
    }
}

impl SeqRecModel for Bert4Rec {
    fn name(&self) -> String {
        "BERT4Rec".into()
    }

    fn params(&self) -> Vec<Param> {
        let mut ps = self.emb.params();
        ps.extend(self.encoder.params());
        ps
    }

    fn train_step(&mut self, batch: &Batch, optimizer: &mut Adam, rng: &mut Rng64) -> f32 {
        // Cloze corruption: mask random real positions; always mask the
        // last position (aligns training with next-item inference).
        let mut items = batch.items.clone();
        let mut loss_positions = Vec::new();
        let mut targets = Vec::new();
        for (b, &len) in batch.lengths.iter().enumerate() {
            for t in batch.seq - len..batch.seq {
                let pos = b * batch.seq + t;
                let is_last = t == batch.seq - 1;
                if is_last || rng.chance(self.mask_prob) {
                    if let Some(item) = items.get_mut(pos) {
                        loss_positions.push(pos);
                        targets.push(*item);
                        *item = self.mask_token();
                    }
                }
            }
        }

        let g = Graph::new();
        let mut sess = Session::train(&g, rng.fork());
        let table = sess.bind(&self.emb.table);
        let seq_emb = g.gather_rows(table, &items);
        let hidden =
            self.encoder
                .forward_hidden(&mut sess, seq_emb, batch.batch, batch.seq, &batch.lengths);
        let masked = g.gather_rows(hidden, &loss_positions);
        let logits = g.matmul(masked, g.slice_cols(g.transpose(table), 0, self.n_items));
        let loss = g.cross_entropy(logits, &targets);
        let value = g.value(loss).item();
        g.backward(loss);
        optimizer.step(&g, sess.bindings());
        value
    }

    fn item_representations(&self) -> Tensor {
        self.emb.table.get().slice_rows(0, self.n_items)
    }

    fn user_representations(&self, contexts: &[&[usize]]) -> Tensor {
        // Append the mask token to each context: predict what fills it.
        let appended: Vec<Vec<usize>> = contexts
            .iter()
            .map(|c| {
                let mut v = c.to_vec();
                v.push(self.mask_token());
                v
            })
            .collect();
        let refs: Vec<&[usize]> = appended.iter().map(|c| c.as_slice()).collect();
        let batch = Batch::inference(&refs, self.config.max_seq);
        let g = Graph::new();
        let mut sess = Session::eval(&g);
        let table = sess.bind(&self.emb.table);
        let seq_emb = g.gather_rows(table, &batch.items);
        let hidden =
            self.encoder
                .forward_hidden(&mut sess, seq_emb, batch.batch, batch.seq, &batch.lengths);
        let last: Vec<usize> = (0..batch.batch)
            .map(|b| b * batch.seq + batch.seq - 1)
            .collect();
        g.value(g.gather_rows(hidden, &last))
    }
}

/// Popularity baseline: scores every item by its training frequency.
/// Zero parameters; the sanity floor every learned model must beat.
pub struct Popularity {
    counts: Vec<f32>,
}

impl Popularity {
    pub fn new(train_sequences: &[Vec<usize>], n_items: usize) -> Self {
        let mut counts = vec![0.0f32; n_items];
        for s in train_sequences {
            for &i in s {
                if let Some(c) = counts.get_mut(i) {
                    *c += 1.0;
                }
            }
        }
        Popularity { counts }
    }
}

impl SeqRecModel for Popularity {
    fn name(&self) -> String {
        "Pop".into()
    }

    fn params(&self) -> Vec<Param> {
        Vec::new()
    }

    fn train_step(&mut self, _batch: &Batch, _optimizer: &mut Adam, _rng: &mut Rng64) -> f32 {
        0.0
    }

    fn item_representations(&self) -> Tensor {
        Tensor::from_vec(self.counts.clone(), &[self.counts.len(), 1])
    }

    fn user_representations(&self, contexts: &[&[usize]]) -> Tensor {
        Tensor::ones(&[contexts.len(), 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_train::{AdamConfig, ModelSnapshot};

    #[test]
    fn bert4rec_learns_cyclic_pattern() {
        let mut rng = Rng64::seed_from(1);
        let n_items = 10;
        let cfg = ModelConfig {
            dim: 16,
            blocks: 1,
            max_seq: 8,
            dropout: 0.0,
            ..ModelConfig::default()
        };
        let mut model = Bert4Rec::new(n_items, cfg, &mut rng);
        let mut opt = Adam::new(AdamConfig {
            lr: 5e-3,
            ..AdamConfig::default()
        });
        let seqs: Vec<Vec<usize>> = (0..40)
            .map(|u| (0..6).map(|t| (u + t) % n_items).collect())
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
        assert!(last < first * 0.6, "loss {first} -> {last}");
        let s = ModelSnapshot::of(&model).scores(&model, &[&[2, 3, 4][..]]);
        assert_eq!(s.dims(), &[1, n_items]);
        let best = s
            .row(0)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 5, "after [2,3,4] expect 5, scores {:?}", s.row(0));
    }

    #[test]
    fn mask_token_never_scored() {
        let mut rng = Rng64::seed_from(2);
        let model = Bert4Rec::new(7, ModelConfig {
            dim: 8,
            blocks: 1,
            max_seq: 6,
            ..ModelConfig::default()
        }, &mut rng);
        let s = ModelSnapshot::of(&model).scores(&model, &[&[1, 2][..]]);
        assert_eq!(s.dims(), &[1, 7]); // not 8: mask row excluded
    }

    #[test]
    fn popularity_ranks_frequent_items_first() {
        let seqs = vec![vec![0, 1, 1, 2, 2, 2], vec![2, 2, 1]];
        let model = Popularity::new(&seqs, 4);
        let s = ModelSnapshot::of(&model).scores(&model, &[&[0][..]]);
        let row = s.row(0);
        assert!(row[2] > row[1] && row[1] > row[0] && row[0] > row[3]);
        assert_eq!(model.param_count(), 0);
    }
}
