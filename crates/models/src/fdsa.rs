//! FDSA: feature-level deeper self-attention.
//!
//! Two parallel self-attention branches — one over item (ID) embeddings,
//! one over item *feature* (text) projections — whose final states are
//! concatenated and mapped back to `d` for prediction.

use wr_autograd::{Graph, Var};
use wr_data::Batch;
use wr_nn::{Linear, Module, Param, Session, TransformerEncoder};
use wr_tensor::{Rng64, Tensor};
use wr_train::{Adam, SeqRecModel};

use crate::{IdTower, ItemTower, ModelConfig, TextTower};

/// FDSA model.
pub struct Fdsa {
    pub id_tower: IdTower,
    pub text_tower: TextTower,
    pub item_encoder: TransformerEncoder,
    pub feature_encoder: TransformerEncoder,
    pub merge: Linear,
    pub config: ModelConfig,
}

impl Fdsa {
    pub fn new(text_embeddings: Tensor, config: ModelConfig, rng: &mut Rng64) -> Self {
        let n_items = text_embeddings.rows();
        Fdsa {
            id_tower: IdTower::new(n_items, config.dim, rng),
            text_tower: TextTower::new(text_embeddings, config.dim, 1, rng),
            item_encoder: TransformerEncoder::new(config.transformer(), rng),
            feature_encoder: TransformerEncoder::new(config.transformer(), rng),
            merge: Linear::new(2 * config.dim, config.dim, true, rng),
            config,
        }
    }

    /// `(V_id, users)` where users come from both branches merged.
    fn forward(&self, sess: &mut Session, batch: &Batch) -> (Var, Var) {
        let g = sess.graph;
        let v_id = self.id_tower.all_items(sess);
        let v_text = self.text_tower.all_items(sess);

        let id_seq = g.gather_rows(v_id, &batch.items);
        let text_seq = g.gather_rows(v_text, &batch.items);

        let h_item =
            self.item_encoder
                .forward_hidden(sess, id_seq, batch.batch, batch.seq, &batch.lengths);
        let h_feat = self.feature_encoder.forward_hidden(
            sess,
            text_seq,
            batch.batch,
            batch.seq,
            &batch.lengths,
        );
        let last: Vec<usize> = (0..batch.batch)
            .map(|b| b * batch.seq + batch.seq - 1)
            .collect();
        let u_item = g.gather_rows(h_item, &last);
        let u_feat = g.gather_rows(h_feat, &last);
        let merged = self.merge.forward(sess, g.concat_cols(&[u_item, u_feat]));
        (v_id, merged)
    }

    /// Same merge at every loss position (training path).
    fn forward_positions(&self, sess: &mut Session, batch: &Batch) -> (Var, Var) {
        let g = sess.graph;
        let v_id = self.id_tower.all_items(sess);
        let v_text = self.text_tower.all_items(sess);
        let id_seq = g.gather_rows(v_id, &batch.items);
        let text_seq = g.gather_rows(v_text, &batch.items);
        let h_item =
            self.item_encoder
                .forward_hidden(sess, id_seq, batch.batch, batch.seq, &batch.lengths);
        let h_feat = self.feature_encoder.forward_hidden(
            sess,
            text_seq,
            batch.batch,
            batch.seq,
            &batch.lengths,
        );
        let hi = g.gather_rows(h_item, &batch.loss_positions);
        let hf = g.gather_rows(h_feat, &batch.loss_positions);
        let merged = self.merge.forward(sess, g.concat_cols(&[hi, hf]));
        (v_id, merged)
    }
}

impl SeqRecModel for Fdsa {
    fn name(&self) -> String {
        "FDSA".into()
    }

    fn params(&self) -> Vec<Param> {
        let mut ps = self.id_tower.params();
        ps.extend(self.text_tower.params());
        ps.extend(self.item_encoder.params());
        ps.extend(self.feature_encoder.params());
        ps.extend(self.merge.params());
        ps
    }

    fn train_step(&mut self, batch: &Batch, optimizer: &mut Adam, rng: &mut Rng64) -> f32 {
        let g = Graph::new();
        let mut sess = Session::train(&g, rng.fork());
        let (v, users) = self.forward_positions(&mut sess, batch);
        let logits = g.matmul(users, g.transpose(v));
        let loss = g.cross_entropy(logits, &batch.targets);
        let value = g.value(loss).item();
        g.backward(loss);
        optimizer.step(&g, sess.bindings());
        value
    }

    fn item_representations(&self) -> Tensor {
        self.id_tower.emb.table.get()
    }

    fn user_representations(&self, contexts: &[&[usize]]) -> Tensor {
        let batch = Batch::inference(contexts, self.config.max_seq);
        let g = Graph::new();
        let mut sess = Session::eval(&g);
        let (_, users) = self.forward(&mut sess, &batch);
        g.value(users)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_train::{AdamConfig, ModelSnapshot};

    #[test]
    fn fdsa_trains_and_scores() {
        let mut rng = Rng64::seed_from(1);
        let cfg = ModelConfig {
            dim: 12,
            blocks: 1,
            max_seq: 6,
            dropout: 0.0,
            ..ModelConfig::default()
        };
        let emb = Tensor::randn(&[9, 16], &mut rng);
        let mut model = Fdsa::new(emb, cfg, &mut rng);
        let mut opt = Adam::new(AdamConfig {
            lr: 5e-3,
            ..AdamConfig::default()
        });
        let seqs: Vec<Vec<usize>> = (0..16).map(|u| (0..5).map(|t| (u + t) % 9).collect()).collect();
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
                sum += model.train_step(b, &mut opt, &mut rng);
            }
            if e == 0 {
                first = sum;
            }
            last = sum;
        }
        assert!(last < first, "loss {first} -> {last}");
        let s = ModelSnapshot::of(&model).scores(&model, &[&[1, 2, 3][..]]);
        assert_eq!(s.dims(), &[1, 9]);
        assert_eq!(s.non_finite_count(), 0);
    }

    #[test]
    fn has_two_encoders_worth_of_params() {
        let mut rng = Rng64::seed_from(2);
        let cfg = ModelConfig {
            dim: 8,
            blocks: 1,
            max_seq: 6,
            ..ModelConfig::default()
        };
        let model = Fdsa::new(Tensor::randn(&[5, 8], &mut rng), cfg, &mut rng);
        // More params than a single-branch SASRec^ID of the same size.
        let id_only = {
            let mut rng = Rng64::seed_from(3);
            let t = crate::IdTower::new(5, cfg.dim, &mut rng);
            let e = TransformerEncoder::new(cfg.transformer(), &mut rng);
            t.params().iter().map(|p| p.numel()).sum::<usize>()
                + e.params().iter().map(|p| p.numel()).sum::<usize>()
        };
        assert!(model.param_count() > id_only);
    }
}
