//! DIF-SR: decoupled side-information fusion (§II-B's attribute baseline).
//!
//! Instead of adding attribute embeddings into the input (which entangles
//! them with item representations), DIF-SR moves attributes into the
//! *attention calculation*: per head, the attention logits are the sum of
//! an item-based score `Q Kᵀ` and an attribute-based score `Q_a K_aᵀ`,
//! while values flow only through the item stream.

use wr_autograd::{Graph, Var};
use wr_data::Batch;
use wr_nn::{causal_padding_mask, Embedding, LayerNorm, Linear, Module, Param, Session};
use wr_tensor::{Rng64, Tensor};
use wr_train::{Adam, SeqRecModel};

use crate::{IdTower, ItemTower, ModelConfig};

/// One DIF block: decoupled-attention sublayer + feed-forward sublayer.
struct DifBlock {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    // Attribute-stream projections (no value path).
    waq: Linear,
    wak: Linear,
    ln1: LayerNorm,
    ff1: Linear,
    ff2: Linear,
    ln2: LayerNorm,
    heads: usize,
    dim: usize,
    dropout: f32,
}

impl DifBlock {
    fn new(dim: usize, heads: usize, ff_mult: usize, dropout: f32, rng: &mut Rng64) -> Self {
        DifBlock {
            wq: Linear::new(dim, dim, true, rng),
            wk: Linear::new(dim, dim, true, rng),
            wv: Linear::new(dim, dim, true, rng),
            wo: Linear::new(dim, dim, true, rng),
            waq: Linear::new(dim, dim, true, rng),
            wak: Linear::new(dim, dim, true, rng),
            ln1: LayerNorm::new(dim),
            ff1: Linear::new(dim, dim * ff_mult, true, rng),
            ff2: Linear::new(dim * ff_mult, dim, true, rng),
            ln2: LayerNorm::new(dim),
            heads,
            dim,
            dropout,
        }
    }

    /// `x` item stream, `attr` attribute stream (both `[b*t, d]`).
    fn forward(
        &self,
        sess: &mut Session,
        x: Var,
        attr: Var,
        batch: usize,
        seq: usize,
        mask: &Tensor,
    ) -> Var {
        let g = sess.graph;
        let q = self.wq.forward(sess, x);
        let k = self.wk.forward(sess, x);
        let v = self.wv.forward(sess, x);
        let qa = self.waq.forward(sess, attr);
        let ka = self.wak.forward(sess, attr);

        let dh = self.dim / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let mask_var = g.constant(mask.clone());

        let mut heads = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let (lo, hi) = (h * dh, (h + 1) * dh);
            let r3 = |t: Var, g: &Graph| g.reshape(g.slice_cols(t, lo, hi), &[batch, seq, dh]);
            let qh = r3(q, g);
            let kh = r3(k, g);
            let vh = r3(v, g);
            let qah = r3(qa, g);
            let kah = r3(ka, g);

            // Decoupled fusion: item scores + attribute scores.
            let s_item = g.bmm_nt(qh, kh);
            let s_attr = g.bmm_nt(qah, kah);
            let scores = g.scale(g.add(s_item, s_attr), scale);
            let scores = g.add(scores, mask_var);
            let attn = g.softmax3d_last(scores);
            let attn = sess.dropout(attn, self.dropout);
            let out = g.bmm(attn, vh);
            heads.push(g.reshape(out, &[batch * seq, dh]));
        }
        let concat = match heads.as_slice() {
            [one] => *one,
            _ => g.concat_cols(&heads),
        };
        let a = self.wo.forward(sess, concat);
        let a = sess.dropout(a, self.dropout);
        let x = self.ln1.forward(sess, g.add(x, a));

        let hdn = self.ff1.forward(sess, x);
        let hdn = g.gelu(hdn);
        let hdn = self.ff2.forward(sess, hdn);
        let hdn = sess.dropout(hdn, self.dropout);
        self.ln2.forward(sess, g.add(x, hdn))
    }
}

impl Module for DifBlock {
    fn params(&self) -> Vec<Param> {
        let mut ps = Vec::new();
        for l in [&self.wq, &self.wk, &self.wv, &self.wo, &self.waq, &self.wak, &self.ff1, &self.ff2] {
            ps.extend(l.params());
        }
        ps.extend(self.ln1.params());
        ps.extend(self.ln2.params());
        ps
    }
}

/// DIF-SR model: ID tower + category attribute stream + decoupled blocks.
pub struct DifSr {
    pub tower: IdTower,
    pub attr_emb: Embedding,
    pub pos: Embedding,
    pub input_ln: LayerNorm,
    blocks: Vec<DifBlock>,
    pub item_category: Vec<usize>,
    pub config: ModelConfig,
}

impl DifSr {
    pub fn new(item_category: Vec<usize>, config: ModelConfig, rng: &mut Rng64) -> Self {
        let n_items = item_category.len();
        let n_categories = item_category.iter().copied().max().unwrap_or(0) + 1;
        DifSr {
            tower: IdTower::new(n_items, config.dim, rng),
            attr_emb: Embedding::new(n_categories, config.dim, rng),
            pos: Embedding::new(config.max_seq, config.dim, rng),
            input_ln: LayerNorm::new(config.dim),
            blocks: (0..config.blocks)
                .map(|_| DifBlock::new(config.dim, config.heads, config.ff_mult, config.dropout, rng))
                .collect(),
            item_category,
            config,
        }
    }

    fn forward(&self, sess: &mut Session, batch: &Batch) -> (Var, Var) {
        let g = sess.graph;
        let v = self.tower.all_items(sess);
        let seq_emb = g.gather_rows(v, &batch.items);
        let pos_idx: Vec<usize> = (0..batch.batch).flat_map(|_| 0..batch.seq).collect();
        let p = self.pos.forward(sess, &pos_idx);
        let mut h = g.add(seq_emb, p);
        h = self.input_ln.forward(sess, h);
        h = sess.dropout(h, self.config.dropout);

        // Attribute stream: category embedding per position.
        // Unknown item ids (outside the category table) degrade to
        // category 0 rather than panicking a serving batch.
        let cat_idx: Vec<usize> = batch
            .items
            .iter()
            .map(|&i| self.item_category.get(i).copied().unwrap_or(0))
            .collect();
        let attr = self.attr_emb.forward(sess, &cat_idx);

        let mask = causal_padding_mask(batch.batch, batch.seq, &batch.lengths);
        for block in &self.blocks {
            h = block.forward(sess, h, attr, batch.batch, batch.seq, &mask);
        }
        (v, h)
    }
}

impl SeqRecModel for DifSr {
    fn name(&self) -> String {
        "DIF-SR".into()
    }

    fn params(&self) -> Vec<Param> {
        let mut ps = self.tower.params();
        ps.extend(self.attr_emb.params());
        ps.extend(self.pos.params());
        ps.extend(self.input_ln.params());
        for b in &self.blocks {
            ps.extend(b.params());
        }
        ps
    }

    fn train_step(&mut self, batch: &Batch, optimizer: &mut Adam, rng: &mut Rng64) -> f32 {
        let g = Graph::new();
        let mut sess = Session::train(&g, rng.fork());
        let (v, hidden) = self.forward(&mut sess, batch);
        let users = g.gather_rows(hidden, &batch.loss_positions);
        let logits = g.matmul(users, g.transpose(v));
        let loss = g.cross_entropy(logits, &batch.targets);
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
        let (_, hidden) = self.forward(&mut sess, &batch);
        let last: Vec<usize> = (0..batch.batch)
            .map(|b| b * batch.seq + batch.seq - 1)
            .collect();
        g.value(g.gather_rows(hidden, &last))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_train::{AdamConfig, ModelSnapshot};

    #[test]
    fn difsr_trains_and_uses_attributes() {
        let mut rng = Rng64::seed_from(1);
        let cfg = ModelConfig {
            dim: 16,
            blocks: 1,
            max_seq: 8,
            dropout: 0.0,
            ..ModelConfig::default()
        };
        let cats: Vec<usize> = (0..12).map(|i| i % 4).collect();
        let mut model = DifSr::new(cats, cfg, &mut rng);
        let mut opt = Adam::new(AdamConfig {
            lr: 5e-3,
            ..AdamConfig::default()
        });
        let seqs: Vec<Vec<usize>> = (0..24).map(|u| (0..6).map(|t| (u + t) % 12).collect()).collect();
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
        let s = ModelSnapshot::of(&model).scores(&model, &[&[1, 2, 3][..]]);
        assert_eq!(s.dims(), &[1, 12]);

        // Attribute stream receives gradients: the attr table must move.
        let table_before = model.attr_emb.table.get();
        for b in &batches {
            model.train_step(b, &mut opt, &mut rng);
        }
        let table_after = model.attr_emb.table.get();
        assert!(
            table_before.sub(&table_after).frob_norm() > 1e-6,
            "attribute embeddings never updated"
        );
    }

    #[test]
    fn param_count_includes_attr_stream() {
        let mut rng = Rng64::seed_from(2);
        let cfg = ModelConfig {
            dim: 8,
            blocks: 1,
            max_seq: 6,
            ..ModelConfig::default()
        };
        let model = DifSr::new(vec![0, 1, 0, 1], cfg, &mut rng);
        // attribute table: 2 categories × 8 dims
        let total = model.param_count();
        let without_attr: usize = model
            .params()
            .iter()
            .filter(|p| !p.name().starts_with("embedding[2x8"))
            .map(|p| p.numel())
            .sum();
        assert_eq!(total - without_attr, 16);
    }
}
