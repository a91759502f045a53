//! Transformer encoder (SASRec-style sequence encoder).

use std::sync::Arc;

use crate::{
    Embedding, FrozenBlock, FrozenEncoder, LayerNorm, Linear, Module, MultiHeadSelfAttention,
    Param, Session,
};
use wr_autograd::Var;
use wr_tensor::{AttentionKeys, AttentionRule, Rng64, Tensor};

/// One post-norm Transformer block: self-attention and a pointwise
/// feed-forward network, each wrapped in residual + LayerNorm (the RecBole
/// SASRec layout the paper builds on).
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    pub attn: MultiHeadSelfAttention,
    pub ln1: LayerNorm,
    pub ff1: Linear,
    pub ff2: Linear,
    pub ln2: LayerNorm,
    pub dropout: f32,
}

impl TransformerBlock {
    pub fn new(dim: usize, heads: usize, ff_mult: usize, dropout: f32, rng: &mut Rng64) -> Self {
        TransformerBlock {
            attn: MultiHeadSelfAttention::new(dim, heads, dropout, rng),
            ln1: LayerNorm::new(dim),
            ff1: Linear::new(dim, dim * ff_mult, true, rng),
            ff2: Linear::new(dim * ff_mult, dim, true, rng),
            ln2: LayerNorm::new(dim),
            dropout,
        }
    }

    /// `x` is `[keys.rows(), dim]`: the rows `keys` holds of each
    /// left-padded sequence, stacked. Dropout draws as over the padded
    /// plane whatever `keys` holds.
    pub fn forward(&self, sess: &mut Session, x: Var, keys: &AttentionKeys) -> Var {
        let g = sess.graph;
        // Attention sublayer.
        let a = self.attn.forward(sess, x, keys);
        let a = sess.dropout_held(a, self.dropout, keys);
        let x = self.ln1.forward(sess, g.add(x, a));
        // Feed-forward sublayer.
        let h = self.ff1.forward(sess, x);
        let h = g.gelu(h);
        let h = sess.dropout_held(h, self.dropout, keys);
        let h = self.ff2.forward(sess, h);
        let h = sess.dropout_held(h, self.dropout, keys);
        self.ln2.forward(sess, g.add(x, h))
    }

    /// Snapshot the current weights into a tape-free block.
    pub(crate) fn freeze(&self) -> FrozenBlock {
        FrozenBlock {
            wq: self.attn.wq.freeze(),
            wk: self.attn.wk.freeze(),
            wv: self.attn.wv.freeze(),
            wo: self.attn.wo.freeze(),
            ln1: self.ln1.freeze(),
            ff1: self.ff1.freeze(),
            ff2: self.ff2.freeze(),
            ln2: self.ln2.freeze(),
        }
    }
}

impl Module for TransformerBlock {
    fn params(&self) -> Vec<Param> {
        let mut ps = self.attn.params();
        ps.extend(self.ln1.params());
        ps.extend(self.ff1.params());
        ps.extend(self.ff2.params());
        ps.extend(self.ln2.params());
        ps
    }
}

/// Configuration of the sequence encoder shared by every model in the zoo.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransformerConfig {
    pub dim: usize,
    pub heads: usize,
    pub blocks: usize,
    pub ff_mult: usize,
    pub max_seq: usize,
    pub dropout: f32,
    /// Bidirectional attention (BERT4Rec's Cloze setting) instead of the
    /// causal mask SASRec uses.
    pub bidirectional: bool,
}

impl Default for TransformerConfig {
    fn default() -> Self {
        // Scaled-down analogue of the paper's (d=300, 2 blocks, 2 heads,
        // seq 50) setting.
        TransformerConfig {
            dim: 64,
            heads: 2,
            blocks: 2,
            ff_mult: 2,
            max_seq: 30,
            dropout: 0.2,
            bidirectional: false,
        }
    }
}

/// SASRec-style causal Transformer over item-embedding sequences.
///
/// Adds learned positional embeddings, applies input LayerNorm + dropout,
/// runs the block stack, and returns the hidden state at the last real
/// position of every sequence — the user representation `s` of Eq. (2).
#[derive(Debug, Clone)]
pub struct TransformerEncoder {
    pub blocks: Vec<TransformerBlock>,
    pub pos: Embedding,
    pub input_ln: LayerNorm,
    pub config: TransformerConfig,
}

impl TransformerEncoder {
    pub fn new(config: TransformerConfig, rng: &mut Rng64) -> Self {
        let blocks = (0..config.blocks)
            .map(|_| TransformerBlock::new(config.dim, config.heads, config.ff_mult, config.dropout, rng))
            .collect();
        TransformerEncoder {
            blocks,
            pos: Embedding::new(config.max_seq, config.dim, rng),
            input_ln: LayerNorm::new(config.dim),
            config,
        }
    }

    /// Full hidden states `[batch*seq, dim]` for flattened item embeddings
    /// `x` (`[batch*seq, dim]`, left-padded) with true `lengths`.
    ///
    /// Runs over the rows the batch holds: the last `max(len, 1)`
    /// positions of each sequence ([`AttentionKeys::packed`]) are gathered
    /// out of `x`, pass through input LayerNorm, dropout and every block as
    /// one `[Σ held, dim]` plane, and are scattered back. The other rows of
    /// the result are `+0.0` and carry no gradient: no real query reads a
    /// pad key, so nothing a caller gathers from the result — or any
    /// parameter's gradient, or where the session's RNG is left — depends
    /// on them (DESIGN.md §5c, §6).
    pub fn forward_hidden(
        &self,
        sess: &mut Session,
        x: Var,
        batch: usize,
        seq: usize,
        lengths: &[usize],
    ) -> Var {
        let g = sess.graph;
        assert!(seq <= self.config.max_seq, "sequence longer than max_seq");
        assert_eq!(lengths.len(), batch, "one length per sequence");
        assert_eq!(g.dims(x), vec![batch * seq, self.config.dim], "one row per position");
        let rule = if self.config.bidirectional {
            AttentionRule::Bidirectional
        } else {
            AttentionRule::Causal
        };
        let keys = AttentionKeys::packed(rule, seq, lengths);
        let rows = keys.padded_rows();
        // Positional embeddings of the positions held.
        let pos_idx: Vec<usize> = rows.iter().map(|r| r % seq).collect();
        let p = self.pos.forward(sess, &pos_idx);
        let mut h = g.add(g.gather_rows(x, &rows), p);
        h = self.input_ln.forward(sess, h);
        h = sess.dropout_held(h, self.config.dropout, &keys);
        for block in &self.blocks {
            h = block.forward(sess, h, &keys);
        }
        g.scatter_rows(h, &rows, batch * seq)
    }

    /// User representations `[batch, dim]`: the hidden state at each
    /// sequence's last real position.
    pub fn forward_user(
        &self,
        sess: &mut Session,
        x: Var,
        batch: usize,
        seq: usize,
        lengths: &[usize],
    ) -> Var {
        let h = self.forward_hidden(sess, x, batch, seq, lengths);
        // Left padding ⇒ the last real position is always `seq - 1`.
        let last_rows: Vec<usize> = (0..batch).map(|b| b * seq + (seq - 1)).collect();
        sess.graph.gather_rows(h, &last_rows)
    }

    /// Snapshot this encoder — current weights, positional table — over
    /// the frozen item matrix `items` into the tape-free
    /// [`FrozenEncoder`], whose `encode` is bit-identical to gathering
    /// history rows from `items` and running [`Self::forward_user`] in
    /// eval mode. Later updates to the parameters do not reach the
    /// snapshot.
    ///
    /// `None` for an encoder the frozen forward does not cover: a
    /// bidirectional one (its final block computes one query row under
    /// the causal rule), one without blocks, or one whose weights,
    /// positional table or `items` hold a NaN or an infinity — every
    /// pinned score was produced by arithmetic in which a masked
    /// non-finite operand poisoned its row (`0.0 · NaN`), and skipping
    /// masked keys equals that arithmetic for finite operands only, so a
    /// non-finite model is never served from a snapshot: it keeps the
    /// taped forward.
    pub fn freeze(&self, items: Arc<Tensor>) -> Option<FrozenEncoder> {
        if self.config.bidirectional {
            return None;
        }
        let mut body: Vec<FrozenBlock> = self.blocks.iter().map(TransformerBlock::freeze).collect();
        let last = body.pop()?;
        let frozen = FrozenEncoder::new(
            items,
            &self.pos.table.get(),
            self.input_ln.freeze(),
            body,
            last,
            self.config.heads,
        );
        frozen.is_finite().then_some(frozen)
    }
}

impl Module for TransformerEncoder {
    fn params(&self) -> Vec<Param> {
        let mut ps: Vec<Param> = self.blocks.iter().flat_map(|b| b.params()).collect();
        ps.extend(self.pos.params());
        ps.extend(self.input_ln.params());
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_autograd::Graph;

    fn tiny_config() -> TransformerConfig {
        TransformerConfig {
            dim: 8,
            heads: 2,
            blocks: 2,
            ff_mult: 2,
            max_seq: 6,
            dropout: 0.0,
            bidirectional: false,
        }
    }

    #[test]
    fn encoder_shapes() {
        let mut rng = Rng64::seed_from(1);
        let enc = TransformerEncoder::new(tiny_config(), &mut rng);
        let (b, t) = (3, 6);
        let g = Graph::new();
        let mut s = Session::eval(&g);
        let x = g.constant(Tensor::randn(&[b * t, 8], &mut rng));
        let h = enc.forward_hidden(&mut s, x, b, t, &[6, 4, 2]);
        assert_eq!(g.dims(h), vec![b * t, 8]);
        let g2 = Graph::new();
        let mut s2 = Session::eval(&g2);
        let x2 = g2.constant(Tensor::randn(&[b * t, 8], &mut rng));
        let u = enc.forward_user(&mut s2, x2, b, t, &[6, 4, 2]);
        assert_eq!(g2.dims(u), vec![b, 8]);
    }

    #[test]
    fn deterministic_in_eval_mode() {
        let mut rng = Rng64::seed_from(2);
        let enc = TransformerEncoder::new(tiny_config(), &mut rng);
        let x = Tensor::randn(&[6, 8], &mut rng);
        let run = || {
            let g = Graph::new();
            let mut s = Session::eval(&g);
            let xv = g.constant(x.clone());
            let u = enc.forward_user(&mut s, xv, 1, 6, &[3]);
            g.value(u)
        };
        assert_eq!(run().data(), run().data());
    }

    #[test]
    fn gradients_flow_to_all_params() {
        let mut rng = Rng64::seed_from(3);
        let enc = TransformerEncoder::new(tiny_config(), &mut rng);
        let g = Graph::new();
        let mut s = Session::train(&g, Rng64::seed_from(4));
        let x = g.constant(Tensor::randn(&[6, 8], &mut rng));
        let u = enc.forward_user(&mut s, x, 1, 6, &[6]);
        let loss = g.sum_all(u);
        g.backward(loss);
        let mut with_grad = 0;
        for (_, v) in s.bindings() {
            if g.grad(*v).is_some() {
                with_grad += 1;
            }
        }
        assert_eq!(with_grad, s.bindings().len(), "some parameters received no gradient");
        assert!(with_grad > 10);
    }

    #[test]
    fn param_count_matches_structure() {
        let mut rng = Rng64::seed_from(5);
        let cfg = tiny_config();
        let enc = TransformerEncoder::new(cfg, &mut rng);
        let d = cfg.dim;
        let per_block = 4 * (d * d + d)                  // attention
            + 2 * 2 * d                                   // two layernorms
            + (d * d * cfg.ff_mult + d * cfg.ff_mult)     // ff1
            + (d * cfg.ff_mult * d + d); // ff2
        let expected = cfg.blocks * per_block + cfg.max_seq * d + 2 * d;
        assert_eq!(enc.param_count(), expected);
    }
}
