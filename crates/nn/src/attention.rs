//! Multi-head self-attention.

use crate::{Linear, Module, Param, Session};
use wr_autograd::Var;
use wr_tensor::{allowed_keys, AttentionKeys, AttentionRule, Rng64, Tensor};

/// Additive mask value for forbidden attention edges.
const MASK_NEG: f32 = -1e9;

/// Multi-head self-attention over the flattened rows of a batch of
/// left-padded sequences.
///
/// The four projections are ordinary [`Linear`] nodes; everything between
/// them is the one `wr_autograd::Graph::attention` node, which reads only
/// the keys the caller's [`AttentionKeys`] allow — the rule, how dropout
/// addresses its factors and what the node saves for its backward are documented
/// there. No mask tensor is involved: the two builders below are for
/// models that assemble their own score (DIF-SR) and for tests, which
/// check the node against the masked chain.
#[derive(Debug, Clone)]
pub struct MultiHeadSelfAttention {
    pub wq: Linear,
    pub wk: Linear,
    pub wv: Linear,
    pub wo: Linear,
    pub heads: usize,
    pub dim: usize,
    pub dropout: f32,
}

impl MultiHeadSelfAttention {
    pub fn new(dim: usize, heads: usize, dropout: f32, rng: &mut Rng64) -> Self {
        assert!(dim % heads == 0, "dim {dim} must divide into {heads} heads");
        MultiHeadSelfAttention {
            wq: Linear::new(dim, dim, true, rng),
            wk: Linear::new(dim, dim, true, rng),
            wv: Linear::new(dim, dim, true, rng),
            wo: Linear::new(dim, dim, true, rng),
            heads,
            dim,
            dropout,
        }
    }

    /// `x` is `[keys.rows(), dim]`: the rows `keys` holds of each
    /// left-padded sequence, stacked.
    pub fn forward(&self, sess: &mut Session, x: Var, keys: &AttentionKeys) -> Var {
        assert_eq!(sess.graph.dims(x), vec![keys.rows(), self.dim], "attention input shape");
        let q = self.wq.forward(sess, x);
        let k = self.wk.forward(sess, x);
        let v = self.wv.forward(sess, x);
        let mixed = sess.attention(q, k, v, self.heads, keys, self.dropout);
        self.wo.forward(sess, mixed)
    }
}

impl Module for MultiHeadSelfAttention {
    fn params(&self) -> Vec<Param> {
        [&self.wq, &self.wk, &self.wv, &self.wo]
            .iter()
            .flat_map(|l| l.params())
            .collect()
    }
}

/// Build the additive attention mask combining causality with left-padding.
///
/// Sequences are left-padded: a sequence of true length `len` occupies
/// positions `[seq-len, seq)`; see [`allowed_keys`] for the rule.
pub fn causal_padding_mask(batch: usize, seq: usize, lengths: &[usize]) -> Tensor {
    assert_eq!(lengths.len(), batch, "one length per sequence");
    let mut mask = Tensor::full(&[batch, seq, seq], MASK_NEG);
    let data = mask.data_mut();
    for (b, &len) in lengths.iter().enumerate() {
        let start = seq - len.min(seq);
        for i in 0..seq {
            let row = b * seq * seq + i * seq;
            for j in allowed_keys(AttentionRule::Causal, i, start, seq) {
                data[row + j] = 0.0;
            }
        }
    }
    mask
}

/// Bidirectional variant of the mask: position `i` may attend to any real
/// token `j` (BERT4Rec's Cloze setting) or to itself.
pub fn bidirectional_padding_mask(batch: usize, seq: usize, lengths: &[usize]) -> Tensor {
    assert_eq!(lengths.len(), batch, "one length per sequence");
    let mut mask = Tensor::full(&[batch, seq, seq], MASK_NEG);
    let data = mask.data_mut();
    for (b, &len) in lengths.iter().enumerate() {
        let len = len.min(seq);
        let start = seq - len;
        for i in 0..seq {
            for j in 0..seq {
                if j >= start || j == i {
                    data[b * seq * seq + i * seq + j] = 0.0;
                }
            }
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_autograd::Graph;

    /// The rule pair by pair, as the masks have always applied it; the
    /// same specification `wr_tensor::allowed_keys` is pinned against.
    fn allowed(bidirectional: bool, i: usize, j: usize, start: usize) -> bool {
        j == i || (j >= start && (bidirectional || j <= i))
    }

    #[test]
    fn mask_tensors_are_exactly_the_pairwise_rule() {
        for seq in 1..=8usize {
            // `start = seq` is the empty history: every row, the last
            // included, attends only to itself.
            for start in 0..=seq {
                let masks = [
                    causal_padding_mask(1, seq, &[seq - start]),
                    bidirectional_padding_mask(1, seq, &[seq - start]),
                ];
                for (bidirectional, mask) in [false, true].into_iter().zip(&masks) {
                    for i in 0..seq {
                        for j in 0..seq {
                            let want = if allowed(bidirectional, i, j, start) {
                                0.0
                            } else {
                                MASK_NEG
                            };
                            assert_eq!(
                                mask.data()[i * seq + j],
                                want,
                                "bidirectional {bidirectional} seq {seq} start {start} ({i}, {j})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn mask_structure() {
        let m = causal_padding_mask(1, 4, &[2]); // real tokens at positions 2,3
        let at = |i: usize, j: usize| m.data()[i * 4 + j];
        // position 3 attends to 2 and 3 but not 0,1 (pads) or future
        assert_eq!(at(3, 3), 0.0);
        assert_eq!(at(3, 2), 0.0);
        assert_eq!(at(3, 1), MASK_NEG);
        assert_eq!(at(2, 3), MASK_NEG); // no future
        // pad rows can self-attend (keeps softmax well-defined)
        assert_eq!(at(0, 0), 0.0);
        assert_eq!(at(1, 1), 0.0);
        assert_eq!(at(1, 0), MASK_NEG);
    }

    #[test]
    fn bidirectional_mask_sees_future_real_tokens() {
        let m = bidirectional_padding_mask(1, 4, &[2]);
        let at = |i: usize, j: usize| m.data()[i * 4 + j];
        assert_eq!(at(2, 3), 0.0, "future real token visible");
        assert_eq!(at(3, 2), 0.0);
        assert_eq!(at(2, 1), MASK_NEG, "pad stays masked");
        assert_eq!(at(0, 0), 0.0, "self-attention for pads");
    }

    #[test]
    fn forward_shape_and_causality() {
        let mut rng = Rng64::seed_from(1);
        let attn = MultiHeadSelfAttention::new(8, 2, 0.0, &mut rng);
        let (b, t) = (2, 5);
        let g = Graph::new();
        let mut s = Session::eval(&g);
        let x = g.constant(Tensor::randn(&[b * t, 8], &mut rng));
        let keys = AttentionKeys::new(AttentionRule::Causal, t, &[5, 5]);
        let y = attn.forward(&mut s, x, &keys);
        assert_eq!(g.dims(y), vec![b * t, 8]);
    }

    #[test]
    fn causality_future_does_not_affect_past() {
        // Changing the last item must not change earlier positions' outputs.
        let mut rng = Rng64::seed_from(2);
        let attn = MultiHeadSelfAttention::new(4, 1, 0.0, &mut rng);
        let t = 4;
        let keys = AttentionKeys::new(AttentionRule::Causal, t, &[4]);

        let base = Tensor::randn(&[t, 4], &mut rng);
        let mut changed = base.clone();
        for v in changed.row_mut(t - 1) {
            *v += 5.0;
        }

        let run = |input: &Tensor| {
            let g = Graph::new();
            let mut s = Session::eval(&g);
            let x = g.constant(input.clone());
            let y = attn.forward(&mut s, x, &keys);
            g.value(y)
        };
        let y1 = run(&base);
        let y2 = run(&changed);
        for r in 0..t - 1 {
            for (a, c) in y1.row(r).iter().zip(y2.row(r)) {
                assert!((a - c).abs() < 1e-5, "position {r} leaked future info");
            }
        }
        // the last position does change
        let diff: f32 = y1
            .row(t - 1)
            .iter()
            .zip(y2.row(t - 1))
            .map(|(a, c)| (a - c).abs())
            .sum();
        assert!(diff > 1e-3);
    }

    #[test]
    fn padding_is_ignored() {
        // A padded short sequence must produce the same last-position output
        // as the same tokens without padding noise.
        let mut rng = Rng64::seed_from(3);
        let attn = MultiHeadSelfAttention::new(4, 2, 0.0, &mut rng);
        let t = 5;
        let real = Tensor::randn(&[2, 4], &mut rng); // two real tokens

        let run = |pad_fill: f32| {
            let mut input = Tensor::full(&[t, 4], pad_fill);
            for (r, src) in [t - 2, t - 1].iter().zip(0..2) {
                input.row_mut(*r).copy_from_slice(real.row(src));
            }
            let g = Graph::new();
            let mut s = Session::eval(&g);
            let x = g.constant(input);
            let keys = AttentionKeys::new(AttentionRule::Causal, t, &[2]);
            let y = attn.forward(&mut s, x, &keys);
            g.value(y)
        };
        let y_zero = run(0.0);
        let y_noise = run(123.0);
        for (a, b) in y_zero.row(t - 1).iter().zip(y_noise.row(t - 1)) {
            assert!((a - b).abs() < 1e-4, "padding contents leaked into output");
        }
    }

    #[test]
    fn param_count() {
        let mut rng = Rng64::seed_from(4);
        let attn = MultiHeadSelfAttention::new(16, 4, 0.0, &mut rng);
        assert_eq!(attn.param_count(), 4 * (16 * 16 + 16));
    }
}
