//! Multi-head causal self-attention.

use std::ops::Range;

use crate::{Linear, Module, Param, Session};
use wr_autograd::Var;
use wr_tensor::{Rng64, Tensor};

/// Additive mask value for forbidden attention edges.
const MASK_NEG: f32 = -1e9;

/// Multi-head self-attention over a flattened `[batch*seq, dim]` input.
///
/// The caller provides an additive attention mask of shape
/// `[batch, seq, seq]` (build one with [`causal_padding_mask`]); masked
/// entries hold a large negative value.
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

    /// `x` is `[batch*seq, dim]`; `mask` is `[batch, seq, seq]` additive.
    pub fn forward(&self, sess: &mut Session, x: Var, batch: usize, seq: usize, mask: &Tensor) -> Var {
        let g = sess.graph;
        assert_eq!(g.dims(x), vec![batch * seq, self.dim], "attention input shape");
        assert_eq!(mask.dims(), &[batch, seq, seq], "attention mask shape");

        let q = self.wq.forward(sess, x);
        let k = self.wk.forward(sess, x);
        let v = self.wv.forward(sess, x);

        let dh = self.dim / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let mask_var = g.constant(mask.clone());

        let mut head_outputs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let (lo, hi) = (h * dh, (h + 1) * dh);
            let qh = g.reshape(g.slice_cols(q, lo, hi), &[batch, seq, dh]);
            let kh = g.reshape(g.slice_cols(k, lo, hi), &[batch, seq, dh]);
            let vh = g.reshape(g.slice_cols(v, lo, hi), &[batch, seq, dh]);

            let scores = g.scale(g.bmm_nt(qh, kh), scale);
            let scores = g.add(scores, mask_var);
            let attn = g.softmax3d_last(scores);
            let attn = sess.dropout(attn, self.dropout);
            let out = g.bmm(attn, vh); // [batch, seq, dh]
            head_outputs.push(g.reshape(out, &[batch * seq, dh]));
        }
        let concat = if head_outputs.len() == 1 {
            head_outputs[0]
        } else {
            g.concat_cols(&head_outputs)
        };
        self.wo.forward(sess, concat)
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

/// The causal + left-padding rule, as the contiguous key range a query may
/// read: with real tokens at `[start, seq)`, position `i` attends to every
/// real `j ≤ i`, and a pad position (`i < start`, which includes the last
/// position of an empty history, `start = seq`) attends to itself alone so
/// its softmax stays well-defined. The one statement of the rule: the mask
/// tensor below is built from it and the frozen encoder iterates it
/// directly, without a mask.
pub(crate) fn allowed_keys(i: usize, start: usize) -> Range<usize> {
    start.min(i)..i + 1
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
            let keys = allowed_keys(i, start);
            data[row + keys.start..row + keys.end].fill(0.0);
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

    /// The rule pair by pair, as the taped mask has always applied it —
    /// the specification [`allowed_keys`] is pinned against.
    fn causal_allowed(i: usize, j: usize, start: usize) -> bool {
        (j <= i && j >= start) || j == i
    }

    #[test]
    fn allowed_keys_is_exactly_the_pairwise_rule() {
        for seq in 1..=8usize {
            // `start = seq` is the empty history: every row, the last
            // included, attends only to itself.
            for start in 0..=seq {
                for i in 0..seq {
                    let pairwise: Vec<usize> =
                        (0..seq).filter(|&j| causal_allowed(i, j, start)).collect();
                    let range: Vec<usize> = allowed_keys(i, start).collect();
                    assert_eq!(range, pairwise, "seq {seq} start {start} i {i}");
                    assert!(range.contains(&i), "a query always reads itself");
                }
                // … and the mask tensor is that range, nothing else.
                let mask = causal_padding_mask(1, seq, &[seq - start]);
                for i in 0..seq {
                    for j in 0..seq {
                        let want = if causal_allowed(i, j, start) {
                            0.0
                        } else {
                            MASK_NEG
                        };
                        assert_eq!(
                            mask.data()[i * seq + j],
                            want,
                            "seq {seq} start {start} ({i}, {j})"
                        );
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
        let mask = causal_padding_mask(b, t, &[5, 5]);
        let y = attn.forward(&mut s, x, b, t, &mask);
        assert_eq!(g.dims(y), vec![b * t, 8]);
    }

    #[test]
    fn causality_future_does_not_affect_past() {
        // Changing the last item must not change earlier positions' outputs.
        let mut rng = Rng64::seed_from(2);
        let attn = MultiHeadSelfAttention::new(4, 1, 0.0, &mut rng);
        let (b, t) = (1, 4);
        let mask = causal_padding_mask(b, t, &[4]);

        let base = Tensor::randn(&[t, 4], &mut rng);
        let mut changed = base.clone();
        for v in changed.row_mut(t - 1) {
            *v += 5.0;
        }

        let run = |input: &Tensor| {
            let g = Graph::new();
            let mut s = Session::eval(&g);
            let x = g.constant(input.clone());
            let y = attn.forward(&mut s, x, b, t, &mask);
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
            let mask = causal_padding_mask(1, t, &[2]);
            let y = attn.forward(&mut s, x, 1, t, &mask);
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
