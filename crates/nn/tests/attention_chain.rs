//! `Graph::attention` ≡ the per-head chain it replaced, bit for bit.
//!
//! Until PR 22 `MultiHeadSelfAttention::forward` recorded thirteen tape
//! nodes per head over every (query, key) pair; this file keeps that chain,
//! assembled from the public ops it was made of, as the node's independent
//! reference. `frozen_encoder.rs` and `frozen_equivalence.rs` cannot play
//! that part any more: the frozen and the taped encoder now call the same
//! row kernel, so they agree whatever it computes. What is compared, all by
//! `to_bits`: the output and the gradients of `q`, `k` and `v`. Under
//! dropout the chain multiplies each head's weights by the factors the
//! public `KeepMask` gives their (head, sequence, query, key) coordinates,
//! so the node must apply the same factor at every allowed pair.

use wr_autograd::{Graph, Var};
use wr_nn::{
    bidirectional_padding_mask, causal_padding_mask, Session, TransformerConfig, TransformerEncoder,
};
use wr_tensor::{AttentionKeys, AttentionRule, KeepMask, Rng64, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// The chain, node for node as `MultiHeadSelfAttention::forward` wrote it;
/// its dropout node is spelled out as the product with the factors of the
/// head's `[batch, seq, seq]` block of the `[heads · batch, seq, seq]`
/// plane the node addresses.
fn chain(
    g: &Graph,
    [q, k, v]: [Var; 3],
    heads: usize,
    mask: &Tensor,
    dropout: Option<KeepMask>,
) -> Var {
    let (batch, seq) = (mask.dims()[0], mask.dims()[1]);
    let dh = g.dims(q)[1] / heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let mask_var = g.constant(mask.clone());
    let mut head_outputs = Vec::with_capacity(heads);
    for h in 0..heads {
        let (lo, hi) = (h * dh, (h + 1) * dh);
        let qh = g.reshape(g.slice_cols(q, lo, hi), &[batch, seq, dh]);
        let kh = g.reshape(g.slice_cols(k, lo, hi), &[batch, seq, dh]);
        let vh = g.reshape(g.slice_cols(v, lo, hi), &[batch, seq, dh]);
        let scores = g.scale(g.bmm_nt(qh, kh), scale);
        let scores = g.add(scores, mask_var);
        let mut attn = g.softmax3d_last(scores);
        if let Some(keep) = dropout {
            let block = batch * seq * seq;
            let factors = (h * block..(h + 1) * block).map(|e| keep.factor(e)).collect();
            attn = g.mul(attn, g.constant(Tensor::from_vec(factors, &[batch, seq, seq])));
        }
        let out = g.bmm(attn, vh);
        head_outputs.push(g.reshape(out, &[batch * seq, dh]));
    }
    if head_outputs.len() == 1 {
        head_outputs[0]
    } else {
        g.concat_cols(&head_outputs)
    }
}

/// Output and `[dq, dk, dv]` for one attention call under a weighted-sum
/// loss.
fn run(
    operands: &[Tensor; 3],
    upstream: &Tensor,
    p: f32,
    attention: impl FnOnce(&Graph, [Var; 3], Option<KeepMask>) -> Var,
) -> (Vec<u32>, [Vec<u32>; 3]) {
    let g = Graph::new();
    let vars = [0, 1, 2].map(|i| g.param(operands[i].clone()));
    let out = attention(&g, vars, (p > 0.0).then(|| KeepMask::new(0xD0, 3, p)));
    let loss = g.sum_all(g.mul(out, g.constant(upstream.clone())));
    g.backward(loss);
    let grads = vars.map(|x| bits(&g.grad(x).expect("every operand is a parameter")));
    (bits(&g.value(out)), grads)
}

#[test]
fn node_equals_the_chain_in_values_and_gradients_under_the_same_factors() {
    // Widths whose heads end on and off the dot kernel's four-lane
    // boundary: dh ∈ {12, 6, 3}.
    let dim = 12;
    let mut rng = Rng64::seed_from(22);
    for seq in [1usize, 2, 5, 50] {
        // Empty, one item, half, exactly full and over-long in one batch.
        let lengths = [0, 1, seq / 2, seq, seq + 3];
        let batch = lengths.len();
        let operands = [0, 1, 2].map(|_| Tensor::randn(&[batch * seq, dim], &mut rng));
        let upstream = Tensor::randn(&[batch * seq, dim], &mut rng);
        for (rule, mask) in [
            (
                AttentionRule::Causal,
                causal_padding_mask(batch, seq, &lengths),
            ),
            (
                AttentionRule::Bidirectional,
                bidirectional_padding_mask(batch, seq, &lengths),
            ),
        ] {
            let keys = AttentionKeys::new(rule, seq, &lengths);
            for heads in [1, 2, 4] {
                for p in [0.0, 0.2] {
                    let want = run(&operands, &upstream, p, |g, qkv, dropout| {
                        chain(g, qkv, heads, &mask, dropout)
                    });
                    let got = run(&operands, &upstream, p, |g, [q, k, v], dropout| {
                        g.attention(q, k, v, heads, &keys, dropout)
                    });
                    let case = format!("{rule:?} seq {seq} heads {heads} dropout {p}");
                    assert_eq!(got.0, want.0, "output, {case}");
                    for (name, (got, want)) in
                        ["dq", "dk", "dv"].iter().zip(got.1.iter().zip(&want.1))
                    {
                        assert_eq!(got, want, "{name}, {case}");
                    }
                }
            }
        }
    }
}

#[test]
fn a_nan_only_pad_positions_read_reaches_no_row() {
    // The equivalence above is for finite operands. A NaN in the
    // positional row of a position that is a pad in every sequence of the
    // batch: the chain multiplied it by a masked weight (`0.0 · NaN`) and
    // lost every row of the sequence; the node never reads a masked key,
    // and the encoder runs over the rows the batch holds, so the NaN is
    // read by nothing — every row of `hidden` is finite and every pad row
    // is the `+0.0` the scatter left. `freeze` refuses such a model either
    // way.
    let config = TransformerConfig {
        dim: 8,
        heads: 2,
        blocks: 2,
        ff_mult: 2,
        max_seq: 6,
        dropout: 0.0,
        bidirectional: false,
    };
    let mut rng = Rng64::seed_from(23);
    let enc = TransformerEncoder::new(config, &mut rng);
    let mut pos = enc.pos.table.get();
    pos.row_mut(0).fill(f32::NAN);
    enc.pos.table.set(pos);

    let (seq, lengths) = (6, [3usize, 5, 0]);
    let x = Tensor::randn(&[lengths.len() * seq, 8], &mut rng);
    let g = Graph::new();
    let mut sess = Session::eval(&g);
    let hidden = g.value(enc.forward_hidden(
        &mut sess,
        g.constant(x.clone()),
        lengths.len(),
        seq,
        &lengths,
    ));
    for (b, &len) in lengths.iter().enumerate() {
        for i in 0..seq {
            let row = hidden.row(b * seq + i);
            assert!(
                row.iter().all(|v| v.is_finite()),
                "sequence {b} (length {len}) position {i}"
            );
            // Held: the real positions, and an empty history's last pad.
            if i < seq - len.max(1) {
                assert!(
                    row.iter().all(|v| v.to_bits() == 0),
                    "pad row {i} of sequence {b} (length {len})"
                );
            }
        }
    }

    // The chain on the same q = k = v: every row of every sequence is lost.
    let g = Graph::new();
    let mut poisoned = x;
    for b in 0..lengths.len() {
        poisoned.row_mut(b * seq).fill(f32::NAN);
    }
    let qkv = g.constant(poisoned);
    let mask = causal_padding_mask(lengths.len(), seq, &lengths);
    let lost = g.value(chain(&g, [qkv; 3], 2, &mask, None));
    assert!(lost.data().iter().all(|v| v.is_nan()));

    let items = std::sync::Arc::new(Tensor::randn(&[5, 8], &mut rng));
    assert!(
        enc.freeze(items).is_none(),
        "a non-finite model must not freeze"
    );
}
