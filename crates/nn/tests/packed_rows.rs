//! The packed taped forward ≡ the padded one, bit for bit.
//!
//! `TransformerEncoder::forward_hidden` runs over the rows a batch holds
//! (the last `max(len, 1)` positions of each sequence). Until PR 23 it ran
//! over all `batch · max_seq` rows; this file keeps that forward, assembled
//! from the public pieces it was made of over the every-position layout
//! `AttentionKeys::new`, as the reference. What is compared, all by
//! `to_bits` and in **train mode from the same `Rng64` state**: the hidden
//! state at every held row, the gradient of every parameter and the
//! gradient of the input at held rows (an exact zero at the others). A
//! dropout factor is addressed by its padded coordinate (`KeepMask`), so a
//! held row gets the factor the padded plane gives it whatever else the
//! layout holds.

use wr_autograd::{Graph, Var};
use wr_nn::{Module, Session, TransformerConfig, TransformerEncoder};
use wr_tensor::{AttentionKeys, AttentionRule, KeepMask, Rng64, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// `forward_hidden` as it was: every position of every sequence through
/// every layer.
fn padded_forward_hidden(
    enc: &TransformerEncoder,
    sess: &mut Session,
    x: Var,
    seq: usize,
    lengths: &[usize],
) -> Var {
    let g = sess.graph;
    let pos_idx: Vec<usize> = lengths.iter().flat_map(|_| 0..seq).collect();
    let p = enc.pos.forward(sess, &pos_idx);
    let mut h = g.add(x, p);
    h = enc.input_ln.forward(sess, h);
    h = sess.dropout(h, enc.config.dropout);
    let rule = if enc.config.bidirectional {
        AttentionRule::Bidirectional
    } else {
        AttentionRule::Causal
    };
    let keys = AttentionKeys::new(rule, seq, lengths);
    for block in &enc.blocks {
        h = block.forward(sess, h, &keys);
    }
    h
}

/// The rows `forward_hidden` holds of the padded plane, and those of them
/// that are real tokens.
fn held_and_real_rows(seq: usize, lengths: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let (mut held, mut real) = (Vec::new(), Vec::new());
    for (b, &len) in lengths.iter().enumerate() {
        let len = len.min(seq);
        held.extend((b + 1) * seq - len.max(1)..(b + 1) * seq);
        real.extend((b + 1) * seq - len..(b + 1) * seq);
    }
    (held, real)
}

struct Outcome {
    hidden: Tensor,
    dx: Tensor,
    /// Every bound parameter's gradient, in bind order.
    grads: Vec<(String, Vec<u32>)>,
}

/// One train-mode forward + backward from RNG seed `0xA11`, under a
/// weighted sum of the real rows.
fn run(
    enc: &TransformerEncoder,
    x: &Tensor,
    seq: usize,
    lengths: &[usize],
    upstream: &Tensor,
    forward: impl FnOnce(&TransformerEncoder, &mut Session, Var) -> Var,
) -> Outcome {
    let g = Graph::new();
    let mut sess = Session::train(&g, Rng64::seed_from(0xA11));
    let xv = g.param(x.clone());
    let hidden = forward(enc, &mut sess, xv);
    let (_, real) = held_and_real_rows(seq, lengths);
    let picked = g.gather_rows(hidden, &real);
    let loss = g.sum_all(g.mul(picked, g.constant(upstream.clone())));
    g.backward(loss);
    Outcome {
        hidden: g.value(hidden),
        dx: g.grad(xv).expect("the input is a parameter here"),
        grads: sess
            .bindings()
            .iter()
            .map(|(p, v)| {
                let grad = g.grad(*v).unwrap_or_else(|| panic!("{} got no gradient", p.name()));
                (p.name().to_string(), bits(&grad))
            })
            .collect(),
    }
}

#[test]
fn packed_forward_equals_the_padded_one_at_every_held_row() {
    // dh ∈ {12, 6, 3}: heads that end on and off the dot kernel's
    // four-lane boundary.
    let dim = 12;
    let mut rng = Rng64::seed_from(41);
    for seq in [1usize, 2, 5, 50] {
        // Empty, one item, half, exactly full and over-long in one batch.
        let lengths = [0, 1, seq / 2, seq, seq + 3];
        let batch = lengths.len();
        let (held, real) = held_and_real_rows(seq, &lengths);
        let x = Tensor::randn(&[batch * seq, dim], &mut rng);
        let upstream = Tensor::randn(&[real.len(), dim], &mut rng);
        for bidirectional in [false, true] {
            for heads in [1, 2, 4] {
                for blocks in [1, 2] {
                    for dropout in [0.0, 0.2] {
                        let config = TransformerConfig {
                            dim,
                            heads,
                            blocks,
                            ff_mult: 2,
                            max_seq: seq,
                            dropout,
                            bidirectional,
                        };
                        let case = format!("{config:?}");
                        let enc = TransformerEncoder::new(config, &mut rng);
                        let want = run(&enc, &x, seq, &lengths, &upstream, |enc, sess, xv| {
                            padded_forward_hidden(enc, sess, xv, seq, &lengths)
                        });
                        let got = run(&enc, &x, seq, &lengths, &upstream, |enc, sess, xv| {
                            enc.forward_hidden(sess, xv, batch, seq, &lengths)
                        });

                        assert_eq!(got.hidden.dims(), &[batch * seq, dim], "{case}");
                        for r in 0..batch * seq {
                            if held.contains(&r) {
                                assert_eq!(
                                    bits(&got.hidden.slice_rows(r, r + 1)),
                                    bits(&want.hidden.slice_rows(r, r + 1)),
                                    "hidden row {r}, {case}"
                                );
                                assert_eq!(
                                    bits(&got.dx.slice_rows(r, r + 1)),
                                    bits(&want.dx.slice_rows(r, r + 1)),
                                    "dx row {r}, {case}"
                                );
                            } else {
                                assert!(
                                    got.hidden.row(r).iter().all(|v| v.to_bits() == 0),
                                    "row {r} is not held: +0.0, {case}"
                                );
                                // The padded plane's gradient there is an
                                // exact zero too, of either sign.
                                for dx in [&got.dx, &want.dx] {
                                    assert!(dx.row(r).iter().all(|&v| v == 0.0), "dx row {r}, {case}");
                                }
                            }
                        }
                        // Every parameter, the positional table included.
                        assert_eq!(got.grads.len(), enc.params().len(), "{case}");
                        for ((name, got), (want_name, want)) in got.grads.iter().zip(&want.grads) {
                            assert_eq!(name, want_name, "bind order, {case}");
                            assert_eq!(got, want, "gradient of {name}, {case}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn packed_and_padded_give_the_same_factor_at_every_held_row() {
    // Ones in, factors out: `dropout_held` over the rows a packed layout
    // holds against `dropout` over the whole padded plane, one mask.
    let (seq, width) = (7, 8);
    let mask = KeepMask::new(0xA12, 5, 0.2);
    for lengths in [[1, 1], [seq, seq], [0, seq], [3, 9], [0, 0]] {
        let g = Graph::new();
        let x = g.constant(Tensor::ones(&[lengths.len() * seq, width]));
        let padded = g.value(g.dropout(x, mask));
        for keys in [
            AttentionKeys::packed(AttentionRule::Causal, seq, &lengths),
            AttentionKeys::new(AttentionRule::Causal, seq, &lengths),
        ] {
            let rows = keys.padded_rows();
            let held = g.value(g.dropout_held(g.gather_rows(x, &rows), mask, &keys));
            for (r, &row) in rows.iter().enumerate() {
                assert_eq!(
                    bits(&held.slice_rows(r, r + 1)),
                    bits(&padded.slice_rows(row, row + 1)),
                    "lengths {lengths:?}, {} rows held, padded row {row}",
                    keys.rows()
                );
            }
        }
        let kept = padded.data().iter().filter(|&&f| f != 0.0).count();
        assert!(0 < kept && kept < padded.numel(), "some kept, some dropped");
    }
}
