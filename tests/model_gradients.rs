//! End-to-end gradient check: a miniature SASRec training objective
//! (tower → transformer → full-softmax CE) against central finite
//! differences. Verifies that the composed backward pass — attention,
//! LayerNorm, gather, projection head, cross-entropy — is consistent, not
//! just each op in isolation.

use whitenrec::autograd::{check_gradients, Graph, Var};
use whitenrec::nn::{
    causal_padding_mask, LayerNorm, Linear, Session,
};
use whitenrec::tensor::{AttentionKeys, AttentionRule, Rng64, Tensor};

/// Build a 1-head attention + LN + linear-head next-item objective with
/// explicitly threaded parameters so the checker can perturb them. With
/// `node_heads` the attention is the `Graph::attention` node over that many
/// heads (what the encoder records) instead of the op-by-op chain.
fn mini_model_loss(
    g: &Graph,
    params: &[Tensor],
    item_table: &Tensor,
    seq_items: &[usize],
    target: usize,
    node_heads: Option<usize>,
) -> (Vec<Var>, Var) {
    let dim = item_table.cols();
    let t = seq_items.len();

    let wq = g.param(params[0].clone());
    let wk = g.param(params[1].clone());
    let wv = g.param(params[2].clone());
    let wproj = g.param(params[3].clone());

    let table = g.constant(item_table.clone());
    let x = g.gather_rows(table, seq_items); // [t, dim]

    let q = g.matmul(x, wq);
    let k = g.matmul(x, wk);
    let v = g.matmul(x, wv);
    let h = if let Some(heads) = node_heads {
        let keys = AttentionKeys::new(AttentionRule::Causal, t, &[t]);
        g.attention(q, k, v, heads, &keys, None)
    } else {
        let q3 = g.reshape(q, &[1, t, dim]);
        let k3 = g.reshape(k, &[1, t, dim]);
        let v3 = g.reshape(v, &[1, t, dim]);
        let scores = g.scale(g.bmm_nt(q3, k3), 1.0 / (dim as f32).sqrt());
        let mask = causal_padding_mask(1, t, &[t]);
        let scores = g.add(scores, g.constant(mask));
        let attn = g.softmax3d_last(scores);
        g.reshape(g.bmm(attn, v3), &[t, dim])
    };

    let last = g.gather_rows(h, &[t - 1]); // [1, dim]
    let user = g.matmul(last, wproj);
    let logits = g.matmul(user, g.transpose(table));
    let loss = g.cross_entropy(logits, &[target]);
    (vec![wq, wk, wv, wproj], loss)
}

#[test]
fn composed_model_gradients_match_finite_differences() {
    let dim = 6;
    let mut rng = Rng64::seed_from(11);
    let item_table = Tensor::randn(&[8, dim], &mut rng).scale(0.7);
    let seq = [2usize, 5, 1, 7];
    let target = 3usize;

    let params = vec![
        Tensor::randn(&[dim, dim], &mut rng).scale(0.4),
        Tensor::randn(&[dim, dim], &mut rng).scale(0.4),
        Tensor::randn(&[dim, dim], &mut rng).scale(0.4),
        Tensor::randn(&[dim, dim], &mut rng).scale(0.4),
    ];

    // The chain, then the node at one head (the same function) and at two.
    for node_heads in [None, Some(1), Some(2)] {
        let report = check_gradients(&params, 1e-2, |g, ps| {
            mini_model_loss(g, ps, &item_table, &seq, target, node_heads)
        });
        assert!(
            report.passed(3e-2),
            "composed gradient check failed ({node_heads:?}): max rel err {} at {:?} over {} elements",
            report.max_rel_error,
            report.worst,
            report.checked
        );
    }
}

#[test]
fn layernorm_plus_linear_composition_gradients() {
    let mut rng = Rng64::seed_from(12);
    let x = Tensor::randn(&[3, 5], &mut rng);
    let ln = LayerNorm::new(5);
    let head = Linear::new(5, 2, true, &mut rng);
    // Perturb the layer parameters through the Param-based modules: verify
    // via loss differences under manual nudges (a coarser but end-to-end
    // check that Session-bound modules backprop into their Params).
    let loss_value = || -> f32 {
        let g = Graph::new();
        let mut sess = Session::eval(&g);
        let xv = g.constant(x.clone());
        let y = ln.forward(&mut sess, xv);
        let z = head.forward(&mut sess, y);
        let t = g.tanh(z);
        g.value(g.sum_all(t)).item()
    };
    // Analytic gradient for one weight element.
    let g = Graph::new();
    let mut sess = Session::eval(&g);
    let xv = g.constant(x.clone());
    let y = ln.forward(&mut sess, xv);
    let z = head.forward(&mut sess, y);
    let t = g.tanh(z);
    let loss = g.sum_all(t);
    g.backward(loss);
    let (param, var) = sess
        .bindings()
        .iter()
        .find(|(p, _)| p.name().contains(".w"))
        .cloned()
        .expect("weight bound");
    let analytic = g.grad(var).unwrap().data()[0];

    let eps = 1e-2;
    let base = param.get();
    let mut plus = base.clone();
    plus.data_mut()[0] += eps;
    param.set(plus);
    let f_plus = loss_value();
    let mut minus = base.clone();
    minus.data_mut()[0] -= eps;
    param.set(minus);
    let f_minus = loss_value();
    param.set(base);

    let numeric = (f_plus - f_minus) / (2.0 * eps);
    let rel = (analytic - numeric).abs() / analytic.abs().max(numeric.abs()).max(1e-3);
    assert!(rel < 3e-2, "analytic {analytic} vs numeric {numeric}");
}
