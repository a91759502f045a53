//! Finite-difference gradient checking.
//!
//! Every new differentiable op gets validated against a central-difference
//! approximation before it's trusted in training. The checker rebuilds the
//! whole graph per perturbed element, so keep the probed tensors small.

use crate::{Graph, Var};
use wr_tensor::Tensor;

/// Outcome of a gradient check.
#[derive(Debug, Clone)]
pub struct GradCheckReport {
    /// Largest relative error across all checked elements.
    pub max_rel_error: f32,
    /// Element index (param, flat offset) of the worst error.
    pub worst: (usize, usize),
    /// Total elements compared.
    pub checked: usize,
}

impl GradCheckReport {
    pub fn passed(&self, tol: f32) -> bool {
        self.max_rel_error <= tol
    }
}

/// Compare analytic gradients against central finite differences.
///
/// `build` receives a fresh graph and the current parameter tensors and must
/// return `(param_vars, loss_var)` with one `Var` per input tensor, in
/// order. The same closure is used for the analytic pass and every
/// perturbed forward pass.
pub fn check_gradients(
    params: &[Tensor],
    eps: f32,
    build: impl Fn(&Graph, &[Tensor]) -> (Vec<Var>, Var),
) -> GradCheckReport {
    // Analytic pass.
    let g = Graph::new();
    let (vars, loss) = build(&g, params);
    assert_eq!(vars.len(), params.len(), "one Var per parameter expected");
    g.backward(loss);
    let analytic: Vec<Tensor> = vars
        .iter()
        .zip(params)
        .map(|(&v, p)| g.grad(v).unwrap_or_else(|| Tensor::zeros(p.dims())))
        .collect();

    let mut max_rel_error = 0.0f32;
    let mut worst = (0, 0);
    let mut checked = 0;

    for (pi, p) in params.iter().enumerate() {
        for i in 0..p.numel() {
            let mut plus = params.to_vec();
            plus[pi].data_mut()[i] += eps;
            let gp = Graph::new();
            let (_, lp) = build(&gp, &plus);
            let fp = gp.value(lp).item();

            let mut minus = params.to_vec();
            minus[pi].data_mut()[i] -= eps;
            let gm = Graph::new();
            let (_, lm) = build(&gm, &minus);
            let fm = gm.value(lm).item();

            let numeric = (fp - fm) / (2.0 * eps);
            let a = analytic[pi].data()[i];
            let denom = a.abs().max(numeric.abs()).max(1e-3);
            let rel = (a - numeric).abs() / denom;
            if rel > max_rel_error {
                max_rel_error = rel;
                worst = (pi, i);
            }
            checked += 1;
        }
    }

    GradCheckReport {
        max_rel_error,
        worst,
        checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_tensor::{KeepMask, Rng64};

    const TOL: f32 = 2e-2; // f32 forward + finite differences

    fn rnd(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = Rng64::seed_from(seed);
        Tensor::randn(dims, &mut rng).scale(0.5)
    }

    #[test]
    fn grad_matmul_chain() {
        let a = rnd(&[3, 4], 1);
        let b = rnd(&[4, 2], 2);
        let report = check_gradients(&[a, b], 1e-2, |g, ps| {
            let va = g.param(ps[0].clone());
            let vb = g.param(ps[1].clone());
            let y = g.matmul(va, vb);
            let y = g.tanh(y);
            (vec![va, vb], g.sum_all(y))
        });
        assert!(report.passed(TOL), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn grad_elementwise_ops() {
        let a = rnd(&[2, 3], 3);
        let b = rnd(&[2, 3], 4);
        let report = check_gradients(&[a, b], 1e-2, |g, ps| {
            let va = g.param(ps[0].clone());
            let vb = g.param(ps[1].clone());
            let s = g.add(va, vb);
            let m = g.mul(s, va);
            let e = g.sub(m, vb);
            (vec![va, vb], g.mean_all(e))
        });
        assert!(report.passed(TOL), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn grad_activations() {
        let a = rnd(&[2, 4], 5);
        let report = check_gradients(&[a], 1e-2, |g, ps| {
            let v = g.param(ps[0].clone());
            let r = g.gelu(v);
            let s = g.sigmoid(r);
            let t = g.tanh(s);
            (vec![v], g.sum_all(t))
        });
        assert!(report.passed(TOL), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn grad_relu_away_from_kink() {
        // keep values away from 0 so the subgradient is well-defined
        let a = rnd(&[3, 3], 6).map(|x| if x.abs() < 0.2 { x.signum() * 0.5 } else { x });
        let report = check_gradients(&[a], 1e-3, |g, ps| {
            let v = g.param(ps[0].clone());
            let r = g.relu(v);
            (vec![v], g.sum_all(r))
        });
        assert!(report.passed(TOL), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn grad_softmax_cross_entropy() {
        let logits = rnd(&[4, 5], 7);
        let targets = vec![0usize, 2, 4, 1];
        let report = check_gradients(&[logits], 1e-2, |g, ps| {
            let v = g.param(ps[0].clone());
            let loss = g.cross_entropy(v, &targets);
            (vec![v], loss)
        });
        assert!(report.passed(TOL), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn grad_softmax_rows() {
        let a = rnd(&[3, 4], 8);
        let w = rnd(&[3, 4], 9);
        let report = check_gradients(&[a.clone()], 1e-2, |g, ps| {
            let v = g.param(ps[0].clone());
            let s = g.softmax_rows(v);
            let wv = g.constant(w.clone());
            let p = g.mul(s, wv);
            (vec![v], g.sum_all(p))
        });
        assert!(report.passed(TOL), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn grad_layernorm() {
        let x = rnd(&[3, 6], 10);
        let gamma = Tensor::ones(&[6]).add_scalar(0.3);
        let beta = rnd(&[6], 11);
        let w = rnd(&[3, 6], 12);
        let report = check_gradients(&[x, gamma, beta], 1e-2, |g, ps| {
            let vx = g.param(ps[0].clone());
            let vg = g.param(ps[1].clone());
            let vb = g.param(ps[2].clone());
            let y = g.layer_norm_rows(vx, vg, vb, 1e-5);
            let wv = g.constant(w.clone());
            let p = g.mul(y, wv);
            (vec![vx, vg, vb], g.sum_all(p))
        });
        assert!(report.passed(TOL), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn grad_bmm_and_softmax3d() {
        let q = rnd(&[2, 3, 4], 13);
        let k = rnd(&[2, 3, 4], 14);
        let v = rnd(&[2, 3, 4], 15);
        let report = check_gradients(&[q, k, v], 1e-2, |g, ps| {
            let vq = g.param(ps[0].clone());
            let vk = g.param(ps[1].clone());
            let vv = g.param(ps[2].clone());
            let scores = g.bmm_nt(vq, vk);
            let scores = g.scale(scores, 0.5);
            let attn = g.softmax3d_last(scores);
            let out = g.bmm(attn, vv);
            (vec![vq, vk, vv], g.sum_all(out))
        });
        assert!(report.passed(TOL), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn grad_gather_and_slice() {
        let table = rnd(&[5, 4], 16);
        let w = rnd(&[3, 2], 17);
        let report = check_gradients(&[table], 1e-2, |g, ps| {
            let t = g.param(ps[0].clone());
            let e = g.gather_rows(t, &[4, 0, 4]); // repeated index: grads accumulate
            let s = g.slice_cols(e, 1, 3);
            let wv = g.constant(w.clone());
            let p = g.mul(s, wv);
            (vec![t], g.sum_all(p))
        });
        assert!(report.passed(TOL), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn grad_concat_broadcast() {
        let a = rnd(&[2, 3], 18);
        let b = rnd(&[2, 2], 19);
        let bias = rnd(&[5], 20);
        let report = check_gradients(&[a, b, bias], 1e-2, |g, ps| {
            let va = g.param(ps[0].clone());
            let vb = g.param(ps[1].clone());
            let vbias = g.param(ps[2].clone());
            let c = g.concat_cols(&[va, vb]);
            let y = g.add_row_broadcast(c, vbias);
            let y = g.tanh(y);
            (vec![va, vb, vbias], g.sum_all(y))
        });
        assert!(report.passed(TOL), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn grad_l2_normalize() {
        let a = rnd(&[3, 4], 21).add_scalar(0.5);
        let w = rnd(&[3, 4], 22);
        let report = check_gradients(&[a], 1e-3, |g, ps| {
            let v = g.param(ps[0].clone());
            let n = g.l2_normalize_rows(v);
            let wv = g.constant(w.clone());
            let p = g.mul(n, wv);
            (vec![v], g.sum_all(p))
        });
        assert!(report.passed(TOL), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn grad_exp_ln() {
        let a = rnd(&[2, 3], 23).map(|x| x.abs() + 0.5);
        let report = check_gradients(&[a], 1e-3, |g, ps| {
            let v = g.param(ps[0].clone());
            let e = g.exp(v);
            let l = g.ln(e);
            let y = g.mul(l, v);
            (vec![v], g.mean_all(y))
        });
        assert!(report.passed(TOL), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn grad_transpose_reshape_scale() {
        let a = rnd(&[3, 4], 24);
        let report = check_gradients(&[a], 1e-2, |g, ps| {
            let v = g.param(ps[0].clone());
            let t = g.transpose(v);
            let r = g.reshape(t, &[2, 6]);
            let s = g.scale(r, 1.5);
            let s = g.add_scalar(s, 0.1);
            (vec![v], g.sum_all(s))
        });
        assert!(report.passed(TOL), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn grad_mask_rows() {
        let a = rnd(&[3, 4], 25);
        let report = check_gradients(&[a], 1e-2, |g, ps| {
            let v = g.param(ps[0].clone());
            let masked = g.mask_rows(v, &[1.0, 0.0, 1.0]);
            (vec![v], g.sum_all(masked))
        });
        assert!(report.passed(TOL), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn grad_attention() {
        use wr_tensor::{AttentionKeys, AttentionRule};
        // Three sequences of four positions — empty, partly padded, full —
        // under both rules, two heads, with and without dropout (the same
        // mask on every rebuild, so the dropped weights are the same and
        // the loss stays a smooth function of the operands), over every
        // position and over the rows a packed layout holds (1 + 2 + 4: the
        // empty history keeps its last pad).
        let (seq, dim, heads) = (4, 4, 2);
        let lengths = [0, 2, 4];
        for rule in [AttentionRule::Causal, AttentionRule::Bidirectional] {
            for keys in [
                AttentionKeys::new(rule, seq, &lengths),
                AttentionKeys::packed(rule, seq, &lengths),
            ] {
                let operands: Vec<Tensor> = (0..3).map(|i| rnd(&[keys.rows(), dim], 29 + i)).collect();
                let w = rnd(&[keys.rows(), dim], 32);
                for p in [0.0, 0.3] {
                    let report = check_gradients(&operands, 1e-2, |g, ps| {
                        let vars: Vec<Var> = ps.iter().map(|t| g.param(t.clone())).collect();
                        let mask = (p > 0.0).then(|| KeepMask::new(7, 0, p));
                        let y = g.attention(vars[0], vars[1], vars[2], heads, &keys, mask);
                        let weighted = g.mul(y, g.constant(w.clone()));
                        (vars, g.sum_all(weighted))
                    });
                    assert!(
                        report.passed(TOL),
                        "{rule:?} {} rows dropout {p}: max rel err {} at {:?}",
                        keys.rows(),
                        report.max_rel_error,
                        report.worst
                    );
                    assert_eq!(report.checked, 3 * keys.rows() * dim);
                }
            }
        }
    }

    #[test]
    fn grad_scatter_rows() {
        let a = rnd(&[3, 4], 33);
        // Weighted, so that a gradient landing in the wrong row shows.
        let w = rnd(&[6, 4], 34);
        let report = check_gradients(&[a], 1e-2, |g, ps| {
            let v = g.param(ps[0].clone());
            let spread = g.scatter_rows(v, &[1, 2, 5], 6);
            (vec![v], g.sum_all(g.mul(spread, g.constant(w.clone()))))
        });
        assert!(report.passed(TOL), "max rel err {}", report.max_rel_error);
        assert_eq!(report.checked, 12);

        let g = Graph::new();
        let v = g.constant(Tensor::ones(&[2, 2]));
        let spread = g.value(g.scatter_rows(v, &[0, 2], 3));
        assert_eq!(spread.data(), &[1.0, 1.0, 0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn grad_dropout_scales_mask() {
        // The mask is a function of position, so check dy/dx equals the
        // mask itself.
        let g = Graph::new();
        let x = g.param(Tensor::ones(&[4, 4]));
        let y = g.dropout(x, KeepMask::new(99, 0, 0.5));
        let loss = g.sum_all(y);
        g.backward(loss);
        let grad = g.grad(x).unwrap();
        let yv = g.value(y);
        // y = x * mask with x = 1, so grad == mask == y.
        assert_eq!(grad.data(), yv.data());
        let kept = grad.data().iter().filter(|&&v| v > 0.0).count();
        assert!(kept > 0 && kept < 16);
        for &v in grad.data() {
            assert!(v == 0.0 || (v - 2.0).abs() < 1e-6);
        }
    }
}
