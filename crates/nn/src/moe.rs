//! Mixture-of-Experts adaptor (UniSRec's item encoder).

use crate::{Linear, Module, Param, Session};
use wr_autograd::Var;
use wr_tensor::{Rng64, Tensor};

/// MoE adaptor: `y = Σ_e gate_e(x) · Expert_e(x)` with a softmax gate.
///
/// Follows UniSRec: each expert is a linear map `d_in → d_out`, the gate is
/// a linear map to expert logits with optional Gaussian noise during
/// training (load-balancing regularisation is out of scope at this scale).
#[derive(Debug, Clone)]
pub struct MoEAdaptor {
    pub experts: Vec<Linear>,
    pub gate: Linear,
    pub noise_std: f32,
}

impl MoEAdaptor {
    pub fn new(in_dim: usize, out_dim: usize, n_experts: usize, noise_std: f32, rng: &mut Rng64) -> Self {
        assert!(n_experts >= 1);
        MoEAdaptor {
            experts: (0..n_experts)
                .map(|_| Linear::new(in_dim, out_dim, true, rng))
                .collect(),
            gate: Linear::new(in_dim, n_experts, false, rng),
            noise_std,
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "the expert loop ran at least once: n_experts >= 1 is asserted in new()"
    )]
    pub fn forward(&self, sess: &mut Session, x: Var) -> Var {
        let g = sess.graph;
        let mut logits = self.gate.forward(sess, x);
        if sess.is_train() && self.noise_std > 0.0 {
            let dims = g.dims(logits);
            let noise = Tensor::randn(&dims, sess.rng()).scale(self.noise_std);
            let noise = g.constant(noise);
            logits = g.add(logits, noise);
        }
        let gates = g.softmax_rows(logits); // [n, n_experts]

        let mut combined: Option<Var> = None;
        for (e, expert) in self.experts.iter().enumerate() {
            let out = expert.forward(sess, x); // [n, out]
            let gate_col = g.slice_cols(gates, e, e + 1); // [n, 1]
            // Broadcast the gate across output dims: out ⊙ gate.
            let out_dim = g.dims(out)[1];
            let ones = g.constant(Tensor::ones(&[1, out_dim]));
            let gate_full = g.matmul(gate_col, ones); // [n, out]
            let weighted = g.mul(out, gate_full);
            combined = Some(match combined {
                Some(acc) => g.add(acc, weighted),
                None => weighted,
            });
        }
        combined.expect("at least one expert")
    }
}

impl Module for MoEAdaptor {
    fn params(&self) -> Vec<Param> {
        let mut ps: Vec<Param> = self.experts.iter().flat_map(|e| e.params()).collect();
        ps.extend(self.gate.params());
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_autograd::Graph;

    #[test]
    fn output_shape() {
        let mut rng = Rng64::seed_from(1);
        let moe = MoEAdaptor::new(6, 4, 3, 0.0, &mut rng);
        let g = Graph::new();
        let mut s = Session::eval(&g);
        let x = g.constant(Tensor::randn(&[5, 6], &mut rng));
        let y = moe.forward(&mut s, x);
        assert_eq!(g.dims(y), vec![5, 4]);
    }

    #[test]
    fn single_expert_reduces_to_linear() {
        let mut rng = Rng64::seed_from(2);
        let moe = MoEAdaptor::new(3, 2, 1, 0.0, &mut rng);
        let g = Graph::new();
        let mut s = Session::eval(&g);
        let input = Tensor::randn(&[4, 3], &mut rng);
        let x = g.constant(input.clone());
        let y = moe.forward(&mut s, x);
        // gate softmax over one expert is identically 1 => y == expert(x)
        let g2 = Graph::new();
        let mut s2 = Session::eval(&g2);
        let x2 = g2.constant(input);
        let y2 = moe.experts[0].forward(&mut s2, x2);
        for (a, b) in g.value(y).data().iter().zip(g2.value(y2).data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn gradients_reach_gate_and_experts() {
        let mut rng = Rng64::seed_from(3);
        let moe = MoEAdaptor::new(4, 4, 2, 0.1, &mut rng);
        let g = Graph::new();
        let mut s = Session::train(&g, Rng64::seed_from(4));
        let x = g.constant(Tensor::randn(&[6, 4], &mut rng));
        let y = moe.forward(&mut s, x);
        let loss = g.mean_all(y);
        g.backward(loss);
        for (p, v) in s.bindings() {
            assert!(g.grad(*v).is_some(), "no grad for {}", p.name());
        }
        assert_eq!(s.bindings().len(), 2 * 2 + 1); // 2 experts (w+b) + gate w
    }
}
