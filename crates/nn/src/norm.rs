//! Layer normalization.

use crate::{FrozenLayerNorm, Module, Param, Session};
use wr_autograd::Var;
use wr_tensor::Tensor;

/// LayerNorm over the last axis with learned affine parameters.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    pub gamma: Param,
    pub beta: Param,
    pub eps: f32,
}

impl LayerNorm {
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Param::new(format!("ln[{dim}].gamma"), Tensor::ones(&[dim])),
            beta: Param::new(format!("ln[{dim}].beta"), Tensor::zeros(&[dim])),
            eps: 1e-5,
        }
    }

    pub fn forward(&self, sess: &mut Session, x: Var) -> Var {
        let gamma = sess.bind(&self.gamma);
        let beta = sess.bind(&self.beta);
        sess.graph.layer_norm_rows(x, gamma, beta, self.eps)
    }

    /// Snapshot the current affine parameters into a tape-free layer.
    pub(crate) fn freeze(&self) -> FrozenLayerNorm {
        FrozenLayerNorm::new(&self.gamma.get(), &self.beta.get(), self.eps)
    }
}

impl Module for LayerNorm {
    fn params(&self) -> Vec<Param> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_autograd::Graph;
    use wr_tensor::Rng64;

    #[test]
    fn normalizes_rows() {
        let ln = LayerNorm::new(8);
        let g = Graph::new();
        let mut s = Session::eval(&g);
        let mut rng = Rng64::seed_from(1);
        let x = g.constant(Tensor::randn(&[5, 8], &mut rng).scale(10.0).add_scalar(3.0));
        let y = ln.forward(&mut s, x);
        let yv = g.value(y);
        for r in 0..5 {
            let row = yv.row(r);
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "row {r} var {var}");
        }
    }

    #[test]
    fn param_count() {
        let ln = LayerNorm::new(16);
        assert_eq!(ln.param_count(), 32);
    }
}
