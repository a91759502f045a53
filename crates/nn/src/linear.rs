//! Dense layers and the paper's projection heads.

use crate::{FrozenLinear, Module, Param, Session};
use wr_autograd::Var;
use wr_tensor::{Initializer, Rng64};

/// Fully-connected layer `y = x W (+ b)` with `W: [in, out]`.
#[derive(Debug, Clone)]
pub struct Linear {
    pub weight: Param,
    pub bias: Option<Param>,
}

impl Linear {
    pub fn new(in_dim: usize, out_dim: usize, bias: bool, rng: &mut Rng64) -> Self {
        let weight = Param::new(
            format!("linear[{in_dim}x{out_dim}].w"),
            Initializer::XavierUniform.init_matrix(in_dim, out_dim, rng),
        );
        let bias = bias.then(|| {
            Param::new(
                format!("linear[{in_dim}x{out_dim}].b"),
                Initializer::Zeros.init_matrix(1, out_dim, rng).reshape(&[out_dim]),
            )
        });
        Linear { weight, bias }
    }

    pub fn forward(&self, sess: &mut Session, x: Var) -> Var {
        let w = sess.bind(&self.weight);
        let y = sess.graph.matmul(x, w);
        match &self.bias {
            Some(b) => {
                let bv = sess.bind(b);
                sess.graph.add_row_broadcast(y, bv)
            }
            None => y,
        }
    }

    /// Snapshot the current weights into a tape-free layer.
    pub(crate) fn freeze(&self) -> FrozenLinear {
        let bias = self.bias.as_ref().map(Param::get);
        FrozenLinear::new(&self.weight.get(), bias.as_ref())
    }

    pub fn in_dim(&self) -> usize {
        self.weight.dims()[0]
    }

    pub fn out_dim(&self) -> usize {
        self.weight.dims()[1]
    }
}

impl Module for Linear {
    fn params(&self) -> Vec<Param> {
        let mut ps = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            ps.push(b.clone());
        }
        ps
    }
}

/// Multi-layer perceptron with ReLU on every hidden layer.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    /// Apply ReLU after the final layer too (the paper's projector appends
    /// ReLU to both hidden layers of the 2-layer head).
    relu_on_output: bool,
    dropout: f32,
}

impl Mlp {
    /// `dims = [in, h1, ..., out]`; one `Linear` per consecutive pair.
    pub fn new(dims: &[usize], relu_on_output: bool, dropout: f32, rng: &mut Rng64) -> Self {
        assert!(dims.len() >= 2, "Mlp needs at least [in, out]");
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], true, rng))
            .collect();
        Mlp {
            layers,
            relu_on_output,
            dropout,
        }
    }

    pub fn forward(&self, sess: &mut Session, mut x: Var) -> Var {
        let n = self.layers.len();
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.forward(sess, x);
            if i + 1 < n || self.relu_on_output {
                x = sess.graph.relu(x);
            }
            if i + 1 < n {
                x = sess.dropout(x, self.dropout);
            }
        }
        x
    }

    pub fn depth(&self) -> usize {
        self.layers.len()
    }
}

impl Module for Mlp {
    fn params(&self) -> Vec<Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }
}

/// The projection-head variants ablated in Table V.
#[derive(Debug, Clone)]
pub enum ProjectionHead {
    /// Single linear map, no activation ("Linear" row).
    Linear(Linear),
    /// `k`-hidden-layer MLP with ReLU after every layer ("MLP-k" rows).
    Mlp(Mlp),
}

impl ProjectionHead {
    /// Build the head named in the paper: 0 hidden layers → Linear;
    /// otherwise an MLP with `hidden_layers` layers of width `out_dim`.
    pub fn new(in_dim: usize, out_dim: usize, hidden_layers: usize, rng: &mut Rng64) -> Self {
        if hidden_layers == 0 {
            ProjectionHead::Linear(Linear::new(in_dim, out_dim, true, rng))
        } else {
            let mut dims = vec![in_dim];
            dims.extend(std::iter::repeat(out_dim).take(hidden_layers));
            ProjectionHead::Mlp(Mlp::new(&dims, true, 0.0, rng))
        }
    }

    pub fn forward(&self, sess: &mut Session, x: Var) -> Var {
        match self {
            ProjectionHead::Linear(l) => l.forward(sess, x),
            ProjectionHead::Mlp(m) => m.forward(sess, x),
        }
    }
}

impl Module for ProjectionHead {
    fn params(&self) -> Vec<Param> {
        match self {
            ProjectionHead::Linear(l) => l.params(),
            ProjectionHead::Mlp(m) => m.params(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_autograd::Graph;
    use wr_tensor::{Rng64, Tensor};

    #[test]
    fn linear_shapes_and_bias() {
        let mut rng = Rng64::seed_from(1);
        let l = Linear::new(3, 5, true, &mut rng);
        assert_eq!(l.in_dim(), 3);
        assert_eq!(l.out_dim(), 5);
        assert_eq!(l.param_count(), 3 * 5 + 5);

        let g = Graph::new();
        let mut s = Session::eval(&g);
        let x = g.constant(Tensor::ones(&[4, 3]));
        let y = l.forward(&mut s, x);
        assert_eq!(g.dims(y), vec![4, 5]);
    }

    #[test]
    fn mlp_depth_and_activation() {
        let mut rng = Rng64::seed_from(2);
        let m = Mlp::new(&[4, 8, 8, 2], false, 0.0, &mut rng);
        assert_eq!(m.depth(), 3);
        let g = Graph::new();
        let mut s = Session::eval(&g);
        let x = g.constant(Tensor::ones(&[2, 4]));
        let y = m.forward(&mut s, x);
        assert_eq!(g.dims(y), vec![2, 2]);
        // Output layer has no ReLU: negative values possible.
    }

    #[test]
    fn projection_head_variants() {
        let mut rng = Rng64::seed_from(3);
        let lin = ProjectionHead::new(6, 4, 0, &mut rng);
        assert!(matches!(lin, ProjectionHead::Linear(_)));
        let mlp2 = ProjectionHead::new(6, 4, 2, &mut rng);
        assert!(matches!(&mlp2, ProjectionHead::Mlp(m) if m.depth() == 2));

        let g = Graph::new();
        let mut s = Session::eval(&g);
        let x = g.constant(Tensor::ones(&[3, 6]));
        let y = mlp2.forward(&mut s, x);
        assert_eq!(g.dims(y), vec![3, 4]);
        // ReLU on output: all activations non-negative.
        assert!(g.value(y).data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn linear_trains_toward_target() {
        // One gradient step reduces a simple regression loss.
        let mut rng = Rng64::seed_from(4);
        let l = Linear::new(2, 1, true, &mut rng);
        let x = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]);
        let target = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3, 1]);

        // One step: returns the loss before the update it applies.
        let step = |l: &Linear, lr: f32| -> f32 {
            let g = Graph::new();
            let mut s = Session::eval(&g);
            let xv = g.constant(x.clone());
            let y = l.forward(&mut s, xv);
            let t = g.constant(target.clone());
            let d = g.sub(y, t);
            let sq = g.mul(d, d);
            let loss = g.mean_all(sq);
            let value = g.value(loss).item();
            if lr > 0.0 {
                g.backward(loss);
                for (p, v) in s.bindings() {
                    let grad = g.grad(*v).unwrap();
                    p.update(|t| t.axpy_(-lr, &grad));
                }
            }
            value
        };

        let before = step(&l, 0.1);
        let after = step(&l, 0.0);
        assert!(after < before, "loss {before} -> {after}");
    }
}
