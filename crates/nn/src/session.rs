//! A training/eval step: binds parameters into one autograd graph.

use std::collections::BTreeMap;

use crate::Param;
use wr_autograd::{Graph, Var};
use wr_tensor::{AttentionKeys, KeepMask, Rng64};

/// One forward(+backward) pass over a fresh graph.
///
/// The session de-duplicates parameter bindings: binding the same [`Param`]
/// twice returns the same graph node, so gradients from every use site
/// accumulate into a single leaf — required for weight sharing (WhitenRec+
/// pushes two whitened views through one projection head).
pub struct Session<'g> {
    pub graph: &'g Graph,
    bindings: BTreeMap<u64, Var>,
    order: Vec<(Param, Var)>,
    train: bool,
    rng: Rng64,
    /// Drawn once from the generator a training session is handed: the
    /// `key` of every [`KeepMask`] it makes.
    key: u64,
    /// Dropout nodes recorded so far: the next one's `site`.
    sites: u64,
}

impl<'g> Session<'g> {
    /// Session in training mode (dropout active). Its dropout key is the
    /// next draw of `rng`; the rest of the stream is [`Self::rng`].
    pub fn train(graph: &'g Graph, mut rng: Rng64) -> Self {
        Session {
            graph,
            bindings: BTreeMap::new(),
            order: Vec::new(),
            train: true,
            key: rng.next_u64(),
            rng,
            sites: 0,
        }
    }

    /// Session in evaluation mode (dropout disabled).
    pub fn eval(graph: &'g Graph) -> Self {
        Session {
            graph,
            bindings: BTreeMap::new(),
            order: Vec::new(),
            train: false,
            rng: Rng64::seed_from(0),
            key: 0,
            sites: 0,
        }
    }

    pub fn is_train(&self) -> bool {
        self.train
    }

    /// Bind a parameter into the graph (idempotent per session).
    pub fn bind(&mut self, p: &Param) -> Var {
        if let Some(&v) = self.bindings.get(&p.id()) {
            return v;
        }
        let v = self.graph.param(p.get());
        self.bindings.insert(p.id(), v);
        self.order.push((p.clone(), v));
        v
    }

    /// The next dropout node's keep bits when dropout at `p` is live:
    /// training mode, `p > 0`. Each live node is one site.
    fn mask(&mut self, p: f32) -> Option<KeepMask> {
        (self.train && p > 0.0).then(|| {
            self.sites += 1;
            KeepMask::new(self.key, self.sites - 1, p)
        })
    }

    /// Dropout that is a no-op in eval mode.
    pub fn dropout(&mut self, x: Var, p: f32) -> Var {
        let g = self.graph;
        self.mask(p).map_or(x, |mask| g.dropout(x, mask))
    }

    /// [`Self::dropout`] over the rows `keys` holds, addressed as in the
    /// padded plane ([`Graph::dropout_held`]).
    pub fn dropout_held(&mut self, x: Var, p: f32, keys: &AttentionKeys) -> Var {
        let g = self.graph;
        self.mask(p).map_or(x, |mask| g.dropout_held(x, mask, keys))
    }

    /// [`Graph::attention`] whose attention-weight dropout `p` is one site
    /// of this session in training mode and is off in eval mode.
    pub fn attention(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        heads: usize,
        keys: &AttentionKeys,
        p: f32,
    ) -> Var {
        let mask = self.mask(p);
        self.graph.attention(q, k, v, heads, keys, mask)
    }

    /// All `(param, var)` bindings made during this session, in bind order.
    pub fn bindings(&self) -> &[(Param, Var)] {
        &self.order
    }

    /// RNG for stochastic layers beyond dropout (noise in MoE gating).
    pub fn rng(&mut self) -> &mut Rng64 {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_tensor::Tensor;

    #[test]
    fn bind_is_idempotent() {
        let g = Graph::new();
        let mut s = Session::train(&g, Rng64::seed_from(0));
        let p = Param::new("w", Tensor::ones(&[2, 2]));
        let v1 = s.bind(&p);
        let v2 = s.bind(&p);
        assert_eq!(v1, v2);
        assert_eq!(s.bindings().len(), 1);
    }

    #[test]
    fn shared_param_accumulates_grads() {
        let g = Graph::new();
        let mut s = Session::train(&g, Rng64::seed_from(0));
        let p = Param::new("w", Tensor::from_vec(vec![2.0], &[1, 1]));
        let w = s.bind(&p);
        let x = g.constant(Tensor::from_vec(vec![3.0], &[1, 1]));
        // y = w*x + w*x => dy/dw = 2x = 6
        let y1 = g.matmul(x, w);
        let y2 = g.matmul(x, w);
        let y = g.add(y1, y2);
        let loss = g.sum_all(y);
        g.backward(loss);
        assert_eq!(g.grad(w).unwrap().data(), &[6.0]);
    }

    #[test]
    fn eval_mode_disables_dropout() {
        let g = Graph::new();
        let mut s = Session::eval(&g);
        let x = g.constant(Tensor::ones(&[8, 8]));
        let y = s.dropout(x, 0.9);
        assert_eq!(x, y); // no-op returns the same node
    }
}
