//! Trainable and frozen embedding tables.

use std::sync::Arc;

use crate::{Module, Param, Session};
use wr_autograd::Var;
use wr_tensor::{Initializer, Rng64, Tensor};

/// Trainable embedding table `[vocab, dim]` (ID embeddings, positions).
#[derive(Debug, Clone)]
pub struct Embedding {
    pub table: Param,
}

impl Embedding {
    pub fn new(vocab: usize, dim: usize, rng: &mut Rng64) -> Self {
        // RecBole-style init: N(0, 0.02) like the original SASRec code.
        let table = Param::new(
            format!("embedding[{vocab}x{dim}]"),
            Initializer::Normal { std: 0.02 }.init_matrix(vocab, dim, rng),
        );
        Embedding { table }
    }

    pub fn forward(&self, sess: &mut Session, indices: &[usize]) -> Var {
        let t = sess.bind(&self.table);
        sess.graph.gather_rows(t, indices)
    }

    pub fn vocab(&self) -> usize {
        self.table.dims()[0]
    }

    pub fn dim(&self) -> usize {
        self.table.dims()[1]
    }
}

impl Module for Embedding {
    fn params(&self) -> Vec<Param> {
        vec![self.table.clone()]
    }
}

/// Frozen lookup table: pre-trained (whitened) text embeddings.
///
/// Never receives gradients and contributes zero trainable parameters —
/// this is what makes the paper's text-only models so much smaller than
/// their `+ID` counterparts (Table IX).
#[derive(Debug, Clone)]
pub struct FrozenTable {
    /// Shared with every tape [`Self::all`] has entered.
    table: Arc<Tensor>,
}

impl FrozenTable {
    /// `table` is `[vocab, dim]`, rows are item vectors.
    pub fn new(table: Tensor) -> Self {
        assert!(table.rank() == 2, "FrozenTable expects a matrix");
        FrozenTable {
            table: Arc::new(table),
        }
    }

    pub fn forward(&self, sess: &mut Session, indices: &[usize]) -> Var {
        // Gathering eagerly (host side) keeps the huge table off the tape.
        let rows = self.table.gather_rows(indices);
        sess.graph.constant(rows)
    }

    /// The full table as a constant node (for whole-catalog scoring): the
    /// tape takes a handle to the table, not a copy of it.
    pub fn all(&self, sess: &mut Session) -> Var {
        sess.graph.constant(Arc::clone(&self.table))
    }

    pub fn vocab(&self) -> usize {
        self.table.rows()
    }

    pub fn dim(&self) -> usize {
        self.table.cols()
    }
}

impl Module for FrozenTable {
    fn params(&self) -> Vec<Param> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_autograd::Graph;

    #[test]
    fn embedding_lookup_and_grads() {
        let mut rng = Rng64::seed_from(1);
        let emb = Embedding::new(10, 4, &mut rng);
        assert_eq!(emb.vocab(), 10);
        assert_eq!(emb.dim(), 4);
        assert_eq!(emb.param_count(), 40);

        let g = Graph::new();
        let mut s = Session::train(&g, Rng64::seed_from(2));
        let e = emb.forward(&mut s, &[3, 3, 7]);
        assert_eq!(g.dims(e), vec![3, 4]);
        let loss = g.sum_all(e);
        g.backward(loss);
        let (_, var) = &s.bindings()[0];
        let grad = g.grad(*var).unwrap();
        // rows 3 (twice) and 7 get gradient, others zero
        assert_eq!(grad.row(3), &[2.0, 2.0, 2.0, 2.0]);
        assert_eq!(grad.row(7), &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(grad.row(0), &[0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn frozen_table_no_params_no_grads() {
        let table = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[4, 3]);
        let ft = FrozenTable::new(table);
        assert_eq!(ft.param_count(), 0);

        let g = Graph::new();
        let mut s = Session::train(&g, Rng64::seed_from(3));
        let e = ft.forward(&mut s, &[2, 0]);
        assert_eq!(g.value(e).row(0), &[6.0, 7.0, 8.0]);
        assert!(s.bindings().is_empty());
    }
}
