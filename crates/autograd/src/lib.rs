//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] records every operation applied to [`Var`] handles; calling
//! [`Graph::backward`] walks the tape in reverse and accumulates gradients
//! for every node that (transitively) depends on a parameter. A fresh graph
//! is built per training step — parameters live outside the graph and are
//! re-registered each step, which keeps the tape simple and makes "frozen"
//! inputs free (constants never receive gradients).
//!
//! The op set is exactly what the WhitenRec model zoo needs: dense algebra
//! (matmul / batched matmul), pointwise nonlinearities, row softmax and
//! fused cross-entropy, LayerNorm, dropout, embedding gather, row/column
//! concatenation and slicing for attention heads, and L2 row normalization
//! for the contrastive baselines.
//!
//! # Example
//! ```
//! use wr_autograd::Graph;
//! use wr_tensor::Tensor;
//!
//! let g = Graph::new();
//! let w = g.param(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
//! let x = g.constant(Tensor::from_vec(vec![1.0, 0.0], &[1, 2]));
//! let y = g.matmul(x, w);
//! let loss = g.sum_all(y);
//! g.backward(loss);
//! let grad = g.grad(w).unwrap();
//! assert_eq!(grad.data(), &[1.0, 1.0, 0.0, 0.0]);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]

mod check;
mod graph;
mod ops;

pub use check::{check_gradients, GradCheckReport};
pub use graph::{Graph, Var};
