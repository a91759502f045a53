//! Neural-network building blocks for the WhitenRec model zoo.
//!
//! Layers own their weights as shared [`Param`] handles. A training step
//! opens a [`Session`] over a fresh autograd [`Graph`](wr_autograd::Graph);
//! layers bind their parameters into the graph through the session, which
//! de-duplicates bindings so *shared* modules (e.g. WhitenRec+'s shared
//! projection head applied to two whitened views) accumulate gradients
//! correctly.
//!
//! ```
//! use wr_nn::{Linear, Module, Session};
//! use wr_autograd::Graph;
//! use wr_tensor::{Rng64, Tensor};
//!
//! let mut rng = Rng64::seed_from(0);
//! let layer = Linear::new(4, 2, true, &mut rng);
//! let g = Graph::new();
//! let mut sess = Session::train(&g, Rng64::seed_from(1));
//! let x = g.constant(Tensor::ones(&[3, 4]));
//! let y = layer.forward(&mut sess, x);
//! assert_eq!(g.dims(y), vec![3, 2]);
//! ```

mod attention;
mod checkpoint;
mod embedding;
mod frozen;
mod gru;
mod linear;
mod moe;
mod norm;
mod param;
mod session;
mod transformer;

pub use attention::{bidirectional_padding_mask, causal_padding_mask, MultiHeadSelfAttention};
pub use checkpoint::{
    get_tensor, latest_valid_checkpoint, load_params, put_tensor, restore_params, save_params,
    save_params_with, CheckpointError,
};
pub use embedding::{Embedding, FrozenTable};
pub use frozen::FrozenEncoder;
pub(crate) use frozen::{FrozenBlock, FrozenLayerNorm, FrozenLinear};
pub use gru::{Gru, GruStack};
pub use linear::{Linear, Mlp, ProjectionHead};
pub use moe::MoEAdaptor;
pub use norm::LayerNorm;
pub use param::{Module, Param};
pub use session::Session;
pub use transformer::{TransformerBlock, TransformerConfig, TransformerEncoder};
