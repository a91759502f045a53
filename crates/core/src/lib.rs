//! # WhitenRec — whitening pre-trained text embeddings for sequential recommendation
//!
//! Rust reproduction of *"Are ID Embeddings Necessary? Whitening
//! Pre-trained Text Embeddings for Effective Sequential Recommendation"*
//! (ICDE 2024), built from scratch: dense tensors, reverse-mode autodiff, a
//! Transformer/GRU model zoo, whitening transforms, a synthetic
//! text-embedding + behaviour simulator, and a full evaluation harness.
//!
//! ## Quick start
//!
//! ```no_run
//! use whitenrec::data::{DatasetKind, DatasetSpec};
//! use whitenrec::ExperimentContext;
//!
//! let ctx = ExperimentContext::from_spec(DatasetSpec::preset(DatasetKind::Arts).scaled(0.1));
//! let trained = ctx.run_warm("WhitenRec+");
//! println!("test: {}", trained.test_metrics);
//! ```
//!
//! ## Crate map
//!
//! | module | re-exports | role |
//! |---|---|---|
//! | [`runtime`] | `wr-runtime` | the shared thread pool, `WR_THREADS` |
//! | [`tensor`] | `wr-tensor` | dense f32 tensors, matmul, RNG |
//! | [`autograd`] | `wr-autograd` | tape-based reverse-mode AD |
//! | [`linalg`] | `wr-linalg` | eigen/Cholesky/SVD/pinv |
//! | [`nn`] | `wr-nn` | layers: attention, Transformer, GRU, MoE |
//! | [`whiten`] | `wr-whiten` | ZCA/PCA/CD/BN, group whitening, ensembles |
//! | [`textsim`] | `wr-textsim` | simulated pre-trained text encoder |
//! | [`data`] | `wr-data` | behaviour simulator, splits, batching |
//! | [`models`] | `wr-models` | the Table III model zoo |
//! | [`train`] | `wr-train` | Adam, training loop, early stopping |
//! | [`eval`] | `wr-eval` | Recall/NDCG; cosine, spectrum, uniformity, κ |
//! | [`obs`] | `wr-obs` | metrics registry, spans, trace ids, flight recorder |
//! | [`fault`] | `wr-fault` | fault injection, sealed files, atomic writes, retry |

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]

pub use wr_autograd as autograd;
pub use wr_data as data;
pub use wr_eval as eval;
pub use wr_fault as fault;
pub use wr_linalg as linalg;
pub use wr_models as models;
pub use wr_nn as nn;
pub use wr_obs as obs;
pub use wr_runtime as runtime;
pub use wr_tensor as tensor;
pub use wr_textsim as textsim;
pub use wr_train as train;
pub use wr_whiten as whiten;

pub mod bench;
pub mod cli;
mod experiment;
mod export;
mod table;
mod telemetry_export;

pub use experiment::{ExperimentContext, TrainedModel};
pub use export::{append_records, load_records, ExperimentRecord};
pub use table::TableWriter;
pub use telemetry_export::export_telemetry;
