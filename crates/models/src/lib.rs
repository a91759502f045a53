//! The WhitenRec model zoo.
//!
//! Every model decomposes as in Fig. 1: an **item tower** producing the
//! item representation matrix `V`, a **sequence encoder** producing user
//! representations, and an inner-product **prediction layer**. The
//! SASRec-family variants (SASRec^ID/^T/^T+ID, WhitenRec, WhitenRec+,
//! UniSRec, VQRec, S³-Rec, CL4SRec) share one [`SasRec`] chassis
//! parameterized by tower and auxiliary losses; GRU4Rec swaps the encoder;
//! FDSA runs two attention branches; BM3/GRCN are general (non-sequential)
//! recommenders with text.
//!
//! Construct models through [`zoo`] for the experiment harness, or directly
//! via each type's constructor.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

mod bert4rec;
mod cl4srec;
mod difsr;
mod fdsa;
mod general;
mod gru4rec;
mod s3rec;
mod sasrec;
mod towers;
mod vqrec;
pub mod zoo;

pub use bert4rec::{Bert4Rec, Popularity};
pub use cl4srec::{augment_sequence, Augmentation, Cl4SRec};
pub use difsr::DifSr;
pub use fdsa::Fdsa;
pub use general::{Bm3Lite, GrcnLite};
pub use gru4rec::Gru4Rec;
pub use s3rec::S3Rec;
pub use sasrec::{LossKind, ModelConfig, SasRec};
pub use towers::{EnsembleTower, IdTower, ItemTower, MoeTower, PwTower, TextIdTower, TextTower};
pub use vqrec::{product_quantize, VqTower};
