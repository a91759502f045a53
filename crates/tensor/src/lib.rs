//! Dense `f32` tensor library underpinning the WhitenRec reproduction.
//!
//! Tensors are always contiguous and row-major. The library favours a small,
//! predictable API over generality: everything the autograd tape, the
//! whitening transforms, and the linear-algebra kernels need — and nothing
//! more. Shape mismatches are programming errors in this codebase, so the
//! convenience methods panic with a descriptive message; fallible `try_*`
//! variants are provided where callers want to recover.
//!
//! # Example
//! ```
//! use wr_tensor::Tensor;
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]

mod arm;
mod attention;
mod error;
mod init;
pub mod json;
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod lanes;
mod matmul;
mod ops;
mod reduce;
mod shape;
mod tensor;

pub use arm::{Arm, Level};
pub use attention::{allowed_keys, AttentionKeys, AttentionRule, HeadKv, Keys, Weights};
pub use error::TensorError;
pub use init::{Initializer, KeepMask, Rng64};
pub use json::Json;
pub use matmul::{dot, gemm};
pub use ops::{exp_scalar, gelu_grad_scalar, gelu_scalar, l2_normalize_row, layer_norm_row, softmax_in_place, tanh_scalar};
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
