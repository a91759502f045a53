//! # wr-ann — sublinear retrieval over the whitened item table.
//!
//! The serving engine's exact scorer is one dense gemm `users·Vᵀ` over the
//! *entire* catalog — linear in |I|. This crate adds the classic IVF-flat
//! index on top of the same frozen table: a k-means coarse quantizer
//! partitions the catalog into `nlist` inverted lists, and a query scans
//! only the `nprobe` lists whose centroids score highest, turning the
//! per-query cost from `O(|I|·d)` into `O(nlist·d + scanned·d)`.
//!
//! Whitening is what makes this safe: the paper's ZCA step (Eq. 4–6)
//! renders the embedding space isotropic, and isotropic inner-product
//! geometry is exactly where coarse quantization behaves — cluster radii
//! are comparable, no dominant variance direction swallows the
//! partition, and a small `nprobe` already covers the true neighbors
//! (the same argument Soft-ZCA makes for semantic search).
//!
//! Design invariants, in the workspace's house style:
//!
//! * **Determinism.** K-means init is seeded ([`wr_tensor::Rng64`]),
//!   assignment runs on the `wr-runtime` pool with thread-count-independent
//!   chunking, centroid updates accumulate in ascending row order, and
//!   every comparison tie-breaks by ascending index via `total_cmp` —
//!   the same build inputs give a bit-identical index at `WR_THREADS=1`
//!   and `WR_THREADS=8`, across processes.
//! * **Exactness dial.** [`IvfIndex::search`] with `nprobe = nlist` scans
//!   every list with the *same float-add order* as the exact gemm scorer
//!   (plain ascending-`p` accumulation, matching `wr_tensor::matmul`'s
//!   per-element order), so the full-probe setting is bit-identical to
//!   exact — not merely "close". The serve crate's differential suite
//!   pins this with `top1_checksum` equality on a replayed trace.
//! * **Crash safety.** [`IvfIndex::save`] persists the quantizer via
//!   `wr_fault::write_atomic` in the CRC-sealed `WRIV` v1 format;
//!   [`IvfIndex::load`] treats the file as untrusted input (typed
//!   [`AnnError`]s, hostile-header guards, full corruption sweep in
//!   `tests/corruption.rs`) and re-attaches the catalog tensor so the
//!   scanned vectors can never drift from the serving table.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

mod ivf;
mod kmeans;

pub use ivf::{IvfIndex, SearchStats, WRIV_VERSION};
pub use kmeans::{fit_kmeans, KMeans, KMeansConfig};

use std::io;

/// Typed errors for index construction, search, and persistence.
///
/// The `NonFinite` arm exists so a NaN-poisoned embedding row is rejected
/// *at build time* with the offending row named, instead of silently
/// landing in some list and corrupting every later distance comparison
/// (NaN compares false against everything — a quarantine surprise the
/// serving path must never inherit from the index).
#[derive(Debug)]
pub enum AnnError {
    /// An input row contains NaN/Inf; the index refuses to build.
    NonFinite { row: usize },
    /// Impossible build parameters (zero clusters, more clusters than
    /// rows, empty catalog).
    InvalidConfig(String),
    Io(io::Error),
    /// Not a WRIV file / wrong version / truncated structure.
    Format(String),
    /// The integrity footer does not match the payload.
    Corrupt(String),
    /// The persisted index disagrees with the attached catalog tensor.
    Mismatch(String),
}

impl std::fmt::Display for AnnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnnError::NonFinite { row } => {
                write!(f, "ann input row {row} is not finite (NaN/Inf)")
            }
            AnnError::InvalidConfig(m) => write!(f, "ann config: {m}"),
            AnnError::Io(e) => write!(f, "ann io: {e}"),
            AnnError::Format(m) => write!(f, "ann format: {m}"),
            AnnError::Corrupt(m) => write!(f, "ann corrupt: {m}"),
            AnnError::Mismatch(m) => write!(f, "ann mismatch: {m}"),
        }
    }
}

impl std::error::Error for AnnError {}

impl From<io::Error> for AnnError {
    fn from(e: io::Error) -> Self {
        AnnError::Io(e)
    }
}
