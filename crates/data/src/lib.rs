//! Datasets for the WhitenRec experiments.
//!
//! The paper evaluates on Amazon Arts/Toys/Tools and Food. Those logs are
//! unavailable offline, so this crate pairs a [`wr_textsim::Catalog`] with
//! a *latent-factor behaviour simulator*: users carry preference vectors in
//! the same semantic-factor space the text encoder uses, and sessions mix
//! preference affinity, Zipf popularity, and Markov co-consumption chains.
//! That gives the three properties the experiments rely on:
//!
//! * text semantics genuinely predict the next item (text-based models can
//!   win),
//! * sequences have order structure (sequence encoders beat popularity),
//! * cold items are reachable only through their text.
//!
//! Pipeline: [`generate_interactions`] → [`five_core_filter`] →
//! [`warm_split`] / [`cold_split`] → [`Batcher`]. Dataset presets matching
//! Table II's shape at ~1/10 scale live in [`DatasetSpec`].

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]

mod batch;
mod filter;
mod interactions;
mod io;
mod spec;
mod split;
mod stats;

pub use batch::{Batch, Batcher, PAD_ITEM};
pub use filter::{five_core_filter, FilteredData};
pub use interactions::{generate_interactions, InteractionConfig};
pub use io::{
    load_embeddings, load_sequences, load_sequences_lenient, save_embeddings,
    save_embeddings_with, save_sequences, save_sequences_with, LenientLoad,
};
pub use spec::{DatasetKind, DatasetSpec, ReadyDataset};
pub use split::{cold_split, warm_split, ColdSplit, EvalCase, WarmSplit};
pub use stats::{dataset_stats, DatasetStats};
