//! The model / config / trace fixture the gateway suites share. Every
//! builder is a pure function of its arguments (fixed seeds, dropout 0),
//! so two calls build bit-identical twins.
#![allow(dead_code, reason = "each suite uses its own subset")]

use wr_fault::FaultRates;
use wr_gateway::GatewayResponse;
use wr_models::{zoo, IdTower, LossKind, ModelConfig, SasRec, TextTower};
use wr_serve::{top1_digest, QueryLog, ServeConfig};
use wr_tensor::{Rng64, Tensor};
use wr_train::SeqRecModel;

/// Catalogue of the WhitenRec fixture: prime, so every multi-shard
/// partition is uneven.
pub const N_ITEMS: usize = 157;
pub const MAX_SEQ: usize = 10;

/// A 16-wide, 2-head encoder without dropout.
pub fn model_config(blocks: usize, max_seq: usize) -> ModelConfig {
    ModelConfig {
        dim: 16,
        heads: 2,
        blocks,
        max_seq,
        dropout: 0.0,
        ..ModelConfig::default()
    }
}

/// The paper's configuration: relaxed-whitened `[n_items, text_dim]`
/// table → projection tower → SASRec, Softmax loss.
pub fn whitenrec_model_of(
    name: &str,
    n_items: usize,
    text_dim: usize,
    config: ModelConfig,
    seed: u64,
) -> Box<dyn SeqRecModel> {
    let mut table_rng = Rng64::seed_from(seed);
    let raw = Tensor::randn(&[n_items, text_dim], &mut table_rng);
    let whitened = zoo::whiten_relaxed(&raw, 4);
    let mut rng = Rng64::seed_from(seed);
    let tower = TextTower::new(whitened, config.dim, 2, &mut rng);
    Box::new(SasRec::new(
        name,
        Box::new(tower),
        LossKind::Softmax,
        config,
        &mut rng,
    ))
}

/// [`whitenrec_model_of`] at [`N_ITEMS`] × 24, two blocks, [`MAX_SEQ`].
pub fn whitenrec_model(name: &str, seed: u64) -> Box<dyn SeqRecModel> {
    whitenrec_model_of(name, N_ITEMS, 24, model_config(2, MAX_SEQ), seed)
}

/// SASRec over an ID table (served from the frozen encoder).
pub fn id_model(name: &str, n_items: usize, config: ModelConfig, seed: u64) -> Box<dyn SeqRecModel> {
    let mut rng = Rng64::seed_from(seed);
    let tower = IdTower::new(n_items, config.dim, &mut rng);
    Box::new(SasRec::new(
        name,
        Box::new(tower),
        LossKind::Softmax,
        config,
        &mut rng,
    ))
}

pub fn serve_cfg(k: usize, max_batch: usize, max_seq: usize) -> ServeConfig {
    ServeConfig {
        k,
        max_batch,
        max_seq,
        filter_seen: true,
    }
}

/// Zipf user-skewed trace over the WhitenRec fixture's catalogue: hot
/// users replay identical sessions through different micro-batches.
pub fn zipf_trace(n: usize) -> QueryLog {
    QueryLog::synthetic_zipf(n, 3_000, N_ITEMS, MAX_SEQ + 3, 1.1, 97).unwrap()
}

pub fn digest_of(responses: &[GatewayResponse]) -> u64 {
    top1_digest(responses.iter().map(|r| (r.id, r.items.first().map(|s| s.item))))
}

pub fn chaos_rates() -> FaultRates {
    FaultRates {
        io_error: 0.0,
        corrupt: 0.0,
        poison: 0.25,
        panic: 0.25,
    }
}
