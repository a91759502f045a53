//! Bring-your-own-embeddings: run the WhitenRec stack on an embedding
//! matrix you supply (here: loaded from a synthetic generator standing in
//! for "my BERT export"), without using the dataset presets.
//!
//! Demonstrates the lower-level API: whitening → towers → SasRec → fit →
//! evaluate, the same path `ExperimentContext` runs.
//!
//! ```sh
//! cargo run --release --example custom_embeddings
//! ```

use whitenrec::data::{warm_split, Batcher};
use whitenrec::models::{zoo, EnsembleTower, LossKind, ModelConfig, SasRec};
use whitenrec::obs::Telemetry;
use whitenrec::tensor::{Rng64, Tensor};
use whitenrec::train::{evaluate, fit, Adam, AdamConfig, TrainConfig};
use whitenrec::whiten::EnsembleMode;

fn main() {
    // --- your data -------------------------------------------------------
    // items: any [n_items, d_t] matrix of pre-trained text embeddings.
    let n_items = 200;
    let mut rng = Rng64::seed_from(99);
    let mut embeddings = Tensor::randn(&[n_items, 64], &mut rng).scale(0.2);
    // ... made anisotropic on purpose, like real PLM output:
    for r in 0..n_items {
        let a = 1.0 + 0.1 * rng.normal();
        embeddings.row_mut(r)[0] += 3.0 * a;
    }
    // interactions: any Vec<Vec<usize>> of chronological item ids. Here a
    // noisy "users walk forward through the catalog" pattern.
    let sequences: Vec<Vec<usize>> = (0..400)
        .map(|u| {
            (0..10)
                .map(|t| (u * 7 + t * 3 + (u + t) % 5) % n_items)
                .collect()
        })
        .collect();

    // --- the WhitenRec+ recipe -------------------------------------------
    let z_full = zoo::whiten_full(&embeddings);
    let z_relaxed = zoo::whiten_relaxed(&embeddings, 4);

    let config = ModelConfig {
        dim: 32,
        max_seq: 12,
        ..ModelConfig::default()
    };
    let mut model_rng = Rng64::seed_from(1);
    let mut model = SasRec::new(
        "WhitenRec+ (custom)",
        Box::new(EnsembleTower::new(
            z_full,
            z_relaxed,
            config.dim,
            config.proj_layers,
            EnsembleMode::Sum,
            &mut model_rng,
        )),
        LossKind::Softmax,
        config,
        &mut model_rng,
    );

    let split = warm_split(&sequences);
    let mut opt = Adam::new(AdamConfig {
        lr: 1e-3,
        ..AdamConfig::default()
    });
    let train_config = TrainConfig {
        max_epochs: 8,
        patience: 3,
        batch_size: 128,
        max_seq: 12,
        ..TrainConfig::default()
    };
    let report = fit(
        &mut model,
        &mut opt,
        split.train.clone(),
        &split.validation,
        train_config,
        &Telemetry::new(),
        |_, rec| println!("epoch {:>2}: loss {:.4}", rec.epoch, rec.train_loss),
    );

    let metrics = evaluate(&model, &split.test, &[10, 20], 128);
    println!("\n{} epochs, best valid N@20 {:.4}", report.epochs.len(), report.best_valid_ndcg);
    println!("test: {metrics}");

    // Batcher is also available directly if you want a custom loop:
    let batcher = Batcher::new(split.train, 64, 12);
    println!("(manual loop would see {} trainable sequences)", batcher.n_sequences());
}
