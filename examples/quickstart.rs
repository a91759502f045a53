//! Quickstart: train WhitenRec+ on a small synthetic Arts dataset and print
//! test metrics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use whitenrec::data::{DatasetKind, DatasetSpec};
use whitenrec::ExperimentContext;

fn main() {
    let (kind, scale, model) = (DatasetKind::Arts, 0.15, "WhitenRec+");
    println!("Training {model} on {kind:?} (scale {scale})…");
    let mut ctx = ExperimentContext::from_spec(DatasetSpec::preset(kind).scaled(scale));
    ctx.train_config.max_epochs = 10;
    ctx.train_config.patience = 3;
    let trained = ctx.run_warm(model);

    println!("\nTraining curve:");
    for rec in &trained.report.epochs {
        println!(
            "  epoch {:>2}: loss {:.4}  valid N@20 {}",
            rec.epoch,
            rec.train_loss,
            rec.valid_ndcg.map(|v| format!("{v:.4}")).unwrap_or_else(|| "-".into()),
        );
    }
    println!(
        "\nBest epoch {} | {:.1}s total | {} trainable parameters",
        trained.report.best_epoch,
        trained.report.total_seconds,
        trained.report.param_count
    );
    println!("Test metrics: {}", trained.test_metrics);
}
