//! Ablation of our own design choice: the covariance regularizer ε in
//! `Σ = cov + εI` (the paper fixes one ε implicitly; DESIGN.md calls this
//! out as a knob worth sweeping).
//!
//! Small ε lets whitening amplify near-null noise directions
//! (1/√λ explodes); large ε under-whitens (residual anisotropy). The sweep
//! shows the plateau in between — and reports the resulting whiteness
//! error alongside recommendation quality.

use wr_bench::{context, m4};
use wr_data::DatasetKind;
use wr_eval::whiteness_error;
use wr_models::{LossKind, ModelConfig, SasRec, TextTower};
use wr_tensor::Rng64;
use wr_whiten::{WhiteningMethod, WhiteningTransform};
use whitenrec::TableWriter;

fn main() {
    let ctx = context(DatasetKind::Arts);
    let emb = &ctx.dataset.embeddings;
    let mut t = TableWriter::new(
        "Ablation: covariance regularizer eps for ZCA whitening (Arts)",
        &["eps", "whiteness err", "R@20", "N@20"],
    );
    for eps in [1e-2f32, 1e-3, 1e-4, 1e-5, 1e-7] {
        eprintln!("  eps = {eps:.0e}");
        let z = WhiteningTransform::fit(emb, WhiteningMethod::Zca, eps).apply(emb);
        let werr = whiteness_error(&z);
        let cfg = ModelConfig::default();
        let mut rng = Rng64::seed_from(cfg.seed);
        let model = SasRec::new(
            format!("WhitenRec@eps={eps:.0e}"),
            Box::new(TextTower::new(z, cfg.dim, cfg.proj_layers, &mut rng)),
            LossKind::Softmax,
            cfg,
            &mut rng,
        );
        let metrics = ctx
            .train_and_evaluate(
                Box::new(model),
                &ctx.warm.train,
                &ctx.warm.validation[..ctx.warm.validation.len().min(1000)],
                &ctx.warm.test[..ctx.warm.test.len().min(1000)],
                None,
                |_, _| {},
            )
            .expect("training without a checkpoint does no IO")
            .test_metrics;
        t.row(&[
            format!("{eps:.0e}"),
            format!("{werr:.4}"),
            m4(metrics.recall_at(20)),
            m4(metrics.ndcg_at(20)),
        ]);
    }
    t.print();
    println!("Expected: a quality plateau at moderate eps, degradation at the extremes.");
}
