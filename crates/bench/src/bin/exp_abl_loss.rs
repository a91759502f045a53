//! Ablation of our own design choice: the prediction-layer objective.
//!
//! The paper trains with the full-catalog softmax (Eq. 1), which is what
//! its whitening analysis assumes — logits against *every* item. This
//! ablation checks how much of WhitenRec's quality survives under the
//! production-scale approximations (sampled softmax, BPR), where most
//! items are never contrasted in a given step.

use wr_bench::{context, m4};
use wr_data::DatasetKind;
use wr_models::{zoo, LossKind, ModelConfig, SasRec, TextTower};
use wr_tensor::Rng64;
use whitenrec::TableWriter;

fn main() {
    let ctx = context(DatasetKind::Arts);
    let z = zoo::whiten_full(&ctx.dataset.embeddings);
    let mut t = TableWriter::new(
        "Ablation: prediction-layer objective for WhitenRec (Arts)",
        &["Loss", "R@20", "N@20", "s/epoch"],
    );
    let losses: [(&str, LossKind); 4] = [
        ("full softmax", LossKind::Softmax),
        ("sampled-64", LossKind::SampledSoftmax { negatives: 64 }),
        ("sampled-8", LossKind::SampledSoftmax { negatives: 8 }),
        ("BPR", LossKind::Bpr),
    ];
    for (name, loss) in losses {
        eprintln!("  loss = {name}");
        let cfg = ModelConfig::default();
        let mut rng = Rng64::seed_from(cfg.seed);
        let model = SasRec::new(
            format!("WhitenRec@{name}"),
            Box::new(TextTower::new(z.clone(), cfg.dim, cfg.proj_layers, &mut rng)),
            loss,
            cfg,
            &mut rng,
        );
        let trained = ctx
            .train_and_evaluate(
                Box::new(model),
                &ctx.warm.train,
                &ctx.warm.validation[..ctx.warm.validation.len().min(1000)],
                &ctx.warm.test[..ctx.warm.test.len().min(1000)],
                None,
                |_, _| {},
            )
            .expect("training without a checkpoint does no IO");
        let metrics = &trained.test_metrics;
        t.row(&[
            name.to_string(),
            m4(metrics.recall_at(20)),
            m4(metrics.ndcg_at(20)),
            format!("{:.2}", trained.report.seconds_per_epoch()),
        ]);
    }
    t.print();
    println!(
        "Expected: full softmax best (it is what the paper's analysis\n\
         assumes); sampled-64 close behind; BPR weakest but cheapest."
    );
}
