//! Table V: projection-head ablation for WhitenRec+ — Linear, MLP-1/2/3,
//! and a Mixture-of-Experts head.
//!
//! Paper reference (shape): Linear worst on most datasets (non-linearity
//! matters); MLP-2/MLP-3 best; MoE ≈ MLP-1.

use wr_bench::{context, datasets, m4};
use wr_models::{zoo, EnsembleTower, LossKind, ModelConfig, MoeTower, SasRec};
use wr_tensor::Rng64;
use wr_train::SeqRecModel;
use wr_whiten::EnsembleMode;
use whitenrec::TableWriter;

fn main() {
    let kinds_for_header = wr_bench::datasets();
    let mut header = vec!["Head".to_string()];
    header.extend(kinds_for_header.iter().map(|k| k.name().to_string()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = TableWriter::new("Table V: projection head for WhitenRec+ (R@20 / N@20)", &header_refs);
    let heads = ["Linear", "MLP-1", "MLP-2", "MLP-3", "MoE"];
    let mut rows: Vec<Vec<String>> = heads.iter().map(|h| vec![h.to_string()]).collect();

    for kind in datasets() {
        let ctx = context(kind);
        let emb = &ctx.dataset.embeddings;
        let z_full = zoo::whiten_full(emb);
        let z_relaxed = zoo::whiten_relaxed(emb, ctx.relaxed_groups);

        for (i, head) in heads.iter().enumerate() {
            eprintln!("  head {head} on {}", kind.name());
            let cfg = ModelConfig::default();
            let mut rng = Rng64::seed_from(cfg.seed);
            let model: Box<dyn SeqRecModel> = match *head {
                // proj_layers 0 → pure linear head inside the ensemble.
                "Linear" => ensemble(z_full.clone(), z_relaxed.clone(), 0, cfg, &mut rng),
                "MLP-1" => ensemble(z_full.clone(), z_relaxed.clone(), 1, cfg, &mut rng),
                "MLP-2" => ensemble(z_full.clone(), z_relaxed.clone(), 2, cfg, &mut rng),
                "MLP-3" => ensemble(z_full.clone(), z_relaxed.clone(), 3, cfg, &mut rng),
                // MoE adaptor over the fully whitened view (UniSRec-style
                // head transplanted into WhitenRec+'s input).
                "MoE" => Box::new(SasRec::new(
                    "WhitenRec+@MoE-head",
                    Box::new(MoeTower::new(z_full.clone(), cfg.dim, 4, &mut rng)),
                    LossKind::Softmax,
                    cfg,
                    &mut rng,
                )),
                _ => unreachable!(),
            };
            let metrics = ctx
                .train_and_evaluate(
                    model,
                    &ctx.warm.train,
                    &ctx.warm.validation[..ctx.warm.validation.len().min(1200)],
                    &ctx.warm.test[..ctx.warm.test.len().min(1200)],
                    None,
                    |_, _| {},
                )
                .expect("training without a checkpoint does no IO")
                .test_metrics;
            rows[i].push(format!("{}/{}", m4(metrics.recall_at(20)), m4(metrics.ndcg_at(20))));
        }
    }
    for row in &rows {
        t.row(row);
    }
    t.print();
    println!("Shape check: Linear should trail the MLP heads; MLP-2/3 lead.");
}

fn ensemble(
    z_full: wr_tensor::Tensor,
    z_relaxed: wr_tensor::Tensor,
    layers: usize,
    cfg: ModelConfig,
    rng: &mut Rng64,
) -> Box<dyn SeqRecModel> {
    Box::new(SasRec::new(
        format!("WhitenRec+@head{layers}"),
        Box::new(EnsembleTower::new(
            z_full,
            z_relaxed,
            cfg.dim,
            layers,
            EnsembleMode::Sum,
            rng,
        )),
        LossKind::Softmax,
        cfg,
        rng,
    ))
}
