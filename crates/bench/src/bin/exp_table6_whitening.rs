//! Table VI: whitening-method ablation for WhitenRec+ — parametric (PW,
//! BERT-flow) vs non-parametric (PCA, BN, CD, ZCA).
//!
//! Paper reference (shape): PW worst (a linear layer can't guarantee
//! whitened outputs); PCA hurt by stochastic axis swapping; CD and ZCA
//! consistently best; on Food (short texts) the gaps shrink.

use wr_bench::{context, datasets, m4};
use wr_models::{EnsembleTower, LossKind, ModelConfig, PwTower, SasRec};
use wr_tensor::{Rng64, Tensor};
use wr_train::{fit, Adam, AdamConfig, SeqRecModel};
use wr_whiten::{group_whiten, EnsembleMode, FlowWhitening, WhiteningMethod, DEFAULT_EPS};
use whitenrec::TableWriter;

fn main() {
    let methods = ["PW", "BERT-flow", "PCA", "BN", "CD", "ZCA"];
    let mut rows: Vec<Vec<String>> = methods.iter().map(|m| vec![m.to_string()]).collect();

    for kind in datasets() {
        let ctx = context(kind);
        let emb = &ctx.dataset.embeddings;
        for (i, method) in methods.iter().enumerate() {
            eprintln!("  whitening {method} on {}", kind.name());
            let cfg = ModelConfig::default();
            let mut rng = Rng64::seed_from(cfg.seed);
            let mut model: Box<dyn SeqRecModel> = match *method {
                "PW" => Box::new(SasRec::new(
                    "PW",
                    Box::new(PwTower::new(emb.clone(), cfg.dim, cfg.proj_layers, &mut rng)),
                    LossKind::Softmax,
                    cfg,
                    &mut rng,
                )),
                "BERT-flow" => {
                    let flow = FlowWhitening::fit(emb, 8, 17);
                    let z = flow.apply(emb);
                    ensemble_of(z.clone(), z, cfg, &mut rng)
                }
                name => {
                    let m = match name {
                        "PCA" => WhiteningMethod::Pca,
                        "BN" => WhiteningMethod::BatchNorm,
                        "CD" => WhiteningMethod::Cholesky,
                        "ZCA" => WhiteningMethod::Zca,
                        other => unreachable!("{other}"),
                    };
                    let z1 = group_whiten(emb, 1, m, DEFAULT_EPS);
                    let z2 = group_whiten(emb, ctx.relaxed_groups, m, DEFAULT_EPS);
                    ensemble_of(z1, z2, cfg, &mut rng)
                }
            };
            let mut opt = Adam::new(AdamConfig {
                lr: 1e-3,
                weight_decay: 1e-6,
                ..AdamConfig::default()
            });
            fit(
                &mut model,
                &mut opt,
                ctx.warm.train.clone(),
                &ctx.warm.validation[..ctx.warm.validation.len().min(1200)],
                ctx.train_config,
                |_, _| {},
            );
            let metrics = ctx.evaluate(
                model.as_ref(),
                &ctx.warm.test[..ctx.warm.test.len().min(1200)],
            );
            rows[i].push(format!("{}/{}", m4(metrics.recall_at(20)), m4(metrics.ndcg_at(20))));
        }
    }

    let kinds = wr_bench::datasets();
    let mut header = vec!["Method".to_string()];
    header.extend(kinds.iter().map(|k| k.name().to_string()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = TableWriter::new(
        "Table VI: whitening methods for WhitenRec+ (R@20 / N@20)",
        &header_refs,
    );
    for row in &rows {
        t.row(row);
    }
    t.print();
    println!("Shape check: ZCA/CD on top, PW at the bottom, BN/PCA between.");
}

fn ensemble_of(
    z1: Tensor,
    z2: Tensor,
    cfg: ModelConfig,
    rng: &mut Rng64,
) -> Box<dyn SeqRecModel> {
    Box::new(SasRec::new(
        "WhitenRec+",
        Box::new(EnsembleTower::new(
            z1,
            z2,
            cfg.dim,
            cfg.proj_layers,
            EnsembleMode::Sum,
            rng,
        )),
        LossKind::Softmax,
        cfg,
        rng,
    ))
}
