//! Extension: cross-domain transfer — the paper's third motivation for
//! dropping ID embeddings ("text embeddings are transferable across
//! platforms or domains, whereas ID embeddings are not").
//!
//! Protocol: both domains share one simulated PLM encoder (as two Amazon
//! categories share one BERT). WhitenRec is trained on the *source*
//! domain, then evaluated zero-shot on the *target* domain by swapping in
//! the target's whitened embedding table under the trained projection
//! head + Transformer (checkpoint save/restore). Compared against (a) the
//! target's own popularity floor and (b) a SASRec(ID) whose source-trained
//! ID table is meaningless on the target by construction.

use wr_bench::{m4, max_epochs, scale};
use wr_data::{warm_split, DatasetKind, DatasetSpec};
use wr_models::{zoo, LossKind, ModelConfig, Popularity, SasRec, TextTower};
use wr_nn::{load_params, restore_params, save_params};
use wr_tensor::Rng64;
use wr_train::{evaluate, fit, Adam, AdamConfig, SeqRecModel, TrainConfig};
use whitenrec::obs::Telemetry;
use whitenrec::TableWriter;

fn main() {
    // Two domains, one shared text encoder (same plm seed + factor space).
    let mut source_spec = DatasetSpec::preset(DatasetKind::Arts).scaled(scale()).scaled_items(2.0);
    let mut target_spec = DatasetSpec::preset(DatasetKind::Toys).scaled(scale()).scaled_items(2.0);
    source_spec.plm.seed = 4242;
    target_spec.plm.seed = 4242;
    // Same semantic factor space: share the catalog factor seeds' dims
    // (n_factors already equal across presets).

    let source = source_spec.build();
    let target = target_spec.build();
    eprintln!(
        "source {}: {} items | target {}: {} items",
        source.spec.kind.name(),
        source.n_items(),
        target.spec.kind.name(),
        target.n_items()
    );

    let cfg = ModelConfig::default();
    let train_config = TrainConfig {
        max_epochs: max_epochs(),
        patience: 4,
        batch_size: 256,
        max_seq: cfg.max_seq,
        eval_batch: 256,
        seed: 77,
    };

    // --- train WhitenRec on the source domain -----------------------------
    // The whitening transform is *part of the model* and ships with it:
    // fit once on the source catalog, reuse on the target. (Refitting ZCA
    // per domain breaks transfer — whitening is only unique up to rotation,
    // so a target-fitted basis is arbitrarily rotated relative to the
    // weights trained in the source basis.)
    let src_split = warm_split(&source.sequences);
    let whitener = wr_whiten::WhiteningTransform::fit(
        &source.embeddings,
        wr_whiten::WhiteningMethod::Zca,
        wr_whiten::DEFAULT_EPS,
    );
    let z_src = whitener.apply(&source.embeddings);
    let mut rng = Rng64::seed_from(cfg.seed);
    let mut model = SasRec::new(
        "WhitenRec(source)",
        Box::new(TextTower::new(z_src, cfg.dim, cfg.proj_layers, &mut rng)),
        LossKind::Softmax,
        cfg,
        &mut rng,
    );
    let mut opt = Adam::new(AdamConfig::PAPER);
    eprintln!("training WhitenRec on {}…", source.spec.kind.name());
    fit(
        &mut model,
        &mut opt,
        src_split.train.clone(),
        &src_split.validation[..src_split.validation.len().min(1000)],
        train_config,
        &Telemetry::new(),
        |_, _| {},
    );

    // --- zero-shot transfer: same weights, target embedding table ---------
    let ckpt = std::env::temp_dir().join(format!("wr_transfer_{}.wrck", std::process::id()));
    save_params(&ckpt, &model.params()).expect("save source weights");
    let z_tgt = whitener.apply(&target.embeddings);
    let mut rng2 = Rng64::seed_from(cfg.seed);
    let transferred = SasRec::new(
        "WhitenRec(zero-shot)",
        Box::new(TextTower::new(z_tgt, cfg.dim, cfg.proj_layers, &mut rng2)),
        LossKind::Softmax,
        cfg,
        &mut rng2,
    );
    let loaded = load_params(&ckpt).expect("load");
    restore_params(&transferred.params(), &loaded).expect("restore into target model");
    std::fs::remove_file(&ckpt).ok();

    let tgt_split = warm_split(&target.sequences);
    let tgt_test: Vec<_> = tgt_split.test.iter().take(1200).cloned().collect();
    let eval = |m: &dyn SeqRecModel| evaluate(m, &tgt_test, &wr_eval::DEFAULT_KS, 256);
    let zero_shot = eval(&transferred);

    // --- reference points on the target domain ----------------------------
    let pop = Popularity::new(&tgt_split.train, target.n_items());
    let pop_metrics = eval(&pop);

    // Source-trained SASRec(ID) transplanted: its ID table rows index a
    // *different* catalog — structurally meaningless, included to make the
    // paper's "IDs are not transferable" point measurable. Where catalogs
    // differ in size, the table is re-created (random) at target size and
    // only the sequence encoder transfers.
    let mut rng3 = Rng64::seed_from(cfg.seed);
    let mut id_source = zoo::build(
        "SASRec(ID)",
        &zoo::ZooInputs {
            embeddings: &source.embeddings,
            item_categories: &vec![0; source.n_items()],
            train_sequences: &src_split.train,
            relaxed_groups: 4,
        },
        cfg,
        &mut rng3,
    );
    let mut opt_id = Adam::new(AdamConfig {
        weight_decay: 0.0,
        ..AdamConfig::PAPER
    });
    eprintln!("training SASRec(ID) on {}…", source.spec.kind.name());
    fit(
        &mut id_source,
        &mut opt_id,
        src_split.train.clone(),
        &src_split.validation[..src_split.validation.len().min(1000)],
        train_config,
        &Telemetry::new(),
        |_, _| {},
    );
    // Transplant: fresh random ID table at target size + source encoder is
    // not even well-defined; the honest "ID transfer" is scoring the target
    // with the source model directly when sizes permit, else random.
    let id_zero_shot = if source.n_items() == target.n_items() {
        eval(&id_source)
    } else {
        // Structurally impossible — report the random floor explicitly.
        let mut rng4 = Rng64::seed_from(1);
        let random = zoo::build(
            "SASRec(ID)",
            &zoo::ZooInputs {
                embeddings: &target.embeddings,
                item_categories: &vec![0; target.n_items()],
                train_sequences: &tgt_split.train,
                relaxed_groups: 4,
            },
            cfg,
            &mut rng4,
        );
        eval(&random)
    };

    // Skyline: WhitenRec trained on the target itself.
    let z_tgt2 = zoo::whiten_full(&target.embeddings);
    let mut rng5 = Rng64::seed_from(cfg.seed);
    let mut native = SasRec::new(
        "WhitenRec(native)",
        Box::new(TextTower::new(z_tgt2, cfg.dim, cfg.proj_layers, &mut rng5)),
        LossKind::Softmax,
        cfg,
        &mut rng5,
    );
    let mut opt_n = Adam::new(AdamConfig::PAPER);
    eprintln!("training native WhitenRec on {}…", target.spec.kind.name());
    fit(
        &mut native,
        &mut opt_n,
        tgt_split.train.clone(),
        &tgt_split.validation[..tgt_split.validation.len().min(1000)],
        train_config,
        &Telemetry::new(),
        |_, _| {},
    );
    let native_metrics = eval(&native);

    let mut t = TableWriter::new(
        format!(
            "Extension: zero-shot transfer {} → {} (R@20 / N@20 on target)",
            source.spec.kind.name(),
            target.spec.kind.name()
        ),
        &["Model", "R@20", "N@20"],
    );
    t.row(&["Pop (target floor)".into(), m4(pop_metrics.recall_at(20)), m4(pop_metrics.ndcg_at(20))]);
    t.row(&["SASRec(ID) transfer (untransferable)".into(), m4(id_zero_shot.recall_at(20)), m4(id_zero_shot.ndcg_at(20))]);
    t.row(&["WhitenRec zero-shot (text transfer)".into(), m4(zero_shot.recall_at(20)), m4(zero_shot.ndcg_at(20))]);
    t.row(&["WhitenRec native (skyline)".into(), m4(native_metrics.recall_at(20)), m4(native_metrics.ndcg_at(20))]);
    t.print();
    println!(
        "Claim check (paper §I, advantage 3): text-only WhitenRec transfers\n\
         a useful model across domains — zero-shot should clearly beat the\n\
         popularity floor and the untransferable-ID reference while trailing\n\
         the natively trained skyline."
    );
}
