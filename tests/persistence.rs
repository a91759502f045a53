//! Integration: checkpointing a trained model preserves its behaviour, and
//! experiment records survive a JSONL round trip.

use whitenrec::data::Batch;
use whitenrec::models::{zoo, ModelConfig};
use whitenrec::nn::{load_params, restore_params, save_params};
use whitenrec::tensor::{Rng64, Tensor};
use whitenrec::train::{Adam, AdamConfig, SeqRecModel};
use wr_serve::{Request, ServeConfig, ServeEngine};

fn trained_model() -> (Box<dyn SeqRecModel>, Vec<Vec<usize>>) {
    let mut rng = Rng64::seed_from(5);
    let emb = Tensor::randn(&[20, 16], &mut rng);
    let cats: Vec<usize> = (0..20).map(|i| i % 3).collect();
    let seqs: Vec<Vec<usize>> = (0..16).map(|u| (0..6).map(|t| (u + t) % 20).collect()).collect();
    let inputs = zoo::ZooInputs {
        embeddings: &emb,
        item_categories: &cats,
        train_sequences: &seqs,
        relaxed_groups: 4,
    };
    let config = ModelConfig {
        dim: 16,
        blocks: 1,
        max_seq: 8,
        dropout: 0.0,
        ..ModelConfig::default()
    };
    let mut model = zoo::build("WhitenRec+", &inputs, config, &mut rng);
    let mut opt = Adam::new(AdamConfig::default());
    let refs: Vec<&[usize]> = seqs.iter().map(|s| s.as_slice()).collect();
    let batch = Batch::from_sequences(&refs, config.max_seq);
    for _ in 0..5 {
        model.train_step(&batch, &mut opt, &mut rng);
    }
    (model, seqs)
}

#[test]
fn checkpoint_roundtrip_preserves_scores() {
    let (model, _) = trained_model();
    let path = std::env::temp_dir().join(format!("wr_model_{}.wrck", std::process::id()));
    save_params(&path, &model.params()).unwrap();

    let ctx: &[usize] = &[1, 2, 3];
    let before = model.score(&[ctx]);

    // Scramble every parameter, then restore.
    for p in model.params() {
        p.update(|t| {
            t.scale_(0.0);
            let _ = t;
        });
    }
    let scrambled = model.score(&[ctx]);
    assert_ne!(before.data(), scrambled.data(), "scramble must change scores");

    let loaded = load_params(&path).unwrap();
    restore_params(&model.params(), &loaded).unwrap();
    let after = model.score(&[ctx]);
    assert_eq!(before.data(), after.data(), "restore must reproduce scores exactly");
    std::fs::remove_file(path).ok();
}

/// The deployment path end to end: train → `save_params` → rebuild the
/// same architecture (same frozen inputs, fresh trainable init) →
/// `load_params` + `restore_params` → `ServeEngine::new` → serve. The restored engine must answer
/// exactly like an engine wrapping the still-in-memory trained model, and
/// its raw scores must be bit-identical to `model.score` on the same
/// contexts — checkpointing through the serve path loses nothing.
#[test]
fn checkpoint_serves_identically_to_in_memory_model() {
    let (model, seqs) = trained_model();
    let path = std::env::temp_dir().join(format!("wr_serve_{}.wrck", std::process::id()));
    save_params(&path, &model.params()).unwrap();

    // Raw-score reference, captured before the model moves into the engine.
    let contexts: Vec<&[usize]> = seqs.iter().take(6).map(|s| s.as_slice()).collect();
    let direct_scores = model.score(&contexts);

    let cfg = ServeConfig {
        k: 8,
        max_batch: 4,
        max_seq: 8,
        filter_seen: true,
    };
    let in_memory = ServeEngine::new(model, cfg);

    // Same architecture + same frozen whitened table (trained_model is
    // fully seeded), different trainable init — the checkpoint overwrites
    // every trainable parameter.
    let (fresh, _) = trained_model();
    for p in fresh.params() {
        p.update(|t| {
            t.scale_(0.5);
            let _ = t;
        });
    }
    restore_params(&fresh.params(), &load_params(&path).unwrap()).unwrap();
    let restored = ServeEngine::new(fresh, cfg);
    std::fs::remove_file(&path).ok();

    let requests: Vec<Request> = seqs
        .iter()
        .enumerate()
        .map(|(i, s)| Request {
            id: i as u64,
            history: s.clone(),
        })
        .collect();
    let a = in_memory.serve(&requests);
    let b = restored.serve(&requests);
    assert_eq!(a.len(), b.len());
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra.id, rb.id);
        for (sa, sb) in ra.items.iter().zip(&rb.items) {
            assert_eq!(sa.item, sb.item);
            assert_eq!(sa.score.to_bits(), sb.score.to_bits());
        }
    }

    // The engine's cached-V scoring path reproduces model.score exactly
    // for this Softmax-loss model: compare full rows, not just top-k.
    for (row, ctx) in contexts.iter().enumerate() {
        let served = restored.serve(&[Request {
            id: row as u64,
            history: ctx.to_vec(),
        }]);
        let full = direct_scores.row(row);
        for s in &served[0].items {
            assert_eq!(
                s.score.to_bits(),
                full[s.item].to_bits(),
                "served score for item {} differs from model.score",
                s.item
            );
        }
    }
}

#[test]
fn checkpoint_is_compact() {
    let (model, _) = trained_model();
    let path = std::env::temp_dir().join(format!("wr_size_{}.wrck", std::process::id()));
    save_params(&path, &model.params()).unwrap();
    let bytes = std::fs::metadata(&path).unwrap().len() as usize;
    let scalars = model.param_count();
    // 4 bytes per f32 + bounded metadata overhead.
    assert!(bytes >= scalars * 4);
    assert!(
        bytes < scalars * 4 + 200 * model.params().len() + 64,
        "checkpoint overhead too large: {bytes} bytes for {scalars} scalars"
    );
    std::fs::remove_file(path).ok();
}
