//! Crash-resume differential: training 4 epochs straight must be
//! **bit-identical** to training 2 epochs, dying, and resuming for the
//! remaining 2 from the on-disk checkpoint. Run under both `WR_THREADS=1`
//! and `WR_THREADS=8` by the tier-1 harness; the checkpoint state is a
//! pure function of the training arithmetic, so thread count must not
//! matter.

use wr_data::Batch;
use wr_nn::{Embedding, Module, Param, Session};
use wr_tensor::{Rng64, Tensor};
use wr_train::{
    fit, fit_resumable, Adam, AdamConfig, CheckpointPolicy, SeqRecModel, TrainConfig,
};

/// Minimal sequence model: the mean of the context's embeddings scored
/// against the table. It supplies its two representations only — the
/// validation `fit` runs ranks them by the snapshot's rule, as every model
/// is ranked. Enough moving parts (embedding gradients, Adam moments, RNG
/// stream) to catch any state the checkpoint fails to capture.
struct ToyModel {
    emb: Embedding,
}

impl ToyModel {
    fn new(n_items: usize, seed: u64) -> Self {
        let mut rng = Rng64::seed_from(seed);
        ToyModel {
            emb: Embedding::new(n_items, 8, &mut rng),
        }
    }

    fn user_vec(&self, context: &[usize]) -> Vec<f32> {
        let table = self.emb.table.get();
        let mut acc = vec![0.0f32; 8];
        for &i in context {
            for (a, &b) in acc.iter_mut().zip(table.row(i)) {
                *a += b;
            }
        }
        for a in &mut acc {
            *a /= context.len().max(1) as f32;
        }
        acc
    }
}

impl SeqRecModel for ToyModel {
    fn name(&self) -> String {
        "ResumeToy".into()
    }

    fn params(&self) -> Vec<Param> {
        self.emb.params()
    }

    fn train_step(&mut self, batch: &Batch, optimizer: &mut Adam, rng: &mut Rng64) -> f32 {
        let g = wr_autograd::Graph::new();
        let mut sess = Session::train(&g, rng.fork());
        let last_rows: Vec<usize> = (0..batch.batch)
            .map(|b| batch.items[b * batch.seq + batch.seq - 1])
            .collect();
        let u = self.emb.forward(&mut sess, &last_rows);
        let table = sess.bind(&self.emb.table);
        let logits = g.matmul(u, g.transpose(table));
        let targets: Vec<usize> = (0..batch.batch)
            .map(|b| {
                let mut t = 0;
                for (p, &tgt) in batch.loss_positions.iter().zip(&batch.targets) {
                    if p / batch.seq == b {
                        t = tgt;
                    }
                }
                t
            })
            .collect();
        let loss = g.cross_entropy(logits, &targets);
        let value = g.value(loss).item();
        g.backward(loss);
        optimizer.step(&g, sess.bindings());
        value
    }

    fn item_representations(&self) -> Tensor {
        self.emb.table.get()
    }

    fn user_representations(&self, contexts: &[&[usize]]) -> Tensor {
        let mut out = Tensor::zeros(&[contexts.len(), 8]);
        for (r, ctx) in contexts.iter().enumerate() {
            out.row_mut(r).copy_from_slice(&self.user_vec(ctx));
        }
        out
    }
}

fn toy_data(n_items: usize, n_users: usize) -> (Vec<Vec<usize>>, Vec<wr_data::EvalCase>) {
    let mut train = Vec::new();
    let mut valid = Vec::new();
    for u in 0..n_users {
        let start = u % n_items;
        let seq: Vec<usize> = (0..8).map(|t| (start + t) % n_items).collect();
        valid.push(wr_data::EvalCase {
            user: u,
            context: seq.clone(),
            target: (start + 8) % n_items,
        });
        train.push(seq);
    }
    (train, valid)
}

fn test_config(max_epochs: usize) -> TrainConfig {
    TrainConfig {
        max_epochs,
        batch_size: 16,
        max_seq: 10,
        patience: 100, // no early stop: the epoch count is the variable
        ..TrainConfig::default()
    }
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wr_resume_diff_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn param_bits(model: &ToyModel) -> Vec<Vec<u32>> {
    model
        .params()
        .iter()
        .map(|p| p.get().data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn kill_and_resume_is_bit_identical_to_straight_run() {
    let (train, valid) = toy_data(12, 60);

    // Straight 4-epoch run, no checkpointing at all.
    let mut straight = ToyModel::new(12, 5);
    let mut opt_s = Adam::new(AdamConfig { lr: 0.05, ..AdamConfig::default() });
    let report_s = fit(
        &mut straight,
        &mut opt_s,
        train.clone(),
        &valid,
        test_config(4),
        &wr_obs::Telemetry::new(),
        |_, _| {},
    );

    // Interrupted run: 2 epochs, then the process "dies" (we drop the
    // model and optimizer), then a fresh process resumes to epoch 4.
    let dir = tmp_dir("kill_resume");
    let policy = CheckpointPolicy { dir: dir.clone(), every: 1 };
    {
        let mut first = ToyModel::new(12, 5);
        let mut opt = Adam::new(AdamConfig { lr: 0.05, ..AdamConfig::default() });
        let tel = wr_obs::Telemetry::new();
        fit_resumable(
            &mut first,
            &mut opt,
            train.clone(),
            &valid,
            test_config(2),
            &tel,
            &policy,
            |_, _| {},
        )
        .unwrap();
    }
    // The "restarted process": same construction seed, but every piece of
    // state must come from the checkpoint, not from this init.
    let mut resumed = ToyModel::new(12, 5);
    let mut opt_r = Adam::new(AdamConfig { lr: 0.05, ..AdamConfig::default() });
    let tel = wr_obs::Telemetry::new();
    let report_r = fit_resumable(
        &mut resumed,
        &mut opt_r,
        train.clone(),
        &valid,
        test_config(4),
        &tel,
        &policy,
        |_, _| {},
    )
    .unwrap();

    assert_eq!(
        param_bits(&straight),
        param_bits(&resumed),
        "kill-and-resume diverged from the uninterrupted run"
    );
    assert_eq!(opt_s.steps(), opt_r.steps(), "optimizer step counts differ");
    assert_eq!(
        report_s.best_valid_ndcg.to_bits(),
        report_r.best_valid_ndcg.to_bits()
    );
    // The resumed report covers only the epochs it actually ran.
    assert_eq!(report_r.epochs.len(), 2);
    assert_eq!(report_r.epochs[0].epoch, 2);

    // Exactly one resume happened, and it was counted.
    let snap = tel.registry.snapshot();
    let resumes = snap
        .counters
        .iter()
        .find(|(n, _)| n == "train.resumes")
        .map(|(_, v)| *v)
        .expect("train.resumes counter must exist");
    assert_eq!(resumes, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_survives_a_torn_newest_checkpoint() {
    let (train, valid) = toy_data(10, 40);
    let dir = tmp_dir("torn_newest");
    let policy = CheckpointPolicy { dir: dir.clone(), every: 1 };
    {
        let mut m = ToyModel::new(10, 7);
        let mut opt = Adam::new(AdamConfig::default());
        let tel = wr_obs::Telemetry::new();
        fit_resumable(&mut m, &mut opt, train.clone(), &valid, test_config(3), &tel, &policy, |_, _| {})
            .unwrap();
    }
    // Simulate a crash mid-save of generation 3: truncate it.
    let newest = dir.join("train-000003.wrts");
    let bytes = std::fs::read(&newest).unwrap();
    std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();

    // Resume falls back to generation 2 and continues from epoch 2.
    let mut m = ToyModel::new(10, 7);
    let mut opt = Adam::new(AdamConfig::default());
    let tel = wr_obs::Telemetry::new();
    let report = fit_resumable(
        &mut m,
        &mut opt,
        train,
        &valid,
        test_config(4),
        &tel,
        &policy,
        |_, _| {},
    )
    .unwrap();
    assert_eq!(report.epochs.first().map(|e| e.epoch), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpointing_does_not_perturb_training_arithmetic() {
    let (train, valid) = toy_data(8, 24);
    let mut plain = ToyModel::new(8, 3);
    let mut opt_p = Adam::new(AdamConfig::default());
    let tel_p = wr_obs::Telemetry::new();
    fit(&mut plain, &mut opt_p, train.clone(), &valid, test_config(3), &tel_p, |_, _| {});

    let dir = tmp_dir("no_perturb");
    let mut ckpt = ToyModel::new(8, 3);
    let mut opt_c = Adam::new(AdamConfig::default());
    let tel = wr_obs::Telemetry::new();
    fit_resumable(
        &mut ckpt,
        &mut opt_c,
        train,
        &valid,
        test_config(3),
        &tel,
        &CheckpointPolicy { dir: dir.clone(), every: 2 },
        |_, _| {},
    )
    .unwrap();
    assert_eq!(param_bits(&plain), param_bits(&ckpt));
    // every=2 over 3 epochs → generations at epoch 2 (cadence) and 3 (final).
    assert!(dir.join("train-000002.wrts").exists());
    assert!(dir.join("train-000003.wrts").exists());
    assert!(!dir.join("train-000001.wrts").exists());
    std::fs::remove_dir_all(&dir).ok();
}
