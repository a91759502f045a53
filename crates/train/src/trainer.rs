//! The training loop with validation-based early stopping.
//!
//! All timing goes through `wr-obs`'s [`Clock`] (the production
//! [`wr_obs::MonotonicClock`] by default, a mock in tests) — the trainer
//! never reads `Instant::now` directly (clippy's `disallowed_methods`).
//! [`fit`] records per-epoch loss/NDCG gauges and step-time / grad-norm
//! histograms and wraps each epoch in a trace span; [`fit_resumable`] is
//! the same loop with crash-safe checkpoints.

use std::sync::Arc;

use crate::resume::{
    latest_valid_train_checkpoint, save_train_checkpoint, TrainCheckpoint,
};
use crate::{evaluate, Adam, ModelSnapshot};
use wr_data::{Batch, Batcher, EvalCase};
use wr_nn::{CheckpointError, FrozenEncoder, Param};
use wr_obs::{Clock, Telemetry};
use wr_tensor::{Rng64, Tensor};

/// Interface every model in the zoo implements.
///
/// A model supplies its two halves of the paper's prediction layer
/// `ŷ = s · Vᵀ` — [`Self::item_representations`] (`V`) and
/// [`Self::user_representations`] (`s`) — plus [`Self::train_step`],
/// optionally [`Self::freeze`] (a tape-free encoder) and its ranking rule
/// as data ([`Self::cosine_tau`]). It writes no scoring code: a
/// [`ModelSnapshot`] (which serving holds too) ranks, and `score` is an
/// inherent method of `dyn SeqRecModel`, so no model can override it:
///
/// ```compile_fail,E0407
/// # use {wr_tensor::{Rng64, Tensor}, wr_train::{Adam, SeqRecModel}};
/// struct Mine;
/// impl SeqRecModel for Mine {
///     fn name(&self) -> String { unimplemented!() }
///     fn params(&self) -> Vec<wr_nn::Param> { unimplemented!() }
///     fn train_step(&mut self, _: &wr_data::Batch, _: &mut Adam, _: &mut Rng64) -> f32 { unimplemented!() }
///     fn item_representations(&self) -> Tensor { unimplemented!() }
///     fn user_representations(&self, _: &[&[usize]]) -> Tensor { unimplemented!() }
///     fn score(&self, _: &[&[usize]]) -> Tensor { unimplemented!() }
/// }
/// ```
pub trait SeqRecModel {
    /// Display name (Table III row label).
    fn name(&self) -> String;

    /// All trainable parameters (for counting and snapshotting).
    fn params(&self) -> Vec<Param>;

    /// One optimization step on `batch`; returns the training loss.
    fn train_step(&mut self, batch: &Batch, optimizer: &mut Adam, rng: &mut Rng64) -> f32;

    /// Projected item representation matrix `V` (for Fig. 6/7 analyses).
    fn item_representations(&self) -> Tensor;

    /// User representations for the given contexts → `[batch, d]`, always
    /// through the taped forward: the reference [`Self::freeze`] and
    /// [`ModelSnapshot::users`] are pinned against.
    fn user_representations(&self, contexts: &[&[usize]]) -> Tensor;

    /// How the model ranks, which follows from its loss: `None` (the
    /// default) by `s · v`, `Some(τ)` by `cos(s, v) / τ` (cosine softmax).
    fn cosine_tau(&self) -> Option<f32> {
        None
    }

    /// Snapshot the model for serving: a tape-free, `Send + Sync` encoder
    /// over `items` (this model's [`Self::item_representations`], computed
    /// once by the caller and shared) whose `encode` is bit-identical to
    /// [`Self::user_representations`]. Later training or parameter
    /// restores do not reach the snapshot. `None` (the default) for
    /// architectures without a frozen form and for a model holding a
    /// non-finite weight or item row; serving keeps the taped
    /// `user_representations` for those.
    fn freeze(&self, _items: Arc<Tensor>) -> Option<FrozenEncoder> {
        None
    }

    /// Restrict the *training* softmax to a candidate item set (cold-start
    /// protocol: items absent from the training catalog must not receive
    /// gradients as perpetual negatives). Scoring remains over the full
    /// catalog. Default: ignored.
    fn set_train_candidates(&mut self, _candidates: Option<Vec<usize>>) {}

    fn param_count(&self) -> usize {
        self.params().iter().map(Param::numel).sum()
    }
}

impl<'a> dyn SeqRecModel + 'a {
    /// Score every item for each context → `[batch, n_items]`: a fresh
    /// [`ModelSnapshot`]'s [`ModelSnapshot::scores`]. A caller scoring
    /// more than one batch of an unchanged model builds the snapshot once
    /// itself ([`crate::evaluate`] does).
    pub fn score(&self, contexts: &[&[usize]]) -> Tensor {
        ModelSnapshot::of(self).scores(self, contexts)
    }
}

/// Forwards every method a model overrides, the provided ones included.
impl SeqRecModel for Box<dyn SeqRecModel> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn params(&self) -> Vec<Param> {
        (**self).params()
    }

    fn train_step(&mut self, batch: &Batch, optimizer: &mut Adam, rng: &mut Rng64) -> f32 {
        (**self).train_step(batch, optimizer, rng)
    }

    fn item_representations(&self) -> Tensor {
        (**self).item_representations()
    }

    fn user_representations(&self, contexts: &[&[usize]]) -> Tensor {
        (**self).user_representations(contexts)
    }

    fn cosine_tau(&self) -> Option<f32> {
        (**self).cosine_tau()
    }

    fn freeze(&self, items: Arc<Tensor>) -> Option<FrozenEncoder> {
        (**self).freeze(items)
    }

    fn set_train_candidates(&mut self, candidates: Option<Vec<usize>>) {
        (**self).set_train_candidates(candidates)
    }
}

/// Loop hyper-parameters (paper defaults scaled to this codebase).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    pub max_epochs: usize,
    pub batch_size: usize,
    pub max_seq: usize,
    /// Early-stopping patience in epochs (paper: 10 on validation N@20).
    pub patience: usize,
    pub eval_batch: usize,
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            max_epochs: 60,
            batch_size: 128,
            max_seq: 30,
            patience: 10,
            eval_batch: 128,
            seed: 2024,
        }
    }
}

/// Per-epoch measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    pub epoch: usize,
    pub train_loss: f32,
    /// Validation NDCG@20 (None when there is no validation set).
    pub valid_ndcg: Option<f32>,
    pub seconds: f64,
}

/// Outcome of [`fit`].
#[derive(Debug, Clone)]
pub struct TrainReport {
    pub model_name: String,
    pub epochs: Vec<EpochRecord>,
    pub best_valid_ndcg: f32,
    pub best_epoch: usize,
    pub total_seconds: f64,
    pub param_count: usize,
}

impl TrainReport {
    /// Mean wall-clock seconds per epoch (Table IX's `s/Epoch`).
    pub fn seconds_per_epoch(&self) -> f64 {
        if self.epochs.is_empty() {
            0.0
        } else {
            self.total_seconds / self.epochs.len() as f64
        }
    }
}

/// Train `model` with early stopping on validation NDCG@20, restoring the
/// best parameters before returning. `epoch_hook` runs after each epoch —
/// the Fig. 6/7 analyses collect their per-epoch statistics there.
///
/// Training records into `telemetry`: per-epoch `train.loss` /
/// `train.valid_ndcg` / `train.epoch_seconds` gauges, `train.step_ms` and
/// `train.grad_norm` histograms (one sample per optimization step), a
/// `train.epochs` counter, and a `train.epoch` span per epoch on the
/// tracer. All report timing (`EpochRecord::seconds`,
/// `TrainReport::total_seconds`) is read from `telemetry.clock`, so a
/// [`wr_obs::MockClock`] makes the report fully deterministic. Telemetry
/// is write-only: no recorded value feeds the optimization path, so a
/// caller that reads none passes a fresh [`Telemetry::new`].
pub fn fit<M: SeqRecModel>(
    model: &mut M,
    optimizer: &mut Adam,
    train_sequences: Vec<Vec<usize>>,
    validation: &[EvalCase],
    config: TrainConfig,
    telemetry: &Telemetry,
    mut epoch_hook: impl FnMut(&M, &EpochRecord),
) -> TrainReport {
    match run_loop(
        model,
        optimizer,
        train_sequences,
        validation,
        config,
        telemetry,
        LoopStart::fresh(config.seed),
        None,
        &mut epoch_hook,
    ) {
        Ok(report) => report,
        // Without a checkpoint policy the loop performs no fallible IO.
        Err(e) => unreachable!("checkpoint-free training cannot fail: {e}"),
    }
}

/// Where and how often [`fit_resumable`] persists its resumable state.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Directory receiving `train-<epoch>.wrts` generations (created if
    /// absent). Old generations are kept: recovery falls back across them
    /// when the newest is damaged.
    pub dir: std::path::PathBuf,
    /// Checkpoint after every `every`-th epoch (1 = every epoch; the
    /// final epoch is always checkpointed).
    pub every: usize,
}

/// [`fit`] with crash-safe resumption: the loop checkpoints its
/// full state (parameters, best-weights snapshot, Adam moments + step,
/// RNG stream position, early-stopping bookkeeping) to `policy.dir` at
/// epoch boundaries, and on startup restores the newest valid generation
/// found there — continuing **bit-identically** to the uninterrupted run.
/// A kill at any instant costs at most `policy.every` epochs of work.
///
/// Each resume increments the `train.resumes` counter on `telemetry`
/// (created at 0 so the metric is visible even for runs that never
/// resume).
#[allow(
    clippy::too_many_arguments,
    reason = "fit's arguments plus the checkpoint policy; a struct would exist for this call alone"
)]
pub fn fit_resumable<M: SeqRecModel>(
    model: &mut M,
    optimizer: &mut Adam,
    train_sequences: Vec<Vec<usize>>,
    validation: &[EvalCase],
    config: TrainConfig,
    telemetry: &Telemetry,
    policy: &CheckpointPolicy,
    mut epoch_hook: impl FnMut(&M, &EpochRecord),
) -> Result<TrainReport, CheckpointError> {
    std::fs::create_dir_all(&policy.dir)?;
    let resumes = telemetry.registry.counter("train.resumes");
    let params = model.params();
    let start = match latest_valid_train_checkpoint(&policy.dir)? {
        Some((_, cp)) => {
            if cp.params.len() != params.len() {
                return Err(CheckpointError::Mismatch(format!(
                    "checkpoint has {} parameters, model has {}",
                    cp.params.len(),
                    params.len()
                )));
            }
            for (p, t) in params.iter().zip(&cp.params) {
                if t.dims() != p.dims() {
                    return Err(CheckpointError::Mismatch(format!(
                        "parameter {:?}: checkpoint {:?} vs model {:?}",
                        p.name(),
                        t.dims(),
                        p.dims()
                    )));
                }
            }
            for (p, t) in params.iter().zip(&cp.params) {
                p.set(t.clone());
            }
            optimizer
                .import_state(&params, &cp.adam)
                .map_err(CheckpointError::Mismatch)?;
            resumes.inc();
            LoopStart {
                epoch_next: cp.epoch_next,
                rng: Rng64::from_state(cp.rng_state),
                best_snapshot: Some(cp.best_snapshot),
                best_valid: cp.best_valid,
                best_epoch: cp.best_epoch,
                stale: cp.stale,
            }
        }
        None => LoopStart::fresh(config.seed),
    };
    run_loop(
        model,
        optimizer,
        train_sequences,
        validation,
        config,
        telemetry,
        start,
        Some(policy),
        &mut epoch_hook,
    )
}

/// Training-loop entry state: where the epoch counter, RNG stream, and
/// early-stopping bookkeeping begin. Fresh runs start at zero; resumed
/// runs restore every field from a [`TrainCheckpoint`].
struct LoopStart {
    epoch_next: usize,
    rng: Rng64,
    /// `None` = snapshot the model's current parameters at loop entry.
    best_snapshot: Option<Vec<Tensor>>,
    best_valid: f32,
    best_epoch: usize,
    stale: usize,
}

impl LoopStart {
    fn fresh(seed: u64) -> LoopStart {
        LoopStart {
            epoch_next: 0,
            rng: Rng64::seed_from(seed),
            best_snapshot: None,
            best_valid: f32::NEG_INFINITY,
            best_epoch: 0,
            stale: 0,
        }
    }
}

/// The one training loop behind [`fit`] and [`fit_resumable`]: plain and
/// resumable runs execute identical arithmetic, differing only in entry
/// state and whether epoch boundaries persist a [`TrainCheckpoint`].
#[allow(
    clippy::too_many_arguments,
    reason = "the one loop behind both entry points; each argument is a different one of their inputs"
)]
fn run_loop<M: SeqRecModel>(
    model: &mut M,
    optimizer: &mut Adam,
    train_sequences: Vec<Vec<usize>>,
    validation: &[EvalCase],
    config: TrainConfig,
    telemetry: &Telemetry,
    start: LoopStart,
    checkpoint: Option<&CheckpointPolicy>,
    epoch_hook: &mut impl FnMut(&M, &EpochRecord),
) -> Result<TrainReport, CheckpointError> {
    let mut rng = start.rng;
    let batcher = Batcher::new(train_sequences, config.batch_size, config.max_seq);
    assert!(batcher.n_sequences() > 0, "no trainable sequences");

    let clock: &dyn Clock = &*telemetry.clock;
    let registry = &telemetry.registry;
    let loss_gauge = registry.gauge("train.loss");
    let ndcg_gauge = registry.gauge("train.valid_ndcg");
    let epoch_seconds_gauge = registry.gauge("train.epoch_seconds");
    let epoch_counter = registry.counter("train.epochs");
    let step_ms = registry.histogram("train.step_ms", &wr_obs::Histogram::default_ms_bounds());
    let grad_norm = registry.histogram("train.grad_norm", &grad_norm_bounds());

    let params = model.params();
    let mut best_snapshot: Vec<Tensor> = start
        .best_snapshot
        .unwrap_or_else(|| params.iter().map(Param::get).collect());
    let mut best_valid = start.best_valid;
    let mut best_epoch = start.best_epoch;
    let mut stale = start.stale;
    let mut epochs = Vec::new();
    let start_ns = clock.now_ns();

    for epoch in start.epoch_next..config.max_epochs {
        let epoch_span = telemetry.tracer.span(format!("epoch{epoch}"), "train");
        let epoch_start_ns = clock.now_ns();
        let mut loss_sum = 0.0f64;
        let mut n_batches = 0usize;
        for batch in batcher.epoch(&mut rng) {
            let step_start_ns = clock.now_ns();
            let loss = model.train_step(&batch, optimizer, &mut rng);
            step_ms.observe(clock.now_ns().saturating_sub(step_start_ns) as f64 / 1e6);
            grad_norm.observe(optimizer.last_grad_norm() as f64);
            debug_assert!(loss.is_finite(), "non-finite training loss at epoch {epoch}");
            loss_sum += loss as f64;
            n_batches += 1;
        }
        let train_loss = (loss_sum / n_batches.max(1) as f64) as f32;

        let valid_ndcg = if !validation.is_empty() {
            Some(evaluate(model, validation, &[20], config.eval_batch).ndcg_at(20))
        } else {
            None
        };

        let record = EpochRecord {
            epoch,
            train_loss,
            valid_ndcg,
            seconds: clock.now_ns().saturating_sub(epoch_start_ns) as f64 / 1e9,
        };
        epoch_span.end();
        loss_gauge.set(train_loss as f64);
        if let Some(v) = valid_ndcg {
            ndcg_gauge.set(v as f64);
        }
        epoch_seconds_gauge.set(record.seconds);
        epoch_counter.inc();
        epoch_hook(model, &record);
        epochs.push(record);

        let mut stop_now = false;
        if let Some(v) = valid_ndcg {
            if v > best_valid {
                best_valid = v;
                best_epoch = epoch;
                stale = 0;
                for (snap, p) in best_snapshot.iter_mut().zip(&params) {
                    *snap = p.get();
                }
            } else {
                stale += 1;
                if stale >= config.patience {
                    stop_now = true;
                }
            }
        }

        if let Some(policy) = checkpoint {
            // Persist at the configured cadence, and always at the final
            // epoch (scheduled or early-stopped) so the terminal state is
            // on disk. The RNG state is captured *after* this epoch's
            // draws: a resumed loop continues the exact stream.
            let boundary = (epoch + 1) % policy.every.max(1) == 0;
            if boundary || stop_now || epoch + 1 == config.max_epochs {
                let cp = TrainCheckpoint {
                    epoch_next: epoch + 1,
                    rng_state: rng.state(),
                    params: params.iter().map(Param::get).collect(),
                    best_snapshot: best_snapshot.clone(),
                    adam: optimizer.export_state(&params),
                    best_valid,
                    best_epoch,
                    stale,
                };
                save_train_checkpoint(
                    policy.dir.join(format!("train-{:06}.wrts", epoch + 1)),
                    &cp,
                )?;
            }
        }

        if stop_now {
            break;
        }
    }

    // Restore the best weights.
    if best_valid > f32::NEG_INFINITY {
        for (snap, p) in best_snapshot.iter().zip(&params) {
            p.set(snap.clone());
        }
    }

    Ok(TrainReport {
        model_name: model.name(),
        best_valid_ndcg: best_valid.max(0.0),
        best_epoch,
        total_seconds: clock.now_ns().saturating_sub(start_ns) as f64 / 1e9,
        param_count: model.param_count(),
        epochs,
    })
}

/// Log-spaced histogram bounds for gradient norms (1e-4 … 1e4).
fn grad_norm_bounds() -> Vec<f64> {
    let mut bounds = Vec::new();
    let mut decade = 1e-4;
    for _ in 0..8 {
        for m in [1.0, 3.0] {
            bounds.push(decade * m);
        }
        decade *= 10.0;
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdamConfig;
    use wr_autograd::Graph;
    use wr_nn::{Embedding, Module, Session};

    /// A deliberately tiny model: average of item embeddings in the context
    /// scored against all item embeddings. Enough to exercise the loop.
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
            "Toy".into()
        }

        fn params(&self) -> Vec<Param> {
            self.emb.params()
        }

        fn train_step(&mut self, batch: &Batch, optimizer: &mut Adam, rng: &mut Rng64) -> f32 {
            let g = Graph::new();
            let mut sess = Session::train(&g, rng.fork());
            // last real item's embedding predicts the target
            let last_rows: Vec<usize> = (0..batch.batch)
                .map(|b| batch.items[b * batch.seq + batch.seq - 1])
                .collect();
            let u = self.emb.forward(&mut sess, &last_rows);
            let table = sess.bind(&self.emb.table);
            let logits = g.matmul(u, g.transpose(table));
            let targets: Vec<usize> = (0..batch.batch)
                .map(|b| {
                    // final target of each sequence
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

    fn toy_data(n_items: usize, n_users: usize) -> (Vec<Vec<usize>>, Vec<EvalCase>) {
        // Cyclic sequences: item i is followed by (i+1) % n_items.
        let mut train = Vec::new();
        let mut valid = Vec::new();
        for u in 0..n_users {
            let start = u % n_items;
            let seq: Vec<usize> = (0..8).map(|t| (start + t) % n_items).collect();
            valid.push(EvalCase {
                user: u,
                context: seq.clone(),
                target: (start + 8) % n_items,
            });
            train.push(seq);
        }
        (train, valid)
    }

    #[test]
    fn fit_improves_validation_metric() {
        let (train, valid) = toy_data(12, 60);
        let mut model = ToyModel::new(12, 5);
        let mut opt = Adam::new(AdamConfig {
            lr: 0.05,
            ..AdamConfig::default()
        });
        let config = TrainConfig {
            max_epochs: 25,
            batch_size: 16,
            max_seq: 10,
            patience: 25,
            ..TrainConfig::default()
        };
        let report = fit(&mut model, &mut opt, train, &valid, config, &Telemetry::new(), |_, _| {});
        assert!(report.best_valid_ndcg > 0.3, "{}", report.best_valid_ndcg);
        assert!(!report.epochs.is_empty());
        // Loss decreased over training.
        let first = report.epochs.first().unwrap().train_loss;
        let last = report.epochs.last().unwrap().train_loss;
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn early_stopping_triggers() {
        let (train, valid) = toy_data(10, 30);
        let mut model = ToyModel::new(10, 6);
        // Zero learning rate: validation can never improve after epoch 0.
        let mut opt = Adam::new(AdamConfig {
            lr: 0.0,
            ..AdamConfig::default()
        });
        let config = TrainConfig {
            max_epochs: 50,
            batch_size: 16,
            max_seq: 10,
            patience: 3,
            ..TrainConfig::default()
        };
        let report = fit(&mut model, &mut opt, train, &valid, config, &Telemetry::new(), |_, _| {});
        assert!(
            report.epochs.len() <= 5,
            "expected early stop, ran {} epochs",
            report.epochs.len()
        );
    }

    #[test]
    fn best_weights_are_restored() {
        let (train, valid) = toy_data(10, 40);
        let mut model = ToyModel::new(10, 7);
        let mut opt = Adam::new(AdamConfig {
            lr: 0.05,
            ..AdamConfig::default()
        });
        let config = TrainConfig {
            max_epochs: 10,
            batch_size: 16,
            max_seq: 10,
            patience: 10,
            ..TrainConfig::default()
        };
        let tel = Telemetry::new();
        let report = fit(&mut model, &mut opt, train, &valid.clone(), config, &tel, |_, _| {});
        // Re-evaluating restored weights reproduces the best metric.
        let again = evaluate(&model, &valid, &[20], 64).ndcg_at(20);
        assert!(
            (again - report.best_valid_ndcg).abs() < 1e-5,
            "restored {again} vs best {}",
            report.best_valid_ndcg
        );
    }

    #[test]
    fn fit_records_metrics_with_deterministic_mock_time() {
        use std::sync::Arc;
        use wr_obs::MockClock;

        let (train, valid) = toy_data(8, 20);
        let mut model = ToyModel::new(8, 3);
        let mut opt = Adam::new(AdamConfig::default());
        let config = TrainConfig {
            max_epochs: 3,
            batch_size: 8,
            max_seq: 10,
            patience: 10,
            ..TrainConfig::default()
        };
        // Every clock read advances by exactly 1 ms: epoch/step timings
        // become pure functions of the number of reads.
        let clock = Arc::new(MockClock::with_tick(1_000_000));
        let tel = Telemetry::with_clock(clock);
        let report = fit(&mut model, &mut opt, train, &valid, config, &tel, |_, _| {});

        // 20 sequences / batch 8 → 3 steps per epoch. Per epoch the clock is
        // read: 1 span start + 1 epoch start + 2 per step + 1 epoch end + 1
        // span end = 3 + 2·steps reads ⇒ seconds is identical every epoch.
        assert_eq!(report.epochs.len(), 3);
        let secs: Vec<f64> = report.epochs.iter().map(|e| e.seconds).collect();
        assert!(secs.iter().all(|s| (*s - secs[0]).abs() < 1e-12), "{secs:?}");
        assert!(report.total_seconds > 0.0);

        let snap = tel.registry.snapshot();
        let gauge = |name: &str| {
            snap.gauges
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing gauge {name}"))
        };
        assert!((gauge("train.loss") - report.epochs.last().unwrap().train_loss as f64).abs() < 1e-6);
        assert!(gauge("train.valid_ndcg") >= 0.0);
        assert!(gauge("train.epoch_seconds") > 0.0);
        let counters: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert!(counters.contains(&"train.epochs"));
        let steps = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "train.step_ms")
            .map(|(_, h)| h.count)
            .unwrap();
        assert_eq!(steps, 9); // 3 epochs × 3 steps
        let gn = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "train.grad_norm")
            .map(|(_, h)| h.clone())
            .unwrap();
        assert_eq!(gn.count, 9);
        assert!(gn.min > 0.0, "grad norms should be positive, got {}", gn.min);

        // One span per epoch, named and categorized.
        let events = tel.tracer.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "epoch0");
        assert_eq!(events[0].cat, "train");
        assert!(events.iter().all(|e| e.dur_ns > 0));
    }

    #[test]
    fn fit_trains_identically_under_any_telemetry_clock() {
        use std::sync::Arc;
        use wr_obs::MockClock;

        let (train, valid) = toy_data(10, 30);
        let config = TrainConfig {
            max_epochs: 4,
            batch_size: 8,
            max_seq: 10,
            patience: 10,
            ..TrainConfig::default()
        };
        let mut m1 = ToyModel::new(10, 13);
        let mut o1 = Adam::new(AdamConfig::default());
        let r1 = fit(&mut m1, &mut o1, train.clone(), &valid, config, &Telemetry::new(), |_, _| {});
        let mut m2 = ToyModel::new(10, 13);
        let mut o2 = Adam::new(AdamConfig::default());
        let tel = Telemetry::with_clock(Arc::new(MockClock::with_tick(1_000_000)));
        let r2 = fit(&mut m2, &mut o2, train, &valid, config, &tel, |_, _| {});
        // Telemetry is write-only: losses and final weights are bit-equal.
        let l1: Vec<u32> = r1.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
        let l2: Vec<u32> = r2.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
        assert_eq!(l1, l2);
        let w1 = m1.emb.table.get();
        let w2 = m2.emb.table.get();
        assert_eq!(w1.data(), w2.data());
    }

    #[test]
    fn hook_sees_every_epoch() {
        let (train, valid) = toy_data(8, 20);
        let mut model = ToyModel::new(8, 8);
        let mut opt = Adam::new(AdamConfig::default());
        let config = TrainConfig {
            max_epochs: 4,
            batch_size: 8,
            max_seq: 10,
            patience: 10,
            ..TrainConfig::default()
        };
        let mut seen = Vec::new();
        let report = fit(&mut model, &mut opt, train, &valid, config, &Telemetry::new(), |_, rec| {
            seen.push(rec.epoch);
        });
        assert_eq!(seen, (0..report.epochs.len()).collect::<Vec<_>>());
        assert!(report.seconds_per_epoch() >= 0.0);
        assert_eq!(report.param_count, 8 * 8);
    }
}
