//! The one train-and-evaluate path, shared by the examples, the CLI and
//! the per-table/figure experiment binaries.

use wr_data::{cold_split, warm_split, ColdSplit, DatasetSpec, EvalCase, ReadyDataset, WarmSplit};
use wr_eval::{
    average_pairwise_cosine, covariance_spectrum, spectrum_condition_number, top_k_singular_mass,
    uniformity, MetricSet, DEFAULT_KS,
};
use wr_models::{zoo, ModelConfig};
use wr_obs::Telemetry;
use wr_tensor::{Rng64, Tensor};
use wr_train::{
    fit, fit_resumable, Adam, AdamConfig, CheckpointPolicy, EpochRecord, SeqRecModel, TrainConfig,
    TrainReport,
};
use wr_nn::CheckpointError;
use wr_whiten::{GroupWhitening, WhiteningMethod, DEFAULT_EPS};

/// Sampled row pairs behind the `mean_pairwise_cosine` and `uniformity`
/// gauges.
const HEALTH_PAIRS: usize = 2048;
/// Seed of those pairs.
const HEALTH_SEED: u64 = 7;
/// `k` of the `top_k_singular_mass` gauge (clamped to the column count).
const HEALTH_TOP_K: usize = 10;

/// A materialized dataset with its warm and cold splits, plus the shared
/// model/training configuration — one per (dataset, scale) pair.
pub struct ExperimentContext {
    pub dataset: ReadyDataset,
    pub warm: WarmSplit,
    pub cold: ColdSplit,
    pub model_config: ModelConfig,
    pub train_config: TrainConfig,
    /// Default relaxed-group count for WhitenRec+ (the paper uses small G).
    pub relaxed_groups: usize,
    /// Cap on evaluation cases (keeps single-core runs tractable; 0 = all).
    pub eval_cap: usize,
    /// Write-only run telemetry. When set, training records `train.*`
    /// metrics/spans into it and [`Self::record_whitening_health`] can
    /// snapshot the paper's anisotropy diagnostics. Never read back into
    /// results — attaching it changes nothing the context computes.
    pub telemetry: Option<Telemetry>,
}

impl ExperimentContext {
    pub fn from_spec(spec: DatasetSpec) -> Self {
        let dataset = spec.build();
        let warm = warm_split(&dataset.sequences);
        let cold = cold_split(&dataset.sequences, dataset.n_items(), 0.15, spec.catalog.seed ^ 0xC01D);
        ExperimentContext {
            dataset,
            warm,
            cold,
            model_config: ModelConfig::default(),
            train_config: TrainConfig {
                max_epochs: 30,
                patience: 5,
                batch_size: 256,
                max_seq: ModelConfig::default().max_seq,
                eval_batch: 256,
                seed: 77,
            },
            relaxed_groups: 4,
            eval_cap: 2000,
            telemetry: None,
        }
    }

    /// Re-run the preprocessing whitening (ZCA, the context's relaxed
    /// group count) purely to record the paper's embedding-health
    /// diagnostics of the table before and after it — `whiten.pre.*` /
    /// `whiten.post.*` gauges (see `record_embedding_health`) — plus
    /// `whiten.fit` / `whiten.apply` spans, into the attached telemetry.
    /// No-op without telemetry; the whitened output is discarded (models
    /// re-whiten inside `zoo::build`, which stays uninstrumented and
    /// bit-identical).
    pub fn record_whitening_health(&self) {
        let Some(tel) = &self.telemetry else { return };
        let x = &self.dataset.embeddings;
        // A table the statistics cannot be taken of records nothing; the
        // run goes on without its gauges.
        let _ = record_embedding_health(tel, "whiten.pre", x);
        let whitening = {
            let _span = tel.tracer.span("whiten.fit", "whiten");
            GroupWhitening::fit(x, self.relaxed_groups, WhiteningMethod::Zca, DEFAULT_EPS)
        };
        let z = {
            let _span = tel.tracer.span("whiten.apply", "whiten");
            whitening.apply(x)
        };
        let _ = record_embedding_health(tel, "whiten.post", &z);
    }

    /// Category id per (dense) item — the attribute table for S³-Rec.
    pub fn item_categories(&self) -> Vec<usize> {
        (0..self.dataset.n_items())
            .map(|i| self.dataset.category_of(i))
            .collect()
    }

    /// Instantiate a zoo model by name against this dataset.
    pub fn build_model(&self, name: &str) -> Box<dyn SeqRecModel> {
        let cats = self.item_categories();
        let inputs = zoo::ZooInputs {
            embeddings: &self.dataset.embeddings,
            item_categories: &cats,
            train_sequences: &self.warm.train,
            relaxed_groups: self.relaxed_groups,
        };
        let mut rng = Rng64::seed_from(self.model_config.seed);
        zoo::build(name, &inputs, self.model_config, &mut rng)
    }

    /// Train `name` on the warm split and evaluate on the warm test set.
    pub fn run_warm(&self, name: &str) -> TrainedModel {
        let warm = &self.warm;
        self.checkpoint_free(self.build_model(name), &warm.train, &warm.validation, &warm.test)
    }

    /// Train on the cold split's warm-only sequences; evaluate on cold
    /// targets (Table IV's protocol).
    pub fn run_cold(&self, name: &str) -> TrainedModel {
        let mut model = self.build_model(name);
        // Cold items are outside the training catalog: keep them out of the
        // training softmax so they aren't suppressed as perpetual
        // negatives (scoring still spans the full catalog).
        let warm: Vec<usize> = (0..self.dataset.n_items())
            .filter(|&i| !self.cold.is_cold[i])
            .collect();
        model.set_train_candidates(Some(warm));
        self.checkpoint_free(model, &self.cold.train, &self.cold.validation, &self.cold.test)
    }

    /// [`Self::train_and_evaluate`] without a checkpoint policy or hook.
    fn checkpoint_free(
        &self,
        model: Box<dyn SeqRecModel>,
        train: &[Vec<usize>],
        validation: &[EvalCase],
        test: &[EvalCase],
    ) -> TrainedModel {
        match self.train_and_evaluate(model, train, validation, test, None, |_, _| {}) {
            Ok(trained) => trained,
            // Without a checkpoint policy training performs no fallible IO.
            Err(e) => unreachable!("checkpoint-free training cannot fail: {e}"),
        }
    }

    /// The paper's protocol on a built `model`: Adam at
    /// [`AdamConfig::PAPER`], early stopping on `validation`'s N@20 with
    /// the best weights restored, then full ranking on `test` — both capped
    /// at [`Self::eval_cap`]. `hook` runs after every epoch (Fig. 6/7
    /// trackers).
    ///
    /// With a `checkpoint` policy the run goes through the crash-safe
    /// resumable loop (DESIGN.md §9): state is checkpointed to
    /// `policy.dir` at epoch boundaries and, when a valid `WRTS`
    /// generation already lives there, the run resumes from it
    /// bit-identically to an uninterrupted run. The hook runs at each
    /// boundary *before* that epoch's checkpoint is persisted — which is
    /// where `whitenrec train --fault-seed` injects its scheduled crash, so
    /// a crash at epoch `e` leaves generations `1..e` on disk and the
    /// restart replays epoch `e` bit-identically. Only checkpoint IO can
    /// fail.
    pub fn train_and_evaluate(
        &self,
        mut model: Box<dyn SeqRecModel>,
        train: &[Vec<usize>],
        validation: &[EvalCase],
        test: &[EvalCase],
        checkpoint: Option<&CheckpointPolicy>,
        hook: impl FnMut(&Box<dyn SeqRecModel>, &EpochRecord),
    ) -> Result<TrainedModel, CheckpointError> {
        let mut optimizer = Adam::new(AdamConfig::PAPER);
        let validation = cap(validation, self.eval_cap);
        // Write-only: a fresh bundle when the context carries none.
        let telemetry = self.telemetry.clone().unwrap_or_default();
        let (train, config) = (train.to_vec(), self.train_config);
        let report = match checkpoint {
            Some(policy) => fit_resumable(
                &mut model,
                &mut optimizer,
                train,
                &validation,
                config,
                &telemetry,
                policy,
                hook,
            )?,
            None => fit(&mut model, &mut optimizer, train, &validation, config, &telemetry, hook),
        };
        let test_metrics = self.evaluate(model.as_ref(), &cap(test, self.eval_cap));
        Ok(TrainedModel {
            model,
            report,
            test_metrics,
        })
    }

    /// Full-ranking evaluation with history exclusion at K ∈ {20, 50}.
    pub fn evaluate(&self, model: &dyn SeqRecModel, cases: &[EvalCase]) -> MetricSet {
        wr_train::evaluate(model, cases, &DEFAULT_KS, self.train_config.eval_batch)
    }
}

/// Record `x`'s geometry under `prefix` (a `<prefix>.health` span):
/// `mean_pairwise_cosine` (§III-B), `top_k_singular_mass` and its `top_k`,
/// `condition_number` (κ, Fig. 7), `uniformity` (Eq. 7), `rows`, `cols`.
/// Each value is the `wr_eval` estimator the figures print, so κ is
/// `item_condition_number`'s to the bit; κ and the mass share one
/// eigensolve. A table with fewer than two rows, no column or a non-finite
/// entry is an `Err` and records nothing — the estimators assert on the
/// first and would turn the last into NaN gauges.
fn record_embedding_health(tel: &Telemetry, prefix: &str, x: &Tensor) -> Result<(), String> {
    let _span = tel.tracer.span(format!("{prefix}.health"), "whiten");
    let (rows, cols) = match *x.dims() {
        [rows, cols] if rows >= 2 && cols > 0 => (rows, cols),
        _ => return Err(format!("embedding health wants ≥ 2 rows and a column, got {:?}", x.dims())),
    };
    if x.non_finite_count() > 0 {
        return Err("embedding health: the table has non-finite entries".into());
    }
    let spectrum = covariance_spectrum(x).map_err(|e| e.to_string())?;
    let top_k = HEALTH_TOP_K.min(cols);
    for (name, value) in [
        ("mean_pairwise_cosine", f64::from(average_pairwise_cosine(x, HEALTH_PAIRS, HEALTH_SEED))),
        ("top_k_singular_mass", top_k_singular_mass(&spectrum, top_k)),
        ("top_k", top_k as f64),
        ("condition_number", f64::from(spectrum_condition_number(&spectrum))),
        ("uniformity", f64::from(uniformity(x, HEALTH_PAIRS, HEALTH_SEED))),
        ("rows", rows as f64),
        ("cols", cols as f64),
    ] {
        tel.registry.gauge(&format!("{prefix}.{name}")).set(value);
    }
    Ok(())
}

fn cap(cases: &[EvalCase], limit: usize) -> Vec<EvalCase> {
    if limit == 0 || cases.len() <= limit {
        cases.to_vec()
    } else {
        // Deterministic spread over users rather than a prefix.
        let stride = cases.len() as f64 / limit as f64;
        (0..limit)
            .map(|i| cases[(i as f64 * stride) as usize].clone())
            .collect()
    }
}

/// A model after training, with its training curve and test metrics.
pub struct TrainedModel {
    pub model: Box<dyn SeqRecModel>,
    pub report: TrainReport,
    pub test_metrics: MetricSet,
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_data::DatasetKind;

    fn tiny_context() -> ExperimentContext {
        let spec = DatasetSpec::tiny(DatasetKind::Arts);
        let mut ctx = ExperimentContext::from_spec(spec);
        ctx.model_config = ModelConfig {
            dim: 16,
            blocks: 1,
            max_seq: 10,
            dropout: 0.1,
            ..ModelConfig::default()
        };
        ctx.train_config.max_epochs = 2;
        ctx.train_config.max_seq = 10;
        ctx.eval_cap = 100;
        ctx
    }

    #[test]
    fn warm_pipeline_end_to_end() {
        let ctx = tiny_context();
        let trained = ctx.run_warm("WhitenRec");
        assert!(trained.test_metrics.n_cases > 0);
        assert!(trained.report.epochs.len() <= 2);
        assert!(trained.test_metrics.recall_at(50) >= trained.test_metrics.recall_at(20));
    }

    #[test]
    fn cold_pipeline_end_to_end() {
        let ctx = tiny_context();
        let trained = ctx.run_cold("WhitenRec+");
        assert!(trained.test_metrics.n_cases > 0);
    }

    #[test]
    fn telemetry_snapshot_carries_training_and_whitening_diagnostics() {
        let mut ctx = tiny_context();
        let tel = Telemetry::new();
        ctx.telemetry = Some(tel.clone());
        ctx.record_whitening_health();
        let trained = ctx.run_warm("WhitenRec");
        assert!(trained.test_metrics.n_cases > 0);

        let snap = tel.registry.snapshot();
        let gauge = |name: &str| {
            snap.gauges
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing gauge {name}"))
        };
        // The paper's direction, visible in one snapshot: whitening lowers
        // the mean pairwise cosine and the covariance condition number.
        assert!(gauge("whiten.post.mean_pairwise_cosine") < gauge("whiten.pre.mean_pairwise_cosine"));
        assert!(gauge("whiten.post.condition_number") < gauge("whiten.pre.condition_number"));
        // And training telemetry landed beside it.
        assert!(gauge("train.loss").is_finite());
        assert!(snap.histograms.iter().any(|(n, h)| n == "train.step_ms" && h.count > 0));
        assert!(tel.tracer.events().iter().any(|e| e.cat == "whiten"));
        assert!(tel.tracer.events().iter().any(|e| e.cat == "train"));
    }

    /// A gauge and the figure of the same name print the same bits: the
    /// recorder's constants on the `wr_eval` estimators, `to_bits` through
    /// `f64::from`.
    #[test]
    fn whitening_gauges_are_the_figures_estimators() {
        let mut ctx = ExperimentContext::from_spec(DatasetSpec::tiny(DatasetKind::Arts));
        let tel = Telemetry::new();
        ctx.telemetry = Some(tel.clone());
        ctx.record_whitening_health();

        let snap = tel.registry.snapshot();
        let gauge = |name: &str| {
            snap.gauges
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.to_bits())
                .unwrap_or_else(|| panic!("missing gauge {name}"))
        };
        let x = &ctx.dataset.embeddings;
        let figure = |v: f32| f64::from(v).to_bits();
        assert_eq!(
            gauge("whiten.pre.mean_pairwise_cosine"),
            figure(wr_eval::average_pairwise_cosine(x, HEALTH_PAIRS, HEALTH_SEED))
        );
        assert_eq!(
            gauge("whiten.pre.uniformity"),
            figure(wr_eval::uniformity(x, HEALTH_PAIRS, HEALTH_SEED))
        );
        assert_eq!(
            gauge("whiten.pre.condition_number"),
            figure(wr_eval::item_condition_number(x).unwrap())
        );

        // Every documented name, pre and post, and the four spans.
        for stage in ["pre", "post"] {
            for name in [
                "mean_pairwise_cosine",
                "top_k_singular_mass",
                "top_k",
                "condition_number",
                "uniformity",
                "rows",
                "cols",
            ] {
                gauge(&format!("whiten.{stage}.{name}"));
            }
        }
        let spans: Vec<String> = tel.tracer.events().iter().map(|e| e.name.clone()).collect();
        for want in ["whiten.pre.health", "whiten.fit", "whiten.apply", "whiten.post.health"] {
            assert!(spans.iter().any(|n| n == want), "missing span {want}: {spans:?}");
        }
    }

    #[test]
    fn degenerate_and_non_finite_tables_are_errors_not_panics() {
        let tel = Telemetry::new();
        for dims in [&[4][..], &[1, 4], &[0, 4], &[4, 0]] {
            assert!(record_embedding_health(&tel, "x", &Tensor::zeros(dims)).is_err());
        }
        let mut rng = Rng64::seed_from(1);
        let mut poisoned = Tensor::randn(&[8, 3], &mut rng);
        poisoned.row_mut(2)[1] = f32::NAN;
        assert!(record_embedding_health(&tel, "x", &poisoned).is_err());
        assert!(tel.registry.snapshot().gauges.is_empty());
    }

    #[test]
    fn attached_telemetry_does_not_change_training() {
        let ctx_plain = tiny_context();
        let mut ctx_obs = tiny_context();
        ctx_obs.telemetry = Some(Telemetry::new());
        let a = ctx_plain.run_warm("SASRec(T)");
        let b = ctx_obs.run_warm("SASRec(T)");
        let la: Vec<u32> = a.report.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
        let lb: Vec<u32> = b.report.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
        assert_eq!(la, lb, "telemetry must be write-only");
        assert_eq!(
            a.test_metrics.recall_at(20).to_bits(),
            b.test_metrics.recall_at(20).to_bits()
        );
    }

    /// Every field of a trained model, as bits: each epoch's loss and
    /// validation N@20, the best N@20 and its epoch, every test metric and
    /// every parameter.
    fn trained_bits(t: &TrainedModel) -> Vec<u64> {
        let r = &t.report;
        let m = &t.test_metrics;
        let mut bits: Vec<u64> = r
            .epochs
            .iter()
            .flat_map(|e| [e.train_loss.to_bits(), e.valid_ndcg.unwrap_or(f32::NAN).to_bits()])
            .chain([r.best_valid_ndcg.to_bits()])
            .chain(m.recall.iter().chain(&m.ndcg).chain(&m.per_case_ndcg).map(|v| v.to_bits()))
            .map(u64::from)
            .collect();
        bits.extend([r.epochs.len(), r.best_epoch, m.n_cases].map(|n| n as u64));
        for p in t.model.params() {
            bits.extend(p.get().data().iter().map(|v| u64::from(v.to_bits())));
        }
        bits
    }

    /// `run_warm`, a hooked run and a checkpointed run are one body: the
    /// hook and the resumable loop change no bit of what is trained.
    #[test]
    fn plain_hooked_and_checkpointed_runs_train_the_same_model() {
        let ctx = tiny_context();
        let warm = &ctx.warm;
        let run = |checkpoint: Option<&CheckpointPolicy>, epochs_seen: &mut usize| {
            ctx.train_and_evaluate(
                ctx.build_model("WhitenRec+"),
                &warm.train,
                &warm.validation,
                &warm.test,
                checkpoint,
                |_, _| *epochs_seen += 1,
            )
            .unwrap()
        };
        let plain = ctx.run_warm("WhitenRec+");
        let mut hooked_epochs = 0;
        let hooked = run(None, &mut hooked_epochs);
        let dir = std::env::temp_dir().join(format!("wr_one_body_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let policy = CheckpointPolicy { dir: dir.clone(), every: 1 };
        let mut checkpointed_epochs = 0;
        let checkpointed = run(Some(&policy), &mut checkpointed_epochs);
        let generations = std::fs::read_dir(&dir).unwrap().count();
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(plain.report.epochs.len(), 2);
        assert_eq!((hooked_epochs, checkpointed_epochs, generations), (2, 2, 2));
        assert_eq!(trained_bits(&hooked), trained_bits(&plain));
        assert_eq!(trained_bits(&checkpointed), trained_bits(&plain));
    }

    #[test]
    fn cap_spreads_cases() {
        let cases: Vec<wr_data::EvalCase> = (0..100)
            .map(|u| wr_data::EvalCase {
                user: u,
                context: vec![0, 1],
                target: 2,
            })
            .collect();
        let capped = cap(&cases, 10);
        assert_eq!(capped.len(), 10);
        assert_eq!(capped[0].user, 0);
        assert!(capped[9].user >= 80);
        assert_eq!(cap(&cases, 0).len(), 100);
    }
}
