//! Early stopping did not move: the validation NDCG@20 `fit` reports —
//! now `wr_train::evaluate` over one `ModelSnapshot` and
//! `wr_eval::evaluate_cases` — equals, bit for bit, what the trainer's
//! private rank loop computed before it was deleted, on cases with
//! excluded history items, targets ranked past the cutoff and a ragged
//! last chunk.

use wr_data::{Batch, EvalCase};
use wr_nn::Param;
use wr_tensor::{Rng64, Tensor};
use wr_train::{evaluate, fit, Adam, AdamConfig, SeqRecModel, TrainConfig};

const N_ITEMS: usize = 40;

/// A fixed random table: users are the mean of their context rows. No
/// parameters — every epoch validates the same model.
struct TableModel {
    table: Tensor,
}

impl SeqRecModel for TableModel {
    fn name(&self) -> String {
        "Table".into()
    }

    fn params(&self) -> Vec<Param> {
        Vec::new()
    }

    fn train_step(&mut self, _: &Batch, _: &mut Adam, _: &mut Rng64) -> f32 {
        0.0
    }

    fn item_representations(&self) -> Tensor {
        self.table.clone()
    }

    fn user_representations(&self, contexts: &[&[usize]]) -> Tensor {
        let mut out = Tensor::zeros(&[contexts.len(), self.table.cols()]);
        for (r, ctx) in contexts.iter().enumerate() {
            for &i in *ctx {
                for (o, &v) in out.row_mut(r).iter_mut().zip(self.table.row(i)) {
                    *o += v / ctx.len() as f32;
                }
            }
        }
        out
    }
}

/// The trainer's `wr_eval_shim::evaluate` as it stood at PR 17, verbatim.
fn deleted_shim_ndcg_at_20(model: &dyn SeqRecModel, cases: &[EvalCase], batch: usize) -> f32 {
    let mut dcg = 0.0f64;
    for chunk in cases.chunks(batch.max(1)) {
        let contexts: Vec<&[usize]> = chunk.iter().map(|c| c.context.as_slice()).collect();
        let scores = model.score(&contexts);
        for (row, case) in chunk.iter().enumerate() {
            let s = scores.row(row);
            let ts = s[case.target];
            let mut rank = 0usize;
            for (i, &v) in s.iter().enumerate() {
                if i != case.target && !case.context.contains(&i) && v >= ts {
                    rank += 1;
                }
            }
            if rank < 20 {
                dcg += 1.0 / ((rank as f64) + 2.0).log2();
            }
        }
    }
    (dcg / cases.len().max(1) as f64) as f32
}

#[test]
fn fit_reports_the_validation_bits_the_deleted_shim_computed() {
    let mut rng = Rng64::seed_from(21);
    let mut model = TableModel {
        table: Tensor::randn(&[N_ITEMS, 8], &mut rng),
    };
    let train: Vec<Vec<usize>> = (0..30)
        .map(|u| (0..6).map(|t| (u * 7 + t * 3) % N_ITEMS).collect())
        .collect();
    let valid: Vec<EvalCase> = (0..90)
        .map(|u| EvalCase {
            user: u,
            context: (0..1 + u % 8).map(|t| (u * 11 + t * 5) % N_ITEMS).collect(),
            target: (u * 13 + 2) % N_ITEMS,
        })
        .collect();

    // The fixture exercises what the two rank loops could disagree on.
    let contexts: Vec<&[usize]> = valid.iter().map(|c| c.context.as_slice()).collect();
    let scores = (&model as &dyn SeqRecModel).score(&contexts);
    let ranks: Vec<(usize, usize)> = valid
        .iter()
        .enumerate()
        .map(|(r, c)| {
            (
                wr_eval::rank_of_target(scores.row(r), c.target, &c.context),
                wr_eval::rank_of_target(scores.row(r), c.target, &[]),
            )
        })
        .collect();
    assert!(ranks.iter().any(|&(with, _)| with >= 20), "no target past the cutoff");
    assert!(ranks.iter().any(|&(with, _)| with < 20), "no target inside the cutoff");
    assert!(ranks.iter().any(|&(with, without)| with < without), "exclusion never mattered");

    let config = TrainConfig {
        max_epochs: 2,
        batch_size: 16,
        max_seq: 8,
        eval_batch: 16, // 90 cases: five full chunks and a ragged one
        ..TrainConfig::default()
    };
    let want = deleted_shim_ndcg_at_20(&model, &valid, config.eval_batch);
    assert!(want > 0.0 && want < 1.0, "a trivial metric proves nothing: {want}");
    assert_eq!(
        evaluate(&model, &valid, &[20], config.eval_batch).ndcg_at(20).to_bits(),
        want.to_bits()
    );
    let mut optimizer = Adam::new(AdamConfig::default());
    let report = fit(&mut model, &mut optimizer, train, &valid, config, |_, _| {});
    assert_eq!(report.epochs.len(), 2);
    for record in &report.epochs {
        assert_eq!(record.valid_ndcg.map(f32::to_bits), Some(want.to_bits()), "epoch {}", record.epoch);
    }
}
