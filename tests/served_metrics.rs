//! The deployed system reproduces the paper's metric: Recall@{20,50} and
//! NDCG@{20,50} recomputed from what `ServeEngine::serve` and a 2-shard
//! `Gateway::serve` actually answer equal the offline evaluator's
//! `MetricSet` bit for bit, on the warm and on the cold test cases, for a
//! model ranking by inner product (WhitenRec+) and one ranking by
//! `cos(s, v) / τ` (UniSRec(T), served over the snapshot's `V̂`).
//!
//! Two rank rules meet here. The evaluator counts every candidate scoring
//! `>=` the target (ties are broken pessimistically); the served list
//! orders equal scores by ascending item id. They agree exactly when no
//! candidate's score ties with the target's, which the test asserts of its
//! fixture instead of assuming. The assertion is also the one way `1/τ`
//! could matter: serving ranks the cosines, the evaluator the same bits
//! times `1/τ`, a positive factor that can only change the order by
//! rounding two cosines onto one score. And serving filters the *whole* history,
//! the target included, while the evaluator (the RecBole convention)
//! always ranks the target — so a repeat, a case whose target already
//! sits in its own context, is answerable only offline. The simulator
//! generates them (48 of the 179 warm test cases here, none of the 118
//! cold ones); the comparison runs over the other cases and the test pins
//! what serving does with a repeat: it never recommends it.

use whitenrec::data::{DatasetKind, DatasetSpec, EvalCase};
use whitenrec::eval::{MetricSet, RankAccumulator, ScoredItem, DEFAULT_KS};
use whitenrec::models::ModelConfig;
use whitenrec::train::SeqRecModel;
use whitenrec::ExperimentContext;
use wr_gateway::{Gateway, GatewayConfig};
use wr_serve::{Request, ServeConfig, ServeEngine};

const MAX_SEQ: usize = 10;

fn context() -> ExperimentContext {
    let mut ctx = ExperimentContext::from_spec(DatasetSpec::tiny(DatasetKind::Arts));
    ctx.model_config = ModelConfig {
        dim: 16,
        blocks: 1,
        max_seq: MAX_SEQ,
        dropout: 0.1,
        ..ModelConfig::default()
    };
    ctx.train_config.max_epochs = 3;
    ctx.train_config.max_seq = MAX_SEQ;
    ctx.eval_cap = 0;
    ctx
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        k: 50,
        max_batch: 16,
        max_seq: MAX_SEQ,
        filter_seen: true,
    }
}

fn requests(cases: &[EvalCase]) -> Vec<Request> {
    cases
        .iter()
        .enumerate()
        .map(|(i, c)| Request {
            id: i as u64,
            history: c.context.clone(),
        })
        .collect()
}

/// The metric of a list of served answers: the target's rank is its
/// position in the list, a target the top 50 does not hold is a miss at
/// both cutoffs.
fn metrics_of_served(cases: &[EvalCase], served: Vec<&[ScoredItem]>) -> MetricSet {
    assert_eq!(served.len(), cases.len());
    let mut acc = RankAccumulator::new(&DEFAULT_KS);
    for (case, items) in cases.iter().zip(served) {
        acc.push_rank(
            items
                .iter()
                .position(|s| s.item == case.target)
                .unwrap_or(usize::MAX),
        );
    }
    acc.finish()
}

fn assert_bit_equal(got: &MetricSet, want: &MetricSet, what: &str) {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(got.ks, want.ks, "{what}");
    assert_eq!(got.n_cases, want.n_cases, "{what}");
    assert_eq!(bits(&got.recall), bits(&want.recall), "{what}: recall");
    assert_eq!(bits(&got.ndcg), bits(&want.ndcg), "{what}: ndcg");
    assert_eq!(
        bits(&got.per_case_ndcg),
        bits(&want.per_case_ndcg),
        "{what}: per-case NDCG@20"
    );
}

/// No candidate's score ties with a target's.
fn assert_no_score_ties_with_a_target(model: &dyn SeqRecModel, cases: &[EvalCase], what: &str) {
    let contexts: Vec<&[usize]> = cases.iter().map(|c| c.context.as_slice()).collect();
    let scores = model.score(&contexts);
    for (r, case) in cases.iter().enumerate() {
        let row = scores.row(r);
        let tied = (0..row.len())
            .filter(|&i| i != case.target && !case.context.contains(&i))
            .any(|i| row[i] == row[case.target]);
        assert!(!tied, "{what}: case {r} has a score tied with its target");
    }
}

/// The two ranking rules: the paper's inner product and UniSRec's cosine.
const MODELS: [&str; 2] = ["WhitenRec+", "UniSRec(T)"];

fn assert_served_metric_equals_evaluated(cold: bool) {
    let ctx = context();
    for model in MODELS {
        assert_served_metric_equals_evaluated_for(&ctx, model, cold);
    }
}

fn assert_served_metric_equals_evaluated_for(ctx: &ExperimentContext, model: &str, cold: bool) {
    let what = &format!("{model}, {}", if cold { "cold" } else { "warm" });
    let (cases, repeats): (Vec<EvalCase>, Vec<EvalCase>) =
        if cold { &ctx.cold.test } else { &ctx.warm.test }
            .iter()
            .cloned()
            .partition(|c| !c.context.contains(&c.target));
    let cases = &cases[..];
    // Training is deterministic in its seeds: three runs, one model.
    let train = || {
        if cold {
            ctx.run_cold(model)
        } else {
            ctx.run_warm(model)
        }
    };
    let offline = train();
    assert!(cases.len() > 50, "{what}: {} cases", cases.len());
    assert!(cases.len() > 2 * repeats.len(), "{what}: {} repeats", repeats.len());
    assert_no_score_ties_with_a_target(offline.model.as_ref(), cases, what);
    let want = ctx.evaluate(offline.model.as_ref(), cases);
    assert!(want.recall_at(50) > 0.0 && want.recall_at(50) < 1.0, "{what}: a trivial metric proves nothing");

    let requests = requests(cases);
    let engine = ServeEngine::new(train().model, serve_config());
    let served = engine.serve(&requests);
    let got = metrics_of_served(cases, served.iter().map(|r| r.items.as_slice()).collect());
    assert_bit_equal(&got, &want, &format!("{what}: ServeEngine::serve"));
    for (case, resp) in repeats.iter().zip(engine.serve(&self::requests(&repeats))) {
        assert!(resp.items.iter().all(|s| s.item != case.target), "{what}: a repeat was served");
    }

    let gateway = Gateway::partitioned(
        train().model,
        2,
        GatewayConfig {
            serve: serve_config(),
            ..GatewayConfig::default()
        },
    )
    .unwrap();
    let served = gateway.serve(&requests);
    assert!(served.iter().all(|r| !r.degraded), "{what}: a healthy gateway degrades nothing");
    let got = metrics_of_served(cases, served.iter().map(|r| r.items.as_slice()).collect());
    assert_bit_equal(&got, &want, &format!("{what}: 2-shard Gateway::serve"));
}

#[test]
fn served_metric_equals_evaluated_metric_on_the_warm_test_cases() {
    assert_served_metric_equals_evaluated(false);
}

#[test]
fn served_metric_equals_evaluated_metric_on_the_cold_test_cases() {
    assert_served_metric_equals_evaluated(true);
}
