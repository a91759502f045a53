//! The untraced pass: set-up ×5, then serving, training and full-ranking
//! eval interleaved until `--seconds` is spent, every timing calibrated,
//! outputs checked.
//!
//! Load model: closed loop, one client, one `serve()` call per
//! micro-batch-sized chunk, the next chunk sent when the previous returns.

use wr_eval::{evaluate_cases, DEFAULT_KS};
use wr_serve::{top1_digest, Request, ScoredItem, ServeEngine};
use wr_tensor::Rng64;
use wr_train::{Adam, AdamConfig, SeqRecModel};

use crate::alloc;
use crate::cal::{ms_since, now_ns, Calibrator, Series};
use crate::report::{LedgerError, Outcome};
use crate::stats::{median, percentile, replay_medians, sorted, supports_percentile};
use crate::workloads::{build_model, Inputs, Served, System, Workload, K};

pub struct Opts {
    pub seed: u64,
    /// How long the measured phases (train, eval, serve) run.
    pub seconds: f64,
    /// Minimal counts, every gate that does not need the counts.
    pub smoke: bool,
}

const SETUPS: usize = 5;
/// Micro-batches between one train step and eval chunk and the next.
const SERVES_PER_CYCLE: usize = 8;
/// The kinds of operation in the measured stream.
const SERVE: usize = 0;
const TRAIN: usize = 1;
const EVAL: usize = 2;
/// Rounds of the trace behind each micro-batch's median service time.
const MIN_ROUNDS: usize = 3;
/// Queries of each exact workload re-served one at a time by `serve_naive`.
const NAIVE_QUERIES: usize = 256;
/// Forty seeds gave 0.72 to 0.94; probing the wrong lists gives the share
/// of the catalog scanned, 0.22.
const MIN_IVF_RECALL: f64 = 0.50;

/// Refuse a pass of a workload that wants more threads than the box has.
pub fn check_parallelism(w: &Workload, traced: bool) -> Result<(), LedgerError> {
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = w.threads(traced);
    if available < threads {
        return Err(LedgerError::TooFewCores {
            workload: w.name,
            threads,
            available,
        });
    }
    Ok(())
}

/// A served micro-batch failed if it answered the wrong number of requests,
/// degraded any answer, or returned fewer items than the candidates allow.
pub fn batch_failed(w: &Workload, requests: &[Request], served: &Served) -> bool {
    served.len() != requests.len()
        || served
            .iter()
            .zip(requests)
            .any(|((id, items, degraded), req)| {
                let candidates = w.n_items.saturating_sub(req.history.len());
                id != req.id || degraded || items.len() < K.min(candidates)
            })
}

pub fn checksum<'a>(answers: impl Iterator<Item = &'a Served>) -> u64 {
    top1_digest(
        answers
            .flat_map(Served::iter)
            .map(|(id, items, _)| (id, items.first().map(|s| s.item))),
    )
}

pub fn same_bits(a: &[ScoredItem], b: &[ScoredItem]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.item == y.item && x.score.to_bits() == y.score.to_bits())
}

fn overlap(served: &[ScoredItem], exact: &[ScoredItem]) -> f64 {
    let hits = exact
        .iter()
        .filter(|e| served.iter().any(|s| s.item == e.item))
        .count();
    hits as f64 / exact.len().max(1) as f64
}

/// The exact single-engine twin over a same-seed model: `serve_naive` (full
/// sort, one user at a time) is the reference exact workloads must equal
/// bit for bit; its batched `serve` is the exact top-10 the IVF workload's
/// recall is measured against. Returns the mean overlap.
fn recall_vs_exact(
    w: &Workload,
    inputs: &Inputs,
    first_round: &[Served],
    out: &mut Outcome,
) -> (f64, usize) {
    let twin = ServeEngine::new(build_model(w, inputs), w.serve_config());
    let served = first_round.iter().flat_map(Served::iter);
    let overlaps: Vec<f64> = if w.is_exact() {
        let n = NAIVE_QUERIES.min(inputs.requests.len());
        let reference = twin.serve_naive(&inputs.requests[..n]);
        let mut mismatches = 0;
        let overlaps = served
            .zip(&reference)
            .map(|((id, items, _), exact)| {
                if id != exact.id || !same_bits(items, &exact.items) {
                    mismatches += 1;
                }
                overlap(items, &exact.items)
            })
            .collect();
        // Equal bits leave the recall at exactly 1.
        out.gate(mismatches == 0, || {
            format!("{mismatches} of the first {n} answers differ from serve_naive")
        });
        overlaps
    } else {
        let reference = twin.serve(&inputs.requests);
        served
            .zip(&reference)
            .map(|((_, items, _), exact)| overlap(items, &exact.items))
            .collect()
    };
    let recall = overlaps.iter().sum::<f64>() / overlaps.len().max(1) as f64;
    out.gate(w.is_exact() || recall >= MIN_IVF_RECALL, || {
        format!("IVF recall {recall} below {MIN_IVF_RECALL}")
    });
    (recall, overlaps.len())
}

pub fn run(w: &Workload, inputs: &Inputs, opts: &Opts) -> Outcome {
    wr_runtime::set_threads(w.threads(false));
    let mut out = Outcome::default();
    let mut cal = Calibrator::new();
    alloc::reset_peak();

    // Set-up: raw embeddings and sequences in memory → ready to serve.
    let mut setup = Series::default();
    let mut system = None;
    for _ in 0..if opts.smoke { 1 } else { SETUPS } {
        drop(system.take());
        let (built, raw, cal_ms) = cal.once(|| System::build(w, inputs, opts.seed));
        setup.raw_ms.push(raw);
        setup.cal_ms.push(cal_ms);
        system = Some(built);
    }
    let system = system.expect("at least one set-up");
    out.attempted += setup.cal_ms.len() as u64;

    // The measured loop. One cycle is SERVES_PER_CYCLE micro-batches, one
    // train step and one eval chunk, so each timing samples the whole run
    // and not one stretch of it. Training runs on a model of its own (the
    // serving system owns the one it was built from); the train batches and
    // eval chunks repeat once used up. The loop ends on a whole round of the
    // trace, once the counts are met and the time is spent.
    let measured = now_ns();
    let mut model = build_model(w, inputs);
    let mut optimizer = Adam::new(AdamConfig::default());
    let mut rng = Rng64::seed_from(opts.seed + 500);
    let chunks: Vec<&[Request]> = inputs.requests.chunks(w.max_batch).collect();
    let min_rounds = if opts.smoke { 1 } else { MIN_ROUNDS };
    let min_cycles = w.train_steps.max(w.eval_chunks);
    let mut losses: Vec<f32> = Vec::new();
    let mut ndcg_finite = true;
    let mut round_bytes = Vec::new();
    let mut checksums = Vec::new();
    let mut first_round = Vec::new();
    let mut answers: Vec<Served> = Vec::with_capacity(chunks.len());
    let mut bytes = 0;
    let mut round_s = 0.0;
    let mut round_started = now_ns();
    let mut stream = cal.stream();
    for cycle in 0.. {
        for _ in 0..SERVES_PER_CYCLE.min(chunks.len() - answers.len()) {
            let chunk = chunks[answers.len()];
            let before = alloc::allocated_bytes();
            let served = stream.time(SERVE, || system.serve(chunk));
            bytes += alloc::allocated_bytes() - before;
            answers.push(served);
        }
        let batch = &inputs.train_batches[cycle % w.train_steps];
        losses.push(stream.time(TRAIN, || model.train_step(batch, &mut optimizer, &mut rng)));
        let at = cycle % w.eval_chunks * w.eval_chunk;
        let cases = &inputs.eval_cases[at..at + w.eval_chunk];
        let metrics = stream.time(EVAL, || {
            evaluate_cases(cases, &DEFAULT_KS, w.eval_chunk, true, |c| model.score(c))
        });
        ndcg_finite &= metrics.ndcg_at(20).is_finite();

        if answers.len() < chunks.len() {
            continue;
        }
        // A round of the trace is complete.
        out.attempted += chunks.len() as u64;
        out.failed += chunks
            .iter()
            .zip(&answers)
            .filter(|(chunk, served)| batch_failed(w, chunk, served))
            .count() as u64;
        round_bytes.push(bytes as f64);
        checksums.push(checksum(answers.iter()));
        let round = std::mem::replace(&mut answers, Vec::with_capacity(chunks.len()));
        if first_round.is_empty() {
            first_round = round;
        }
        bytes = 0;
        round_s = (ms_since(round_started) / 1e3).max(round_s);
        round_started = now_ns();
        let counts_met = checksums.len() >= min_rounds && cycle + 1 >= min_cycles;
        if counts_met && ms_since(measured) / 1e3 + round_s > opts.seconds {
            break;
        }
    }
    let [serve, train, eval]: [Series; 3] = stream.finish(3).try_into().expect("three kinds");
    out.attempted += (train.cal_ms.len() + eval.cal_ms.len()) as u64;
    out.failed += losses.iter().filter(|l| !l.is_finite()).count() as u64;
    out.gate(ndcg_finite, || {
        "an eval chunk's NDCG@20 is not finite".into()
    });
    // The loss after the workload's fixed number of steps repeats exactly
    // however long the loop went on.
    let final_loss = losses[w.train_steps - 1];
    out.gate(opts.smoke || final_loss < losses[0], || {
        format!(
            "training did not reduce the loss: {} to {final_loss}",
            losses[0]
        )
    });
    let peak = alloc::peak_bytes();
    out.gate(checksums.iter().all(|c| *c == checksums[0]), || {
        format!("top1_checksum differs between rounds: {checksums:x?}")
    });
    let (recall, recall_n) = recall_vs_exact(w, inputs, &first_round, &mut out);

    // Every round replays the same micro-batches in the same order, so a
    // micro-batch's service time is the median over its replays: what the
    // inputs cost repeats, a neighbour's burst on the shared core does not.
    // The percentiles are over the micro-batches of the trace.
    let queries = inputs.requests.len();
    let batches = sorted(&replay_medians(&serve.cal_ms, chunks.len()));
    out.gate(
        opts.smoke || supports_percentile(batches.len(), 0.9),
        || {
            format!(
                "p90 of {} micro-batches has fewer than ten beyond it",
                batches.len()
            )
        },
    );
    let per_s = |count: usize, ms: &[f64]| count as f64 / median(ms) * 1e3;
    out.metric(
        "setup_s",
        median(&setup.cal_ms) / 1e3,
        "s",
        setup.cal_ms.len(),
    );
    out.metric(
        "serve_ms_p50",
        percentile(&batches, 0.5),
        "ms",
        batches.len(),
    );
    out.metric(
        "serve_ms_p90",
        percentile(&batches, 0.9),
        "ms",
        batches.len(),
    );
    out.metric(
        "serve_qps",
        queries as f64 / batches.iter().sum::<f64>() * 1e3,
        "1/s",
        batches.len(),
    );
    out.metric(
        "train_seq_per_s",
        per_s(w.train_batch, &train.cal_ms),
        "1/s",
        train.cal_ms.len(),
    );
    out.metric(
        "eval_users_per_s",
        per_s(w.eval_chunk, &eval.cal_ms),
        "1/s",
        eval.cal_ms.len(),
    );
    out.metric(
        "serve_alloc_kb_per_query",
        median(&round_bytes) / queries as f64 / 1e3,
        "kB",
        round_bytes.len(),
    );
    out.metric("peak_live_mb", peak as f64 / 1e6, "MB", 1);
    out.metric("recall_vs_exact_at_10", recall, "share", recall_n);

    out.exact = vec![
        ("inputs_digest", format!("{:016x}", inputs.digest())),
        ("top1_checksum", format!("{:016x}", checksums[0])),
        ("final_loss_bits", format!("{:08x}", final_loss.to_bits())),
        (
            "recall_vs_exact_at_10_bits",
            format!("{:016x}", recall.to_bits()),
        ),
    ];
    out.raw.extend([
        ("machine_speed", cal.machine_speed()),
        ("serve_rounds", checksums.len() as f64),
        ("setup_s_raw", median(&setup.raw_ms) / 1e3),
        ("serve_ms_p50_raw", median(&serve.raw_ms)),
        ("train_step_ms_raw", median(&train.raw_ms)),
        ("eval_chunk_ms_raw", median(&eval.raw_ms)),
        ("final_loss", f64::from(final_loss)),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Contract;
    use crate::workloads::WORKLOADS;

    #[test]
    fn another_seed_gives_another_checksum_with_all_gates_green() {
        let w = WORKLOADS[0].smoke();
        let run_seed = |seed| {
            let opts = Opts {
                seed,
                seconds: 0.0,
                smoke: true,
            };
            let inputs = crate::workloads::generate(&w, seed);
            let mut outcome = run(&w, &inputs, &opts);
            Contract::load().check(false, &mut outcome);
            assert!(outcome.correct(), "seed {seed}: {:?}", outcome.gates);
            assert!(outcome.attempted > 0 && outcome.failed == 0);
            outcome.exact
        };
        let (a, b) = (run_seed(17), run_seed(18));
        for name in ["inputs_digest", "top1_checksum", "final_loss_bits"] {
            let of = |exact: &[(&str, String)]| {
                exact
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, v)| v.clone())
            };
            assert!(of(&a).is_some());
            assert_ne!(of(&a), of(&b), "{name}");
        }
    }

    #[test]
    fn a_workload_wider_than_the_box_is_refused() {
        let mut w = WORKLOADS[0];
        w.traced_threads = 4096;
        assert!(check_parallelism(&w, false).is_ok());
        match check_parallelism(&w, true) {
            Err(LedgerError::TooFewCores {
                threads: 4096,
                available,
                ..
            }) => assert!(available < 4096),
            other => panic!("expected a refusal, got {other:?}"),
        }
        assert!(check_parallelism(&WORKLOADS[0], true).is_ok());
    }
}
