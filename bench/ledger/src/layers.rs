//! The traced pass: every layer timed from outside, by calling its public
//! functions, with a span per call.
//!
//! Serving is replayed as a *shadow pipeline*: for each micro-batch the
//! benchmark first makes the real `serve()` call, then calls the public
//! stages itself on a same-seed twin model (pack, item tower, encode, then
//! gemm + top-k or shard fan-out + merge) and checks that what it composed
//! equals what `serve()` answered, bit for bit. Layer = crate name.

use std::collections::BTreeMap;
use std::hint::black_box;

use wr_autograd::Graph;
use wr_data::Batch;
use wr_eval::{evaluate_cases, DEFAULT_KS};
use wr_gateway::Gateway;
use wr_linalg::{covariance_of_rows, sym_eig};
use wr_nn::{Session, TransformerEncoder};
use wr_serve::{
    batch_top_k_shifted, merge_top_k, CatalogShard, MicroBatcher, Request, Response, ScoredItem,
    Scorer,
};
use wr_tensor::{Rng64, Tensor};
use wr_train::{Adam, AdamConfig, SeqRecModel};
use wr_whiten::{GroupWhitening, WhiteningMethod, WhiteningTransform, DEFAULT_EPS};

use crate::alloc;
use crate::cal::{calibrate, ms_since, now_ns, smooth, Calibrator};
use crate::e2e::{batch_failed, checksum, same_bits, Opts};
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::{Recorder, Span, Under};
use crate::workloads::{build_model, Inputs, Served, System, Workload, K, RELAXED_GROUPS};

/// The share of `--seconds` the traced serving rounds may take; training and
/// eval, whose counts are fixed, follow.
const SERVE_SHARE: f64 = 0.6;

/// Calibrated per-call values of each stage, by metric name.
#[derive(Default)]
struct Stages(BTreeMap<&'static str, Vec<f64>>);

impl Stages {
    fn note(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Median and sample count; a stage the workload never runs reads 0.
    fn median(&self, name: &str) -> (f64, usize) {
        self.0.get(name).map_or((0.0, 0), |v| (median(v), v.len()))
    }
}

/// Counts over one round of the trace, which repeat exactly.
#[derive(Default)]
struct RoundCounts {
    encode_calls: u64,
    lists_probed: u64,
    rows_scanned: u64,
    degraded: u64,
}

/// Raw milliseconds of one micro-batch's stages.
#[derive(Default)]
struct RawStages {
    stages: Vec<(&'static str, f64)>,
    /// The stages that follow the encode inside `serve()`.
    after_encode: f64,
}

/// Consecutive operations with a reference sample between each, scaled
/// together once every sample is in (the scale is smoothed over neighbours).
struct Pending {
    samples: Vec<f64>,
    ops: Vec<Vec<(&'static str, f64)>>,
}

impl Pending {
    fn open(cal: &mut Calibrator) -> Self {
        Pending {
            samples: vec![cal.sample()],
            ops: Vec::new(),
        }
    }

    fn operation(&mut self, cal: &mut Calibrator, stages: Vec<(&'static str, f64)>) {
        self.ops.push(stages);
        self.samples.push(cal.sample());
    }

    fn close(self, into: &mut Stages) {
        for (op, reference) in self.ops.into_iter().zip(smooth(&self.samples)) {
            for (name, ms) in op {
                into.note(name, calibrate(ms, reference));
            }
        }
    }
}

struct Tracer<'a> {
    w: &'a Workload,
    inputs: &'a Inputs,
    cal: Calibrator,
    rec: Recorder,
    stages: Stages,
    out: Outcome,
}

fn same_answers(served: &Served, composed: &[Vec<ScoredItem>]) -> bool {
    served.len() == composed.len()
        && served
            .iter()
            .zip(composed)
            .all(|((_, items, _), mine)| same_bits(items, mine))
}

fn counter(gateway: &Gateway, name: &str) -> u64 {
    gateway.telemetry().map_or(0, |t| {
        t.registry
            .snapshot()
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    })
}

impl Tracer<'_> {
    /// One set-up stage: timed once, bracketed like a long operation.
    fn setup_stage<T>(
        &mut self,
        layer: &str,
        metric: &'static str,
        parent: usize,
        op: impl FnOnce() -> T,
    ) -> T {
        let id = self.rec.begin(layer, metric, Under::root(0).child(parent));
        let (value, _, cal_ms) = self.cal.once(op);
        self.rec.end(id);
        self.stages.note(metric, cal_ms);
        value
    }

    /// Whitening and construction, stage by stage; returns the serving
    /// system and, where the workload attaches telemetry, its plain twin.
    fn setup(&mut self, seed: u64) -> (System, Option<System>) {
        let (w, inputs) = (self.w, self.inputs);
        let emb = &inputs.embeddings;
        let root = self.rec.begin("ledger", "setup", Under::root(0));
        let cov = self.setup_stage("linalg", "linalg.covariance_ms", root, || {
            covariance_of_rows(emb, DEFAULT_EPS)
        });
        let eig = self.setup_stage("linalg", "linalg.sym_eig_ms", root, || sym_eig(&cov));
        self.out
            .gate(eig.is_ok(), || "sym_eig failed on the covariance".into());
        let full = self.setup_stage("whitening", "whitening.fit_full_ms", root, || {
            WhiteningTransform::fit(emb, WhiteningMethod::Zca, DEFAULT_EPS)
        });
        let relaxed = self.setup_stage("whitening", "whitening.fit_relaxed_ms", root, || {
            GroupWhitening::fit(emb, RELAXED_GROUPS, WhiteningMethod::Zca, DEFAULT_EPS)
        });
        let whitened = self.setup_stage("whitening", "whitening.apply_ms", root, || {
            (full.apply(emb), relaxed.apply(emb))
        });
        self.out.gate(
            whitened.0.non_finite_count() + whitened.1.non_finite_count() == 0,
            || "a whitened table has non-finite values".into(),
        );
        let model = self.setup_stage("models", "models.build_ms", root, || build_model(w, inputs));
        let bare = self.setup_stage("serve", "serve.cache_build_ms", root, || {
            System::bare(w, model)
        });
        let indexed = self.setup_stage("ann", "ann.build_ms", root, || bare.with_ann(w, seed));
        self.rec.end(root);
        if w.is_exact() {
            // Nothing was built: the stage reads 0, not the cost of a no-op.
            self.stages.0.remove("ann.build_ms");
        }
        let system = indexed.with_telemetry(w);
        let has_telemetry = matches!(&system, System::Gateway(g) if g.telemetry().is_some());
        let twin = has_telemetry.then(|| System::bare(w, build_model(w, inputs)).with_ann(w, seed));
        (system, twin)
    }

    /// The stages after the encode on a bare engine: one gemm, one top-k.
    /// Raw stage times go to `raw`; the caller scales them.
    fn shadow_engine(
        &mut self,
        shard: &CatalogShard,
        chunk: &[Request],
        users: &Tensor,
        under: Under,
        raw: &mut RawStages,
    ) -> Vec<Vec<ScoredItem>> {
        let (scores, gemm) = self.rec.record("tensor", "score_gemm", under, || {
            users.matmul(shard.cache().items_t())
        });
        let seen: Vec<&[usize]> = chunk.iter().map(|r| r.history.as_slice()).collect();
        let (lists, top_k) = self.rec.record("serve", "top_k", under, || {
            batch_top_k_shifted(&scores, K, &seen, 0)
        });
        raw.stages
            .extend([("tensor.score_gemm_ms", gemm), ("serve.top_k_ms", top_k)]);
        raw.after_encode = gemm + top_k;
        lists
    }

    /// The stages after the encode on a gateway: each primary shard on its
    /// own, the same calls through the pool, the merge; then what a shard
    /// does inside, standalone (gemm + top-k, or the inverted-list scan).
    fn shadow_gateway(
        &mut self,
        gateway: &Gateway,
        chunk: &[Request],
        users: &Tensor,
        under: Under,
        raw: &mut RawStages,
        counts: &mut RoundCounts,
    ) -> Vec<Vec<ScoredItem>> {
        let shards = gateway.shards();
        let (mut slowest, mut bytes) = (0.0f64, 0);
        for (s, shard) in shards.iter().enumerate() {
            let before = alloc::allocated_bytes();
            let (_, ms) = self.rec.record("serve", &format!("shard{s}"), under, || {
                shard.process_encoded(chunk, users, 0)
            });
            bytes += alloc::allocated_bytes() - before;
            slowest = slowest.max(ms);
        }
        let (mut parts, fanout): (Vec<Vec<Response>>, f64) =
            self.rec.record("serve", "fanout", under, || {
                wr_runtime::parallel_map(shards.len(), 1, |s| {
                    shards[s].process_encoded(chunk, users, 0)
                })
            });
        let (merged, merge) = self.rec.record("serve", "merge", under, || {
            let mut partials = Vec::with_capacity(parts.len());
            (0..chunk.len())
                .map(|r| {
                    partials.clear();
                    partials.extend(parts.iter_mut().map(|p| std::mem::take(&mut p[r].items)));
                    merge_top_k(K, &partials)
                })
                .collect::<Vec<_>>()
        });
        self.stages.note("serve.shard_alloc_kb", bytes as f64 / 1e3);
        raw.stages.extend([
            ("serve.shard_ms", slowest),
            ("serve.fanout_ms", fanout),
            ("serve.merge_ms", merge),
        ]);
        raw.after_encode = fanout + merge;

        let seen: Vec<&[usize]> = chunk.iter().map(|r| r.history.as_slice()).collect();
        let (mut gemm, mut top_k, mut search) = (0.0, 0.0, 0.0);
        for shard in &shards {
            match (shard.scorer(), shard.ann_index()) {
                (Scorer::Ivf { nprobe }, Some(index)) => {
                    let window = shard.item_range();
                    let (_, ms) = self.rec.record("ann", "search", under, || {
                        for (r, req) in chunk.iter().enumerate() {
                            let excluded: Vec<usize> = req
                                .history
                                .iter()
                                .filter(|h| window.contains(h))
                                .map(|h| h - window.start)
                                .collect();
                            let (items, stats) = index.search(users.row(r), K, nprobe, &excluded);
                            black_box(items);
                            counts.lists_probed += stats.lists_probed as u64;
                            counts.rows_scanned += stats.rows_scanned as u64;
                        }
                    });
                    search += ms;
                }
                _ => {
                    let (scores, ms) = self.rec.record("tensor", "score_gemm", under, || {
                        users.matmul(shard.cache().items_t())
                    });
                    gemm += ms;
                    let (lists, ms) = self.rec.record("serve", "top_k", under, || {
                        batch_top_k_shifted(&scores, K, &seen, shard.item_offset())
                    });
                    black_box(lists);
                    top_k += ms;
                }
            }
        }
        raw.stages.extend([
            ("tensor.score_gemm_ms", gemm),
            ("serve.top_k_ms", top_k),
            ("ann.search_ms", search),
        ]);
        merged
    }

    /// One traced round: real call, shadow pipeline, comparison, per chunk.
    /// Returns the round's counts and its `top1_checksum`.
    fn traced_round(
        &mut self,
        system: &System,
        model: &dyn SeqRecModel,
        chunks: &[&[Request]],
        round: usize,
    ) -> (RoundCounts, u64) {
        let w = self.w;
        let mut counts = RoundCounts::default();
        let mut answers = Vec::with_capacity(chunks.len());
        let mut mismatched = 0;
        let mut pending = Pending::open(&mut self.cal);
        for (b, chunk) in chunks.iter().enumerate() {
            let mut raw = RawStages::default();
            let trace = Under::root((round * chunks.len() + b + 1) as u64);
            let root = self.rec.begin("ledger", "micro_batch", trace);
            let serve_layer = if matches!(system, System::Gateway(_)) {
                "gateway"
            } else {
                "serve"
            };
            let (served, serve) = self
                .rec
                .record(serve_layer, "serve", trace.child(root), || {
                    system.serve(chunk)
                });

            let shadow = self.rec.begin("ledger", "shadow", trace.child(root));
            let under = trace.child(shadow);
            let contexts: Vec<&[usize]> = chunk
                .iter()
                .map(|r| MicroBatcher::sanitize(&r.history))
                .collect();
            let (packed, pack) = self.rec.record("data", "pack", under, || {
                Batch::inference(&contexts, w.max_seq)
            });
            black_box(packed);
            let (table, tower) = self.rec.record("models", "item_tower", under, || {
                model.item_representations()
            });
            black_box(table);
            let bytes = alloc::allocated_bytes();
            let (users, encode) = self.rec.record("models", "encode", under, || {
                model.user_representations(&contexts)
            });
            self.stages.note(
                "models.encode_alloc_kb",
                (alloc::allocated_bytes() - bytes) as f64 / 1e3,
            );
            counts.encode_calls += 1;
            let composed = match system {
                System::Engine(engine) => {
                    self.shadow_engine(engine.shard(), chunk, &users, under, &mut raw)
                }
                System::Gateway(gateway) => {
                    self.shadow_gateway(gateway, chunk, &users, under, &mut raw, &mut counts)
                }
            };
            self.rec.end(shadow);
            self.rec.end(root);

            let unattributed = serve - encode - raw.after_encode;
            raw.stages.extend([
                ("gateway.serve_ms", serve),
                ("data.pack_ms", pack),
                ("models.item_tower_ms", tower),
                ("models.encode_ms", encode),
                ("models.encoder_self_ms", encode - tower - pack),
                ("gateway.dispatch_self_ms", unattributed),
            ]);
            pending.operation(&mut self.cal, raw.stages);
            self.stages
                .note("ledger.unattributed_share", unattributed / serve);

            self.out.attempted += 1;
            self.out.failed += u64::from(batch_failed(w, chunk, &served));
            mismatched += usize::from(!same_answers(&served, &composed));
            counts.degraded += served.iter().filter(|(_, _, degraded)| *degraded).count() as u64;
            answers.push(served);
        }
        pending.close(&mut self.stages);
        self.out.gate(mismatched == 0, || {
            format!("shadow pipeline differs from serve() on {mismatched} micro-batches")
        });
        (counts, checksum(answers.iter()))
    }

    /// Σ calibrated `serve()` time of one plain round, nothing recorded.
    fn plain_round(&mut self, system: &System, chunks: &[&[Request]]) -> f64 {
        let series = self.cal.series(chunks.len(), |i| {
            black_box(system.serve(chunks[i]));
        });
        self.out.attempted += chunks.len() as u64;
        series.cal_ms.iter().sum()
    }

    /// `forward_hidden` of a stand-alone encoder at the workload's shape:
    /// the gap to `models.encoder_self_ms` is autograd and glue.
    fn transformer_alone(&mut self, chunk: &[Request]) {
        let w = self.w;
        let config = w.model_config();
        let mut rng = Rng64::seed_from(config.seed);
        let encoder = TransformerEncoder::new(config.transformer(), &mut rng);
        let (batch, seq) = (chunk.len(), w.max_seq);
        let x = Tensor::randn(&[batch * seq, config.dim], &mut rng);
        let lengths: Vec<usize> = chunk
            .iter()
            .map(|r| r.history.len().clamp(1, seq))
            .collect();
        let series = self.cal.series(32, |_| {
            let id = self.rec.begin("nn", "transformer_fwd", Under::root(0));
            let graph = Graph::new();
            let mut session = Session::eval(&graph);
            let hidden = encoder.forward_hidden(
                &mut session,
                graph.constant(x.clone()),
                batch,
                seq,
                &lengths,
            );
            black_box(graph.value(hidden));
            self.rec.end(id);
        });
        self.stages.0.insert("nn.transformer_fwd_ms", series.cal_ms);
    }

    /// Train steps, then eval split into scoring and ranking.
    fn train_and_eval(&mut self, model: &mut dyn SeqRecModel, seed: u64) -> f64 {
        let (w, inputs) = (self.w, self.inputs);
        let mut optimizer = Adam::new(AdamConfig::default());
        let mut rng = Rng64::seed_from(seed + 500);
        let mut losses = Vec::with_capacity(w.train_steps);
        let mut step_bytes = Vec::with_capacity(w.train_steps);
        let train = self.cal.series(w.train_steps, |i| {
            let id = self.rec.begin("train", "step", Under::root(0));
            let before = alloc::allocated_bytes();
            losses.push(model.train_step(&inputs.train_batches[i], &mut optimizer, &mut rng));
            step_bytes.push((alloc::allocated_bytes() - before) as f64 / 1e6);
            self.rec.end(id);
        });
        self.out.attempted += w.train_steps as u64;
        self.out.failed += losses.iter().filter(|l| !l.is_finite()).count() as u64;
        self.stages.0.insert("train.step_ms", train.cal_ms);
        self.stages.0.insert("train.step_alloc_mb", step_bytes);
        let final_loss = losses.last().copied().unwrap_or(f32::NAN);
        self.out
            .exact
            .push(("final_loss_bits", format!("{:08x}", final_loss.to_bits())));

        let mut ndcg = Vec::with_capacity(w.eval_chunks);
        let mut pending = Pending::open(&mut self.cal);
        for i in 0..w.eval_chunks {
            let cases = &inputs.eval_cases[i * w.eval_chunk..(i + 1) * w.eval_chunk];
            let contexts: Vec<&[usize]> = cases.iter().map(|c| c.context.as_slice()).collect();
            let (scores, score) = self
                .rec
                .record("eval", "score", Under::root(0), || model.score(&contexts));
            let mut scores = Some(scores);
            let (metrics, rank) = self.rec.record("eval", "rank", Under::root(0), || {
                evaluate_cases(cases, &DEFAULT_KS, w.eval_chunk, true, |_| {
                    scores.take().expect("one chunk, one scoring call")
                })
            });
            pending.operation(
                &mut self.cal,
                vec![("eval.score_ms", score), ("eval.rank_ms", rank)],
            );
            ndcg.push(f64::from(metrics.ndcg_at(20)));
        }
        pending.close(&mut self.stages);
        self.out.attempted += w.eval_chunks as u64;
        self.out.failed += ndcg.iter().filter(|v| !v.is_finite()).count() as u64;
        ndcg.iter().sum::<f64>() / ndcg.len() as f64
    }
}

pub fn run(w: &Workload, inputs: &Inputs, opts: &Opts) -> (Outcome, Vec<Span>) {
    wr_runtime::set_threads(w.threads(true));
    let mut tr = Tracer {
        w,
        inputs,
        cal: Calibrator::new(),
        rec: Recorder::default(),
        stages: Stages::default(),
        out: Outcome::default(),
    };

    let (system, plain_twin) = tr.setup(opts.seed);
    // The shadow pipeline's twin of the serving model; trained afterwards.
    let mut model = build_model(w, inputs);
    let measured = now_ns();
    let chunks: Vec<&[Request]> = inputs.requests.chunks(w.max_batch).collect();
    tr.transformer_alone(chunks[0]);

    // One plain round for the pool counters and the tracing overhead, one on
    // the telemetry-less twin where there is one, then traced rounds for the
    // serving share of the time, then the fixed train steps and eval chunks.
    let pool_before = wr_runtime::pool_stats();
    let fanout_before = match &system {
        System::Gateway(g) => counter(g, "gateway.fanout_calls"),
        System::Engine(_) => 0,
    };
    let plain_ms = tr.plain_round(&system, &chunks);
    let pool = wr_runtime::pool_stats();
    let telemetry_cost = plain_twin.map_or(0.0, |twin| {
        let twin_ms = tr.plain_round(&twin, &chunks);
        (plain_ms - twin_ms) / plain_ms
    });
    let (fanout_calls, failovers, hedges) = match &system {
        System::Gateway(g) if g.telemetry().is_some() => (
            counter(g, "gateway.fanout_calls") - fanout_before,
            counter(g, "gateway.failovers"),
            counter(g, "gateway.hedges"),
        ),
        System::Gateway(g) => ((chunks.len() * g.shards().len()) as u64, 0, 0),
        System::Engine(_) => (0, 0, 0),
    };

    let mut checksums = Vec::new();
    let mut round_s = 0.0;
    let mut counts = RoundCounts::default();
    while checksums.is_empty() || ms_since(measured) / 1e3 + round_s <= opts.seconds * SERVE_SHARE {
        let started = now_ns();
        let (round_counts, sum) =
            tr.traced_round(&system, model.as_ref(), &chunks, checksums.len());
        if checksums.is_empty() {
            counts = round_counts;
        }
        checksums.push(sum);
        round_s = ms_since(started) / 1e3;
    }
    let rounds = checksums.len();
    let ndcg = tr.train_and_eval(model.as_mut(), opts.seed);
    tr.out
        .gate(checksums.iter().all(|c| *c == checksums[0]), || {
            format!("top1_checksum differs between traced rounds: {checksums:x?}")
        });
    tr.out
        .exact
        .push(("top1_checksum", format!("{:016x}", checksums[0])));

    let Tracer {
        stages,
        mut out,
        rec,
        cal,
        ..
    } = tr;
    let traced_ms: f64 = stages.0["gateway.serve_ms"].iter().sum::<f64>() / rounds as f64;
    let ms = |out: &mut Outcome, name: &'static str| {
        let (value, n) = stages.median(name);
        out.metric(name, value, "ms", n);
        value
    };
    for name in [
        "data.pack_ms",
        "models.item_tower_ms",
        "models.encode_ms",
        "models.encoder_self_ms",
        "nn.transformer_fwd_ms",
        "serve.top_k_ms",
        "serve.shard_ms",
        "serve.fanout_ms",
        "serve.merge_ms",
        "ann.search_ms",
        "ann.build_ms",
        "gateway.serve_ms",
        "gateway.dispatch_self_ms",
        "whitening.fit_full_ms",
        "whitening.fit_relaxed_ms",
        "whitening.apply_ms",
        "linalg.covariance_ms",
        "linalg.sym_eig_ms",
        "models.build_ms",
        "serve.cache_build_ms",
        "train.step_ms",
        "eval.score_ms",
        "eval.rank_ms",
    ] {
        ms(&mut out, name);
    }
    let gemm_ms = ms(&mut out, "tensor.score_gemm_ms");
    let dim = w.model_config().dim;
    let flop = 2.0 * (w.max_batch * dim * w.n_items) as f64;
    let gflops = if gemm_ms > 0.0 {
        flop / (gemm_ms * 1e-3) / 1e9
    } else {
        0.0
    };
    let gemm_n = stages.median("tensor.score_gemm_ms").1;
    out.metric("tensor.score_gemm_gflops", gflops, "GFLOP/s", gemm_n);
    // Computed from tensor sizes, not measured: Vᵀ streamed once per gemm.
    let scored_bytes = if w.is_exact() { 4 * dim * w.n_items } else { 0 };
    out.metric("tensor.score_bytes_mb", scored_bytes as f64 / 1e6, "MB", 1);
    for (name, unit) in [
        ("models.encode_alloc_kb", "kB"),
        ("serve.shard_alloc_kb", "kB"),
        ("train.step_alloc_mb", "MB"),
        ("ledger.unattributed_share", "share"),
    ] {
        let (value, n) = stages.median(name);
        out.metric(name, value, unit, n);
    }
    let queries = inputs.requests.len();
    let scanned_of = (queries * w.n_items) as f64;
    out.metric(
        "ann.scan_share",
        counts.rows_scanned as f64 / scanned_of,
        "share",
        queries,
    );
    out.metric("eval.ndcg_at_20", ndcg, "share", inputs.eval_cases.len());
    let batches = chunks.len();
    let par = pool.par_dispatches - pool_before.par_dispatches;
    let by_workers = pool.jobs_by_workers - pool_before.jobs_by_workers;
    let by_caller = pool.jobs_by_caller - pool_before.jobs_by_caller;
    out.metric(
        "runtime.par_dispatches_per_batch",
        par as f64 / batches as f64,
        "count",
        batches,
    );
    out.metric(
        "runtime.worker_job_share",
        by_workers as f64 / ((by_workers + by_caller).max(1)) as f64,
        "share",
        (by_workers + by_caller) as usize,
    );
    out.metric("obs.telemetry_cost_share", telemetry_cost, "share", batches);
    out.metric(
        "ledger.trace_overhead_share",
        (traced_ms - plain_ms) / plain_ms,
        "share",
        batches,
    );
    for (name, value) in [
        ("serve.queries", queries as u64),
        ("serve.batches", batches as u64),
        ("models.encode_calls", counts.encode_calls),
        ("gateway.fanout_calls", fanout_calls),
        ("gateway.failovers", failovers),
        ("gateway.hedges", hedges),
        ("gateway.degraded", counts.degraded),
        ("ann.lists_probed", counts.lists_probed),
        ("ann.rows_scanned", counts.rows_scanned),
    ] {
        out.metric(name, value as f64, "count", 1);
        out.exact.push((name, value.to_string()));
    }
    out.exact
        .push(("eval_ndcg_at_20_bits", format!("{:016x}", ndcg.to_bits())));
    out.exact
        .push(("inputs_digest", format!("{:016x}", inputs.digest())));
    // What the benchmark itself adds between the stage calls of a shadow.
    let glue: Vec<f64> = (0..rec.spans().len())
        .filter(|&i| rec.spans()[i].name == "shadow")
        .map(|i| rec.self_ms(i))
        .collect();
    out.raw.extend([
        ("machine_speed", cal.machine_speed()),
        ("traced_rounds", rounds as f64),
        ("serve_round_ms_plain", plain_ms),
        ("serve_round_ms_traced", traced_ms),
        ("shadow_self_ms", median(&glue)),
    ]);
    (out, rec.spans().to_vec())
}
