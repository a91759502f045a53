//! `whitenrec bench` — replay a Zipf-skewed query trace through the
//! serving stack: a bare [`ServeEngine`], or with `--shards N` the sharded
//! [`Gateway`] (`N` catalog windows × `--replicas R`). The flags are
//! [`USAGE`], which `--help` prints.
//!
//! The model comes from a trained checkpoint when `--checkpoint` names an
//! existing file (the architecture is rebuilt from the same dataset
//! context, then the saved parameters are restored into it). Otherwise the
//! model is trained here on the warm split — pass `--checkpoint` with a
//! fresh path to also save the result as a reusable fixture, so every
//! topology can be replayed against one checkpoint and compared
//! checksum-to-checksum (`scripts/check.sh` does).
//!
//! The trace comes from `--log` when that file exists. Otherwise it is
//! generated: `--users` distinct users (default one million) with request
//! frequency ∝ rank^(-alpha), each user replaying a deterministic session
//! history — the head of the distribution hits the system over and over,
//! the tail is visited once (`--zipf-alpha 0` is a typed error). The
//! generated trace is written back to `--save-log`, or to `--log` itself,
//! so the exact trace that was replayed is always recoverable.
//!
//! The latency report — p50/p95/p99/mean latency, QPS, the shard and
//! degraded-response counts, and a determinism checksum over the served
//! top-1 items — is printed to stdout as one JSON document
//! (`wr_serve::ReplayReport::to_json`), and optionally written to `--out`.
//!
//! `--check-naive N` re-serves the first `N` queries through the naive
//! one-user-at-a-time scorer of a single engine over a parameter-copied
//! twin of the same model, and fails unless the replayed responses match
//! bit for bit — the in-binary differential gate, for every topology. It
//! is skipped under chaos (degraded answers intentionally differ) and
//! under reduced-probe ANN (sublinear retrieval is allowed to differ; at
//! full probe it must not).
//!
//! `--ann-nlist N` (nonzero) switches to IVF-flat retrieval: one index
//! with `N` inverted lists per catalog window (deterministic
//! `--ann-seed`). `--ann-nprobe` defaults to `N`, the full-probe setting
//! that is bit-identical to the exact gemm scorer; dial it down for
//! sublinear scans. A bare engine loads the index from `--ann-index` when
//! that file exists and saves it there after a build, like
//! `--checkpoint`. Probe accounting lands in the metrics export as
//! `serve.ann.lists_probed` / `serve.ann.rows_scanned`.
//!
//! Setting `WR_FAULT_SEED` to a nonzero value arms deterministic chaos: a
//! seeded `wr_fault::FaultPlan` poisons cache rows and score rows with NaN
//! and induces micro-batch panics — on the bare engine, or on **one**
//! shard of a gateway (`--poison-shard`, default 0). The replay must
//! finish anyway via quarantine/retry/isolation; a gateway's victim shard
//! degrades the responses it loses while the surviving shards keep
//! answering bit-identically. The injected total is bridged into the
//! `fault.injected` counter, and `--fault-log-out` seals the schedule as
//! a `wr-faultlog/v1` artifact.
//!
//! `--poison-replica IDX` kills that replica of EVERY set (`KillAfter`,
//! permanent); with `--replicas >= 2` the breakers route around it: zero
//! degraded answers, checksum identical to the healthy run, failovers
//! counted.
//!
//! `--trace-out` / `--metrics-out` attach write-only telemetry: per-batch
//! (and per-shard) spans as Chrome `trace_event` JSON, `serve.*` /
//! `gateway.*` counters, the `serve.latency_ms` / `gateway.latency_ms`
//! histogram, pool utilization, and the dataset table's pre/post-whitening
//! embedding health. `--obs-listen ADDR` additionally starts the live
//! read-only telemetry endpoint (`/metrics`, `/traces/recent`, `/flight`,
//! `/health`) for the duration of the replay; the bound address is printed
//! to stderr. `--obs-dump-dir DIR` arms the flight recorder's incident
//! dump into `DIR/flight.dump.jsonl` and — when the endpoint is up —
//! self-scrapes `/metrics` and `/flight` into `DIR/metrics.scrape.json` /
//! `DIR/flight.scrape.jsonl` after the replay, which is how the
//! `scripts/check.sh` smoke asserts the live surface end to end. Any of
//! these flags implies telemetry.

use std::path::Path;
use std::sync::Arc;

use crate::cli::{build_context, check_flags, flag, has_flag, parse_num, parse_opt};
use crate::fault::{FaultKind, FaultPlan, KillAfter, SharedInjector, WR_FAULT_SEED_ENV};
use crate::nn::{load_params, restore_params, save_params};
use crate::obs::Telemetry;
use crate::train::SeqRecModel;
use crate::ExperimentContext;
use wr_gateway::{Gateway, GatewayConfig};
use wr_serve::{replay, IvfIndex, QueryLog, Replay, ServeConfig, ServeEngine};

pub const USAGE: &str = "\
whitenrec bench [--model WhitenRec+] [--dataset Arts] [--scale 0.2]
    [--epochs 3] [--checkpoint model.wrck]
    [--shards N [--replicas R] [--poison-shard IDX] [--poison-replica IDX]]
    [--queries 2048] [--users 1000000] [--zipf-alpha 1.1] [--max-len 20]
    [--log trace.jsonl] [--save-log trace.jsonl] [--batch 64] [--k 10]
    [--no-filter-seen] [--seed 17] [--out report.json] [--check-naive N]
    [--ann-nlist N] [--ann-nprobe N] [--ann-seed N] [--ann-index index.wriv]
    [--trace-out trace.json] [--metrics-out metrics.json]
    [--fault-log-out faults.jsonl]
    [--obs-listen 127.0.0.1:0] [--obs-dump-dir DIR]
  env: WR_FAULT_SEED=N  arm deterministic fault injection (0/unset = off;
                        a value that is not a u64 is an error)";

/// Flags that configure replica sets and so mean nothing on a bare engine.
const GATEWAY_FLAGS: [&str; 3] = ["--replicas", "--poison-shard", "--poison-replica"];

/// Copy `src`'s trainable parameters into a freshly built twin. The twin
/// shares no storage with `src` but is bit-identical: same architecture
/// (built from the same dataset context), same parameter order, values
/// copied tensor by tensor.
fn twin_model(
    ctx: &ExperimentContext,
    name: &str,
    src: &dyn SeqRecModel,
) -> Result<Box<dyn SeqRecModel>, String> {
    let dst = ctx.build_model(name);
    let (sp, dp) = (src.params(), dst.params());
    if sp.len() != dp.len() {
        return Err(format!(
            "twin model parameter count mismatch: {} vs {}",
            sp.len(),
            dp.len()
        ));
    }
    for (d, s) in dp.iter().zip(&sp) {
        d.set(s.get());
    }
    Ok(dst)
}

/// The model fixture: restored from `--checkpoint` when that file exists,
/// trained here otherwise (and saved when a checkpoint path was named).
fn load_or_train(
    ctx: &ExperimentContext,
    args: &[String],
    model_name: &str,
) -> Result<Box<dyn SeqRecModel>, String> {
    let checkpoint = flag(args, "--checkpoint");
    if let Some(path) = checkpoint.as_deref().filter(|p| Path::new(p).is_file()) {
        eprintln!("restoring {model_name} from {path}…");
        let model = ctx.build_model(model_name);
        let loaded = load_params(path).map_err(|e| e.to_string())?;
        restore_params(&model.params(), &loaded).map_err(|e| e.to_string())?;
        return Ok(model);
    }
    eprintln!(
        "training {model_name} on {} ({} epochs)…",
        ctx.dataset.spec.kind.name(),
        ctx.train_config.max_epochs
    );
    let trained = ctx.run_warm(model_name);
    eprintln!("trained: test {}", trained.test_metrics);
    if let Some(path) = &checkpoint {
        save_params(path, &trained.model.params()).map_err(|e| e.to_string())?;
        eprintln!("checkpoint fixture written to {path}");
    }
    Ok(trained.model)
}

/// IVF retrieval as `(nlist, nprobe, build seed)`, when `--ann-nlist` is on.
type AnnFlags = Option<(usize, usize, u64)>;

fn ann_flags(args: &[String]) -> Result<AnnFlags, String> {
    let nlist: usize = parse_num(args, "--ann-nlist", 0)?;
    if nlist == 0 {
        return Ok(None);
    }
    let nprobe: usize = parse_num(args, "--ann-nprobe", nlist)?;
    let seed: u64 = parse_num(args, "--ann-seed", 7)?;
    eprintln!(
        "ann: IVF per catalog window, {nlist} lists, nprobe {} (seed {seed})",
        nprobe.clamp(1, nlist)
    );
    Ok(Some((nlist, nprobe, seed)))
}

fn build_engine(
    model: Box<dyn SeqRecModel>,
    cfg: ServeConfig,
    ann: AnnFlags,
    args: &[String],
    telemetry: Option<&Telemetry>,
    fault_plan: Option<&Arc<FaultPlan>>,
) -> Result<ServeEngine, String> {
    let mut engine = ServeEngine::new(model, cfg);
    if let Some(tel) = telemetry {
        engine = engine.with_telemetry(tel.clone());
    }
    if let Some(plan) = fault_plan {
        engine = engine.with_faults(plan.clone() as SharedInjector);
    }
    if let Some((nlist, nprobe, seed)) = ann {
        // The index is loaded from --ann-index when that file exists, else
        // built here and saved there so later runs replay against the
        // same index.
        let index_path = flag(args, "--ann-index");
        let index = match index_path.as_deref().filter(|p| Path::new(p).is_file()) {
            Some(p) => {
                let loaded =
                    IvfIndex::load(p, engine.cache().items()).map_err(|e| e.to_string())?;
                eprintln!(
                    "ann: loaded WRIV index from {p} ({} lists, seed {})",
                    loaded.nlist(),
                    loaded.build_seed()
                );
                loaded
            }
            None => {
                let built = engine.cache().build_ivf(nlist, seed).map_err(|e| e.to_string())?;
                if let Some(p) = &index_path {
                    built.save(p).map_err(|e| e.to_string())?;
                    eprintln!("ann: index written to {p}");
                }
                built
            }
        };
        engine = engine.with_ann(Arc::new(index), nprobe);
    }
    Ok(engine)
}

fn build_gateway(
    model: Box<dyn SeqRecModel>,
    n_shards: usize,
    serve: ServeConfig,
    ann: AnnFlags,
    args: &[String],
    telemetry: Option<&Telemetry>,
    fault_plan: Option<&Arc<FaultPlan>>,
) -> Result<Gateway, String> {
    if has_flag(args, "--ann-index") {
        return Err("--ann-index needs a bare engine: a gateway builds one index per window".into());
    }
    let n_replicas: usize = parse_num(args, "--replicas", 1)?;
    if n_replicas == 0 {
        return Err("--replicas must be >= 1".into());
    }
    // A shard takes a whole micro-batch: `--batch` rows, never rejected.
    let cfg = GatewayConfig {
        serve,
        shard_max_rows: serve.max_batch,
        replicas: n_replicas,
        ..GatewayConfig::default()
    };
    let mut gateway = Gateway::partitioned(model, n_shards, cfg).map_err(|e| e.to_string())?;
    eprintln!(
        "gateway: {n_shards} shards x {n_replicas} replica(s), windows {:?}",
        gateway.plan().ranges()
    );
    if let Some(tel) = telemetry {
        gateway = gateway.with_telemetry(tel.clone());
    }
    if let Some(plan) = fault_plan {
        let victim: usize = parse_num(args, "--poison-shard", 0)?;
        gateway = gateway
            .with_shard_faults(victim, plan.clone() as SharedInjector)
            .map_err(|e| format!("--poison-shard: {e}"))?;
        eprintln!("chaos: fault injection armed on shard {victim}");
    }
    if let Some(r) = parse_opt::<usize>(args, "--poison-replica")? {
        if n_replicas < 2 {
            return Err(
                "--poison-replica needs --replicas >= 2 (a lone replica has no failover target)"
                    .into(),
            );
        }
        for s in 0..n_shards {
            gateway = gateway
                .with_replica_faults(s, r, Arc::new(KillAfter::serve_rows()))
                .map_err(|e| format!("--poison-replica: {e}"))?;
        }
        eprintln!("chaos: replica {r} of every set permanently killed (KillAfter on serve.row)");
    }
    if let Some((nlist, nprobe, seed)) = ann {
        gateway = gateway.with_ann(nlist, nprobe, seed).map_err(|e| e.to_string())?;
    }
    Ok(gateway)
}

/// The trace: a recorded `--log` when that file exists, else the seeded
/// Zipf generator over this catalog (written back so it is recoverable).
fn load_or_generate_trace(args: &[String], n_items: usize, default_max_len: usize) -> Result<QueryLog, String> {
    let log_path = flag(args, "--log");
    let log = match log_path.as_deref().filter(|p| Path::new(p).is_file()) {
        Some(p) => {
            let loaded = QueryLog::load(p).map_err(|e| e.to_string())?;
            eprintln!("replaying {} recorded queries from {p}", loaded.len());
            loaded
        }
        None => {
            let n_queries: usize = parse_num(args, "--queries", 2048)?;
            let n_users: usize = parse_num(args, "--users", 1_000_000)?;
            let alpha: f64 = parse_num(args, "--zipf-alpha", 1.1)?;
            let max_len: usize = parse_num(args, "--max-len", default_max_len)?;
            let seed: u64 = parse_num(args, "--seed", 17)?;
            let synth = QueryLog::synthetic_zipf(n_queries, n_users, n_items, max_len, alpha, seed)
                .map_err(|e| e.to_string())?;
            eprintln!(
                "generated {} Zipf queries over {n_users} users (alpha {alpha}, seed {seed})",
                synth.len()
            );
            synth
        }
    };
    if let Some(p) = flag(args, "--save-log").or(log_path) {
        if !Path::new(&p).is_file() {
            log.save(&p).map_err(|e| e.to_string())?;
            eprintln!("query log written to {p}");
        }
    }
    Ok(log)
}

/// Replay the trace through `target`, hold the first answers against the
/// naive `reference` when one was asked for, and print the report.
fn drive<T: Replay>(
    target: &T,
    log: &QueryLog,
    telemetry: &Telemetry,
    reference: Option<(ServeEngine, usize)>,
    args: &[String],
) -> Result<(), String> {
    let (responses, report) = replay(target, log, telemetry);
    if let Some((reference, n)) = reference {
        let n = n.min(log.len());
        let naive = reference.serve_naive(&log.queries[..n]);
        for (i, (got, want)) in responses.iter().zip(&naive).enumerate() {
            let (id, items, _) = T::view(got);
            let same = id == want.id
                && items.len() == want.items.len()
                && items
                    .iter()
                    .zip(&want.items)
                    .all(|(a, b)| a.item == b.item && a.score.to_bits() == b.score.to_bits());
            if !same {
                return Err(format!(
                    "differential check failed: replayed and naive single-engine top-k disagree at query {i}"
                ));
            }
        }
        eprintln!("differential check: replayed == naive single engine on {n} queries");
    }
    eprintln!(
        "{} queries in {} batches over {} shard(s) | {:.1} qps | p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  mean {:.3} ms | {} degraded | top1 checksum {:016x}",
        report.n_queries,
        report.n_batches,
        report.n_shards,
        report.qps,
        report.p50_ms,
        report.p95_ms,
        report.p99_ms,
        report.mean_ms,
        report.n_degraded,
        report.top1_checksum
    );
    let json = report.to_json();
    println!("{json}");
    if let Some(path) = flag(args, "--out") {
        std::fs::write(&path, json + "\n").map_err(|e| e.to_string())?;
        eprintln!("report -> {path}");
    }
    Ok(())
}

/// Run the `bench` verb over its flags (everything after the verb).
pub fn run(args: &[String]) -> Result<(), String> {
    if has_flag(args, "--help") || has_flag(args, "-h") {
        eprintln!("usage: {USAGE}");
        return Ok(());
    }
    check_flags(args, USAGE)?;
    let model_name = flag(args, "--model").unwrap_or_else(|| "WhitenRec+".into());
    let n_shards: Option<usize> = parse_opt(args, "--shards")?;
    if n_shards.is_none() {
        if let Some(f) = GATEWAY_FLAGS.iter().find(|f| has_flag(args, f)) {
            return Err(format!("{f} configures a gateway: it needs --shards"));
        }
    }
    // Chaos mode: a nonzero WR_FAULT_SEED arms a deterministic fault
    // schedule over the serving path (cache poison, score poison, induced
    // batch panics). The replay must survive it. Read before any work, so
    // a seed that does not parse fails at once.
    let fault_plan: Option<Arc<FaultPlan>> = FaultPlan::from_env()?.map(Arc::new);
    if let Some(plan) = &fault_plan {
        eprintln!(
            "chaos: fault injection armed ({WR_FAULT_SEED_ENV}={}, rates {:?})",
            plan.seed(),
            plan.rates()
        );
    }
    let mut ctx = build_context(args, Some(3))?;

    let trace_out = flag(args, "--trace-out");
    let metrics_out = flag(args, "--metrics-out");
    let obs_listen = flag(args, "--obs-listen");
    let obs_dump_dir = flag(args, "--obs-dump-dir");
    let telemetry = if trace_out.is_some()
        || metrics_out.is_some()
        || obs_listen.is_some()
        || obs_dump_dir.is_some()
    {
        let tel = Telemetry::new();
        // The full fault-tolerance surface is present (at zero) in every
        // export, so a clean run and a chaos run have the same shape.
        tel.registry.register_fault_counters();
        ctx.telemetry = Some(tel.clone());
        // Embedding health of the dataset table, raw vs whitened — the
        // paper's diagnostics, exported beside the serving metrics.
        ctx.record_whitening_health();
        Some(tel)
    } else {
        None
    };
    if let (Some(dir), Some(tel)) = (&obs_dump_dir, &telemetry) {
        std::fs::create_dir_all(dir).map_err(|e| format!("--obs-dump-dir {dir}: {e}"))?;
        let dump = Path::new(dir).join("flight.dump.jsonl");
        tel.flight.arm_dump(&dump);
        eprintln!("obs: flight recorder armed -> {}", dump.display());
    }
    let obs_server = match (&obs_listen, &telemetry) {
        (Some(addr), Some(tel)) => {
            let server = crate::obs::serve_http(addr, tel).map_err(|e| e.to_string())?;
            eprintln!("obs: live telemetry endpoint on http://{}", server.addr());
            Some(server)
        }
        _ => None,
    };
    let serve_cfg = ServeConfig {
        k: parse_num(args, "--k", 10)?,
        max_batch: parse_num(args, "--batch", 64)?,
        max_seq: ctx.model_config.max_seq,
        filter_seen: !has_flag(args, "--no-filter-seen"),
    };
    let model = load_or_train(&ctx, args, &model_name)?;

    // The differential reference: a fault-free, exact, single engine over
    // a twin of the model (cloned before the system consumes the model).
    let check_n: usize = parse_num(args, "--check-naive", 0)?;
    let ann = ann_flags(args)?;
    let reduced_probe = ann.is_some_and(|(nlist, nprobe, _)| nprobe < nlist);
    let reference = if check_n == 0 {
        None
    } else if fault_plan.is_some() {
        eprintln!("chaos: skipping --check-naive (fault injection is armed)");
        None
    } else if reduced_probe {
        eprintln!("ann: skipping --check-naive (reduced probe is allowed to differ)");
        None
    } else {
        let twin = twin_model(&ctx, &model_name, model.as_ref())?;
        Some((ServeEngine::new(twin, serve_cfg), check_n))
    };

    let replay_tel = telemetry.clone().unwrap_or_default();
    let max_len = ctx.model_config.max_seq;
    let report_quarantine = |n: usize| {
        if n > 0 {
            eprintln!("chaos: {n} poisoned cache rows quarantined at load");
        }
    };
    match n_shards {
        None => {
            let engine =
                build_engine(model, serve_cfg, ann, args, telemetry.as_ref(), fault_plan.as_ref())?;
            report_quarantine(engine.quarantined_items().len());
            let log = load_or_generate_trace(args, engine.n_items(), max_len)?;
            drive(&engine, &log, &replay_tel, reference, args)?;
        }
        Some(n) => {
            let gateway =
                build_gateway(model, n, serve_cfg, ann, args, telemetry.as_ref(), fault_plan.as_ref())?;
            report_quarantine(gateway.shards().iter().map(|s| s.quarantined_items().len()).sum());
            let log = load_or_generate_trace(args, gateway.n_items(), max_len)?;
            drive(&gateway, &log, &replay_tel, reference, args)?;
            if gateway.config().replicas > 1 {
                // The breaker trajectory snapshot: one state label per
                // replica, per set. Under --poison-replica the victims
                // must read "open".
                eprintln!("replicas: breaker states {:?}", gateway.breaker_states());
            }
        }
    }

    if let Some(plan) = &fault_plan {
        eprintln!(
            "chaos: {} faults injected (io {}, truncation {}, bit_flip {}, nan {}, panic {})",
            plan.injected_total(),
            plan.injected(FaultKind::IoError),
            plan.injected(FaultKind::Truncation),
            plan.injected(FaultKind::BitFlip),
            plan.injected(FaultKind::NanPoison),
            plan.injected(FaultKind::Panic),
        );
        if let Some(tel) = &telemetry {
            tel.registry.counter("fault.injected").add(plan.injected_total());
        }
        if let Some(path) = flag(args, "--fault-log-out") {
            // The schedule as a replayable artifact: CRC-sealed
            // `wr-faultlog/v1` JSONL, written atomically.
            crate::fault::save_fault_log(Path::new(&path), plan.seed(), &plan.records())
                .map_err(|e| format!("fault log export failed: {e}"))?;
            eprintln!("fault log -> {path} ({} records)", plan.records().len());
        }
    }
    if let Some(tel) = &telemetry {
        crate::runtime::record_metrics(&tel.registry);
        crate::export_telemetry(
            tel,
            trace_out.as_ref().map(Path::new),
            metrics_out.as_ref().map(Path::new),
        )?;
        if let Some(p) = &trace_out {
            eprintln!("trace -> {p}");
        }
        if let Some(p) = &metrics_out {
            eprintln!("metrics -> {p}");
        }
    }
    // Self-scrape the live endpoint after the replay so the smoke gate
    // exercises the exact HTTP surface an external scraper would see.
    if let (Some(server), Some(dir)) = (&obs_server, &obs_dump_dir) {
        let addr = server.addr().to_string();
        for (route, file) in [
            ("/metrics", "metrics.scrape.json"),
            ("/flight", "flight.scrape.jsonl"),
        ] {
            let body =
                crate::obs::http_get(&addr, route).map_err(|e| format!("scrape {route}: {e}"))?;
            let path = Path::new(dir).join(file);
            std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        eprintln!("obs: scraped /metrics and /flight into {dir}");
    }
    drop(obs_server);
    Ok(())
}
