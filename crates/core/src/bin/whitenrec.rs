//! `whitenrec` — command-line interface to the reproduction.
//!
//! ```text
//! whitenrec analyze --dataset Arts [--scale 0.2]
//!     Anisotropy report + per-method whiteness of the dataset's embeddings.
//!
//! whitenrec train --model WhitenRec+ --dataset Arts [--scale 0.2]
//!     [--epochs 15] [--cold] [--save model.wrck] [--records out.jsonl]
//!     [--metrics-out metrics.json] [--trace-out trace.json]
//!     [--resume-dir DIR] [--checkpoint-every N] [--fault-seed S]
//!     Train one zoo model, print metrics, optionally checkpoint + export.
//!     `--resume-dir` routes the warm loop through the crash-safe
//!     resumable trainer: full training state (parameters, Adam moments,
//!     RNG position, early-stopping bookkeeping) is checkpointed to DIR
//!     every N epochs (default 1), and a re-run against the same DIR
//!     resumes from the newest valid generation, bit-identically to an
//!     uninterrupted run.
//!     `--fault-seed` arms wr-fault's chaos drill against that loop: on a
//!     *fresh* resume dir the run crashes (typed `InducedPanic`, FAILURE
//!     exit) at a mid-training epoch derived purely from the seed; the
//!     same command run again finds the surviving WRTS generations,
//!     disarms, resumes, and must finish bit-identically to a run that
//!     was never interrupted.
//!     The metrics snapshot carries per-epoch `train.*` telemetry, the
//!     runtime pool's utilization gauges, and the paper's embedding-health
//!     diagnostics for the dataset's table before and after whitening
//!     (`whiten.pre.*` / `whiten.post.*`); the trace is Chrome
//!     `trace_event` JSON — open it in Perfetto or `chrome://tracing`.
//!
//! whitenrec bench [--shards N] [--checkpoint model.wrck] …
//!     Replay a query trace through the serving stack — a bare engine, or
//!     with `--shards` the sharded gateway — and print the latency report.
//!     Flags and chaos / telemetry modes: see [`whitenrec::bench`].
//!
//! whitenrec list-models
//!     Print every model name the zoo accepts.
//! ```
//!
//! Each verb refuses a `--flag` its usage does not list, naming it, so a
//! typo never runs as if the flag were absent.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]

use std::path::Path;
use std::process::ExitCode;

use whitenrec::cli::{build_context, check_flags, flag, has_flag, parse_num, parse_opt};
use whitenrec::eval::{whiteness_error, EmbeddingReport};
use whitenrec::models::zoo::WARM_ROSTER;
use whitenrec::nn::save_params;
use whitenrec::obs::Telemetry;
use whitenrec::train::SeqRecModel;
use whitenrec::whiten::{WhiteningMethod, WhiteningTransform, DEFAULT_EPS};
use whitenrec::{append_records, ExperimentRecord};

/// The flags `analyze` accepts; any other `--flag` is refused.
const ANALYZE_USAGE: &str = "whitenrec analyze [--dataset Arts] [--scale 0.2]";

/// The flags `train` accepts; any other `--flag` is refused.
const TRAIN_USAGE: &str = "\
whitenrec train [--model WhitenRec+] [--dataset Arts] [--scale 0.2]
    [--epochs 15] [--cold] [--save model.wrck] [--records out.jsonl]
    [--metrics-out metrics.json] [--trace-out trace.json]
    [--resume-dir DIR] [--checkpoint-every N] [--fault-seed S]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verb = args.first().map_or("", String::as_str);
    let flags = args.get(1..).unwrap_or_default();
    let outcome = match verb {
        "analyze" => analyze(flags),
        "train" => train(flags),
        "bench" => whitenrec::bench::run(flags),
        "list-models" => {
            for name in WARM_ROSTER {
                println!("{name}");
            }
            for extra in ["GRU4Rec", "BERT4Rec", "Pop", "DIF-SR", "WhitenRec(T+ID)", "WhitenRec+(T+ID)", "WhitenRec+(GatedID)"] {
                println!("{extra}");
            }
            println!("WhitenRec@G=<n>  WhitenRec+@G=<n>  WhitenRec+@<Sum|Concat|Attn>");
            Ok(())
        }
        _ => {
            eprintln!("usage: whitenrec <analyze|train|bench|list-models> [flags]\n(see crate docs)");
            return ExitCode::FAILURE;
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("whitenrec {verb}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Does the resume dir already hold WRTS checkpoint generations? (An
/// unreadable or missing dir counts as fresh — the trainer creates it.)
fn dir_has_generations(dir: &Path) -> bool {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries.flatten().any(|e| {
                e.path()
                    .extension()
                    .is_some_and(|ext| ext == "wrts")
            })
        })
        .unwrap_or(false)
}

fn analyze(args: &[String]) -> Result<(), String> {
    check_flags(args, ANALYZE_USAGE)?;
    let ctx = build_context(args, None)?;
    let emb = &ctx.dataset.embeddings;
    println!(
        "dataset: {} | {} users, {} items, {}-dim embeddings",
        ctx.dataset.spec.kind.name(),
        ctx.dataset.n_users(),
        ctx.dataset.n_items(),
        emb.cols()
    );
    match EmbeddingReport::compute(emb, 2000, 7) {
        Ok(r) => println!("raw embeddings: {r}"),
        Err(e) => eprintln!("report failed: {e}"),
    }
    println!("\nwhiteness error after each transform (0 = perfectly white):");
    for method in WhiteningMethod::ALL {
        let z = WhiteningTransform::fit(emb, method, DEFAULT_EPS).apply(emb);
        println!("  {:<4} {:.4}", method.name(), whiteness_error(&z));
    }
    Ok(())
}

fn train(args: &[String]) -> Result<(), String> {
    check_flags(args, TRAIN_USAGE)?;
    let model_name = flag(args, "--model").unwrap_or_else(|| "WhitenRec+".into());
    let mut ctx = build_context(args, None)?;
    let trace_out = flag(args, "--trace-out");
    let metrics_out = flag(args, "--metrics-out");
    let telemetry = if trace_out.is_some() || metrics_out.is_some() {
        let tel = Telemetry::new();
        ctx.telemetry = Some(tel.clone());
        // The paper's diagnostics: embedding health before/after whitening.
        ctx.record_whitening_health();
        Some(tel)
    } else {
        None
    };
    let cold = has_flag(args, "--cold");
    println!(
        "training {model_name} on {} ({}; {} items, {} users)…",
        ctx.dataset.spec.kind.name(),
        if cold { "cold-start" } else { "warm-start" },
        ctx.dataset.n_items(),
        ctx.dataset.n_users(),
    );
    let resume_dir = flag(args, "--resume-dir");
    if resume_dir.is_some() && cold {
        return Err("--resume-dir is a warm-loop feature (the cold protocol retrains from scratch)".into());
    }
    let fault_seed: Option<u64> = parse_opt(args, "--fault-seed")?;
    if fault_seed.is_some() && resume_dir.is_none() {
        return Err("--fault-seed needs --resume-dir: the drill is crash *and recover*".into());
    }
    let trained = if cold {
        ctx.run_cold(&model_name)
    } else if let Some(dir) = resume_dir {
        let every: usize = parse_num(args, "--checkpoint-every", 1)?;
        if every == 0 {
            return Err("bad --checkpoint-every 0".into());
        }
        let policy = whitenrec::train::CheckpointPolicy {
            dir: std::path::PathBuf::from(&dir),
            every,
        };
        println!("resumable: WRTS generations in {dir} (every {every} epoch(s))");
        // The crash drill arms only on a *fresh* dir: epoch boundaries
        // persist generations before the crash fires, so the re-run sees
        // them, disarms, and recovers instead of crash-looping.
        let crash_epoch = match fault_seed {
            Some(seed) => {
                if ctx.train_config.max_epochs < 2 {
                    return Err("--fault-seed needs --epochs >= 2 (the crash lands mid-training)".into());
                }
                if dir_has_generations(&policy.dir) {
                    println!("fault drill: generations found in {dir}; disarmed, resuming");
                    None
                } else {
                    // Pure in the seed: epoch in [2, max_epochs], so at
                    // least one generation exists when the crash fires.
                    let epoch = 2 + (seed % (ctx.train_config.max_epochs as u64 - 1)) as usize;
                    println!("fault drill: armed with seed {seed}, crash at epoch {epoch}");
                    Some(epoch)
                }
            }
            None => None,
        };
        #[expect(
            clippy::panic,
            reason = "the crash drill: an induced panic the catch_unwind below recovers from"
        )]
        let run = || {
            ctx.train_and_evaluate(
                ctx.build_model(&model_name),
                &ctx.warm.train,
                &ctx.warm.validation,
                &ctx.warm.test,
                Some(&policy),
                |_, rec| {
                    if crash_epoch == Some(rec.epoch + 1) {
                        std::panic::panic_any(whitenrec::fault::InducedPanic {
                            site: "train.epoch".to_string(),
                            index: rec.epoch as u64,
                            attempt: 0,
                        });
                    }
                },
            )
        };
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
            Ok(Ok(t)) => t,
            Ok(Err(e)) => return Err(format!("resumable training failed: {e}")),
            Err(payload) => {
                return Err(match payload.downcast::<whitenrec::fault::InducedPanic>() {
                    Ok(p) => format!(
                        "induced crash at {} epoch {} — run the same command again to resume",
                        p.site,
                        p.index + 1
                    ),
                    Err(_) => "training panicked".into(),
                })
            }
        }
    } else {
        ctx.run_warm(&model_name)
    };
    println!(
        "done: {} epochs (best {}), {:.1}s total, {} params",
        trained.report.epochs.len(),
        trained.report.best_epoch,
        trained.report.total_seconds,
        trained.report.param_count
    );
    println!("test: {}", trained.test_metrics);

    if let Some(path) = flag(args, "--save") {
        save_params(&path, &trained.model.params()).map_err(|e| format!("checkpoint failed: {e}"))?;
        println!("checkpoint written to {path}");
    }
    if let Some(path) = flag(args, "--records") {
        let record = ExperimentRecord::from_trained(
            &trained,
            ctx.dataset.spec.kind.name(),
            if cold { "cold" } else { "warm" },
        );
        append_records(&path, &[record]).map_err(|e| format!("record export failed: {e}"))?;
        println!("record appended to {path}");
    }
    if let Some(tel) = &telemetry {
        whitenrec::runtime::record_metrics(&tel.registry);
        let trace = trace_out.as_ref().map(Path::new);
        let metrics = metrics_out.as_ref().map(Path::new);
        whitenrec::export_telemetry(tel, trace, metrics)
            .map_err(|e| format!("telemetry export failed: {e}"))?;
        if let Some(p) = &trace_out {
            println!("trace -> {p}");
        }
        if let Some(p) = &metrics_out {
            println!("metrics -> {p}");
        }
    }
    Ok(())
}
