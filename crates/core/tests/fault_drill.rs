//! End-to-end crash drill for `whitenrec train --fault-seed`: the CLI is
//! crashed mid-training by an armed wr-fault panic, restarted with the
//! same `--resume-dir`, and the recovered run's saved parameters must be
//! **byte-identical** to a run that was never interrupted.
//!
//! This drives the real binary (`CARGO_BIN_EXE_whitenrec`) three times:
//!
//! 1. fresh dir + `--fault-seed` → FAILURE exit, induced-crash message,
//!    WRTS generations left behind;
//! 2. same command again → the drill sees the generations, disarms,
//!    resumes, SUCCESS, saves a checkpoint;
//! 3. a clean run (fresh dir, no fault) saves the reference checkpoint.

use std::path::PathBuf;
use std::process::Command;

const ARGS: &[&str] = &[
    "train",
    "--model",
    "WhitenRec+",
    "--dataset",
    "Arts",
    "--scale",
    "0.05",
    "--epochs",
    "3",
];

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wr-fault-drill-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn whitenrec(extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_whitenrec"))
        .args(ARGS)
        .args(extra)
        .output()
        .expect("spawn whitenrec")
}

#[test]
fn induced_crash_then_resume_is_bit_identical_to_uninterrupted() {
    let dir = scratch("crash");
    let resume_dir = dir.join("gens");
    let crashed_ckpt = dir.join("resumed.wrck");
    let clean_ckpt = dir.join("clean.wrck");
    let resume_dir_s = resume_dir.to_string_lossy().into_owned();
    let crashed_ckpt_s = crashed_ckpt.to_string_lossy().into_owned();
    let clean_ckpt_s = clean_ckpt.to_string_lossy().into_owned();

    // Run 1: fresh dir, armed — must crash with the typed drill message.
    let run1 = whitenrec(&[
        "--resume-dir",
        &resume_dir_s,
        "--fault-seed",
        "7",
        "--save",
        &crashed_ckpt_s,
    ]);
    let stderr1 = String::from_utf8_lossy(&run1.stderr);
    assert!(
        !run1.status.success(),
        "armed run must exit FAILURE, stderr: {stderr1}"
    );
    assert!(
        stderr1.contains("induced crash at train.epoch"),
        "stderr must name the induced crash, got: {stderr1}"
    );
    assert!(
        !crashed_ckpt.exists(),
        "the crashed run must not have reached --save"
    );
    let generations = std::fs::read_dir(&resume_dir)
        .expect("resume dir exists after crash")
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "wrts"))
        .count();
    assert!(
        generations >= 1,
        "the crash lands after at least one checkpointed epoch"
    );

    // Run 2: identical command — generations present, drill disarms,
    // training resumes and completes.
    let run2 = whitenrec(&[
        "--resume-dir",
        &resume_dir_s,
        "--fault-seed",
        "7",
        "--save",
        &crashed_ckpt_s,
    ]);
    let stdout2 = String::from_utf8_lossy(&run2.stdout);
    assert!(
        run2.status.success(),
        "resumed run must succeed, stderr: {}",
        String::from_utf8_lossy(&run2.stderr)
    );
    assert!(
        stdout2.contains("disarmed, resuming"),
        "the drill must report disarming, got: {stdout2}"
    );

    // Run 3: never-interrupted reference on a fresh dir.
    let fresh = scratch("clean").join("gens");
    let run3 = whitenrec(&[
        "--resume-dir",
        &fresh.to_string_lossy(),
        "--save",
        &clean_ckpt_s,
    ]);
    assert!(
        run3.status.success(),
        "clean run must succeed, stderr: {}",
        String::from_utf8_lossy(&run3.stderr)
    );

    // The acceptance bit: crash + resume converges to the exact bytes of
    // the uninterrupted run.
    let resumed = std::fs::read(&crashed_ckpt).expect("resumed checkpoint");
    let clean = std::fs::read(&clean_ckpt).expect("clean checkpoint");
    assert_eq!(
        resumed, clean,
        "resumed parameters must be byte-identical to the uninterrupted run"
    );
}

/// `whitenrec bench` refuses a `WR_FAULT_SEED` that does not parse, before
/// any work, with a message naming the variable and the value — a typo
/// must not run the chaos drill with no faults armed.
#[test]
fn bench_refuses_a_fault_seed_that_does_not_parse() {
    let out = Command::new(env!("CARGO_BIN_EXE_whitenrec"))
        .args(["bench", "--scale", "0.05", "--epochs", "1"])
        .env("WR_FAULT_SEED", "2024O613")
        .output()
        .expect("spawn whitenrec");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "must exit FAILURE, stderr: {stderr}");
    assert!(
        stderr.contains("WR_FAULT_SEED=\"2024O613\""),
        "stderr must name the variable and the value, got: {stderr}"
    );
    assert!(
        !stderr.contains("training"),
        "it failed after starting work: {stderr}"
    );
}

/// `bench`'s report JSON (its stdout) field `key`, as printed.
fn report_field<'a>(stdout: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":");
    let start = stdout.find(&pat).map(|i| i + pat.len()).unwrap_or_else(|| {
        panic!("report has no {key}: {stdout}")
    });
    let rest = &stdout[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim_matches('"')
}

/// A micro-batch larger than the default serving bound reaches every
/// shard whole: at `--batch 128` a 2-shard gateway answers exactly like
/// the bare engine over the same checkpoint, with nothing degraded.
#[test]
fn gateway_answers_like_the_engine_at_a_batch_past_the_default_bound() {
    let dir = scratch("batch128");
    let ckpt = dir.join("m.wrck").to_string_lossy().into_owned();
    let bench = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_whitenrec"))
            .args(["bench", "--scale", "0.05", "--epochs", "1", "--queries", "256"])
            .args(["--batch", "128", "--checkpoint", &ckpt])
            .args(extra)
            .output()
            .expect("spawn whitenrec");
        assert!(
            out.status.success(),
            "bench {extra:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let engine = bench(&[]);
    let gateway = bench(&["--shards", "2"]);
    assert_eq!(report_field(&engine, "degraded"), "0");
    assert_eq!(report_field(&gateway, "degraded"), "0");
    assert_eq!(
        report_field(&gateway, "top1_checksum"),
        report_field(&engine, "top1_checksum"),
        "2 shards at --batch 128 must give the engine's checksum"
    );
}

/// Every verb refuses a flag it does not list, before any work, and
/// names it: a typo or a retired flag must not run with nothing changed.
#[test]
fn verbs_refuse_flags_they_do_not_list() {
    for (args, unknown) in [
        (&["bench", "--shards", "2", "--hedge-ns", "1"][..], "--hedge-ns"),
        (&["bench", "--shards", "2", "--replicas", "2"][..], "--replicas"),
        (&["train", "--shard", "2"][..], "--shard"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_whitenrec"))
            .args(args)
            .args(["--scale", "0.05", "--epochs", "1"])
            .output()
            .expect("spawn whitenrec");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must exit FAILURE, stderr: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {unknown}")),
            "{args:?}: stderr must name {unknown}, got: {stderr}"
        );
        assert!(!stderr.contains("training"), "{args:?} failed after starting work: {stderr}");
    }
}
