//! Corruption sweep for the WRCK v2 checkpoint format.
//!
//! The crash-safety contract (ISSUE: fault-injection PR) is that a torn
//! or bit-flipped checkpoint is *never* silently loaded: every mutation
//! of the on-disk bytes must surface as a typed error, and recovery must
//! fall back across generations via `latest_valid_checkpoint`.

use wr_fault::sealed::damaged;
use wr_fault::{FaultPlan, FaultRates};
use wr_nn::{
    latest_valid_checkpoint, load_params, save_params, save_params_with, CheckpointError, Param,
};
use wr_tensor::{Rng64, Tensor};

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wrck_sweep_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sample_params(seed: u64) -> Vec<Param> {
    let mut rng = Rng64::seed_from(seed);
    vec![
        Param::new("encoder.w", Tensor::randn(&[4, 3], &mut rng)),
        Param::new("encoder.b", Tensor::randn(&[3], &mut rng)),
        Param::new("head.w", Tensor::randn(&[3, 2], &mut rng)),
    ]
}

#[test]
fn every_truncation_and_every_bit_flip_is_corrupt() {
    let dir = tmp_dir("sweep");
    let path = dir.join("model.wrck");
    save_params(&path, &sample_params(11)).unwrap();
    let clean = std::fs::read(&path).unwrap();
    assert!(clean.len() > 20, "fixture too small to sweep");
    // A cut loses the footer, a flip in the payload trips the CRC, a flip
    // in the stored CRC mismatches the payload, a flip in either magic
    // breaks framing: nothing may load, and nothing reaches entry
    // decoding (`Corrupt`, never `Format`).
    for (what, bad) in damaged(&clean) {
        std::fs::write(&path, &bad).unwrap();
        let got = load_params(&path);
        assert!(matches!(got, Err(CheckpointError::Corrupt(_))), "{what}: {got:?}");
    }
    // The untouched file still loads — the sweep didn't break the fixture.
    std::fs::write(&path, &clean).unwrap();
    assert_eq!(load_params(&path).unwrap().len(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn latest_valid_checkpoint_falls_back_across_generations() {
    let dir = tmp_dir("generations");
    for epoch in 1..=3u32 {
        let path = dir.join(format!("epoch-{epoch:06}.wrck"));
        save_params(&path, &sample_params(epoch as u64)).unwrap();
    }
    let newest = dir.join("epoch-000003.wrck");
    assert_eq!(latest_valid_checkpoint(&dir).unwrap().unwrap(), newest);

    // Corrupt the newest generation: recovery falls back to epoch 2.
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&newest, &bytes).unwrap();
    assert_eq!(
        latest_valid_checkpoint(&dir).unwrap().unwrap(),
        dir.join("epoch-000002.wrck")
    );

    // Truncate epoch 2 as well: falls back to epoch 1.
    let g2 = dir.join("epoch-000002.wrck");
    let bytes = std::fs::read(&g2).unwrap();
    std::fs::write(&g2, &bytes[..bytes.len() - 3]).unwrap();
    assert_eq!(
        latest_valid_checkpoint(&dir).unwrap().unwrap(),
        dir.join("epoch-000001.wrck")
    );

    // Destroy every generation: recovery reports None, not an error.
    std::fs::write(dir.join("epoch-000001.wrck"), b"gone").unwrap();
    assert_eq!(latest_valid_checkpoint(&dir).unwrap(), None);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn latest_valid_checkpoint_ignores_other_files_and_empty_dirs() {
    let dir = tmp_dir("mixed");
    assert_eq!(latest_valid_checkpoint(&dir).unwrap(), None);
    std::fs::write(dir.join("notes.txt"), b"not a checkpoint").unwrap();
    std::fs::write(dir.join("metrics.json"), b"{}").unwrap();
    assert_eq!(latest_valid_checkpoint(&dir).unwrap(), None);
    let path = dir.join("epoch-000001.wrck");
    save_params(&path, &sample_params(7)).unwrap();
    assert_eq!(latest_valid_checkpoint(&dir).unwrap().unwrap(), path);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_write_fault_never_destroys_the_previous_generation() {
    let dir = tmp_dir("injected");
    let path = dir.join("model.wrck");
    let params = sample_params(21);
    save_params(&path, &params).unwrap();
    let good = std::fs::read(&path).unwrap();

    // Injected I/O error: the save fails, the old generation survives.
    let io_plan = FaultPlan::with_rates(
        5,
        FaultRates { io_error: 1.0, corrupt: 0.0, ..FaultRates::default() },
    );
    assert!(matches!(
        save_params_with(&path, &sample_params(22), &io_plan),
        Err(CheckpointError::Io(_))
    ));
    assert_eq!(std::fs::read(&path).unwrap(), good);
    assert_eq!(load_params(&path).unwrap().len(), 3);

    // Injected corruption: the save "succeeds" (the bytes are torn in
    // flight), but the CRC rejects the result on load — recovery then
    // falls back, it never consumes the damaged file.
    let corrupt_plan = FaultPlan::with_rates(
        5,
        FaultRates { io_error: 0.0, corrupt: 1.0, ..FaultRates::default() },
    );
    save_params_with(&path, &sample_params(23), &corrupt_plan).unwrap();
    assert!(load_params(&path).is_err(), "torn bytes must not load");
    assert!(io_plan.injected_total() >= 1);
    assert!(corrupt_plan.injected_total() >= 1);
    std::fs::remove_dir_all(&dir).ok();
}
