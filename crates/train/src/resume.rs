//! WRTS v1 train-state checkpoints: everything a killed training run
//! needs to continue **bit-identically**.
//!
//! Format (`WRTS` v1, a `wr_fault::sealed` envelope around):
//!
//! ```text
//! u64 epoch_next | u64 rng_state[4] | u64 adam_step
//! u32 best_valid (f32 bits) | u64 best_epoch | u64 stale
//! u32 n_params
//! per param: tensor value | tensor best_snapshot
//!            u8 has_moments | [tensor m | tensor v]
//! tensor:    the `wr_nn::put_tensor` wire form
//! ```
//!
//! The captured state is deliberately wider than "the weights": resuming
//! mid-run must replay the exact arithmetic an uninterrupted run would
//! have executed, which requires the RNG stream position (batch shuffles
//! and dropout draws), the Adam moments and step count (bias correction
//! depends on it), and the early-stopping bookkeeping (best snapshot /
//! best metric / staleness), all keyed by parameter *position* — runtime
//! `Param::id`s are process-local and never serialized.
//!
//! A crash mid-save or a flipped bit surfaces as
//! [`CheckpointError::Corrupt`] and recovery falls back to the previous
//! generation via [`latest_valid_train_checkpoint`].

use std::path::{Path, PathBuf};

use crate::AdamStateExport;
use wr_fault::{sealed, write_atomic};
use wr_nn::{get_tensor, put_tensor, CheckpointError};
use wr_tensor::Tensor;

const MAGIC: &[u8; 4] = b"WRTS";
const VERSION: u32 = 1;

/// A resumable snapshot of the training loop, taken at an epoch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCheckpoint {
    /// First epoch the resumed loop should run.
    pub epoch_next: usize,
    /// xoshiro256++ state captured *after* the checkpointed epoch, so the
    /// resumed loop draws the same shuffles and dropout masks the
    /// uninterrupted run would have.
    pub rng_state: [u64; 4],
    /// Current parameter values, in `params()` order.
    pub params: Vec<Tensor>,
    /// Early-stopping best-weights snapshot, in `params()` order.
    pub best_snapshot: Vec<Tensor>,
    /// Optimizer moments + step count, positional.
    pub adam: AdamStateExport,
    /// Best validation NDCG seen so far (`-inf` before any eval).
    pub best_valid: f32,
    pub best_epoch: usize,
    /// Stagnant-epoch count toward the patience limit.
    pub stale: usize,
}

fn encode(cp: &TrainCheckpoint) -> Result<Vec<u8>, CheckpointError> {
    if cp.params.len() != cp.best_snapshot.len() || cp.params.len() != cp.adam.slots.len() {
        return Err(CheckpointError::Mismatch(format!(
            "inconsistent checkpoint: {} params, {} snapshots, {} optimizer slots",
            cp.params.len(),
            cp.best_snapshot.len(),
            cp.adam.slots.len()
        )));
    }
    let mut buf = Vec::new();
    buf.extend_from_slice(&(cp.epoch_next as u64).to_le_bytes());
    for s in cp.rng_state {
        buf.extend_from_slice(&s.to_le_bytes());
    }
    buf.extend_from_slice(&cp.adam.step.to_le_bytes());
    buf.extend_from_slice(&cp.best_valid.to_bits().to_le_bytes());
    buf.extend_from_slice(&(cp.best_epoch as u64).to_le_bytes());
    buf.extend_from_slice(&(cp.stale as u64).to_le_bytes());
    buf.extend_from_slice(&(cp.params.len() as u32).to_le_bytes());
    let rows = cp.params.iter().zip(&cp.best_snapshot).zip(&cp.adam.slots);
    for ((param, best), slot) in rows {
        put_tensor(&mut buf, param);
        put_tensor(&mut buf, best);
        match slot {
            Some((m, v)) => {
                buf.push(1);
                put_tensor(&mut buf, m);
                put_tensor(&mut buf, v);
            }
            None => buf.push(0),
        }
    }
    Ok(sealed::seal(MAGIC, VERSION, &buf))
}

fn decode(raw: &[u8]) -> Result<TrainCheckpoint, CheckpointError> {
    let mut r = sealed::open(MAGIC, VERSION, raw)?;
    let epoch_next = r.u64("epoch_next")? as usize;
    let mut rng_state = [0u64; 4];
    for s in &mut rng_state {
        *s = r.u64("rng state")?;
    }
    let adam_step = r.u64("adam step")?;
    let best_valid = f32::from_bits(r.u32("best_valid")?);
    let best_epoch = r.u64("best_epoch")? as usize;
    let stale = r.u64("stale")? as usize;
    // A parameter is at least two empty tensors (rank + value count each)
    // and a moment flag.
    let n = r.count("param count", 2 * 12 + 1)?;
    let mut params = Vec::with_capacity(n);
    let mut best_snapshot = Vec::with_capacity(n);
    let mut slots = Vec::with_capacity(n);
    for i in 0..n {
        params.push(get_tensor(&mut r, &format!("param {i}"))?);
        best_snapshot.push(get_tensor(&mut r, &format!("snapshot {i}"))?);
        slots.push(match r.u8("moment flag")? {
            0 => None,
            1 => Some((
                get_tensor(&mut r, &format!("moment m {i}"))?,
                get_tensor(&mut r, &format!("moment v {i}"))?,
            )),
            other => {
                return Err(CheckpointError::Format(format!(
                    "param {i}: invalid moment flag {other}"
                )))
            }
        });
    }
    r.finish()?;
    Ok(TrainCheckpoint {
        epoch_next,
        rng_state,
        params,
        best_snapshot,
        adam: AdamStateExport {
            step: adam_step,
            slots,
        },
        best_valid,
        best_epoch,
        stale,
    })
}

/// Persist a train checkpoint crash-safely (CRC footer, temp → fsync →
/// atomic rename).
pub fn save_train_checkpoint(
    path: impl AsRef<Path>,
    cp: &TrainCheckpoint,
) -> Result<(), CheckpointError> {
    let bytes = encode(cp)?;
    write_atomic(path, &bytes)?;
    Ok(())
}

/// Load and fully validate a train checkpoint. A torn or bit-flipped
/// file is rejected with [`CheckpointError::Corrupt`] before decoding.
pub fn load_train_checkpoint(path: impl AsRef<Path>) -> Result<TrainCheckpoint, CheckpointError> {
    decode(&std::fs::read(path)?)
}

/// Scan `dir` for `*.wrts` checkpoints and return the newest one that
/// fully validates, with its path — or `None` when no generation
/// survives. Filename order is generation order (writers zero-pad the
/// epoch counter).
pub fn latest_valid_train_checkpoint(
    dir: impl AsRef<Path>,
) -> Result<Option<(PathBuf, TrainCheckpoint)>, CheckpointError> {
    Ok(sealed::newest_valid(dir.as_ref(), "wrts", |p| load_train_checkpoint(p))?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_tensor::Rng64;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wrts_test_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample(seed: u64, epoch_next: usize) -> TrainCheckpoint {
        let mut rng = Rng64::seed_from(seed);
        let params = vec![Tensor::randn(&[3, 2], &mut rng), Tensor::randn(&[2], &mut rng)];
        let best_snapshot = params.iter().map(|t| t.clone()).collect();
        let slots = vec![
            Some((Tensor::randn(&[3, 2], &mut rng), Tensor::randn(&[3, 2], &mut rng))),
            None,
        ];
        TrainCheckpoint {
            epoch_next,
            rng_state: rng.state(),
            params,
            best_snapshot,
            adam: AdamStateExport {
                step: 17,
                slots,
            },
            best_valid: 0.31415,
            best_epoch: epoch_next.saturating_sub(1),
            stale: 2,
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("train-000004.wrts");
        let cp = sample(1, 4);
        save_train_checkpoint(&path, &cp).unwrap();
        let back = load_train_checkpoint(&path).unwrap();
        assert_eq!(back, cp);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn negative_infinity_best_valid_survives() {
        // Before the first validation eval, best_valid is -inf; the f32
        // bit-pattern round trip must preserve it exactly.
        let dir = tmp_dir("neginf");
        let path = dir.join("train-000001.wrts");
        let mut cp = sample(2, 1);
        cp.best_valid = f32::NEG_INFINITY;
        save_train_checkpoint(&path, &cp).unwrap();
        let back = load_train_checkpoint(&path).unwrap();
        assert_eq!(back.best_valid.to_bits(), f32::NEG_INFINITY.to_bits());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_truncation_and_bit_flip_is_rejected() {
        let clean = encode(&sample(3, 2)).unwrap();
        for (what, bad) in sealed::damaged(&clean) {
            let got = decode(&bad);
            assert!(matches!(got, Err(CheckpointError::Corrupt(_))), "{what}: {got:?}");
        }
        assert_eq!(decode(&clean).unwrap(), sample(3, 2));
    }

    #[test]
    fn trailing_bytes_under_a_valid_footer_are_rejected() {
        // Extra bytes after the declared parameters, sealed with a
        // recomputed CRC: the footer is honest, the layout is not.
        let clean = encode(&sample(4, 3)).unwrap();
        assert!(decode(&clean).is_ok());
        let mut body = clean[8..clean.len() - 8].to_vec();
        body.extend_from_slice(&[0xAB; 5]);
        match decode(&sealed::seal(MAGIC, VERSION, &body)) {
            Err(CheckpointError::Format(msg)) => assert!(msg.contains("trailing"), "{msg}"),
            other => panic!("trailing bytes must be a format error, got {other:?}"),
        }
    }

    #[test]
    fn golden_bytes_are_what_every_earlier_commit_wrote() {
        // (len, crc32) of this literal fixture under the encoder as it was
        // before `wr_fault::sealed` existed: files written by any earlier
        // commit still load, and a rollback can read files written now.
        let w = Tensor::from_vec(vec![0.5, -1.25, 2.0, 3.5, -0.0, 1e-3], &[2, 3]);
        let b = Tensor::from_slice(&[1.0, -2.0, 0.25]);
        let cp = TrainCheckpoint {
            epoch_next: 5,
            rng_state: [1, 0x0123_4567_89AB_CDEF, u64::MAX, 42],
            params: vec![w.clone(), b.clone()],
            best_snapshot: vec![w.scale(0.5), b.clone()],
            adam: AdamStateExport {
                step: 17,
                slots: vec![Some((w.scale(0.1), w.scale(0.01))), None],
            },
            best_valid: 0.3125,
            best_epoch: 3,
            stale: 2,
        };
        let bytes = encode(&cp).unwrap();
        assert_eq!((bytes.len(), wr_fault::crc32(&bytes)), (362, 0xaaad_02c8));
        assert_eq!(decode(&bytes).unwrap(), cp);
    }

    #[test]
    fn latest_valid_falls_back_across_generations() {
        let dir = tmp_dir("fallback");
        for e in 1..=3usize {
            save_train_checkpoint(dir.join(format!("train-{e:06}.wrts")), &sample(e as u64, e))
                .unwrap();
        }
        let (path, cp) = latest_valid_train_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(path, dir.join("train-000003.wrts"));
        assert_eq!(cp.epoch_next, 3);

        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (path, cp) = latest_valid_train_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(path, dir.join("train-000002.wrts"));
        assert_eq!(cp.epoch_next, 2);

        std::fs::remove_file(dir.join("train-000001.wrts")).unwrap();
        std::fs::write(dir.join("train-000002.wrts"), b"shredded").unwrap();
        std::fs::write(dir.join("train-000003.wrts"), b"also shredded").unwrap();
        assert!(latest_valid_train_checkpoint(&dir).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
