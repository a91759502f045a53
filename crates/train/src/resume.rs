//! WRTS v1 train-state checkpoints: everything a killed training run
//! needs to continue **bit-identically**.
//!
//! Format (`WRTS` v1, little-endian, CRC-sealed, atomic on disk):
//!
//! ```text
//! magic "WRTS" | u32 version=1
//! u64 epoch_next | u64 rng_state[4] | u64 adam_step
//! u32 best_valid (f32 bits) | u64 best_epoch | u64 stale
//! u32 n_params
//! per param: tensor value | tensor best_snapshot
//!            u8 has_moments | [tensor m | tensor v]
//! footer:    u32 crc32(everything above) | magic "STRW"
//! tensor:    u32 rank | u64 dims… | u64 numel | f32 values…
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
//! Persistence goes through `wr_fault::write_atomic`, and loads verify
//! the CRC footer before decoding, so a crash mid-save or a flipped bit
//! surfaces as [`CheckpointError::Corrupt`] and recovery falls back to
//! the previous generation via [`latest_valid_train_checkpoint`].

use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};

use crate::AdamStateExport;
use wr_fault::{crc32, write_atomic};
use wr_nn::CheckpointError;
use wr_tensor::Tensor;

const MAGIC: &[u8; 4] = b"WRTS";
const FOOTER_MAGIC: &[u8; 4] = b"STRW";
const VERSION: u32 = 1;
const FOOTER_LEN: usize = 8;

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

fn put_tensor(buf: &mut Vec<u8>, t: &Tensor) {
    buf.extend_from_slice(&(t.rank() as u32).to_le_bytes());
    for &d in t.dims() {
        buf.extend_from_slice(&(d as u64).to_le_bytes());
    }
    buf.extend_from_slice(&(t.numel() as u64).to_le_bytes());
    for &v in t.data() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Little-endian reader mirroring the one in `wr_nn::checkpoint`; every
/// getter is fallible because checkpoint bytes are untrusted input.
struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CheckpointError> {
        if self.buf.len() < n {
            return Err(CheckpointError::Format(format!(
                "truncated {what}: need {n} bytes, have {}",
                self.buf.len()
            )));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn get_u32(&mut self, what: &str) -> Result<u32, CheckpointError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn get_u64(&mut self, what: &str) -> Result<u64, CheckpointError> {
        let b = self.take(8, what)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }

    fn get_tensor(&mut self, what: &str) -> Result<Tensor, CheckpointError> {
        let rank = self.get_u32(what)? as usize;
        if rank > 32 {
            return Err(CheckpointError::Format(format!("{what}: absurd rank {rank}")));
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(self.get_u64(what)? as usize);
        }
        let numel = self.get_u64(what)? as usize;
        let expected: Option<usize> = dims.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d));
        if expected != Some(numel) {
            return Err(CheckpointError::Format(format!(
                "{what}: {numel} values vs dims {dims:?}"
            )));
        }
        let byte_len = numel
            .checked_mul(4)
            .ok_or_else(|| CheckpointError::Format(format!("{what}: value count overflows")))?;
        let raw = self.take(byte_len, what)?;
        let data: Vec<f32> = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        Tensor::try_from_vec(data, &dims).map_err(|e| CheckpointError::Format(e.to_string()))
    }
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
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(cp.epoch_next as u64).to_le_bytes());
    for s in cp.rng_state {
        buf.extend_from_slice(&s.to_le_bytes());
    }
    buf.extend_from_slice(&cp.adam.step.to_le_bytes());
    buf.extend_from_slice(&cp.best_valid.to_bits().to_le_bytes());
    buf.extend_from_slice(&(cp.best_epoch as u64).to_le_bytes());
    buf.extend_from_slice(&(cp.stale as u64).to_le_bytes());
    buf.extend_from_slice(&(cp.params.len() as u32).to_le_bytes());
    for i in 0..cp.params.len() {
        put_tensor(&mut buf, &cp.params[i]);
        put_tensor(&mut buf, &cp.best_snapshot[i]);
        match &cp.adam.slots[i] {
            Some((m, v)) => {
                buf.push(1);
                put_tensor(&mut buf, m);
                put_tensor(&mut buf, v);
            }
            None => buf.push(0),
        }
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf.extend_from_slice(FOOTER_MAGIC);
    Ok(buf)
}

fn decode(raw: &[u8]) -> Result<TrainCheckpoint, CheckpointError> {
    if raw.len() < FOOTER_LEN + 4 {
        return Err(CheckpointError::Corrupt(format!(
            "file too short for a sealed train checkpoint ({} bytes)",
            raw.len()
        )));
    }
    let (payload, footer) = raw.split_at(raw.len() - FOOTER_LEN);
    if &footer[4..] != FOOTER_MAGIC {
        return Err(CheckpointError::Corrupt("missing integrity footer".into()));
    }
    let stored = u32::from_le_bytes([footer[0], footer[1], footer[2], footer[3]]);
    let actual = crc32(payload);
    if stored != actual {
        return Err(CheckpointError::Corrupt(format!(
            "crc mismatch: footer {stored:08x} vs payload {actual:08x}"
        )));
    }

    let mut cur = Cursor { buf: payload };
    if cur.take(4, "magic")? != MAGIC {
        return Err(CheckpointError::Format("bad magic".into()));
    }
    let version = cur.get_u32("version")?;
    if version != VERSION {
        return Err(CheckpointError::Format(format!("unsupported version {version}")));
    }
    let epoch_next = cur.get_u64("epoch_next")? as usize;
    let mut rng_state = [0u64; 4];
    for s in &mut rng_state {
        *s = cur.get_u64("rng state")?;
    }
    let adam_step = cur.get_u64("adam step")?;
    let best_valid = f32::from_bits(cur.get_u32("best_valid")?);
    let best_epoch = cur.get_u64("best_epoch")? as usize;
    let stale = cur.get_u64("stale")? as usize;
    let n = cur.get_u32("param count")? as usize;
    let mut params = Vec::with_capacity(n);
    let mut best_snapshot = Vec::with_capacity(n);
    let mut slots = Vec::with_capacity(n);
    for i in 0..n {
        params.push(cur.get_tensor(&format!("param {i}"))?);
        best_snapshot.push(cur.get_tensor(&format!("snapshot {i}"))?);
        let has = cur.take(1, "moment flag")?[0];
        slots.push(match has {
            0 => None,
            1 => Some((
                cur.get_tensor(&format!("moment m {i}"))?,
                cur.get_tensor(&format!("moment v {i}"))?,
            )),
            other => {
                return Err(CheckpointError::Format(format!(
                    "param {i}: invalid moment flag {other}"
                )))
            }
        });
    }
    if !cur.buf.is_empty() {
        return Err(CheckpointError::Format(format!(
            "{} trailing bytes after the last parameter",
            cur.buf.len()
        )));
    }
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
    let mut input = File::open(path)?;
    let mut raw = Vec::new();
    input.read_to_end(&mut raw)?;
    decode(&raw)
}

/// Scan `dir` for `*.wrts` checkpoints and return the newest one that
/// fully validates, with its path — or `None` when no generation
/// survives. Filename order is generation order (writers zero-pad the
/// epoch counter), mirroring `wr_nn::latest_valid_checkpoint`.
pub fn latest_valid_train_checkpoint(
    dir: impl AsRef<Path>,
) -> Result<Option<(PathBuf, TrainCheckpoint)>, CheckpointError> {
    let mut candidates: Vec<PathBuf> = Vec::new();
    for entry in std::fs::read_dir(dir.as_ref())? {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) == Some("wrts") {
            candidates.push(path);
        }
    }
    candidates.sort();
    for path in candidates.into_iter().rev() {
        if let Ok(cp) = load_train_checkpoint(&path) {
            return Ok(Some((path, cp)));
        }
    }
    Ok(None)
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
        let dir = tmp_dir("sweep");
        let path = dir.join("train-000002.wrts");
        save_train_checkpoint(&path, &sample(3, 2)).unwrap();
        let clean = std::fs::read(&path).unwrap();
        for cut in 0..clean.len() {
            std::fs::write(&path, &clean[..cut]).unwrap();
            assert!(load_train_checkpoint(&path).is_err(), "cut {cut} accepted");
        }
        for byte in (0..clean.len()).step_by(11) {
            let mut bad = clean.clone();
            bad[byte] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            assert!(load_train_checkpoint(&path).is_err(), "flip {byte} accepted");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trailing_bytes_under_a_valid_footer_are_rejected() {
        // Extra bytes after the declared parameters, sealed with a
        // recomputed CRC: the footer is honest, the layout is not.
        let clean = encode(&sample(4, 3)).unwrap();
        assert!(decode(&clean).is_ok());
        let mut bytes = clean[..clean.len() - FOOTER_LEN].to_vec();
        bytes.extend_from_slice(&[0xAB; 5]);
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes.extend_from_slice(FOOTER_MAGIC);
        match decode(&bytes) {
            Err(CheckpointError::Format(msg)) => assert!(msg.contains("trailing"), "{msg}"),
            other => panic!("trailing bytes must be a format error, got {other:?}"),
        }
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
