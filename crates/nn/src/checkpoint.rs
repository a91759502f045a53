//! Binary model checkpoints.
//!
//! Format (`WRCK` v2, little-endian, length-prefixed, CRC-sealed):
//!
//! ```text
//! magic "WRCK" | u32 version=2 | u32 n_entries
//! per entry: u32 name_len | name bytes (utf-8)
//!            u32 n_dims   | u64 dims…
//!            u64 n_values | f32 values…
//! footer:    u32 crc32(everything above) | magic "KCRW"
//! ```
//!
//! v2 hardens the v1 layout for crash safety end to end:
//!
//! * **Atomic persistence** — [`save_params`] serializes to memory and
//!   lands the bytes via `wr_fault::write_atomic` (temp file → fsync →
//!   rename → directory fsync), so a `kill -9` mid-save leaves either the
//!   previous complete generation or the new one, never a torn file.
//! * **Integrity footer** — the trailing CRC32 (IEEE) covers every byte
//!   of the header and entries; [`load_params`] recomputes it and rejects
//!   any mismatch with the typed [`CheckpointError::Corrupt`], so a torn
//!   or bit-flipped checkpoint is *never* silently loaded.
//! * **Generation fallback** — [`latest_valid_checkpoint`] scans a
//!   directory of `*.wrck` generations newest-first and returns the first
//!   one that passes full validation, so recovery degrades to the
//!   previous good generation instead of failing outright.
//!
//! v1 files (no footer) predate the integrity guarantee and are rejected
//! with a `Corrupt` error naming the missing footer; the operator re-saves
//! from source to upgrade.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Read};
use std::path::{Path, PathBuf};

use crate::Param;
use wr_fault::{crc32, write_atomic_with, FaultInjector, NoFaults};
use wr_tensor::Tensor;

/// Little-endian reader over a byte slice (the offline workspace has no
/// `bytes` crate; this covers exactly what the checkpoint format needs).
///
/// Every getter is fallible: checkpoint files are untrusted input, so a
/// truncated or corrupted buffer must surface as a [`CheckpointError`],
/// never a panic.
struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.buf.len()
    }

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

    fn get_u32_le(&mut self, what: &str) -> Result<u32, CheckpointError> {
        let bytes = self.take(4, what)?;
        Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    fn get_u64_le(&mut self, what: &str) -> Result<u64, CheckpointError> {
        let bytes = self.take(8, what)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(arr))
    }

    fn get_f32_le(&mut self, what: &str) -> Result<f32, CheckpointError> {
        let bytes = self.take(4, what)?;
        Ok(f32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }
}

const MAGIC: &[u8; 4] = b"WRCK";
const FOOTER_MAGIC: &[u8; 4] = b"KCRW";
const VERSION: u32 = 2;
/// Bytes of the integrity footer: u32 CRC + footer magic.
const FOOTER_LEN: usize = 8;

/// Errors from checkpoint IO.
#[derive(Debug)]
pub enum CheckpointError {
    Io(io::Error),
    /// Not a checkpoint file / wrong version.
    Format(String),
    /// The integrity footer does not match the payload — the file is
    /// torn, bit-flipped, or otherwise damaged. Callers should fall back
    /// to [`latest_valid_checkpoint`] over their checkpoint directory.
    Corrupt(String),
    /// A parameter expected by `restore` is absent or mis-shaped.
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io: {e}"),
            CheckpointError::Format(m) => write!(f, "checkpoint format: {m}"),
            CheckpointError::Corrupt(m) => write!(f, "checkpoint corrupt: {m}"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Stable checkpoint key for the `i`-th parameter: layer names repeat
/// across identical blocks, so entries are keyed by position + name.
fn entry_key(index: usize, p: &Param) -> String {
    format!("{index:04}:{}", p.name())
}

/// Serialize `params` to the v2 wire form, integrity footer included.
fn encode_params(params: &[Param]) -> Vec<u8> {
    let mut buf: Vec<u8> = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(params.len() as u32).to_le_bytes());
    for (i, p) in params.iter().enumerate() {
        let key = entry_key(i, p);
        let name = key.as_bytes();
        buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
        buf.extend_from_slice(name);
        let value = p.get();
        buf.extend_from_slice(&(value.rank() as u32).to_le_bytes());
        for &d in value.dims() {
            buf.extend_from_slice(&(d as u64).to_le_bytes());
        }
        buf.extend_from_slice(&(value.numel() as u64).to_le_bytes());
        for &v in value.data() {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf.extend_from_slice(FOOTER_MAGIC);
    buf
}

/// Save parameters to `path`, keyed by position + name (a model's
/// `params()` order is deterministic for a given architecture).
///
/// Crash-safe: the serialized bytes (CRC footer included) are written to
/// a same-directory temp file, fsynced, and atomically renamed over
/// `path` — a crash at any instant leaves either the old generation or
/// the new one on disk, never a torn file.
pub fn save_params(path: impl AsRef<Path>, params: &[Param]) -> Result<(), CheckpointError> {
    save_params_with(path, params, &NoFaults)
}

/// [`save_params`] with a fault injector on the write path — the hook the
/// `wr-fault` recovery tests drive (injected I/O errors surface as
/// [`CheckpointError::Io`]; injected corruption lands on disk and must be
/// rejected by the next [`load_params`]).
pub fn save_params_with(
    path: impl AsRef<Path>,
    params: &[Param],
    injector: &dyn FaultInjector,
) -> Result<(), CheckpointError> {
    let bytes = encode_params(params);
    write_atomic_with(path, &bytes, injector, 0)?;
    Ok(())
}

/// Verify the integrity footer and return the payload (header + entries)
/// it seals.
fn check_footer(raw: &[u8]) -> Result<&[u8], CheckpointError> {
    if raw.len() < FOOTER_LEN + 4 {
        return Err(CheckpointError::Corrupt(format!(
            "file too short for a sealed checkpoint ({} bytes)",
            raw.len()
        )));
    }
    let (payload, footer) = raw.split_at(raw.len() - FOOTER_LEN);
    if &footer[4..] != FOOTER_MAGIC {
        return Err(CheckpointError::Corrupt(
            "missing integrity footer (truncated file, or a pre-v2 checkpoint)".into(),
        ));
    }
    let stored = u32::from_le_bytes([footer[0], footer[1], footer[2], footer[3]]);
    let actual = crc32(payload);
    if stored != actual {
        return Err(CheckpointError::Corrupt(format!(
            "crc mismatch: footer {stored:08x} vs payload {actual:08x}"
        )));
    }
    Ok(payload)
}

/// Load all entries of a checkpoint into a name → tensor map.
///
/// The integrity footer is verified first: a file that fails its CRC is
/// rejected with [`CheckpointError::Corrupt`] before any entry is
/// decoded. The map is a `BTreeMap` so any caller that iterates it
/// (printing, diffing, re-serializing) sees a deterministic key order.
pub fn load_params(path: impl AsRef<Path>) -> Result<BTreeMap<String, Tensor>, CheckpointError> {
    let mut input = File::open(path)?;
    let mut raw = Vec::new();
    input.read_to_end(&mut raw)?;
    let payload = check_footer(&raw)?;
    let mut buf = Cursor { buf: payload };

    let magic = buf.take(4, "magic")?;
    if magic != MAGIC {
        return Err(CheckpointError::Format("bad magic".into()));
    }
    let version = buf.get_u32_le("version")?;
    if version != VERSION {
        return Err(CheckpointError::Format(format!("unsupported version {version}")));
    }
    let n = buf.get_u32_le("entry count")? as usize;

    let mut map = BTreeMap::new();
    for _ in 0..n {
        let name_len = buf.get_u32_le("name length")? as usize;
        let name = String::from_utf8(buf.take(name_len, "name")?.to_vec())
            .map_err(|_| CheckpointError::Format("non-utf8 name".into()))?;
        let rank = buf.get_u32_le("rank")? as usize;
        // A hostile rank would otherwise drive a huge allocation below;
        // real models are rank ≤ 4.
        if rank > 32 {
            return Err(CheckpointError::Format(format!("entry {name}: absurd rank {rank}")));
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(buf.get_u64_le("dimension")? as usize);
        }
        let numel = buf.get_u64_le("value count")? as usize;
        let expected: Option<usize> =
            dims.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d));
        if expected != Some(numel) {
            return Err(CheckpointError::Format(format!(
                "entry {name}: {numel} values vs dims {dims:?}"
            )));
        }
        let byte_len = numel.checked_mul(4).ok_or_else(|| {
            CheckpointError::Format(format!("entry {name}: value count overflows"))
        })?;
        if buf.remaining() < byte_len {
            return Err(CheckpointError::Format("truncated values".into()));
        }
        let mut data = Vec::with_capacity(numel);
        for _ in 0..numel {
            data.push(buf.get_f32_le("value")?);
        }
        map.insert(
            name,
            Tensor::try_from_vec(data, &dims)
                .map_err(|e| CheckpointError::Format(e.to_string()))?,
        );
    }
    if buf.remaining() != 0 {
        return Err(CheckpointError::Format(format!(
            "{} trailing bytes after the last entry",
            buf.remaining()
        )));
    }
    Ok(map)
}

/// Scan `dir` for `*.wrck` checkpoints and return the newest one that
/// passes full validation (footer CRC and entry decode), or `None` when
/// no generation survives.
///
/// Generation order is the lexicographic filename order — checkpoint
/// writers embed a zero-padded counter (e.g. `epoch-000004.wrck`) so the
/// newest generation sorts last. A corrupt newest generation falls back
/// to the one before it instead of failing recovery outright.
pub fn latest_valid_checkpoint(dir: impl AsRef<Path>) -> Result<Option<PathBuf>, CheckpointError> {
    let mut candidates: Vec<PathBuf> = Vec::new();
    for entry in std::fs::read_dir(dir.as_ref())? {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) == Some("wrck") {
            candidates.push(path);
        }
    }
    candidates.sort();
    for path in candidates.into_iter().rev() {
        if load_params(&path).is_ok() {
            return Ok(Some(path));
        }
    }
    Ok(None)
}

/// Restore parameter values in place from a loaded map. Every parameter
/// must be present (by position+name key) with matching shape; extra
/// checkpoint entries are ignored (forward compatibility).
pub fn restore_params(
    params: &[Param],
    loaded: &BTreeMap<String, Tensor>,
) -> Result<(), CheckpointError> {
    for (i, p) in params.iter().enumerate() {
        let key = entry_key(i, p);
        let t = loaded.get(&key).ok_or_else(|| {
            CheckpointError::Mismatch(format!("parameter {key:?} missing from checkpoint"))
        })?;
        if t.dims() != p.dims() {
            return Err(CheckpointError::Mismatch(format!(
                "parameter {:?}: checkpoint {:?} vs model {:?}",
                p.name(),
                t.dims(),
                p.dims()
            )));
        }
        p.set(t.clone());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_tensor::Rng64;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("wrck_test_{name}_{}", std::process::id()))
    }

    #[test]
    fn roundtrip() {
        let mut rng = Rng64::seed_from(1);
        let a = Param::new("layer.w", Tensor::randn(&[3, 4], &mut rng));
        let b = Param::new("layer.b", Tensor::randn(&[4], &mut rng));
        let path = tmp("roundtrip");
        save_params(&path, &[a.clone(), b.clone()]).unwrap();

        let loaded = load_params(&path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded["0000:layer.w"], a.get());
        assert_eq!(loaded["0001:layer.b"], b.get());

        // Mutate then restore.
        a.update(|t| t.scale_(0.0));
        restore_params(&[a.clone(), b], &loaded).unwrap();
        assert_eq!(a.get(), loaded["0000:layer.w"]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn duplicate_layer_names_are_fine() {
        // Identical blocks produce identical layer names; position keys
        // disambiguate.
        let a = Param::new("block.w", Tensor::from_slice(&[1.0]));
        let b = Param::new("block.w", Tensor::from_slice(&[2.0]));
        let path = tmp("dup");
        save_params(&path, &[a.clone(), b.clone()]).unwrap();
        let loaded = load_params(&path).unwrap();
        a.update(|t| t.scale_(0.0));
        b.update(|t| t.scale_(0.0));
        restore_params(&[a.clone(), b.clone()], &loaded).unwrap();
        assert_eq!(a.get().data(), &[1.0]);
        assert_eq!(b.get().data(), &[2.0]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_garbage_file() {
        let path = tmp("garbage");
        std::fs::write(&path, b"not a checkpoint at all").unwrap();
        assert!(matches!(load_params(&path), Err(CheckpointError::Corrupt(_))));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_truncated_file() {
        let mut rng = Rng64::seed_from(2);
        let a = Param::new("w", Tensor::randn(&[8, 8], &mut rng));
        let path = tmp("trunc");
        save_params(&path, &[a]).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(load_params(&path), Err(CheckpointError::Corrupt(_))));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_v1_file_without_footer() {
        // A v1 checkpoint is the v2 payload with version=1 and no footer.
        let path = tmp("v1");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match load_params(&path) {
            Err(CheckpointError::Corrupt(m)) => assert!(m.contains("pre-v2"), "got: {m}"),
            other => panic!("v1 file must be rejected as corrupt, got {other:?}"),
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn every_truncation_point_errors_never_panics() {
        let mut rng = Rng64::seed_from(3);
        let a = Param::new("w", Tensor::randn(&[4, 3], &mut rng));
        let path = tmp("every_trunc");
        save_params(&path, &[a]).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in 0..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(load_params(&path).is_err(), "cut at {cut} must error");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn hostile_headers_error_instead_of_allocating() {
        let path = tmp("hostile");
        let craft = |entry_tail: &[u8]| {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(MAGIC);
            bytes.extend_from_slice(&VERSION.to_le_bytes());
            bytes.extend_from_slice(&1u32.to_le_bytes()); // one entry
            bytes.extend_from_slice(entry_tail);
            // Seal with a *valid* footer so the hostile header — not the
            // CRC check — is what the loader has to survive.
            let crc = wr_fault::crc32(&bytes);
            bytes.extend_from_slice(&crc.to_le_bytes());
            bytes.extend_from_slice(FOOTER_MAGIC);
            std::fs::write(&path, &bytes).unwrap();
            load_params(&path)
        };
        // name_len far beyond the buffer.
        assert!(matches!(craft(&u32::MAX.to_le_bytes()), Err(CheckpointError::Format(_))));
        // Absurd rank.
        let mut tail = Vec::new();
        tail.extend_from_slice(&1u32.to_le_bytes()); // name_len = 1
        tail.push(b'w');
        tail.extend_from_slice(&u32::MAX.to_le_bytes()); // rank
        assert!(matches!(craft(&tail), Err(CheckpointError::Format(_))));
        // numel that would overflow numel * 4.
        let mut tail = Vec::new();
        tail.extend_from_slice(&1u32.to_le_bytes());
        tail.push(b'w');
        tail.extend_from_slice(&1u32.to_le_bytes()); // rank = 1
        tail.extend_from_slice(&u64::MAX.to_le_bytes()); // dim
        tail.extend_from_slice(&u64::MAX.to_le_bytes()); // numel
        assert!(matches!(craft(&tail), Err(CheckpointError::Format(_))));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn trailing_bytes_under_a_valid_footer_are_rejected() {
        // Extra bytes after the declared entries, sealed with a
        // recomputed CRC: the footer is honest, the layout is not.
        let a = Param::new("w", Tensor::zeros(&[2, 2]));
        let path = tmp("trailing");
        save_params(&path, &[a]).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let mut bytes = clean[..clean.len() - FOOTER_LEN].to_vec();
        bytes.extend_from_slice(&[0xAB; 5]);
        let crc = wr_fault::crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes.extend_from_slice(FOOTER_MAGIC);
        std::fs::write(&path, &bytes).unwrap();
        match load_params(&path) {
            Err(CheckpointError::Format(msg)) => assert!(msg.contains("trailing"), "{msg}"),
            other => panic!("trailing bytes must be a format error, got {other:?}"),
        }
        std::fs::write(&path, &clean).unwrap();
        assert!(load_params(&path).is_ok());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn restore_detects_shape_mismatch() {
        let a = Param::new("w", Tensor::zeros(&[2, 2]));
        let path = tmp("shape");
        save_params(&path, &[a]).unwrap();
        let loaded = load_params(&path).unwrap();
        let reshaped = Param::new("w", Tensor::zeros(&[4, 1]));
        assert!(matches!(
            restore_params(&[reshaped], &loaded),
            Err(CheckpointError::Mismatch(_))
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn restore_detects_missing_param() {
        let a = Param::new("present", Tensor::zeros(&[1]));
        let path = tmp("missing");
        save_params(&path, &[a]).unwrap();
        let loaded = load_params(&path).unwrap();
        let other = Param::new("absent", Tensor::zeros(&[1]));
        assert!(matches!(
            restore_params(&[other], &loaded),
            Err(CheckpointError::Mismatch(_))
        ));
        std::fs::remove_file(path).ok();
    }
}
