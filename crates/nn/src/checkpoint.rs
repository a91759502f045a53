//! Binary model checkpoints.
//!
//! Format (`WRCK` v2, a `wr_fault::sealed` envelope around):
//!
//! ```text
//! u32 n_entries
//! per entry: u32 name_len | name bytes (utf-8) | tensor
//! tensor:    u32 n_dims | u64 dims… | u64 n_values | f32 values…
//! ```
//!
//! [`save_params`] lands the sealed bytes via `wr_fault::write_atomic`,
//! [`load_params`] rejects a torn or bit-flipped file with the typed
//! [`CheckpointError::Corrupt`] before any entry is decoded, and
//! [`latest_valid_checkpoint`] falls back to the newest `*.wrck`
//! generation that still loads. v1 files (no footer) predate the seal and
//! are `Corrupt`; the operator re-saves from source to upgrade.
//!
//! [`put_tensor`] / [`get_tensor`] are the workspace's one tensor wire
//! form; `WRTS` train checkpoints (`wr_train::resume`) call them too.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use crate::Param;
use wr_fault::sealed::{self, Reader, SealError};
use wr_fault::{write_atomic_with, FaultInjector, NoFaults};
use wr_tensor::Tensor;

const MAGIC: &[u8; 4] = b"WRCK";
const VERSION: u32 = 2;

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

impl From<SealError> for CheckpointError {
    fn from(e: SealError) -> Self {
        match e {
            SealError::Corrupt(m) => CheckpointError::Corrupt(m),
            SealError::Format(m) => CheckpointError::Format(m),
        }
    }
}

/// Append `t` in the tensor wire form (module doc).
pub fn put_tensor(buf: &mut Vec<u8>, t: &Tensor) {
    buf.extend_from_slice(&(t.rank() as u32).to_le_bytes());
    for &d in t.dims() {
        buf.extend_from_slice(&(d as u64).to_le_bytes());
    }
    buf.extend_from_slice(&(t.numel() as u64).to_le_bytes());
    for &v in t.data() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Read one tensor; `what` names it in the error.
pub fn get_tensor(r: &mut Reader<'_>, what: &str) -> Result<Tensor, CheckpointError> {
    let rank = r.u32(what)? as usize;
    // Real models are rank ≤ 4; a hostile rank must not size `dims`.
    if rank > 32 {
        return Err(CheckpointError::Format(format!("{what}: absurd rank {rank}")));
    }
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        dims.push(r.u64(what)? as usize);
    }
    let numel = r.u64(what)? as usize;
    if dims.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d)) != Some(numel) {
        return Err(CheckpointError::Format(format!(
            "{what}: {numel} values vs dims {dims:?}"
        )));
    }
    Tensor::try_from_vec(r.f32s(numel, what)?, &dims)
        .map_err(|e| CheckpointError::Format(e.to_string()))
}

/// Stable checkpoint key for the `i`-th parameter: layer names repeat
/// across identical blocks, so entries are keyed by position + name.
fn entry_key(index: usize, p: &Param) -> String {
    format!("{index:04}:{}", p.name())
}

/// Serialize `params` to the sealed v2 wire form.
fn encode_params(params: &[Param]) -> Vec<u8> {
    let mut body = (params.len() as u32).to_le_bytes().to_vec();
    for (i, p) in params.iter().enumerate() {
        let key = entry_key(i, p);
        body.extend_from_slice(&(key.len() as u32).to_le_bytes());
        body.extend_from_slice(key.as_bytes());
        put_tensor(&mut body, &p.get());
    }
    sealed::seal(MAGIC, VERSION, &body)
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

fn decode_params(raw: &[u8]) -> Result<BTreeMap<String, Tensor>, CheckpointError> {
    let mut r = sealed::open(MAGIC, VERSION, raw)?;
    let mut map = BTreeMap::new();
    // An entry is at least a name length, a rank and a value count.
    for _ in 0..r.count("entry count", 16)? {
        let name_len = r.u32("name length")? as usize;
        let name = String::from_utf8(r.take(name_len, "name")?.to_vec())
            .map_err(|_| CheckpointError::Format("non-utf8 name".into()))?;
        let value = get_tensor(&mut r, &format!("entry {name}"))?;
        map.insert(name, value);
    }
    r.finish()?;
    Ok(map)
}

/// Load all entries of a checkpoint into a name → tensor map.
///
/// The integrity footer is verified first: a file that fails its CRC is
/// rejected with [`CheckpointError::Corrupt`] before any entry is
/// decoded. The map is a `BTreeMap` so any caller that iterates it
/// (printing, diffing, re-serializing) sees a deterministic key order.
pub fn load_params(path: impl AsRef<Path>) -> Result<BTreeMap<String, Tensor>, CheckpointError> {
    decode_params(&std::fs::read(path)?)
}

/// Scan `dir` for `*.wrck` checkpoints and return the newest one that
/// passes full validation (footer CRC and entry decode), or `None` when
/// no generation survives (`wr_fault::sealed::newest_valid`: filename
/// order is generation order, a corrupt newest generation falls back to
/// the one before it).
pub fn latest_valid_checkpoint(dir: impl AsRef<Path>) -> Result<Option<PathBuf>, CheckpointError> {
    let newest = sealed::newest_valid(dir.as_ref(), "wrck", |p| load_params(p))?;
    Ok(newest.map(|(path, _)| path))
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
    fn hostile_headers_error_instead_of_allocating() {
        // Sealed with a *valid* footer so the hostile header — not the
        // CRC check — is what the loader has to survive; padded so the
        // entry-count bound passes and the field under test is met.
        let craft = |entry_tail: &[u8]| {
            let mut body = 1u32.to_le_bytes().to_vec(); // one entry
            body.extend_from_slice(entry_tail);
            body.resize(body.len().max(4 + 16), 0);
            match decode_params(&sealed::seal(MAGIC, VERSION, &body)) {
                Err(CheckpointError::Format(msg)) => msg,
                other => panic!("expected a format error, got {other:?}"),
            }
        };
        // name_len far beyond the buffer.
        assert!(craft(&u32::MAX.to_le_bytes()).contains("truncated name"));
        // Absurd rank.
        let mut tail = Vec::new();
        tail.extend_from_slice(&1u32.to_le_bytes()); // name_len = 1
        tail.push(b'w');
        tail.extend_from_slice(&u32::MAX.to_le_bytes()); // rank
        assert!(craft(&tail).contains("absurd rank"));
        // numel that would overflow numel * 4.
        let mut tail = Vec::new();
        tail.extend_from_slice(&1u32.to_le_bytes());
        tail.push(b'w');
        tail.extend_from_slice(&1u32.to_le_bytes()); // rank = 1
        tail.extend_from_slice(&u64::MAX.to_le_bytes()); // dim
        tail.extend_from_slice(&u64::MAX.to_le_bytes()); // numel
        assert!(craft(&tail).contains("overflows"));
    }

    #[test]
    fn trailing_bytes_under_a_valid_footer_are_rejected() {
        // Extra bytes after the declared entries, sealed with a
        // recomputed CRC: the footer is honest, the layout is not.
        let clean = encode_params(&[Param::new("w", Tensor::zeros(&[2, 2]))]);
        assert!(decode_params(&clean).is_ok());
        let mut body = clean[8..clean.len() - 8].to_vec();
        body.extend_from_slice(&[0xAB; 5]);
        match decode_params(&sealed::seal(MAGIC, VERSION, &body)) {
            Err(CheckpointError::Format(msg)) => assert!(msg.contains("trailing"), "{msg}"),
            other => panic!("trailing bytes must be a format error, got {other:?}"),
        }
    }

    #[test]
    fn golden_bytes_are_what_every_earlier_commit_wrote() {
        // (len, crc32) of this literal fixture under the encoder as it was
        // before `wr_fault::sealed` existed: files written by any earlier
        // commit still load, and a rollback can read files written now.
        let params = [
            Param::new("tower.w", Tensor::from_vec(vec![0.5, -1.25, 2.0, 3.5, -0.0, 1e-3], &[2, 3])),
            Param::new("tower.b", Tensor::from_slice(&[1.0, -2.0, 0.25])),
            Param::new("tau", Tensor::scalar(0.07)),
            Param::new("empty", Tensor::zeros(&[0, 4])),
        ];
        let bytes = encode_params(&params);
        assert_eq!((bytes.len(), wr_fault::crc32(&bytes)), (206, 0x2669_c84d));
        let loaded = decode_params(&bytes).unwrap();
        assert_eq!(loaded.len(), params.len());
        for (i, p) in params.iter().enumerate() {
            let back = &loaded[&entry_key(i, p)];
            assert_eq!(back.dims(), p.dims());
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(back), bits(&p.get()));
        }
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
