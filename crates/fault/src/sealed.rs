//! The binary sealed-file envelope, stated once.
//!
//! ```text
//! magic (4 bytes) | u32 version | body… | u32 crc32(all of the above) | magic reversed
//! ```
//!
//! `WRCK` (`wr_nn::checkpoint`), `WRTS` (`wr_train::resume`) and `WRIV`
//! (`wr_ann::ivf`) are bodies inside this envelope. Those modules own
//! their field layout and what the fields must mean; the rules every
//! sealed file shares live here, little-endian throughout:
//!
//! * [`open`] checks the footer and the CRC before a single field is
//!   read — a torn, truncated or bit-flipped file is
//!   [`SealError::Corrupt`] — and only then the magic and the version
//!   ([`SealError::Format`]: an honest seal around the wrong contents).
//! * The bytes are untrusted input: every [`Reader`] getter is fallible,
//!   and a declared element count goes through [`Reader::count`], which
//!   refuses it unless the bytes that remain can hold that many elements
//!   — so nothing is ever allocated from a number the file merely claims.
//! * [`Reader::finish`]: bytes left over after the declared contents are
//!   a format error, not slack.
//! * [`newest_valid`] is the generation fallback: the newest file of a
//!   directory that loads, so one damaged generation costs one step back
//!   instead of the run.
//! * [`damaged`] is the sweep the formats' tests share: every truncation
//!   point and every single-bit flip of a clean file, each of which
//!   [`open`] must answer with `Corrupt`.

use std::io;
use std::path::{Path, PathBuf};

use crate::crc32;

/// Bytes of the integrity footer: u32 CRC + reversed magic.
const FOOTER_LEN: usize = 8;

/// Why a sealed file was refused.
#[derive(Debug)]
pub enum SealError {
    /// The footer is missing or does not match the payload: the file is
    /// torn, truncated or bit-flipped. Fall back with [`newest_valid`].
    Corrupt(String),
    /// The seal is honest but the contents are not this format: wrong
    /// magic or version, a short or impossible field, trailing bytes.
    Format(String),
}

/// Wrap `body` in the envelope.
pub fn seal(magic: &[u8; 4], version: u32, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + body.len() + FOOTER_LEN);
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(body);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend(magic.iter().rev());
    out
}

/// Verify the envelope of `raw` and return a [`Reader`] over its body.
pub fn open<'a>(magic: &[u8; 4], version: u32, raw: &'a [u8]) -> Result<Reader<'a>, SealError> {
    if raw.len() < FOOTER_LEN + magic.len() {
        return Err(SealError::Corrupt(format!(
            "file too short for a sealed file ({} bytes)",
            raw.len()
        )));
    }
    let (payload, footer) = raw.split_at(raw.len() - FOOTER_LEN);
    let mut footer = Reader { buf: footer };
    let stored = footer.u32("footer crc")?;
    if !footer.buf.iter().eq(magic.iter().rev()) {
        return Err(SealError::Corrupt(format!(
            "missing integrity footer (truncated file, or a pre-v{version} file written without one)"
        )));
    }
    let actual = crc32(payload);
    if stored != actual {
        return Err(SealError::Corrupt(format!(
            "crc mismatch: footer {stored:08x} vs payload {actual:08x}"
        )));
    }
    let mut body = Reader { buf: payload };
    if body.take(magic.len(), "magic")? != magic {
        return Err(SealError::Format(format!(
            "bad magic: not a {} file",
            String::from_utf8_lossy(magic)
        )));
    }
    let found = body.u32("version")?;
    if found != version {
        return Err(SealError::Format(format!(
            "unsupported version {found} (expected {version})"
        )));
    }
    Ok(body)
}

/// Fallible little-endian reader over the body of an [`open`]ed file.
/// `what` names the field in the error a short read produces.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// The next `n` bytes.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], SealError> {
        if self.buf.len() < n {
            return Err(SealError::Format(format!(
                "truncated {what}: need {n} bytes, have {}",
                self.buf.len()
            )));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], SealError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N, what)?);
        Ok(out)
    }

    pub fn u8(&mut self, what: &str) -> Result<u8, SealError> {
        Ok(u8::from_le_bytes(self.array(what)?))
    }

    pub fn u32(&mut self, what: &str) -> Result<u32, SealError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    pub fn u64(&mut self, what: &str) -> Result<u64, SealError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// The next `n` `f32` values; an `n` the remaining bytes cannot hold
    /// is refused before the vector is allocated.
    pub fn f32s(&mut self, n: usize, what: &str) -> Result<Vec<f32>, SealError> {
        let len = n
            .checked_mul(4)
            .ok_or_else(|| SealError::Format(format!("{what}: value count {n} overflows")))?;
        let bytes = self.take(len, what)?.chunks_exact(4);
        Ok(bytes
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// A `u32` element count, refused unless the bytes that remain can
    /// hold `min_bytes_each` for every element: the bound that makes
    /// `Vec::with_capacity(count)` safe on a hostile header.
    pub fn count(&mut self, what: &str, min_bytes_each: usize) -> Result<usize, SealError> {
        let n = self.u32(what)? as usize;
        match n.checked_mul(min_bytes_each) {
            Some(need) if need <= self.buf.len() => Ok(n),
            _ => Err(SealError::Format(format!(
                "{what} {n} cannot fit in the {} bytes that remain",
                self.buf.len()
            ))),
        }
    }

    /// The body must end where its declared contents end.
    pub fn finish(self) -> Result<(), SealError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        Err(SealError::Format(format!(
            "{} trailing bytes after the declared contents",
            self.buf.len()
        )))
    }
}

/// The newest file in `dir` with `extension` that `load` accepts, with
/// what it loaded — or `None` when no generation survives.
///
/// Generation order is the lexicographic filename order: writers embed a
/// zero-padded counter (`epoch-000004.wrck`), so the newest sorts last.
pub fn newest_valid<T, E>(
    dir: &Path,
    extension: &str,
    mut load: impl FnMut(&Path) -> Result<T, E>,
) -> io::Result<Option<(PathBuf, T)>> {
    let mut candidates: Vec<PathBuf> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) == Some(extension) {
            candidates.push(path);
        }
    }
    candidates.sort();
    Ok(candidates
        .into_iter()
        .rev()
        .find_map(|path| load(&path).ok().map(|loaded| (path, loaded))))
}

/// Every truncation point of `clean`, then every single-bit flip, each
/// labelled for the assertion message. The corruption sweeps of the three
/// formats are calls to this.
pub fn damaged(clean: &[u8]) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    let cuts =
        (0..clean.len()).map(move |len| (format!("cut to {len} bytes"), clean[..len].to_vec()));
    let flips = (0..clean.len() * 8).map(move |i| {
        let mut bad = clean.to_vec();
        bad[i / 8] ^= 1 << (i % 8);
        (format!("bit {} of byte {} flipped", i % 8, i / 8), bad)
    });
    cuts.chain(flips)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 4] = b"WRXX";

    #[test]
    fn seal_then_open_reads_back_every_field_kind() {
        let mut body = vec![7u8];
        body.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        body.extend_from_slice(&u64::MAX.to_le_bytes());
        body.extend_from_slice(&2u32.to_le_bytes());
        for v in [1.5f32, -0.0] {
            body.extend_from_slice(&v.to_le_bytes());
        }
        let raw = seal(MAGIC, 3, &body);
        assert_eq!(&raw[..4], MAGIC);
        assert_eq!(&raw[raw.len() - 4..], b"XXRW");

        let mut r = open(MAGIC, 3, &raw).unwrap();
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("c").unwrap(), u64::MAX);
        let n = r.count("n", 4).unwrap();
        let values = r.f32s(n, "values").unwrap();
        assert_eq!(values[0].to_bits(), 1.5f32.to_bits());
        assert_eq!(values[1].to_bits(), (-0.0f32).to_bits());
        r.finish().unwrap();
    }

    #[test]
    fn every_damaged_file_is_corrupt_and_the_clean_one_opens() {
        let clean = seal(MAGIC, 1, b"some body bytes");
        let mut n = 0;
        for (what, bad) in damaged(&clean) {
            assert!(
                matches!(open(MAGIC, 1, &bad), Err(SealError::Corrupt(_))),
                "{what}"
            );
            n += 1;
        }
        assert_eq!(n, clean.len() * 9);
        assert!(open(MAGIC, 1, &clean).is_ok());
    }

    #[test]
    fn honest_seal_around_the_wrong_contents_is_a_format_error() {
        fn format_error<T>(r: Result<T, SealError>) -> String {
            match r {
                Err(SealError::Format(m)) => m,
                Err(other) => panic!("expected Format, got {other:?}"),
                Ok(_) => panic!("expected Format, got Ok"),
            }
        }
        // Wrong version.
        assert!(format_error(open(MAGIC, 1, &seal(MAGIC, 9, b""))).contains("version 9"));
        // Another format's payload under this format's footer magic (the
        // CRC does not cover the footer magic, so the seal stays honest).
        let mut alien = seal(b"NOPE", 1, b"");
        let n = alien.len();
        alien[n - 4..].copy_from_slice(b"XXRW");
        assert!(format_error(open(MAGIC, 1, &alien)).contains("magic"));
        // Short fields, impossible counts, trailing bytes.
        let raw = seal(MAGIC, 1, &u32::MAX.to_le_bytes());
        assert!(format_error(open(MAGIC, 1, &raw).unwrap().u64("wide")).contains("truncated wide"));
        assert!(format_error(open(MAGIC, 1, &raw).unwrap().count("n", 1)).contains("cannot fit"));
        assert!(
            format_error(open(MAGIC, 1, &raw).unwrap().f32s(usize::MAX, "v")).contains("overflows")
        );
        assert!(format_error(open(MAGIC, 1, &raw).unwrap().f32s(2, "v")).contains("truncated v"));
        assert!(format_error(open(MAGIC, 1, &raw).unwrap().finish()).contains("4 trailing bytes"));
    }

    #[test]
    fn newest_valid_steps_back_over_generations_that_do_not_load() {
        let dir = std::env::temp_dir().join(format!("wr_sealed_gen_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let load = |p: &Path| match std::fs::read(p) {
            Ok(bytes) if bytes.starts_with(b"ok") => Ok(bytes.len()),
            _ => Err(()),
        };
        assert_eq!(newest_valid(&dir, "gen", load).unwrap(), None);
        std::fs::write(dir.join("a-1.gen"), b"ok").unwrap();
        std::fs::write(dir.join("a-2.gen"), b"ok!").unwrap();
        std::fs::write(dir.join("a-3.gen"), b"torn").unwrap();
        std::fs::write(dir.join("a-4.other"), b"ok, but not a generation").unwrap();
        assert_eq!(
            newest_valid(&dir, "gen", load).unwrap(),
            Some((dir.join("a-2.gen"), 3))
        );
        assert!(newest_valid(&dir.join("absent"), "gen", load).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
