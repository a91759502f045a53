//! Crash-safe file persistence.
//!
//! A `kill -9` between `File::create` and the final `write_all` used to
//! leave a torn artifact under the *final* name — the next process would
//! load half a checkpoint. [`write_atomic`] closes that window: the bytes
//! land in a same-directory temp file, are fsynced, and only then renamed
//! over the destination (rename within a directory is atomic on POSIX),
//! followed by a best-effort directory fsync so the rename itself is
//! durable. Readers therefore see either the old complete file or the new
//! complete file, never a mixture.
//!
//! Torn writes that slip past the filesystem (partial sector flush, media
//! corruption, hostile edits) are caught one layer up by the CRC32
//! integrity footers the formats append; [`crc32`] is the workspace's one
//! implementation (IEEE 802.3 polynomial, table-driven).

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::{FaultInjector, NoFaults};

/// CRC32 (IEEE, reflected, init/final-xor `0xFFFF_FFFF`) of `bytes`.
///
/// The 256-entry table is rebuilt per call (2 048 shift/xor ops) instead
/// of cached in a `static mut` — the build cost is noise next to hashing
/// a checkpoint, and it keeps this crate free of `unsafe` and of
/// cross-thread initialization order questions.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 == 1 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
        }
        *slot = c;
    }
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// Marker opening the line-oriented integrity footer used by the
/// workspace's text artifacts (JSONL sequence files, query logs,
/// embedding JSON). A `#` line is a comment to every in-tree loader, so
/// sealed files stay line-diffable and append-friendly right up to the
/// final seal.
pub const CRC_LINE_PREFIX: &str = "#crc32:";

/// Append a `#crc32:<hex>` footer line covering every byte of `body`
/// (newline-terminated first if it wasn't).
pub fn seal_lines(mut body: String) -> String {
    if !body.is_empty() && !body.ends_with('\n') {
        body.push('\n');
    }
    let crc = crc32(body.as_bytes());
    body.push_str(CRC_LINE_PREFIX);
    body.push_str(&format!("{crc:08x}\n"));
    body
}

/// Verify a trailing [`CRC_LINE_PREFIX`] footer and return the body it
/// seals (footer stripped).
///
/// Files without a footer pass through unchanged — hand-written fixtures
/// and pre-seal generations stay loadable — but a footer that is present
/// and wrong is an `InvalidData` error: a damaged sealed file is never
/// silently accepted.
pub fn verify_lines(text: &str) -> io::Result<&str> {
    let trimmed = text.trim_end_matches('\n');
    let last_start = trimmed.rfind('\n').map_or(0, |i| i + 1);
    let last = &trimmed[last_start..];
    if !last.starts_with(CRC_LINE_PREFIX) {
        return Ok(text);
    }
    let stored = u32::from_str_radix(last[CRC_LINE_PREFIX.len()..].trim(), 16).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidData, "malformed #crc32 integrity footer")
    })?;
    let body = &text[..last_start];
    let actual = crc32(body.as_bytes());
    if stored != actual {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("integrity footer mismatch: stored {stored:08x}, computed {actual:08x}"),
        ));
    }
    Ok(body)
}

/// [`write_atomic_with`] under [`NoFaults`] — the production path.
pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    write_atomic_with(path, bytes, &NoFaults, 0)
}

/// Write `bytes` to `path` crash-safely: temp file in the same directory
/// → `sync_all` → atomic rename → best-effort parent-directory fsync.
///
/// The temp name is unique per call (pid + a process-wide counter), so
/// threads racing to replace one destination — the flight recorder's
/// triggers all dump to one path — each rename a complete file of their
/// own; the last rename wins and a reader never sees a mixture.
///
/// The injector is consulted twice, mirroring the two real-world failure
/// classes: [`FaultInjector::write_error`] (site = `"<stem>.write"`)
/// surfaces an I/O error *before* anything is written, and
/// [`FaultInjector::corrupt`] (site = `"<stem>.bytes"`) mangles the
/// outgoing buffer the way a torn flush or flipped bit would — the
/// integrity footer downstream must catch it on load.
pub fn write_atomic_with(
    path: impl AsRef<Path>,
    bytes: &[u8],
    injector: &dyn FaultInjector,
    index: u64,
) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(err) = injector.write_error("file.write", index) {
        return Err(err);
    }
    let mut outgoing = bytes.to_vec();
    injector.corrupt("file.bytes", index, &mut outgoing);

    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("artifact");
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_file_name(format!(".{file_name}.tmp-{}-{call}", std::process::id()));
    let result = (|| -> io::Result<()> {
        let mut f = File::create(&tmp)?;
        f.write_all(&outgoing)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        // Durability of the rename itself: fsync the directory. Opening a
        // directory read-only works on Linux; elsewhere this is advisory.
        if let Some(parent) = path.parent() {
            if let Ok(dir) = File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        // Never leave the temp file behind on a failed write.
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, FaultRates};

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("wr_fault_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn crc32_detects_any_single_bit_flip() {
        let payload: Vec<u8> = (0..257u32).map(|i| (i * 31 % 251) as u8).collect();
        let clean = crc32(&payload);
        for byte in (0..payload.len()).step_by(17) {
            for bit in 0..8 {
                let mut bad = payload.clone();
                bad[byte] ^= 1 << bit;
                assert_ne!(crc32(&bad), clean, "flip {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn seal_and_verify_round_trip() {
        let sealed = seal_lines("line one\nline two".to_string());
        assert!(sealed.ends_with('\n'));
        let body = verify_lines(&sealed).unwrap();
        assert_eq!(body, "line one\nline two\n");
        // Unsealed text passes through untouched (legacy files).
        assert_eq!(verify_lines("plain\ntext\n").unwrap(), "plain\ntext\n");
        // Empty body seals and verifies.
        let sealed_empty = seal_lines(String::new());
        assert_eq!(verify_lines(&sealed_empty).unwrap(), "");
    }

    #[test]
    fn sealed_text_rejects_any_edit() {
        let sealed = seal_lines("{\"id\":1}\n{\"id\":2}\n".to_string());
        // Tamper with the body.
        let tampered = sealed.replace("\"id\":1", "\"id\":9");
        assert!(verify_lines(&tampered).is_err());
        // Tamper with the footer hex (extra leading digit overflows u32).
        let bad_footer = sealed.replace(CRC_LINE_PREFIX, "#crc32:f");
        assert!(verify_lines(&bad_footer).is_err());
        // Truncate a line out from under the footer.
        let cut = sealed.replacen("{\"id\":1}\n", "", 1);
        assert!(verify_lines(&cut).is_err());
    }

    #[test]
    fn write_atomic_round_trips_and_replaces() {
        let dir = tmp_dir("atomic");
        let path = dir.join("artifact.bin");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second generation").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second generation");
        // No temp litter.
        let litter = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .count();
        assert_eq!(litter, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_writers_of_one_path_never_tear_it() {
        // Four threads replace one sealed file 400 times each while a
        // reader polls it: what the gateway's fan-out does to the flight
        // recorder's dump path. With one temp name per process the writers
        // truncated and renamed each other's temp file.
        const WRITERS: usize = 4;
        const WRITES: usize = 400;
        let dir = tmp_dir("race");
        let path = dir.join("dump.jsonl");
        write_atomic(&path, seal_lines("generation zero\n".to_string()).as_bytes()).unwrap();
        let start = std::sync::Barrier::new(WRITERS + 1);
        let reads = std::thread::scope(|s| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let (path, start) = (&path, &start);
                    s.spawn(move || {
                        start.wait();
                        for i in 0..WRITES {
                            // Lengths differ by writer, so a shared temp file
                            // shows as a torn body, not only as an `Err`.
                            let body = format!("writer {w} write {i}\n").repeat(20 * (w + 1));
                            let written = write_atomic(path, seal_lines(body).as_bytes());
                            assert!(written.is_ok(), "writer {w} write {i}: {written:?}");
                        }
                    })
                })
                .collect();
            start.wait();
            let mut reads = 0usize;
            while !writers.iter().all(|w| w.is_finished()) {
                let text = std::fs::read_to_string(&path).unwrap();
                let footer = text.trim_end().rsplit('\n').next().unwrap();
                assert!(footer.starts_with(CRC_LINE_PREFIX), "read {reads}: no footer");
                assert!(verify_lines(&text).is_ok(), "read {reads}: footer does not verify");
                reads += 1;
            }
            reads
        });
        assert!(reads > 0);
        assert!(verify_lines(&std::fs::read_to_string(&path).unwrap()).is_ok());
        let names: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, ["dump.jsonl"], "temp litter");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_write_error_leaves_previous_generation_intact() {
        let dir = tmp_dir("ioerr");
        let path = dir.join("artifact.bin");
        write_atomic(&path, b"good generation").unwrap();
        let plan = FaultPlan::with_rates(
            9,
            FaultRates {
                io_error: 1.0,
                corrupt: 0.0,
                ..FaultRates::default()
            },
        );
        let err = write_atomic_with(&path, b"doomed", &plan, 0).unwrap_err();
        assert!(err.to_string().contains("injected"));
        assert_eq!(std::fs::read(&path).unwrap(), b"good generation");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_corruption_is_visible_to_readers() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("artifact.bin");
        let plan = FaultPlan::with_rates(
            4,
            FaultRates {
                io_error: 0.0,
                corrupt: 1.0,
                ..FaultRates::default()
            },
        );
        let payload = vec![0xABu8; 128];
        write_atomic_with(&path, &payload, &plan, 1).unwrap();
        let on_disk = std::fs::read(&path).unwrap();
        assert_ne!(on_disk, payload, "corruption must land on disk");
        assert!(plan.injected_total() >= 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
