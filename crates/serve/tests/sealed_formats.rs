//! Structural faults behind an honest seal, one table for the three
//! sealed binary formats the serving stack loads: `WRCK` (model
//! parameters), `WRTS` (training state) and `WRIV` (IVF index).
//!
//! Every row is a `wr_fault::sealed::seal`ed file — the CRC is valid, so
//! the loader's own decoding is what has to survive it — and every row
//! must come back as the format's typed `Format` error: never a panic,
//! and never an allocation sized by a number the file merely claims. The
//! `WRTS` `n_params` row killed the process (SIGABRT inside
//! `Vec::with_capacity`) before the formats shared `Reader::count`.
//! This crate hosts the table because it is the lowest one that depends
//! on all three formats.

use std::path::Path;

use wr_ann::{AnnError, IvfIndex};
use wr_fault::sealed::seal;
use wr_nn::{load_params, CheckpointError};
use wr_tensor::Tensor;
use wr_train::load_train_checkpoint;

/// A format: its magic and the version its loader expects.
type FileFormat = (&'static [u8; 4], u32);
const WRCK: FileFormat = (b"WRCK", 2);
const WRTS: FileFormat = (b"WRTS", 1);
const WRIV: FileFormat = (b"WRIV", 1);

fn bytes(fields: &[&[u8]]) -> Vec<u8> {
    fields.concat()
}

/// `WRTS` fixed header: epoch_next, rng_state[4], adam_step (u64 each),
/// best_valid (u32), best_epoch, stale (u64 each).
const WRTS_HEADER: [u8; 68] = [0; 68];
/// A rank-0 tensor holding one zero: rank 0 | numel 1 | 0.0f32.
const SCALAR: [u8; 16] = [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
const MAX: [u8; 4] = u32::MAX.to_le_bytes();

/// Load `raw` with `magic`'s loader: it must be refused as `Format`, with
/// a message that contains `says`.
fn assert_format_error(path: &Path, magic: &[u8; 4], fault: &str, says: &str, raw: &[u8]) {
    std::fs::write(path, raw).unwrap();
    let got = match magic {
        b"WRCK" => match load_params(path) {
            Err(CheckpointError::Format(msg)) => Ok(msg),
            other => Err(format!("{:?}", other.map(|entries| entries.len()))),
        },
        b"WRTS" => match load_train_checkpoint(path) {
            Err(CheckpointError::Format(msg)) => Ok(msg),
            other => Err(format!("{:?}", other.map(|cp| cp.params.len()))),
        },
        _ => match IvfIndex::load(path, &Tensor::zeros(&[2, 1])) {
            Err(AnnError::Format(msg)) => Ok(msg),
            other => Err(format!("{:?}", other.map(|index| index.nlist()))),
        },
    };
    let format = String::from_utf8_lossy(magic);
    match got {
        Ok(msg) => assert!(
            msg.contains(says),
            "{format} with {fault}: refused with {msg:?}"
        ),
        Err(got) => panic!("{format} with {fault}: expected Format, got {got}"),
    }
}

#[test]
fn structural_faults_behind_an_honest_seal_are_format_errors() {
    let dir = std::env::temp_dir().join(format!("wr_sealed_formats_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("hostile.bin");

    let one = 1u32.to_le_bytes();
    // WRIV header for a [2, 1] catalogue: seed | nlist | dim | n_items.
    let wriv = |nlist: [u8; 4]| bytes(&[&[0; 8], &nlist, &one, &2u64.to_le_bytes()]);
    // (format, fault, fragment of the refusal it must draw, body)
    #[rustfmt::skip]
    let mut table: Vec<(FileFormat, &str, &str, Vec<u8>)> = vec![
        // Hostile counts: each claims u32::MAX elements in a file of a
        // few dozen bytes.
        (WRCK, "n_entries = u32::MAX", "cannot fit", MAX.to_vec()),
        (WRTS, "n_params = u32::MAX", "cannot fit", bytes(&[&WRTS_HEADER, &MAX])),
        (WRIV, "nlist = u32::MAX", "cannot fit", wriv(MAX)),
        (WRIV, "list length = u32::MAX", "cannot fit", bytes(&[&wriv(one), &[0; 4], &MAX])),
        // One parameter whose moment flag is neither 0 nor 1.
        (WRTS, "moment flag 7", "invalid moment flag", bytes(&[&WRTS_HEADER, &one, &SCALAR, &SCALAR, &[7]])),
    ];
    for (magic, _) in [WRCK, WRTS, WRIV] {
        table.push(((magic, 9), "version 9", "version 9", Vec::new()));
    }
    for ((magic, version), fault, says, body) in &table {
        assert_format_error(&path, magic, fault, says, &seal(magic, *version, body));
    }
    // Another format's magic in front, this format's footer magic behind:
    // the CRC does not cover the footer magic, so the seal stays honest.
    for (magic, _) in [WRCK, WRTS, WRIV] {
        let mut alien = seal(b"NOPE", 1, &[]);
        let footer_magic = alien.len() - 4;
        alien[footer_magic..].copy_from_slice(&[magic[3], magic[2], magic[1], magic[0]]);
        assert_format_error(&path, magic, "bad magic", "magic", &alien);
    }
    std::fs::remove_dir_all(&dir).ok();
}
