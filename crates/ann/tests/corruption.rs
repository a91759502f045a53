//! WRIV corruption sweep and hostile headers.
//!
//! The index file is untrusted input on the serving hot path: a torn
//! write, a flipped bit, or a hostile header must surface as a typed
//! `AnnError` — never a panic, never a silently wrong index. The sweep
//! (`wr_fault::sealed::damaged`, shared with WRCK and WRTS) is
//! exhaustive: *every* truncation point and *every* single-bit flip of a
//! real file must be `Corrupt`.

use std::path::PathBuf;

use wr_ann::{AnnError, IvfIndex};
use wr_fault::sealed::{damaged, seal};
use wr_tensor::{Rng64, Tensor};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wr_ann_corrupt_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn every_truncation_and_every_bit_flip_is_corrupt() {
    let items = Tensor::randn(&[60, 4], &mut Rng64::seed_from(8));
    let dir = scratch("sweep");
    let path = dir.join("index.wriv");
    IvfIndex::build(&items, 6, 11).unwrap().save(&path).unwrap();
    let clean = std::fs::read(&path).unwrap();
    for (what, bad) in damaged(&clean) {
        std::fs::write(&path, &bad).unwrap();
        let got = IvfIndex::load(&path, &items);
        assert!(matches!(got, Err(AnnError::Corrupt(_))), "{what}: {got:?}");
    }
    // The untouched file still loads.
    std::fs::write(&path, &clean).unwrap();
    IvfIndex::load(&path, &items).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Seal a hand-built WRIV body so the hostile-header paths — which sit
/// *behind* the CRC gate — are reachable.
fn sealed(body: &[u8]) -> Vec<u8> {
    seal(b"WRIV", 1, body)
}

fn tiny_payload(nlist: u32, dim: u32, n_items: u64, lists: &[&[u32]]) -> Vec<u8> {
    let mut p = Vec::new();
    p.extend_from_slice(&0u64.to_le_bytes()); // seed
    p.extend_from_slice(&nlist.to_le_bytes());
    p.extend_from_slice(&dim.to_le_bytes());
    p.extend_from_slice(&n_items.to_le_bytes());
    for _ in 0..(nlist as usize * dim as usize) {
        p.extend_from_slice(&0.0f32.to_le_bytes());
    }
    for list in lists {
        p.extend_from_slice(&(list.len() as u32).to_le_bytes());
        for &id in *list {
            p.extend_from_slice(&id.to_le_bytes());
        }
    }
    p
}

fn load_bytes(tag: &str, bytes: &[u8], items: &Tensor) -> Result<IvfIndex, AnnError> {
    let dir = scratch(tag);
    let path = dir.join("h.wriv");
    std::fs::write(&path, bytes).unwrap();
    let out = IvfIndex::load(&path, items);
    std::fs::remove_dir_all(&dir).ok();
    out
}

#[test]
fn hostile_headers_are_typed_errors() {
    let items = Tensor::from_vec(vec![0.0; 2], &[2, 1]);

    // Baseline: a well-formed tiny file loads.
    let good = sealed(&tiny_payload(1, 1, 2, &[&[0, 1]]));
    load_bytes("good", &good, &items).unwrap();

    // nlist > n_items (also covers absurd nlist values: the check fires
    // before any centroid allocation).
    let huge = sealed(&tiny_payload(3, 1, 2, &[]));
    assert!(matches!(
        load_bytes("huge", &huge, &items).unwrap_err(),
        AnnError::Format(_)
    ));

    // Shape disagreement with the attached catalog.
    let wide = sealed(&tiny_payload(1, 4, 2, &[&[0, 1]]));
    assert!(matches!(
        load_bytes("wide", &wide, &items).unwrap_err(),
        AnnError::Mismatch(_)
    ));

    // List length beyond the catalog.
    let overlong = sealed(&tiny_payload(1, 1, 2, &[&[0, 1, 1]]));
    assert!(matches!(
        load_bytes("overlong", &overlong, &items).unwrap_err(),
        AnnError::Format(_)
    ));

    // Out-of-range id.
    let oob = sealed(&tiny_payload(1, 1, 2, &[&[0, 7]]));
    assert!(matches!(
        load_bytes("oob", &oob, &items).unwrap_err(),
        AnnError::Format(_)
    ));

    // Duplicate id.
    let dup = sealed(&tiny_payload(1, 1, 2, &[&[0, 0]]));
    assert!(matches!(
        load_bytes("dup", &dup, &items).unwrap_err(),
        AnnError::Format(_)
    ));

    // Lists that do not cover the catalog.
    let sparse = sealed(&tiny_payload(1, 1, 2, &[&[0]]));
    assert!(matches!(
        load_bytes("sparse", &sparse, &items).unwrap_err(),
        AnnError::Format(_)
    ));

    // Wrong magic and wrong version behind an honest seal (the CRC does
    // not cover the footer magic, so WRIV's can be pasted on).
    let mut wrong_magic = seal(b"NOPE", 1, &tiny_payload(1, 1, 2, &[&[0, 1]]));
    let footer_magic = wrong_magic.len() - 4;
    wrong_magic[footer_magic..].copy_from_slice(b"VIRW");
    assert!(matches!(
        load_bytes("magic", &wrong_magic, &items).unwrap_err(),
        AnnError::Format(_)
    ));
    let v9 = seal(b"WRIV", 9, &tiny_payload(1, 1, 2, &[&[0, 1]]));
    assert!(matches!(
        load_bytes("version", &v9, &items).unwrap_err(),
        AnnError::Format(_)
    ));

    // Trailing garbage after the last list.
    let mut trailing = tiny_payload(1, 1, 2, &[&[0, 1]]);
    trailing.extend_from_slice(&[0xAB; 3]);
    assert!(matches!(
        load_bytes("trailing", &sealed(&trailing), &items).unwrap_err(),
        AnnError::Format(_)
    ));
}
