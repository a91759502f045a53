//! `FrozenEncoder` ≡ the taped `TransformerEncoder::forward_user`, bit for
//! bit, and the frozen type is a `Send + Sync` snapshot.
//!
//! `scripts/check.sh` runs this under the default pool and `WR_THREADS=1`;
//! the 65 × 50-row cases cross `wr_tensor`'s parallel-gemm threshold.

use std::sync::Arc;

use wr_autograd::Graph;
use wr_nn::{FrozenEncoder, Module, Session, TransformerConfig, TransformerEncoder};
use wr_tensor::{Rng64, Tensor};

const DIM: usize = 8;
const N_ITEMS: usize = 23;

fn encoder(
    heads: usize,
    blocks: usize,
    ff_mult: usize,
    max_seq: usize,
    seed: u64,
) -> TransformerEncoder {
    let config = TransformerConfig {
        dim: DIM,
        heads,
        blocks,
        ff_mult,
        max_seq,
        dropout: 0.3, // eval mode must ignore it
        bidirectional: false,
    };
    let enc = TransformerEncoder::new(config, &mut Rng64::seed_from(seed));
    // Fresh biases are zero and fresh LayerNorms are the identity affine;
    // perturb every parameter so each term of the forward is exercised.
    let mut rng = Rng64::seed_from(seed ^ 0xA5A5);
    for p in enc.params() {
        let noise = Tensor::randn(&p.dims(), &mut rng).scale(0.1);
        p.update(|t| t.add_assign_(&noise));
    }
    enc
}

/// The lengths the key ranges must get right: 1, mid, = seq, > seq
/// (which the forward clamps) and 0 (the empty history, read from the
/// last pad position).
fn length_choices(seq: usize) -> [usize; 5] {
    [1, (seq / 2).max(1), seq, seq + 7, 0]
}

/// A packed batch: random ids, lengths cycling through [`length_choices`].
fn packed(batch: usize, seq: usize, rng: &mut Rng64) -> (Vec<usize>, Vec<usize>) {
    let ids: Vec<usize> = (0..batch * seq).map(|_| rng.below(N_ITEMS)).collect();
    let choices = length_choices(seq);
    let lengths = (0..batch).map(|b| choices[b % choices.len()]).collect();
    (ids, lengths)
}

fn taped(enc: &TransformerEncoder, items: &Tensor, ids: &[usize], lengths: &[usize]) -> Tensor {
    let g = Graph::new();
    let mut sess = Session::eval(&g);
    let x = g.constant(items.gather_rows(ids));
    let seq = enc.config.max_seq;
    let users = enc.forward_user(&mut sess, x, lengths.len(), seq, lengths);
    g.value(users)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn frozen_forward_is_bit_identical_to_the_taped_forward() {
    let mut rng = Rng64::seed_from(41);
    let items = Arc::new(Tensor::randn(&[N_ITEMS, DIM], &mut rng));
    for seq in [1usize, 5, 50] {
        for heads in [1usize, 2, 4] {
            for blocks in [1usize, 2, 3] {
                for ff_mult in [1usize, 2] {
                    let enc = encoder(
                        heads,
                        blocks,
                        ff_mult,
                        seq,
                        (seq * 100 + heads * 10 + blocks) as u64,
                    );
                    let frozen = enc
                        .freeze(items.clone())
                        .expect("causal encoder with blocks");
                    let mut cases: Vec<(Vec<usize>, Vec<usize>)> = [1usize, 3, 16, 65]
                        .iter()
                        .map(|&batch| packed(batch, seq, &mut rng))
                        .collect();
                    if seq == 50 {
                        // The paper's regime at its extreme: one real
                        // position in fifty, for every row of the batch.
                        let (ids, _) = packed(16, seq, &mut rng);
                        cases.push((ids, vec![1; 16]));
                    }
                    for (ids, lengths) in &cases {
                        let batch = lengths.len();
                        let want = taped(&enc, &items, ids, lengths);
                        let got = frozen.encode(ids, lengths);
                        assert_eq!(got.dims(), want.dims());
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "batch {batch} seq {seq} heads {heads} blocks {blocks} ff_mult {ff_mult}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn every_length_alone_and_mixed_matches_the_taped_forward() {
    // The held slice of the ids and the positional offset are where an
    // off-by-one would hide: every length from the empty history to past
    // the clamp (and one far past it, 80 at `max_seq` 50), each alone and
    // all of them in one batch. At `max_seq` 50 they cross every edge of
    // the frozen attention's block kernel — the row kernel below 8 rows,
    // blocks of 16 ending at the last row (7 / 8 / 9, 15 / 16 / 17, 31 /
    // 32 / 33, 48 / 49 / 50) — against the taped forward's row kernel.
    let mut rng = Rng64::seed_from(46);
    let items = Arc::new(Tensor::randn(&[N_ITEMS, DIM], &mut rng));
    for seq in [1usize, 5, 50] {
        let enc = encoder(2, 2, 2, seq, 17 + seq as u64);
        let frozen = enc.freeze(items.clone()).unwrap();
        let lengths: Vec<usize> = (0..=seq + 2).chain([seq + 30]).collect();
        let ids: Vec<usize> = (0..lengths.len() * seq)
            .map(|_| rng.below(N_ITEMS))
            .collect();
        for (b, &len) in lengths.iter().enumerate() {
            let ids = &ids[b * seq..(b + 1) * seq];
            assert_eq!(
                bits(&frozen.encode(ids, &[len])),
                bits(&taped(&enc, &items, ids, &[len])),
                "seq {seq} len {len} alone"
            );
        }
        assert_eq!(
            bits(&frozen.encode(&ids, &lengths)),
            bits(&taped(&enc, &items, &ids, &lengths)),
            "seq {seq}, lengths 0..={} and {} in one batch",
            seq + 2,
            seq + 30
        );
    }
}

#[test]
fn positions_before_the_held_rows_are_never_read() {
    // Not only the bits: the ids before a history's last `held` are not
    // looked up at all. An id outside the catalogue there would panic in
    // the item-row lookup if any layer touched it; the output must be
    // that of the same batch with the pad id in their place.
    const PAD_ITEM: usize = 0; // wr_data::PAD_ITEM
    let mut rng = Rng64::seed_from(47);
    let items = Arc::new(Tensor::randn(&[N_ITEMS, DIM], &mut rng));
    for seq in [1usize, 5, 50] {
        let frozen = encoder(2, 2, 2, seq, 23 + seq as u64)
            .freeze(items.clone())
            .unwrap();
        let lengths: Vec<usize> = (0..=seq + 2).collect();
        let mut padded: Vec<usize> = (0..lengths.len() * seq)
            .map(|_| rng.below(N_ITEMS))
            .collect();
        let mut poisoned = padded.clone();
        for (b, &len) in lengths.iter().enumerate() {
            // `encode` reads the last `max(min(len, seq), 1)` positions.
            let unread = b * seq..(b + 1) * seq - len.min(seq).max(1);
            padded[unread.clone()].fill(PAD_ITEM);
            poisoned[unread].fill(usize::MAX);
        }
        assert_eq!(
            bits(&frozen.encode(&poisoned, &lengths)),
            bits(&frozen.encode(&padded, &lengths)),
            "seq {seq}"
        );
    }
}

/// Every ordering of `items`.
fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut all = Vec::new();
    for (i, &head) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, head);
            all.push(tail);
        }
    }
    all
}

#[test]
fn a_row_does_not_depend_on_its_batch_peers() {
    // Sequences share one scratch, one after the other: whatever lengths
    // surround a row, and in whatever order, its bits are those of the
    // row encoded alone.
    const SEQ: usize = 6;
    let mut rng = Rng64::seed_from(42);
    let items = Arc::new(Tensor::randn(&[N_ITEMS, DIM], &mut rng));
    let frozen = encoder(2, 2, 2, SEQ, 7).freeze(items).unwrap();
    for lengths in permutations(&length_choices(SEQ)) {
        let batch = lengths.len();
        let ids: Vec<usize> = (0..batch * SEQ).map(|_| rng.below(N_ITEMS)).collect();
        let together = frozen.encode(&ids, &lengths);
        for b in 0..batch {
            let alone = frozen.encode(&ids[b * SEQ..(b + 1) * SEQ], &lengths[b..b + 1]);
            assert_eq!(
                bits(&alone),
                together
                    .row(b)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "row {b} of lengths {lengths:?}"
            );
        }
    }
}

#[test]
fn a_repeated_history_takes_the_row_of_its_first_occurrence() {
    // A batch that holds one history several times (a hot user) encodes
    // it once. "The same history" is the ids the row is computed from —
    // the last `len` of them, whatever sits in the pad positions — so the
    // copies differ in their pad ids here, and in `len` where both clamp
    // to `max_seq` or both read the one pad position.
    const SEQ: usize = 6;
    let mut rng = Rng64::seed_from(45);
    let items = Arc::new(Tensor::randn(&[N_ITEMS, DIM], &mut rng));
    let enc = encoder(2, 2, 2, SEQ, 9);
    let frozen = enc.freeze(items.clone()).unwrap();
    let history: Vec<usize> = (0..SEQ).map(|_| rng.below(N_ITEMS)).collect();
    let other: Vec<usize> = (0..SEQ).map(|_| rng.below(N_ITEMS)).collect();
    let repack = |len: usize, rng: &mut Rng64| -> Vec<usize> {
        let mut ids: Vec<usize> = (0..SEQ).map(|_| rng.below(N_ITEMS)).collect();
        let real = len.clamp(1, SEQ);
        ids[SEQ - real..].copy_from_slice(&history[SEQ - real..]);
        ids
    };
    for lengths in [
        vec![3, 3, 3, 3],
        vec![SEQ, SEQ + 7, 2, SEQ],
        vec![0, 1, 4, 0],
        vec![1, 0, 0, 1],
    ] {
        let mut ids = Vec::new();
        for (b, &len) in lengths.iter().enumerate() {
            ids.extend(if b == 2 {
                other.clone()
            } else {
                repack(len, &mut rng)
            });
        }
        let got = frozen.encode(&ids, &lengths);
        assert_eq!(
            bits(&got),
            bits(&taped(&enc, &items, &ids, &lengths)),
            "lengths {lengths:?}"
        );
    }
}

#[test]
fn frozen_encoder_is_send_and_sync_and_shared_across_threads() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FrozenEncoder>();

    let mut rng = Rng64::seed_from(43);
    let items = Arc::new(Tensor::randn(&[N_ITEMS, DIM], &mut rng));
    let frozen = encoder(2, 2, 2, 9, 11).freeze(items).unwrap();
    let (ids, lengths) = packed(7, 9, &mut rng);
    let shared = &frozen;
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| shared.encode(&ids, &lengths));
        let b = scope.spawn(|| shared.encode(&ids, &lengths));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(bits(&a), bits(&b));
    assert_eq!(bits(&a), bits(&frozen.encode(&ids, &lengths)));
}

#[test]
fn freeze_is_a_snapshot_of_the_weights() {
    let mut rng = Rng64::seed_from(44);
    let items = Arc::new(Tensor::randn(&[N_ITEMS, DIM], &mut rng));
    let enc = encoder(2, 2, 2, 6, 13);
    let frozen = enc.freeze(items.clone()).unwrap();
    let (ids, lengths) = packed(4, 6, &mut rng);
    let before = frozen.encode(&ids, &lengths);
    for p in enc.params() {
        p.update(|t| t.scale_(-3.0));
    }
    assert_eq!(bits(&frozen.encode(&ids, &lengths)), bits(&before));
    assert_ne!(bits(&taped(&enc, &items, &ids, &lengths)), bits(&before));
}

#[test]
fn encoders_the_frozen_forward_does_not_cover_are_not_frozen() {
    let items = Arc::new(Tensor::zeros(&[N_ITEMS, DIM]));
    let mut bidirectional = encoder(2, 1, 2, 4, 1);
    bidirectional.config.bidirectional = true;
    assert!(bidirectional.freeze(items.clone()).is_none());
    assert!(encoder(2, 0, 2, 4, 1).freeze(items).is_none());
}

#[test]
fn a_non_finite_snapshot_is_not_frozen() {
    // Skipping masked keys equals masking them only on finite operands
    // (`0.0 · NaN` poisons the taped row, the frozen one never reads it),
    // so a model with one keeps the taped forward.
    let finite = Arc::new(Tensor::zeros(&[N_ITEMS, DIM]));
    assert!(encoder(2, 2, 2, 4, 1).freeze(finite.clone()).is_some());

    for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut items = Tensor::zeros(&[N_ITEMS, DIM]);
        items.row_mut(0)[3] = poison; // V[PAD_ITEM]
        assert!(encoder(2, 2, 2, 4, 1).freeze(Arc::new(items)).is_none());

        // Any one parameter: attention and feed-forward weights and
        // biases, LayerNorm affines, the positional table.
        let n_params = encoder(2, 2, 2, 4, 1).params().len();
        for p in 0..n_params {
            let enc = encoder(2, 2, 2, 4, 1);
            enc.params()[p].update(|t| t.data_mut()[0] = poison);
            assert!(enc.freeze(finite.clone()).is_none(), "parameter {p}");
        }
    }
}
