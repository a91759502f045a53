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

/// A packed batch: random ids, lengths cycling through 1, mid, = seq and
/// > seq (which the forward clamps).
fn packed(batch: usize, seq: usize, rng: &mut Rng64) -> (Vec<usize>, Vec<usize>) {
    let ids: Vec<usize> = (0..batch * seq).map(|_| rng.below(N_ITEMS)).collect();
    let choices = [1, (seq / 2).max(1), seq, seq + 7];
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
                    for batch in [1usize, 3, 16, 65] {
                        let (ids, lengths) = packed(batch, seq, &mut rng);
                        let want = taped(&enc, &items, &ids, &lengths);
                        let got = frozen.encode(&ids, &lengths);
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
fn a_row_does_not_depend_on_its_batch_peers() {
    let mut rng = Rng64::seed_from(42);
    let items = Arc::new(Tensor::randn(&[N_ITEMS, DIM], &mut rng));
    let frozen = encoder(2, 2, 2, 6, 7).freeze(items).unwrap();
    let (ids, lengths) = packed(5, 6, &mut rng);
    let together = frozen.encode(&ids, &lengths);
    for b in 0..5 {
        let alone = frozen.encode(&ids[b * 6..(b + 1) * 6], &lengths[b..b + 1]);
        assert_eq!(
            bits(&alone),
            together
                .row(b)
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
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
