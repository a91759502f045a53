//! A request whose history names an item outside the catalogue is
//! rejected at the shared encode seam: on every front end it is answered
//! alone with an empty list (`degraded` on the gateway) and its batch
//! peers get exactly the answers of the same batch without it.
//!
//! Before the seam existed the gateway encoded outside both containment
//! loops, so one such id unwound out of the whole `Gateway::serve` call.

mod common;

use wr_gateway::{Gateway, GatewayConfig};
use wr_models::{Gru4Rec, ModelConfig};
use wr_serve::{Request, ScoredItem, ServeConfig, ServeEngine};
use wr_tensor::Rng64;
use wr_train::SeqRecModel;

const N_ITEMS: usize = 45;
const K: usize = 10;

fn config() -> ModelConfig {
    common::model_config(2, 8)
}

/// `frozen`: the SASRec chassis (served from the frozen encoder);
/// otherwise GRU4Rec (no frozen form — the taped arm of the same seam).
fn model(frozen: bool) -> Box<dyn SeqRecModel> {
    if frozen {
        common::id_model("sasrec", N_ITEMS, config(), 23)
    } else {
        Box::new(Gru4Rec::new(N_ITEMS, config(), &mut Rng64::seed_from(23)))
    }
}

fn serve_cfg() -> ServeConfig {
    common::serve_cfg(K, 4, config().max_seq)
}

fn gateway(frozen: bool, shards: usize) -> Gateway {
    let cfg = GatewayConfig {
        serve: serve_cfg(),
        ..GatewayConfig::default()
    };
    Gateway::partitioned(model(frozen), shards, cfg).unwrap()
}

fn request(id: u64, history: &[usize]) -> Request {
    Request {
        id,
        history: history.to_vec(),
    }
}

fn bits(items: &[ScoredItem]) -> Vec<(usize, u32)> {
    items.iter().map(|s| (s.item, s.score.to_bits())).collect()
}

#[test]
fn an_out_of_catalogue_id_fails_alone_on_every_front_end() {
    for bad in [vec![N_ITEMS + 7], vec![3, N_ITEMS, 5], vec![usize::MAX]] {
        let with_bad = [
            request(0, &[1, 2, 3]),
            request(1, &bad),
            request(2, &[9, 4]),
        ];
        let without = [with_bad[0].clone(), with_bad[2].clone()];
        for frozen in [true, false] {
            let what = format!("history {bad:?}, frozen {frozen}");

            let engine = ServeEngine::new(model(frozen), serve_cfg());
            let got = engine.serve(&with_bad);
            let clean = engine.serve(&without);
            assert_eq!(got.len(), 3, "{what}");
            assert!(
                got[1].items.is_empty(),
                "{what}: engine answered the invalid request"
            );
            assert_eq!(got[1].id, 1);
            for (g, c) in [(&got[0], &clean[0]), (&got[2], &clean[1])] {
                assert_eq!(g.id, c.id);
                assert_eq!(g.items.len(), K, "{what}");
                assert_eq!(bits(&g.items), bits(&c.items), "{what}: engine peers moved");
            }

            for shards in [1usize, 3] {
                let what = format!("{what}, {shards} shard(s)");
                let gw = gateway(frozen, shards);
                let got = gw.serve(&with_bad);
                assert_eq!(got.len(), 3, "{what}");
                assert!(
                    got[1].items.is_empty() && got[1].degraded,
                    "{what}: {:?}",
                    got[1]
                );
                // Peers: healthy, and the engine's bits (the differential
                // suite's sharded ≡ single-engine contract).
                for (g, c) in [(&got[0], &clean[0]), (&got[2], &clean[1])] {
                    assert_eq!(g.id, c.id);
                    assert!(!g.degraded, "{what}: a peer degraded");
                    assert_eq!(
                        bits(&g.items),
                        bits(&c.items),
                        "{what}: gateway peers moved"
                    );
                }
            }
        }
    }
}
