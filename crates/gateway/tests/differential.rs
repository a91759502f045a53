//! Differential tests for the sharded gateway: a healthy partitioned
//! gateway must be **bit-identical** to a single `ServeEngine` over the
//! same model and trace — same items, same score bit patterns, same tie
//! order, same `top1_checksum` — for every shard count, thread count, and
//! scorer (dense exact, or IVF at full probe).
//!
//! The catalog size (157, prime) is chosen so *every* multi-shard
//! partition is uneven: the balanced split hands the first `157 % n`
//! shards one extra row, which is exactly the remapping corner the window
//! arithmetic has to get right.
//!
//! The model under test is the paper's configuration (whitened text table
//! → projection tower → SASRec, Softmax loss) and the trace is the Zipf
//! user-skewed generator, so hot users replay identical sessions through
//! different micro-batches along the way.

mod common;

use common::{digest_of, zipf_trace, MAX_SEQ, N_ITEMS};
use wr_gateway::{Gateway, GatewayConfig, GatewayError, GatewayResponse};
use wr_serve::{top1_digest, Request, ServeConfig, ServeEngine};
use wr_train::SeqRecModel;

const NLIST: usize = 4;
const ANN_SEED: u64 = 51;

fn whitenrec_model(seed: u64) -> Box<dyn SeqRecModel> {
    common::whitenrec_model("whitenrec-gw-diff", seed)
}

fn serve_cfg() -> ServeConfig {
    common::serve_cfg(10, 32, MAX_SEQ)
}

fn gateway(n_shards: usize, ivf: bool) -> Gateway {
    let gw = Gateway::partitioned(
        whitenrec_model(19),
        n_shards,
        GatewayConfig {
            serve: serve_cfg(),
            ..GatewayConfig::default()
        },
    )
    .unwrap();
    if ivf {
        // nprobe = nlist: every inverted list of every shard is scanned,
        // which is provably (and in wr-serve, differentially) equivalent
        // to the window's dense scan.
        gw.with_ann(NLIST, NLIST, ANN_SEED).unwrap()
    } else {
        gw
    }
}

fn assert_bit_identical(got: &[GatewayResponse], want: &[wr_serve::Response], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: response count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.id, w.id, "{what}: id at {i}");
        assert!(!g.degraded, "{what}: healthy run flagged degraded at {i}");
        assert_eq!(g.items.len(), w.items.len(), "{what}: k at {i}");
        for (sg, sw) in g.items.iter().zip(&w.items) {
            assert_eq!(sg.item, sw.item, "{what}: item in response {i}");
            assert_eq!(
                sg.score.to_bits(),
                sw.score.to_bits(),
                "{what}: score bits in response {i}"
            );
        }
    }
}

#[test]
fn sharded_is_bit_identical_to_single_engine_across_shards_threads_scorers() {
    let log = zipf_trace(2048);
    let engine = ServeEngine::new(whitenrec_model(19), serve_cfg());
    wr_runtime::set_threads(1);
    let baseline = engine.serve(&log.queries);
    let baseline_digest =
        top1_digest(baseline.iter().map(|r| (r.id, r.items.first().map(|s| s.item))));

    for n_shards in [1usize, 2, 3, 8] {
        for ivf in [false, true] {
            let gw = gateway(n_shards, ivf);
            for threads in [1usize, 8] {
                wr_runtime::set_threads(threads);
                let got = gw.serve(&log.queries);
                let what = format!(
                    "shards={n_shards} ivf={ivf} threads={threads}"
                );
                assert_bit_identical(&got, &baseline, &what);
                assert_eq!(digest_of(&got), baseline_digest, "{what}: top1_checksum");
            }
            wr_runtime::set_threads(1);
        }
    }
}

/// The replay harness reports the same checksum as the single-engine
/// replay harness — the property `scripts/check.sh` asserts across two
/// separate binaries by comparing hex strings.
#[test]
fn replay_reports_share_the_top1_checksum_formula() {
    let log = zipf_trace(300);
    let engine = ServeEngine::new(whitenrec_model(19), serve_cfg());
    let (_, engine_report) = wr_serve::replay(&engine, &log, &wr_obs::Telemetry::new());
    for n_shards in [2usize, 8] {
        let tel = wr_obs::Telemetry::new();
        let (responses, report) = wr_serve::replay(&gateway(n_shards, false), &log, &tel);
        assert_eq!(report.top1_checksum, engine_report.top1_checksum);
        assert_eq!(report.n_degraded, 0);
        assert_eq!(digest_of(&responses), report.top1_checksum);
    }
}

/// The prime catalog makes every multi-shard plan uneven — pin that the
/// test above actually exercised uneven windows, and that the remapping
/// survives the most lopsided legal plan (one row on the last shards).
#[test]
fn uneven_partitions_are_real_and_still_exact() {
    for n_shards in [2usize, 3, 8] {
        let gw = gateway(n_shards, false);
        let widths: Vec<usize> = gw.plan().ranges().iter().map(|r| r.len()).collect();
        let (min, max) = (
            *widths.iter().min().unwrap(),
            *widths.iter().max().unwrap(),
        );
        assert_eq!(
            max - min,
            1,
            "157 is prime: every {n_shards}-way split must be uneven, got {widths:?}"
        );
    }
    // Maximal skew: 157 shards of exactly one item each. Every response
    // is then a pure merge_top_k product — no shard contributes more than
    // one candidate.
    let log = zipf_trace(64);
    let engine = ServeEngine::new(whitenrec_model(19), serve_cfg());
    let baseline = engine.serve(&log.queries);
    let got = gateway(N_ITEMS, false).serve(&log.queries);
    assert_bit_identical(&got, &baseline, "one-item shards");
}

/// Construction-time shape errors are typed, not panics.
#[test]
fn degenerate_gateways_are_typed_errors() {
    let cfg = GatewayConfig {
        serve: serve_cfg(),
        ..GatewayConfig::default()
    };
    assert!(matches!(
        Gateway::partitioned(whitenrec_model(19), 0, cfg).err(),
        Some(GatewayError::NoShards)
    ));
    assert!(matches!(
        Gateway::partitioned(whitenrec_model(19), N_ITEMS + 1, cfg).err(),
        Some(GatewayError::EmptyShard { n_items: N_ITEMS, n_shards }) if n_shards == N_ITEMS + 1
    ));
}

/// Instrumented gateways answer bit-for-bit like bare ones while the
/// `gateway.*` counters see the traffic (write-only telemetry, the same
/// contract the engine suite pins for `serve.*`).
#[test]
fn gateway_telemetry_is_write_only_and_nonzero() {
    let log = zipf_trace(96);
    let plain = gateway(3, false).serve(&log.queries);
    let tel = wr_obs::Telemetry::new();
    let observed = gateway(3, false).with_telemetry(tel.clone());
    let got = observed.serve(&log.queries);
    assert_eq!(plain, got, "telemetry must not change gateway answers");

    let snap = tel.registry.snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("counter {name} must exist in the registry"))
    };
    assert_eq!(counter("gateway.requests"), 96);
    assert_eq!(counter("gateway.batches"), 3); // ceil(96 / 32)
    assert_eq!(counter("gateway.fanout_calls"), 9); // 3 batches × 3 shards
    assert_eq!(counter("gateway.degraded_responses"), 0);
    // Per-shard spans were emitted alongside the per-batch spans.
    let events = tel.tracer.events();
    assert_eq!(events.iter().filter(|e| e.cat == "gateway").count(), 3);
    assert_eq!(events.iter().filter(|e| e.cat == "gateway.shard").count(), 9);
}

/// `GatewayConfig::shard_max_rows` and `GatewayConfig::replicas` configure
/// nothing: a gateway that names a one-row bound and three replicas still
/// hands each window's one shard the whole 32-row micro-batch, and replays
/// the trace like the engine, bit for bit, with nothing degraded.
#[test]
fn shard_max_rows_is_inert() {
    let log = zipf_trace(96);
    let baseline = ServeEngine::new(whitenrec_model(19), serve_cfg()).serve(&log.queries);
    let gw = Gateway::partitioned(
        whitenrec_model(19),
        3,
        GatewayConfig {
            serve: serve_cfg(),
            shard_max_rows: 1,
            replicas: 3,
        },
    )
    .unwrap();
    let (got, report) = wr_serve::replay(&gw, &log, &wr_obs::Telemetry::new());
    assert_eq!(gw.shards().len(), 3, "one shard per window");
    assert_bit_identical(&got, &baseline, "shard_max_rows = 1, replicas = 3");
    assert_eq!(report.n_degraded, 0);
}

/// A gateway query with an all-seen window still answers exactly: the
/// shard returns an empty partial (nothing unseen in its window) and the
/// merge takes everything from the other shards — without flagging
/// degradation, because the window provably had nothing to offer.
#[test]
fn fully_seen_window_is_not_degraded() {
    let gw = gateway(N_ITEMS, false); // one item per shard
    let history: Vec<usize> = (0..MAX_SEQ + 2).map(|i| i % 5).collect(); // covers shards 0..5
    let responses = gw.serve(&[Request { id: 7, history }]);
    assert_eq!(responses.len(), 1);
    assert!(!responses[0].degraded);
    assert_eq!(responses[0].items.len(), 10);
}
