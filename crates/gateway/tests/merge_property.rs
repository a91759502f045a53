//! Property-style seeded sweep for `merge_top_k` under gateway usage.
//!
//! The gateway feeds the merge exactly one shape of input: per-shard
//! partials extracted from *disjoint* catalog windows, each partial the
//! window's top-k under the workspace's one total order (`total_cmp`
//! descending, ascending item index on ties), with NaN-quarantined rows
//! excluded from the candidates before extraction and with shards that
//! rejected or held nothing contributing empty partials. This sweep
//! generates hundreds of seeded scenarios in that shape — heavily
//! quantized scores so duplicate score values collide *across* shards,
//! `k` larger than per-shard candidate counts, windows emptied by
//! quarantine — and checks the merge against a full-sort reference over
//! the union of offered candidates, item ids and score bits both.

mod common;

use std::sync::Arc;

use wr_fault::{FaultPlan, FaultRates};
use wr_gateway::ShardPlan;
use wr_serve::{
    merge_top_k, CatalogShard, MicroBatcher, QueryLog, ScoredItem, ServeConfig, ShardCall,
};
use wr_tensor::Rng64;
use wr_train::SeqRecModel;

/// The reference: sort every offered candidate under the shared policy,
/// truncate to `k`. Deliberately shares no code with the bounded-heap
/// merge.
fn full_sort_reference(pool: &[ScoredItem], k: usize) -> Vec<ScoredItem> {
    let mut sorted = pool.to_vec();
    sorted.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.item.cmp(&b.item)));
    sorted.truncate(k);
    sorted
}

fn assert_merge_matches(merged: &[ScoredItem], want: &[ScoredItem], what: &str) {
    assert_eq!(merged.len(), want.len(), "{what}: length");
    for (i, (m, w)) in merged.iter().zip(want).enumerate() {
        assert_eq!(m.item, w.item, "{what}: item at rank {i}");
        assert_eq!(
            m.score.to_bits(),
            w.score.to_bits(),
            "{what}: score bits at rank {i}"
        );
    }
}

#[test]
fn seeded_sweep_matches_full_sort_reference() {
    let mut rng = Rng64::seed_from(0xC0FFEE);
    for trial in 0..300 {
        let n_items = 5 + rng.below(120);
        let n_shards = 1 + rng.below(8.min(n_items));
        let plan = ShardPlan::partitioned(n_items, n_shards).unwrap();
        // k regularly exceeds per-shard candidate counts, and sometimes
        // the whole catalog.
        let k = 1 + rng.below(n_items + 5);

        // Quantized scores: ~8 distinct values over up to 124 items, so
        // the same score appears in many windows and the ascending-index
        // tie policy does real work across shard boundaries. NaN rows
        // model score-poisoned items the shards quarantine away.
        let scores: Vec<f32> = (0..n_items)
            .map(|_| (rng.below(8) as f32 - 4.0) * 0.25)
            .collect();
        let quarantined: Vec<bool> = (0..n_items).map(|_| rng.below(10) == 0).collect();
        // A shard that rejected the fan-out call contributes nothing.
        let dropped: Vec<bool> = (0..n_shards).map(|_| rng.below(12) == 0).collect();

        let mut partials: Vec<Vec<ScoredItem>> = Vec::with_capacity(n_shards);
        let mut pool: Vec<ScoredItem> = Vec::new();
        for (s, range) in plan.ranges().iter().enumerate() {
            if dropped[s] {
                partials.push(Vec::new());
                continue;
            }
            let candidates: Vec<ScoredItem> = range
                .clone()
                .filter(|&i| !quarantined[i])
                .map(|i| ScoredItem {
                    item: i,
                    // Quarantine decided, the *offered* score must be the
                    // finite one; a NaN candidate would be a shard bug.
                    score: scores[i],
                })
                .collect();
            // What a CatalogShard sends upward: its window's top-k.
            let mut partial = full_sort_reference(&candidates, k);
            // Shuffle-resistance is not required (partials arrive sorted
            // from the shards), but merge_top_k documents order-free
            // input; occasionally reverse to exercise that.
            if rng.below(4) == 0 {
                partial.reverse();
            }
            pool.extend(&candidates);
            partials.push(partial);
        }

        let merged = merge_top_k(k, &partials);
        let want = full_sort_reference(&pool, k);
        assert_merge_matches(
            &merged,
            &want,
            &format!("trial {trial}: n_items={n_items} n_shards={n_shards} k={k}"),
        );
    }
}

/// Every shard holds the same score value: the merged list must be the
/// first `k` item ids in ascending order — pure tie-policy, across
/// windows.
#[test]
fn all_ties_resolve_by_ascending_item_index_across_shards() {
    let plan = ShardPlan::partitioned(30, 4).unwrap();
    let partials: Vec<Vec<ScoredItem>> = plan
        .ranges()
        .iter()
        .map(|r| {
            r.clone()
                .map(|i| ScoredItem { item: i, score: 1.5 })
                .collect()
        })
        .collect();
    let merged = merge_top_k(7, &partials);
    let items: Vec<usize> = merged.iter().map(|s| s.item).collect();
    assert_eq!(items, vec![0, 1, 2, 3, 4, 5, 6]);
    assert!(merged.iter().all(|s| s.score == 1.5));
}

/// k greater than everything on offer: the merge returns every candidate,
/// still globally sorted; empty shards contribute nothing and break
/// nothing.
#[test]
fn k_beyond_all_candidates_returns_the_sorted_union() {
    let partials = vec![
        vec![
            ScoredItem { item: 2, score: 0.5 },
            ScoredItem { item: 0, score: 0.25 },
        ],
        Vec::new(), // rejected / fully-quarantined shard
        vec![ScoredItem { item: 7, score: 0.5 }],
    ];
    let merged = merge_top_k(50, &partials);
    let want = vec![
        ScoredItem { item: 2, score: 0.5 },
        ScoredItem { item: 7, score: 0.5 },
        ScoredItem { item: 0, score: 0.25 },
    ];
    assert_merge_matches(&merged, &want, "k beyond candidates");
    assert!(merge_top_k(50, &[Vec::new(), Vec::new()]).is_empty());
    assert!(merge_top_k(0, &partials).is_empty());
}

// ---------------------------------------------------------------------
// Replica substitution: the merge input the replica-aware gateway really
// produces. A partial may come from *any* replica of a set (failover,
// hedging), so the property the whole failover design leans on is:
// swapping any shard's partial for one produced by a replica of that
// shard changes no bit of the merge. Checked with real `CatalogShard`
// engines — including a primary whose window has NaN-quarantined rows —
// not hand-built partials.
// ---------------------------------------------------------------------

const RS_ITEMS: usize = 96;
const RS_MAX_SEQ: usize = 10;
const RS_SHARDS: usize = 3;
const RS_K: usize = 10;
/// The shard whose cache gets NaN-poisoned rows (quarantine case).
const RS_VICTIM: usize = 1;

fn rs_model() -> Box<dyn SeqRecModel> {
    let config = common::model_config(1, RS_MAX_SEQ);
    common::whitenrec_model_of("whitenrec-merge-prop", RS_ITEMS, 20, config, 23, 23)
}

fn rs_serve_cfg() -> ServeConfig {
    common::serve_cfg(RS_K, 16, RS_MAX_SEQ)
}

/// Primaries for every window (the victim rearmed so its window holds
/// quarantined rows) plus one replica of each, and the per-request
/// partials both tiers produced for a zipf trace.
fn replica_partials() -> (Vec<CatalogShard>, Vec<CatalogShard>, Vec<Vec<Vec<ScoredItem>>>, Vec<Vec<Vec<ScoredItem>>>)
{
    let model = rs_model();
    let items = model.item_representations();
    let cfg = rs_serve_cfg();
    let plan = ShardPlan::partitioned(RS_ITEMS, RS_SHARDS).unwrap();
    let mut primaries: Vec<CatalogShard> = plan
        .ranges()
        .iter()
        .map(|r| CatalogShard::from_window(&items, r.clone(), &cfg))
        .collect();
    // NaN-poison some of the victim's cache rows so its partials are
    // computed over a quarantined window — the case where a replica
    // *must* agree anyway (it shares the quarantine set).
    primaries[RS_VICTIM].rearm(
        &items,
        Arc::new(FaultPlan::with_rates(
            41,
            FaultRates { io_error: 0.0, corrupt: 0.0, poison: 0.3, panic: 0.0 },
        )),
    );
    assert!(
        !primaries[RS_VICTIM].quarantined_items().is_empty(),
        "poison rate 0.3 over a {}-row window must quarantine something",
        primaries[RS_VICTIM].n_items()
    );
    let replicas: Vec<CatalogShard> = primaries.iter().map(|p| p.replica()).collect();

    let log = QueryLog::synthetic_zipf(96, 1_500, RS_ITEMS, RS_MAX_SEQ + 3, 1.1, 131).unwrap();
    let mut by_primary: Vec<Vec<Vec<ScoredItem>>> = Vec::with_capacity(log.len());
    let mut by_replica: Vec<Vec<Vec<ScoredItem>>> = Vec::with_capacity(log.len());
    let mut start = 0;
    while start < log.len() {
        let end = (start + cfg.max_batch).min(log.len());
        let slice = &log.queries[start..end];
        let contexts: Vec<&[usize]> = slice
            .iter()
            .map(|r| MicroBatcher::sanitize(&r.history))
            .collect();
        let users = model.user_representations(&contexts);
        let call = ShardCall {
            slice,
            users: &users,
            ctx: wr_obs::TraceContext::UNTRACED,
        };
        let prim: Vec<Vec<wr_serve::Response>> =
            primaries.iter().map(|s| s.serve_window(&call).unwrap()).collect();
        let repl: Vec<Vec<wr_serve::Response>> =
            replicas.iter().map(|s| s.serve_window(&call).unwrap()).collect();
        for r in 0..slice.len() {
            by_primary.push(prim.iter().map(|p| p[r].items.clone()).collect());
            by_replica.push(repl.iter().map(|p| p[r].items.clone()).collect());
        }
        start = end;
    }
    (primaries, replicas, by_primary, by_replica)
}

/// Swapping any single shard's partial — or all of them — for the one
/// its replica produced changes no bit of the merged answer, including
/// for the shard whose window carries quarantined rows.
#[test]
fn replica_partials_substitute_for_their_primaries_bit_for_bit() {
    let (primaries, replicas, by_primary, by_replica) = replica_partials();
    for (p, r) in primaries.iter().zip(&replicas) {
        assert!(
            r.cache().shares_storage_with(p.cache()),
            "a replica is a handle clone, never a copy"
        );
        assert_eq!(
            r.quarantined_items(),
            p.quarantined_items(),
            "replicas share the primary's quarantine set"
        );
    }
    for (q, (prim, repl)) in by_primary.iter().zip(&by_replica).enumerate() {
        let baseline = merge_top_k(RS_K, prim);
        for s in 0..RS_SHARDS {
            let mut substituted = prim.clone();
            substituted[s] = repl[s].clone();
            let merged = merge_top_k(RS_K, &substituted);
            assert_merge_matches(
                &merged,
                &baseline,
                &format!("query {q}: replica substituted for primary {s}"),
            );
        }
        let all_replicas = merge_top_k(RS_K, repl);
        assert_merge_matches(&all_replicas, &baseline, &format!("query {q}: all replicas"));
    }
}

/// A set whose every replica died contributes an *empty* partial. The
/// merge must treat that exactly like the set not being consulted at
/// all: identical bits to merging with the entry removed, and no item
/// from the dead window can appear.
#[test]
fn a_dropped_replica_set_is_an_empty_partial_not_a_skew() {
    let (primaries, _replicas, by_primary, _by_replica) = replica_partials();
    for (q, prim) in by_primary.iter().enumerate() {
        for s in 0..RS_SHARDS {
            let mut dropped = prim.clone();
            dropped[s] = Vec::new();
            let with_empty = merge_top_k(RS_K, &dropped);
            let mut removed = prim.clone();
            removed.remove(s);
            let without_entry = merge_top_k(RS_K, &removed);
            assert_merge_matches(
                &with_empty,
                &without_entry,
                &format!("query {q}: set {s} dropped"),
            );
            let window = primaries[s].item_range();
            assert!(
                with_empty.iter().all(|item| !window.contains(&item.item)),
                "query {q}: a dead window {window:?} cannot contribute items"
            );
        }
    }
}

/// -0.0 and 0.0 are distinct under `total_cmp` (+0.0 ranks above -0.0);
/// the merge must keep that order and preserve the exact bit patterns —
/// the property the gateway's bit-identity gate leans on.
#[test]
fn signed_zero_ordering_and_bits_survive_the_merge() {
    let partials = vec![
        vec![ScoredItem { item: 3, score: -0.0 }],
        vec![ScoredItem { item: 9, score: 0.0 }],
    ];
    let merged = merge_top_k(2, &partials);
    assert_eq!(merged[0].item, 9);
    assert_eq!(merged[0].score.to_bits(), 0.0f32.to_bits());
    assert_eq!(merged[1].item, 3);
    assert_eq!(merged[1].score.to_bits(), (-0.0f32).to_bits());
}
