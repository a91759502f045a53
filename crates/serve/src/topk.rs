//! Batch-parallel top-k extraction over a score matrix.
//!
//! Each row is one [`wr_eval::TopK::scan`]. Pass 1 records the largest
//! order-preserving integer key of every 32-score block in one branch-free
//! pass (at AVX2 width where the CPU has it). The `(k + s)`-th largest
//! block maximum of a 2 048-score segment, `s` being the seen ids inside
//! it, is a bound below which no score can be kept, so pass 2 revisits the
//! blocks whose maximum reaches both it and the worst kept key (the
//! *floor*): on `catalog_heavy`'s 1 225-score shard rows at `k = 10`,
//! ≈ 12 candidates a row enter the heap where the floor alone let ≈ 58
//! in. A candidate is looked up in the request's seen
//! list only then, in the list as the request carries it; nothing is
//! built per row. The order is `total_cmp` descending with the ascending
//! item index on ties, so the result is *exactly* — bit-for-bit — what a
//! full sort of the row would put first; the tests pin that against a
//! sort that shares no code with the selector.

pub use wr_eval::merge_top_k;
use wr_eval::{ScoredItem, TopK};
use wr_tensor::Tensor;

/// Minimum rows per dispatched chunk: a top-k scan over a full catalog is
/// thousands of comparisons, so even single rows are worth a task, but
/// tiny batches should not fan out one row at a time.
const ROW_GRAIN: usize = 2;

/// One row's answer: its top-k, and the smallest and largest
/// [`wr_eval::order_key`] among the row's scores (what `TopK::scan`
/// returns) for a caller that must know whether the row held a NaN or an
/// infinity.
pub(crate) type RowScan = (Vec<ScoredItem>, (i32, i32));

/// Top-`k` per row of `scores: [batch, n_items]`, excluding each row's
/// `seen` items, parallelized over the batch on the `wr-runtime` pool.
///
/// Each row is extracted by exactly one pool task into its own output
/// slot (`parallel_chunks_mut` over the result vector, chunk boundaries
/// independent of thread count), and the selector is deterministic
/// (`total_cmp`, index tie-break) — so the output is bit-identical for
/// any `WR_THREADS`, and with `item_base = 0` bit-identical to
/// [`wr_eval::top_k_filtered`] row by row.
///
/// `scores` holds columns `[item_base, item_base + n_items)` of the
/// global catalog (the whole catalog at `item_base = 0`), `seen` lists
/// **global** item ids, one entry per batch row (entries outside the
/// window match no candidate — they belong to some other shard), and the
/// returned items are global ids: column `c` is offered as item
/// `item_base + c`. The shift is monotone in the column index, so it
/// preserves the tie order, and per-shard results from disjoint windows
/// merge into the full-catalog answer bit-for-bit (see [`merge_top_k`]).
pub fn batch_top_k_shifted(
    scores: &Tensor,
    k: usize,
    seen: &[&[usize]],
    item_base: usize,
) -> Vec<Vec<ScoredItem>> {
    batch_scan(scores, k, seen, item_base)
        .into_iter()
        .map(|(items, _)| items)
        .collect()
}

/// [`batch_top_k_shifted`] with each row's score-key extremes kept.
pub(crate) fn batch_scan(
    scores: &Tensor,
    k: usize,
    seen: &[&[usize]],
    item_base: usize,
) -> Vec<RowScan> {
    assert!(scores.rank() == 2, "batch_top_k_shifted expects [batch, n_items]");
    assert_eq!(
        scores.rows(),
        seen.len(),
        "one seen-list per batch row required"
    );
    let rows = scores.rows();
    let k = k.min(scores.cols());
    let mut out: Vec<RowScan> = vec![(Vec::new(), (i32::MAX, i32::MIN)); rows];
    let chunk = wr_runtime::chunk_len(rows, ROW_GRAIN);
    wr_runtime::parallel_chunks_mut(&mut out, chunk, |ci, slot_chunk| {
        let base = ci * chunk;
        for (off, slot) in slot_chunk.iter_mut().enumerate() {
            let row = base + off;
            // `row < rows == seen.len()` because the chunks partition
            // `out`; the checked lookup keeps the pool closure panic-free.
            let row_seen: &[usize] = seen.get(row).copied().unwrap_or(&[]);
            let mut acc = TopK::new(k);
            let keys = acc.scan(item_base, scores.row(row), row_seen);
            *slot = (acc.into_sorted(), keys);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_eval::top_k_filtered;
    use wr_tensor::Rng64;

    #[test]
    fn matches_per_row_scorer() {
        let mut rng = Rng64::seed_from(5);
        let scores = Tensor::randn(&[17, 120], &mut rng);
        let seen_store: Vec<Vec<usize>> = (0..17)
            .map(|_| (0..rng.below(6)).map(|_| rng.below(120)).collect())
            .collect();
        let seen: Vec<&[usize]> = seen_store.iter().map(|s| s.as_slice()).collect();
        let batched = batch_top_k_shifted(&scores, 10, &seen, 0);
        for r in 0..17 {
            let solo = top_k_filtered(scores.row(r), 10, seen[r]);
            assert_eq!(batched[r], solo, "row {r}");
        }
    }

    #[test]
    fn wide_rows_with_ties_match_the_per_row_scorer() {
        // Rows hundreds of blocks wide, quantized scores so ties straddle
        // every block boundary.
        let mut rng = Rng64::seed_from(9);
        let cols = 4096 * 2 + 513;
        let data: Vec<f32> = (0..3 * cols).map(|_| (rng.below(7) as f32) * 0.5).collect();
        let scores = Tensor::from_vec(data, &[3, cols]);
        let seen_store: Vec<Vec<usize>> = (0..3)
            .map(|_| (0..10).map(|_| rng.below(cols)).collect())
            .collect();
        let seen: Vec<&[usize]> = seen_store.iter().map(|s| s.as_slice()).collect();
        let batched = batch_top_k_shifted(&scores, 25, &seen, 0);
        for r in 0..3 {
            let solo = top_k_filtered(scores.row(r), 25, seen[r]);
            assert_eq!(batched[r].len(), solo.len(), "row {r}");
            for (a, b) in batched[r].iter().zip(&solo) {
                assert_eq!(a.item, b.item, "row {r}");
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "row {r}");
            }
        }
    }

    /// The shape `serve_naive` uses — every unseen column, fully sorted by
    /// (`total_cmp` descending, index ascending), truncated — sharing no
    /// code with `TopK`.
    fn full_sort_reference(
        row: &[f32],
        k: usize,
        seen: &[usize],
        item_base: usize,
    ) -> Vec<ScoredItem> {
        let mut unseen = vec![true; row.len()];
        for c in seen.iter().filter_map(|s| s.checked_sub(item_base)) {
            if c < row.len() {
                unseen[c] = false;
            }
        }
        let mut cols: Vec<usize> = (0..row.len()).filter(|&c| unseen[c]).collect();
        cols.sort_by(|&a, &b| row[b].total_cmp(&row[a]).then(a.cmp(&b)));
        cols.truncate(k);
        cols.into_iter()
            .map(|c| ScoredItem { item: item_base + c, score: row[c] })
            .collect()
    }

    #[test]
    fn selector_matches_a_full_sort_on_every_float_class_and_edge() {
        let neg_nan = f32::from_bits(0xFFC0_0001);
        let specials = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            neg_nan,
            f32::MAX,
            f32::MIN,
            1e-40,
            -1e-40,
        ];
        let mut rng = Rng64::seed_from(77);
        let mut checked = 0usize;
        for n in [0usize, 1, 15, 16, 17, 1225, 4097] {
            for item_base in [0usize, 57] {
                // One row per kind: gaussian, every float class mixed in,
                // all-equal, and quantised (ties across block boundaries).
                let mut special_or_normal = |_| match rng.below(3) {
                    0 => specials[rng.below(specials.len())],
                    _ => rng.normal(),
                };
                let mixed: Vec<f32> = (0..n).map(&mut special_or_normal).collect();
                let rows: [Vec<f32>; 4] = [
                    (0..n).map(|_| rng.normal()).collect(),
                    mixed,
                    vec![0.25; n],
                    (0..n).map(|_| (rng.below(5) as f32 - 2.0) * 0.5).collect(),
                ];
                let data: Vec<f32> = rows.iter().flatten().copied().collect();
                let scores = Tensor::from_vec(data, &[rows.len(), n]);
                let everything: Vec<usize> = (item_base..item_base + n).collect();
                let elsewhere: Vec<usize> =
                    (0..item_base.min(8)).chain(item_base + n..item_base + n + 8).collect();
                let duplicated: Vec<usize> = (0..12)
                    .map(|i| item_base + (i % 4) * (n / 5))
                    .chain([item_base + n / 2; 3])
                    .collect();
                for seen_one in [&[][..], &everything, &elsewhere, &duplicated] {
                    let seen = vec![seen_one; rows.len()];
                    for k in [0, 1, n.saturating_sub(1), n, n + 5] {
                        let got = batch_top_k_shifted(&scores, k, &seen, item_base);
                        for (r, row) in rows.iter().enumerate() {
                            let want = full_sort_reference(row, k, seen_one, item_base);
                            assert_eq!(got[r].len(), want.len(), "n {n} k {k} row {r}");
                            for (g, w) in got[r].iter().zip(&want) {
                                let at = format!("n {n} k {k} row {r} base {item_base}");
                                assert_eq!(g.item, w.item, "{at}");
                                assert_eq!(g.score.to_bits(), w.score.to_bits(), "{at}");
                            }
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(checked, 7 * 2 * 4 * 5 * 4);
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let mut rng = Rng64::seed_from(6);
        // Quantized scores force exact ties across rows.
        let data: Vec<f32> = (0..64 * 200).map(|_| (rng.below(9) as f32) * 0.25).collect();
        let scores = Tensor::from_vec(data, &[64, 200]);
        let seen_store: Vec<Vec<usize>> = (0..64)
            .map(|_| (0..rng.below(4)).map(|_| rng.below(200)).collect())
            .collect();
        let seen: Vec<&[usize]> = seen_store.iter().map(|s| s.as_slice()).collect();
        wr_runtime::set_threads(1);
        let serial = batch_top_k_shifted(&scores, 20, &seen, 0);
        wr_runtime::set_threads(8);
        let parallel = batch_top_k_shifted(&scores, 20, &seen, 0);
        wr_runtime::set_threads(1);
        assert_eq!(serial.len(), parallel.len());
        for (r, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(a.len(), b.len(), "row {r}");
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.item, y.item, "row {r}");
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "row {r}");
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let scores = Tensor::zeros(&[0, 10]);
        assert!(batch_top_k_shifted(&scores, 5, &[], 0).is_empty());
    }

    #[test]
    fn shifted_window_matches_full_catalog_slice() {
        // Score a full catalog, then re-extract through a window at
        // item_base: the window's global-id results must be exactly the
        // full extraction restricted to the window (quantized scores so
        // ties cross the boundary).
        let mut rng = Rng64::seed_from(12);
        let (n_items, base, width) = (230usize, 57usize, 91usize);
        let data: Vec<f32> = (0..5 * n_items).map(|_| (rng.below(11) as f32) * 0.5).collect();
        let scores = Tensor::from_vec(data, &[5, n_items]);
        let window_data: Vec<f32> = (0..5)
            .flat_map(|r| scores.row(r)[base..base + width].to_vec())
            .collect();
        let window = Tensor::from_vec(window_data, &[5, width]);
        let seen_store: Vec<Vec<usize>> = (0..5)
            .map(|_| (0..8).map(|_| rng.below(n_items)).collect())
            .collect();
        let seen: Vec<&[usize]> = seen_store.iter().map(|s| s.as_slice()).collect();
        // k larger than the whole catalog so nothing is lost to
        // truncation on either side.
        let k = n_items + 5;
        let full = batch_top_k_shifted(&scores, k, &seen, 0);
        let shifted = batch_top_k_shifted(&window, k, &seen, base);
        for r in 0..5 {
            let expect: Vec<_> = full[r]
                .iter()
                .filter(|s| (base..base + width).contains(&s.item))
                .collect();
            assert_eq!(shifted[r].len(), expect.len(), "row {r}");
            for (a, b) in shifted[r].iter().zip(expect) {
                assert_eq!(a.item, b.item, "row {r}");
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "row {r}");
            }
        }
    }
}
