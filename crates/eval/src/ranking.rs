//! Full-ranking Recall@K and NDCG@K.

use wr_data::EvalCase;
use wr_tensor::{Arm, Level, Tensor};

/// Cutoffs reported by the paper.
pub const DEFAULT_KS: [usize; 2] = [20, 50];

/// Recall@K / NDCG@K at a set of cutoffs, plus per-user NDCG@20 samples for
/// significance testing.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSet {
    pub ks: Vec<usize>,
    pub recall: Vec<f32>,
    pub ndcg: Vec<f32>,
    pub n_cases: usize,
    /// Per-case NDCG at the first cutoff (input to the paired t-test).
    pub per_case_ndcg: Vec<f32>,
}

impl MetricSet {
    /// Recall at cutoff `k`. A cutoff the accumulator was not constructed
    /// with reads as NaN — visible in any report, fatal to no one.
    pub fn recall_at(&self, k: usize) -> f32 {
        self.ks
            .iter()
            .position(|&x| x == k)
            .and_then(|i| self.recall.get(i))
            .copied()
            .unwrap_or(f32::NAN)
    }

    /// NDCG at cutoff `k`; same unknown-cutoff policy as [`Self::recall_at`].
    pub fn ndcg_at(&self, k: usize) -> f32 {
        self.ks
            .iter()
            .position(|&x| x == k)
            .and_then(|i| self.ndcg.get(i))
            .copied()
            .unwrap_or(f32::NAN)
    }
}

impl std::fmt::Display for MetricSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let parts: Vec<String> = self
            .ks
            .iter()
            .enumerate()
            .map(|(i, k)| format!("R@{k} {:.4} N@{k} {:.4}", self.recall[i], self.ndcg[i]))
            .collect();
        write!(f, "{}", parts.join(" | "))
    }
}

/// Streaming accumulator over evaluation cases.
#[derive(Debug, Clone)]
pub struct RankAccumulator {
    ks: Vec<usize>,
    hits: Vec<usize>,
    dcg: Vec<f64>,
    n: usize,
    per_case_ndcg: Vec<f32>,
}

impl RankAccumulator {
    pub fn new(ks: &[usize]) -> Self {
        assert!(!ks.is_empty());
        RankAccumulator {
            ks: ks.to_vec(),
            hits: vec![0; ks.len()],
            dcg: vec![0.0; ks.len()],
            n: 0,
            per_case_ndcg: Vec::new(),
        }
    }

    /// Record one case given the 0-based rank of the target
    /// (0 = ranked first). With a single relevant item, ideal DCG = 1, so
    /// NDCG@K = 1/log2(rank+2) when rank < K.
    pub fn push_rank(&mut self, rank: usize) {
        self.n += 1;
        for (i, &k) in self.ks.iter().enumerate() {
            if rank < k {
                self.hits[i] += 1;
                self.dcg[i] += 1.0 / ((rank as f64) + 2.0).log2();
            }
        }
        let k0 = self.ks[0];
        let nd = if rank < k0 {
            (1.0 / ((rank as f64) + 2.0).log2()) as f32
        } else {
            0.0
        };
        self.per_case_ndcg.push(nd);
    }

    pub fn finish(self) -> MetricSet {
        let n = self.n.max(1) as f64;
        MetricSet {
            recall: self.hits.iter().map(|&h| (h as f64 / n) as f32).collect(),
            ndcg: self.dcg.iter().map(|&d| (d / n) as f32).collect(),
            ks: self.ks,
            n_cases: self.n,
            per_case_ndcg: self.per_case_ndcg,
        }
    }
}

/// 0-based rank of `target` in `scores`, ignoring `excluded` item ids.
///
/// Ties are broken pessimistically (tied items count as ranked above the
/// target), which keeps a constant scorer from looking good by luck; so
/// are NaNs: a NaN candidate counts as ranked above the target, and a NaN
/// target ranks `usize::MAX`, a miss at every cutoff — a diverged model
/// must not score a perfect rank.
pub fn rank_of_target(scores: &[f32], target: usize, excluded: &[usize]) -> usize {
    let ts = scores[target];
    if ts.is_nan() {
        return usize::MAX;
    }
    let mut excluded_mask: Option<Vec<bool>> = None;
    if !excluded.is_empty() {
        let mut m = vec![false; scores.len()];
        for &e in excluded {
            if e < m.len() {
                m[e] = true;
            }
        }
        excluded_mask = Some(m);
    }
    let mut rank = 0usize;
    for (i, &s) in scores.iter().enumerate() {
        if i == target {
            continue;
        }
        if let Some(m) = &excluded_mask {
            if m[i] {
                continue;
            }
        }
        // At or above the target, or NaN: one unordered compare.
        if !(s < ts) {
            rank += 1;
        }
    }
    rank
}

/// Evaluate a scorer over `cases`, batched.
///
/// `score_fn` receives a batch of contexts and must return `[batch,
/// n_items]` scores. When `exclude_history` is set, every item in a case's
/// context is removed from its candidate set (the RecBole convention).
///
/// The scorer always runs on the calling thread (it is `FnMut` and may hold
/// model state); only the O(batch × n_items) rank scans fan out across the
/// [`wr_runtime`] pool. Ranks come back in batch-row order and feed a single
/// serial accumulator, so the resulting [`MetricSet`] is bit-identical for
/// any `WR_THREADS` setting.
pub fn evaluate_cases(
    cases: &[EvalCase],
    ks: &[usize],
    batch_size: usize,
    exclude_history: bool,
    mut score_fn: impl FnMut(&[&[usize]]) -> Tensor,
) -> MetricSet {
    let mut acc = RankAccumulator::new(ks);
    for chunk in cases.chunks(batch_size.max(1)) {
        let contexts: Vec<&[usize]> = chunk.iter().map(|c| c.context.as_slice()).collect();
        let scores = score_fn(&contexts);
        assert_eq!(scores.rows(), chunk.len(), "score batch size mismatch");
        let ranks = wr_runtime::parallel_map(chunk.len(), 1, |row| {
            let case = &chunk[row];
            let excluded: &[usize] = if exclude_history { &case.context } else { &[] };
            rank_of_target(scores.row(row), case.target, excluded)
        });
        for rank in ranks {
            acc.push_rank(rank);
        }
    }
    acc.finish()
}

/// One scored recommendation: an item id plus the score that ranked it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredItem {
    pub item: usize,
    pub score: f32,
}

/// The order-preserving integer key of a score: `order_key(a) < order_key(b)`
/// exactly when `a.total_cmp(&b)` is `Less` — `-NaN < -∞ < … < -0.0 < +0.0
/// < … < +∞ < +NaN`. It is the bit trick `total_cmp` itself is built on
/// (flip the magnitude bits of a negative), written out here because the
/// selector compares keys, not floats: this function is the one definition
/// of the repo-wide score order that [`TopK`] and the serving layer's
/// poison test share.
#[inline]
pub fn order_key(score: f32) -> i32 {
    let b = score.to_bits() as i32;
    b ^ (((b >> 31) as u32) >> 1) as i32
}

/// A candidate's place in the repo-wide order as one integer: the score's
/// key above the complemented item index, so the greater `rank` is the
/// better candidate (higher score; at equal scores the lower index) and
/// every comparison the selector makes is a single branch-free compare.
#[inline]
fn rank(e: &ScoredItem) -> i128 {
    ((order_key(e.score) as i128) << 64) | (!e.item as u64 as i128)
}

/// Scores per block of [`TopK::scan`]: one block maximum covers this many,
/// and a block with a hit gets one bit each in a `u32` mask.
const BLOCK: usize = u32::BITS as usize;

/// Blocks per segment of [`TopK::scan`]: a segment's block maxima live in
/// a stack array this long, so a row of any width allocates nothing.
const SEGMENT_BLOCKS: usize = 64;

/// Pass 1 of [`TopK::scan`] over one segment on `arm`'s registers, up to
/// AVX2's (the widest that pays): each block's largest [`order_key`] into
/// `maxima`, and the smallest and largest key of the whole segment.
fn block_maxima(arm: Arm, segment: &[f32], maxima: &mut [i32; SEGMENT_BLOCKS]) -> (i32, i32) {
    match arm.level() {
        Level::Baseline => block_maxima_with(segment, maxima),
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: an `Avx2` or `Avx512` token exists only on a CPU that runs
        // AVX2.
        Level::Avx2 | Level::Avx512 => unsafe { block_maxima_avx2(segment, maxima) },
    }
}

/// [`block_maxima_with`] compiled for AVX2, where a signed 32-bit min or
/// max is one instruction (`vpminsd` / `vpmaxsd`) on eight keys; the SSE2
/// baseline has none and spends a compare and three logic operations on
/// four. The AVX-512 width measured no faster on 32-key blocks.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn block_maxima_avx2(segment: &[f32], maxima: &mut [i32; SEGMENT_BLOCKS]) -> (i32, i32) {
    block_maxima_with(segment, maxima)
}

/// The pass-1 body every arm compiles: comparisons only, so the width it
/// runs at cannot change a key.
#[inline(always)]
fn block_maxima_with(segment: &[f32], maxima: &mut [i32; SEGMENT_BLOCKS]) -> (i32, i32) {
    let (mut lo, mut hi) = (i32::MAX, i32::MIN);
    for (max, block) in maxima.iter_mut().zip(segment.chunks(BLOCK)) {
        let (mut block_lo, mut block_hi) = (i32::MAX, i32::MIN);
        for &s in block {
            let key = order_key(s);
            block_lo = block_lo.min(key);
            block_hi = block_hi.max(key);
        }
        lo = lo.min(block_lo);
        hi = hi.max(block_hi);
        *max = block_hi;
    }
    (lo, hi)
}

/// Bounded top-`k` accumulator over `(item, score)` pairs — the one
/// selector every ranking consumer shares.
///
/// Offer candidates in any order ([`TopK::push`]) or a whole contiguous
/// score slice at once ([`TopK::scan`]); [`TopK::into_sorted`] returns at
/// most `k` of them, best first, under the repo-wide total order
/// (descending `total_cmp` score, ascending item index on ties).
///
/// The kept candidates form a binary heap with the *worst* one at the
/// root, and the root's [`order_key`] is cached as the **floor**: once `k`
/// candidates are held, "can this one enter?" is one integer compare
/// against the floor (a tie on the key falls through to the item index),
/// and only the few that pass pay the `O(log k)` replacement. No
/// arithmetic is ever done on a score — keys are compared, scores are
/// carried — so neither block size nor vector width can move a result.
///
/// Consumers: [`top_k_filtered`] and `wr_serve::batch_top_k_shifted`
/// (dense score rows, through `scan`), [`merge_top_k`] and the `wr-ann`
/// inverted-list scan (through `push`).
pub struct TopK {
    /// Once `k` are held, a heap: `entries[0]` ranks last among them.
    entries: Vec<ScoredItem>,
    k: usize,
    /// `order_key` of `entries[0]` once `k` candidates are held; until
    /// then `i32::MIN`, which every key passes.
    floor: i32,
    /// Candidates that entered the heap: what the bound of
    /// [`TopK::scan`] exists to keep small.
    #[cfg(test)]
    entered: usize,
}

impl TopK {
    pub fn new(k: usize) -> TopK {
        TopK {
            entries: Vec::with_capacity(k),
            k,
            floor: i32::MIN,
            #[cfg(test)]
            entered: 0,
        }
    }

    /// Offer one candidate. Kept only while it beats the current worst of
    /// the `k` best seen so far.
    pub fn push(&mut self, item: usize, score: f32) {
        let cand = ScoredItem { item, score };
        if self.admits(&cand) {
            self.insert(cand);
        }
    }

    /// Whether `cand` would be kept: there is room, or it outranks the
    /// worst candidate held.
    fn admits(&self, cand: &ScoredItem) -> bool {
        let outranks = |worst| rank(cand) > rank(worst);
        self.entries.len() < self.k || self.entries.first().is_some_and(outranks)
    }

    /// Keep a candidate [`TopK::admits`] said yes to. The first `k` are
    /// only collected; the `k`-th sorts them worst first, and an ascending
    /// array is a heap.
    fn insert(&mut self, cand: ScoredItem) {
        #[cfg(test)]
        {
            self.entered += 1;
        }
        if self.entries.len() == self.k {
            self.replace_worst(cand);
        } else {
            self.entries.push(cand);
            if self.entries.len() < self.k {
                return;
            }
            self.entries.sort_unstable_by_key(rank);
        }
        self.floor = order_key(self.entries[0].score);
    }

    /// Offer `scores[i]` as item `first_item + i` for every `i`, skipping
    /// the items listed in `seen`, and return the smallest and largest
    /// [`order_key`] among **all** of `scores` (`(i32::MAX, i32::MIN)` for
    /// an empty slice) — a caller that must know whether the row held a
    /// NaN or an infinity reads it off the pair instead of walking the row
    /// a second time.
    ///
    /// Equivalent to `push` in ascending `i`, but no score is offered
    /// that provably cannot be kept. The slice is taken a segment of up
    /// to 64 blocks of 32 scores at a time. Pass 1 records each block's
    /// largest key (and the row's extremes) in one branch-free pass the
    /// compiler vectorises, at AVX2 width where the CPU has it. From
    /// those maxima comes a **bound**: the `(k + s)`-th largest, where
    /// `s` counts the `seen` ids inside the segment (a duplicate counts
    /// twice, which only lowers the bound). The blocks holding the
    /// `k + s` largest maxima give at least `k + s` distinct items whose
    /// keys reach the bound, and at most `s` of those are seen — so at
    /// least `k` offerable items rank above any score whose key is below
    /// it, and no such score can be in the answer. Pass 2 revisits only
    /// the blocks whose maximum reaches `max(bound, floor)`, gathers those
    /// hits into a bit mask and offers them in ascending order, consulting
    /// `seen` only then, as the slice it is: no mask is built. A segment
    /// of fewer than `k + s` blocks has no bound (`i32::MIN`). The bound
    /// only decides which scores are *looked at*: each offered one is
    /// decided against the heap of the moment, so neither the bound nor a
    /// floor that rose since the mask was built can change what is kept.
    pub fn scan(&mut self, first_item: usize, scores: &[f32], seen: &[usize]) -> (i32, i32) {
        let (mut lo, mut hi, arm) = (i32::MAX, i32::MIN, Arm::detected());
        for (g, segment) in scores.chunks(SEGMENT_BLOCKS * BLOCK).enumerate() {
            let first = first_item + g * SEGMENT_BLOCKS * BLOCK;
            let mut maxima = [i32::MIN; SEGMENT_BLOCKS];
            let (segment_lo, segment_hi) = block_maxima(arm, segment, &mut maxima);
            lo = lo.min(segment_lo);
            hi = hi.max(segment_hi);
            let maxima = &maxima[..segment.len().div_ceil(BLOCK)];
            let window = first..first + segment.len();
            let excluded = seen.iter().filter(|item| window.contains(item)).count();
            let bound = self.bound(maxima, excluded);
            for ((b, block), &max) in segment.chunks(BLOCK).enumerate().zip(maxima) {
                let cut = bound.max(self.floor);
                if max < cut {
                    continue;
                }
                let mut hits = 0u32;
                for (i, &s) in block.iter().enumerate() {
                    hits |= ((order_key(s) >= cut) as u32) << i;
                }
                while hits != 0 {
                    let i = hits.trailing_zeros() as usize;
                    hits &= hits - 1;
                    let cand = ScoredItem { item: first + b * BLOCK + i, score: block[i] };
                    if self.admits(&cand) && !seen.contains(&cand.item) {
                        self.insert(cand);
                    }
                }
            }
        }
        (lo, hi)
    }

    /// The key below which no score of a segment can be kept: the
    /// `(k + excluded)`-th largest of its block `maxima` (see
    /// [`TopK::scan`]), or `i32::MIN` when that rank is 0 or there are
    /// fewer blocks than it.
    fn bound(&self, maxima: &[i32], excluded: usize) -> i32 {
        let need = self.k + excluded;
        if need == 0 || need > maxima.len() {
            return i32::MIN;
        }
        let mut copy = [0; SEGMENT_BLOCKS];
        let copy = &mut copy[..maxima.len()];
        copy.copy_from_slice(maxima);
        *copy.select_nth_unstable_by(need - 1, |a, b| b.cmp(a)).1
    }

    /// Candidates kept so far (saturates at `k`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The final best-first list (sorted in place: no second buffer).
    pub fn into_sorted(mut self) -> Vec<ScoredItem> {
        self.entries.sort_unstable_by_key(|e| std::cmp::Reverse(rank(e)));
        self.entries
    }

    /// Put `cand` in place of the root: the hole left by the root moves
    /// down, each time taking the later-ranked child, until `cand` ranks
    /// no earlier than both children of the hole.
    fn replace_worst(&mut self, cand: ScoredItem) {
        let n = self.entries.len();
        let mut hole = 0;
        loop {
            let left = 2 * hole + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let right_ranks_later =
                right < n && rank(&self.entries[right]) < rank(&self.entries[left]);
            let child = left + right_ranks_later as usize;
            if rank(&self.entries[child]) >= rank(&cand) {
                break;
            }
            self.entries[hole] = self.entries[child];
            hole = child;
        }
        self.entries[hole] = cand;
    }
}

/// K-way merge of per-shard partial top-k results into one global
/// top-`k`, under the same total order every partial was extracted
/// with (`total_cmp` descending, ascending item index on ties).
///
/// Exact by construction: the global top-`k` of a disjoint union is a
/// subset of the per-part top-`k`s, so merging partials of length ≥ the
/// requested `k` loses nothing. Partials may be any length (shorter ones
/// simply contribute fewer candidates). Items appearing in *multiple*
/// partials are offered once per appearance — callers merging overlapping
/// candidate sets must deduplicate upstream; the
/// in-tree caller (the gateway's cross-shard merge) partitions the
/// catalog into disjoint windows, so duplicates cannot arise. Within one
/// scan no merge is needed: a single [`TopK`] fed every part *is* the
/// merge of the parts.
pub fn merge_top_k(k: usize, partials: &[Vec<ScoredItem>]) -> Vec<ScoredItem> {
    let mut acc = TopK::new(k);
    for part in partials {
        for s in part {
            acc.push(s.item, s.score);
        }
    }
    acc.into_sorted()
}

/// Deterministic top-`k` over one score row with seen-item filtering.
///
/// Returns at most `k` items sorted by descending score, ties broken by
/// ascending item index (`total_cmp` + index — the same policy every other
/// ranking site in the workspace uses). Item ids listed in `seen` are
/// excluded from the candidates; out-of-range ids in `seen` are ignored.
///
/// One [`TopK::scan`] over the row: `O(n)` integer compares plus
/// `O(log k)` for each candidate that passes the floor, so full-catalog
/// scoring at serving time never sorts the whole row.
pub fn top_k_filtered(scores: &[f32], k: usize, seen: &[usize]) -> Vec<ScoredItem> {
    let mut acc = TopK::new(k.min(scores.len()));
    acc.scan(0, scores, seen);
    acc.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_basic() {
        let scores = [0.1, 0.9, 0.5, 0.2];
        assert_eq!(rank_of_target(&scores, 1, &[]), 0);
        assert_eq!(rank_of_target(&scores, 2, &[]), 1);
        assert_eq!(rank_of_target(&scores, 0, &[]), 3);
    }

    #[test]
    fn rank_with_exclusion() {
        let scores = [0.9, 0.8, 0.5];
        // target 2 normally ranked 2; excluding items 0 and 1 → rank 0
        assert_eq!(rank_of_target(&scores, 2, &[0, 1]), 0);
    }

    #[test]
    fn ties_are_pessimistic() {
        let scores = [0.5, 0.5, 0.5];
        assert_eq!(rank_of_target(&scores, 1, &[]), 2);
    }

    #[test]
    fn a_nan_target_misses_at_every_cutoff() {
        assert_eq!(rank_of_target(&[f32::NAN, 0.5], 0, &[]), usize::MAX);
        assert_eq!(rank_of_target(&[f32::NAN, f32::NAN], 1, &[0]), usize::MAX);
        let mut acc = RankAccumulator::new(&[1, 20, 50]);
        acc.push_rank(rank_of_target(&[-f32::NAN, 0.5, 0.25], 0, &[]));
        let m = acc.finish();
        assert_eq!((m.recall, m.ndcg), (vec![0.0; 3], vec![0.0; 3]));
        assert_eq!(m.per_case_ndcg, vec![0.0]);
    }

    #[test]
    fn a_nan_candidate_ranks_above_the_target() {
        let nan = f32::NAN;
        assert_eq!(rank_of_target(&[nan, 0.5, 0.9], 1, &[]), 2);
        assert_eq!(rank_of_target(&[-nan, 0.5, 0.1], 1, &[]), 1);
        // An excluded NaN is not a candidate at all.
        assert_eq!(rank_of_target(&[nan, 0.5, 0.1], 1, &[0]), 0);
    }

    #[test]
    fn ndcg_formula() {
        let mut acc = RankAccumulator::new(&[20]);
        acc.push_rank(0); // NDCG = 1/log2(2) = 1
        acc.push_rank(1); // 1/log2(3) ≈ 0.6309
        acc.push_rank(30); // miss
        let m = acc.finish();
        assert_eq!(m.n_cases, 3);
        assert!((m.recall_at(20) - 2.0 / 3.0).abs() < 1e-6);
        let expected = (1.0 + 1.0 / 3f64.log2()) / 3.0;
        assert!((m.ndcg_at(20) as f64 - expected).abs() < 1e-6);
        assert_eq!(m.per_case_ndcg.len(), 3);
        assert_eq!(m.per_case_ndcg[2], 0.0);
    }

    #[test]
    fn recall_at_multiple_cutoffs() {
        let mut acc = RankAccumulator::new(&[1, 5]);
        acc.push_rank(0);
        acc.push_rank(3);
        let m = acc.finish();
        assert!((m.recall_at(1) - 0.5).abs() < 1e-6);
        assert!((m.recall_at(5) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn evaluate_with_perfect_oracle() {
        let cases = vec![
            EvalCase {
                user: 0,
                context: vec![1, 2],
                target: 3,
            },
            EvalCase {
                user: 1,
                context: vec![0],
                target: 1,
            },
        ];
        let m = evaluate_cases(&cases, &[1, 20], 1, true, |contexts| {
            // Oracle: highest score on (last context item + 1).
            let mut t = Tensor::zeros(&[contexts.len(), 5]);
            for (r, ctx) in contexts.iter().enumerate() {
                let predict = ctx.last().unwrap() + 1;
                *t.at2_mut(r, predict) = 1.0;
            }
            t
        });
        assert_eq!(m.recall_at(1), 1.0);
        assert_eq!(m.ndcg_at(20), 1.0);
    }

    #[test]
    fn history_exclusion_changes_rank() {
        let cases = vec![EvalCase {
            user: 0,
            context: vec![0, 1],
            target: 2,
        }];
        let scorer = |contexts: &[&[usize]]| {
            let mut t = Tensor::zeros(&[contexts.len(), 4]);
            t.row_mut(0).copy_from_slice(&[0.9, 0.8, 0.7, 0.1]);
            t
        };
        let with = evaluate_cases(&cases, &[1], 8, true, scorer);
        let without = evaluate_cases(&cases, &[1], 8, false, scorer);
        assert_eq!(with.recall_at(1), 1.0); // history 0,1 excluded → target first
        assert_eq!(without.recall_at(1), 0.0);
    }

    #[test]
    fn evaluate_is_bit_identical_across_thread_counts() {
        use wr_tensor::Rng64;
        let mut rng = Rng64::seed_from(42);
        let n_items = 300;
        let cases: Vec<EvalCase> = (0..97)
            .map(|u| {
                let len = 1 + rng.below(6);
                EvalCase {
                    user: u,
                    context: (0..len).map(|_| rng.below(n_items)).collect(),
                    target: rng.below(n_items),
                }
            })
            .collect();
        let run = |threads: usize| {
            wr_runtime::set_threads(threads);
            let mut rng = Rng64::seed_from(7);
            evaluate_cases(&cases, &DEFAULT_KS, 16, true, |contexts| {
                Tensor::randn(&[contexts.len(), n_items], &mut rng)
            })
        };
        let serial = run(1);
        let parallel = run(8);
        wr_runtime::set_threads(1);
        assert_eq!(serial, parallel);
        assert_eq!(serial.per_case_ndcg, parallel.per_case_ndcg);
    }

    #[test]
    fn top_k_filtered_orders_and_filters() {
        let scores = [0.1, 0.9, 0.5, 0.7, 0.3];
        let top = top_k_filtered(&scores, 3, &[]);
        let items: Vec<usize> = top.iter().map(|s| s.item).collect();
        assert_eq!(items, vec![1, 3, 2]);
        assert_eq!(top[0].score, 0.9);
        // Seen filtering removes the best item; out-of-range ids ignored.
        let top = top_k_filtered(&scores, 3, &[1, 999]);
        let items: Vec<usize> = top.iter().map(|s| s.item).collect();
        assert_eq!(items, vec![3, 2, 4]);
        // k larger than the candidate set / k == 0.
        assert_eq!(top_k_filtered(&scores, 100, &[]).len(), 5);
        assert!(top_k_filtered(&scores, 0, &[]).is_empty());
        assert!(top_k_filtered(&[], 3, &[]).is_empty());
    }

    #[test]
    fn top_k_equal_scores_rank_by_index() {
        // Two items with bit-identical scores must rank deterministically by
        // ascending index, at every k (the total_cmp + index policy).
        let scores = [0.5, 0.8, 0.8, 0.1, 0.8];
        for k in 1..=5 {
            let top = top_k_filtered(&scores, k, &[]);
            let items: Vec<usize> = top.iter().map(|s| s.item).collect();
            let expect: Vec<usize> = [1, 2, 4, 0, 3][..k].to_vec();
            assert_eq!(items, expect, "k={k}");
        }
        // All-tied row: pure index order survives the bounded heap.
        let flat = [0.25f32; 7];
        let top = top_k_filtered(&flat, 4, &[]);
        let items: Vec<usize> = top.iter().map(|s| s.item).collect();
        assert_eq!(items, vec![0, 1, 2, 3]);
    }

    #[test]
    fn top_k_matches_full_sort_reference() {
        use wr_tensor::Rng64;
        let mut rng = Rng64::seed_from(11);
        for trial in 0..20 {
            let n = 1 + rng.below(200);
            // Coarse quantization forces plenty of exact ties.
            let scores: Vec<f32> = (0..n).map(|_| (rng.below(7) as f32) * 0.125).collect();
            let seen: Vec<usize> = (0..rng.below(8)).map(|_| rng.below(n + 4)).collect();
            let k = rng.below(n + 3);
            let fast = top_k_filtered(&scores, k, &seen);
            // Reference: full sort, then filter + truncate.
            let mut idx: Vec<usize> = (0..n).filter(|i| !seen.contains(i)).collect();
            idx.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
            idx.truncate(k);
            let fast_items: Vec<usize> = fast.iter().map(|s| s.item).collect();
            assert_eq!(fast_items, idx, "trial {trial} n={n} k={k}");
            for s in &fast {
                assert_eq!(s.score.to_bits(), scores[s.item].to_bits());
            }
        }
    }

    #[test]
    fn merge_top_k_is_exact_over_partitions() {
        use wr_tensor::Rng64;
        let mut rng = Rng64::seed_from(29);
        for trial in 0..20 {
            let n = 16 + rng.below(400);
            // Coarse quantization forces cross-partition ties.
            let scores: Vec<f32> = (0..n).map(|_| (rng.below(9) as f32) * 0.125).collect();
            let k = 1 + rng.below(24);
            // Partition the candidates into 1..=6 arbitrary disjoint parts.
            let n_parts = 1 + rng.below(6);
            let mut parts: Vec<Vec<ScoredItem>> = vec![Vec::new(); n_parts];
            let assignment: Vec<usize> = (0..n).map(|_| rng.below(n_parts)).collect();
            let partials: Vec<Vec<ScoredItem>> = {
                for (item, &p) in assignment.iter().enumerate() {
                    parts[p].push(ScoredItem {
                        item,
                        score: scores[item],
                    });
                }
                // Each part contributes only its local top-k (the partial a
                // list scan or shard would actually send).
                parts
                    .into_iter()
                    .map(|part| {
                        let mut acc = TopK::new(k);
                        for s in &part {
                            acc.push(s.item, s.score);
                        }
                        acc.into_sorted()
                    })
                    .collect()
            };
            let merged = merge_top_k(k, &partials);
            let global = top_k_filtered(&scores, k, &[]);
            assert_eq!(merged, global, "trial {trial} n={n} k={k}");
        }
    }

    /// One value of every class `total_cmp` tells apart, ascending.
    fn float_classes() -> Vec<f32> {
        vec![
            f32::from_bits(0xFFFF_FFFF), // -NaN, largest payload
            f32::from_bits(0xFFC0_0000), // -NaN
            f32::NEG_INFINITY,
            f32::MIN,
            -1.5,
            -f32::MIN_POSITIVE,
            -1e-45, // negative subnormal
            -0.0,
            0.0,
            1e-45,
            f32::MIN_POSITIVE,
            1.5,
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
            f32::from_bits(0x7FFF_FFFF), // +NaN, largest payload
        ]
    }

    #[test]
    fn order_key_is_total_cmp() {
        let classes = float_classes();
        for (i, &a) in classes.iter().enumerate() {
            for (j, &b) in classes.iter().enumerate() {
                assert_eq!(order_key(a).cmp(&order_key(b)), a.total_cmp(&b), "{a:?} vs {b:?}");
                assert_eq!(a.total_cmp(&b), i.cmp(&j), "the list above is ascending");
            }
        }
        use wr_tensor::Rng64;
        let mut rng = Rng64::seed_from(3);
        let mut any_bits =
            || f32::from_bits((rng.below(1 << 16) << 16 | rng.below(1 << 16)) as u32);
        for _ in 0..20_000 {
            let (a, b) = (any_bits(), any_bits());
            assert_eq!(order_key(a).cmp(&order_key(b)), a.total_cmp(&b), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn push_in_any_item_order_matches_a_full_sort() {
        use wr_tensor::Rng64;
        let classes = float_classes();
        let mut rng = Rng64::seed_from(61);
        for trial in 0..60 {
            let n = rng.below(90);
            let mut pairs: Vec<ScoredItem> = (0..n)
                .map(|item| {
                    let score = match trial % 3 {
                        0 => rng.normal(),
                        1 => (rng.below(4) as f32) * 0.5,
                        _ => classes[rng.below(classes.len())],
                    };
                    ScoredItem { item: item * 3 + 1, score }
                })
                .collect();
            // Fisher–Yates: the order a k-way merge meets its candidates in
            // has nothing to do with their ids.
            for i in (1..n).rev() {
                pairs.swap(i, rng.below(i + 1));
            }
            let mut sorted = pairs.clone();
            sorted.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.item.cmp(&b.item)));
            for k in [0, 1, 7, n.saturating_sub(1), n, n + 5] {
                let mut acc = TopK::new(k);
                for s in &pairs {
                    acc.push(s.item, s.score);
                }
                assert_eq!(acc.len(), k.min(n));
                let got = acc.into_sorted();
                let want = &sorted[..k.min(n)];
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(want) {
                    assert_eq!(g.item, w.item, "trial {trial} k {k}");
                    assert_eq!(g.score.to_bits(), w.score.to_bits(), "trial {trial} k {k}");
                }
            }
        }
    }

    #[test]
    fn scan_reports_the_extreme_keys_of_the_whole_slice() {
        // Seen items and items below the floor still count: the pair
        // describes the slice, not the kept set.
        let scores = [0.5, f32::NEG_INFINITY, 3.0, -2.0, f32::NAN];
        let mut acc = TopK::new(1);
        let (lo, hi) = acc.scan(10, &scores, &[11, 14]);
        assert_eq!((lo, hi), (order_key(f32::NEG_INFINITY), order_key(f32::NAN)));
        assert_eq!(acc.into_sorted(), vec![ScoredItem { item: 12, score: 3.0 }]);
        assert_eq!(TopK::new(3).scan(0, &[], &[]), (i32::MAX, i32::MIN));
    }

    /// `k` best of `row` offered as items `first..`, `seen` excluded, by a
    /// full sort on (`total_cmp` descending, item ascending): shares no
    /// code with `TopK`.
    fn full_sort(row: &[f32], first: usize, k: usize, seen: &[usize]) -> Vec<(usize, u32)> {
        let mut all: Vec<(usize, f32)> = row
            .iter()
            .enumerate()
            .map(|(i, &s)| (first + i, s))
            .filter(|(item, _)| !seen.contains(item))
            .collect();
        all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        all.iter().take(k).map(|&(item, s)| (item, s.to_bits())).collect()
    }

    fn bits(kept: Vec<ScoredItem>) -> Vec<(usize, u32)> {
        kept.iter().map(|e| (e.item, e.score.to_bits())).collect()
    }

    /// The items holding the `m` largest block maxima of `row`, as
    /// `first`-based ids, found without `TopK`.
    fn top_block_maxima(row: &[f32], first: usize, m: usize) -> Vec<usize> {
        let mut best: Vec<(usize, f32)> = row
            .chunks(BLOCK)
            .enumerate()
            .map(|(b, block)| {
                let mut at = 0;
                for (i, s) in block.iter().enumerate() {
                    if s.total_cmp(&block[at]).is_gt() {
                        at = i;
                    }
                }
                (first + b * BLOCK + at, block[at])
            })
            .collect();
        best.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        best.iter().take(m).map(|&(item, _)| item).collect()
    }

    #[test]
    fn scan_bound_matches_a_full_sort_where_it_can_go_wrong() {
        use wr_tensor::Rng64;
        let mut rng = Rng64::seed_from(34);
        let first = 57;
        let mut checked = 0;
        for n in [1225, 2048, 2 * 2048 + 17] {
            // Ties at the bound: a few blocks end on one value that the next
            // block starts with, everything else below it. The quantised
            // row gives every block the same maximum.
            let mut edge_ties = vec![0.0; n];
            for b in [3, 9, 10, 30, n / BLOCK - 1] {
                edge_ties[b * BLOCK - 1] = 1.0;
                edge_ties[b * BLOCK] = 1.0;
            }
            for s in edge_ties.iter_mut().filter(|s| **s == 0.0) {
                *s = rng.uniform() * 0.5;
            }
            let rows = [
                (0..n).map(|_| rng.normal()).collect::<Vec<f32>>(),
                edge_ties,
                (0..n).map(|_| (rng.below(4) as f32) * 0.5).collect(),
            ];
            for row in &rows {
                for k in [0, 1, 3, 10, 25, n - 1, n, n + 5] {
                    let outside = vec![0, first - 1, first + n, first + n + 9];
                    let duplicated = vec![first + 5, first + 5, first + n / 2, first + 5];
                    let mut seen_sets =
                        vec![vec![], outside, duplicated, top_block_maxima(row, first, k)];
                    // The top maxima of the second segment, on a row that has one.
                    if n > 2048 {
                        seen_sets.push(top_block_maxima(&row[2048..], first + 2048, k + 3));
                    }
                    for seen in &seen_sets {
                        let want = full_sort(row, first, k, seen);
                        let at = format!("n {n} k {k} seen {seen:?}");
                        let mut whole = TopK::new(k);
                        whole.scan(first, row, seen);
                        assert_eq!(bits(whole.into_sorted()), want, "{at}");
                        // Two scans of the row's halves into one accumulator.
                        for mid in [n / 2, 2048.min(n), 31] {
                            let mut halves = TopK::new(k);
                            halves.scan(first, &row[..mid], seen);
                            halves.scan(first + mid, &row[mid..], seen);
                            assert_eq!(bits(halves.into_sorted()), want, "{at} mid {mid}");
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(checked, 3 * 8 * (4 + 4 + 5));
    }

    #[test]
    fn scan_bound_keeps_the_heap_entries_few() {
        // A score row as wide as a `catalog_heavy` shard's: without the
        // bound, ≈ 58 candidates enter the heap on such rows at k = 10.
        use wr_tensor::Rng64;
        let mut rng = Rng64::seed_from(1225);
        let row: Vec<f32> = (0..1225).map(|_| rng.normal()).collect();
        let seen: Vec<usize> = (0..5).map(|_| rng.below(1225)).collect();
        let k = 10;
        let mut acc = TopK::new(k);
        acc.scan(0, &row, &seen);
        assert!(acc.entered <= 2 * (k + seen.len()), "{} entries", acc.entered);
        assert_eq!(bits(acc.into_sorted()), full_sort(&row, 0, k, &seen));
    }

    #[test]
    fn every_pass_one_arm_gives_the_plain_maxima() {
        use wr_tensor::Rng64;
        let classes = float_classes();
        let mut rng = Rng64::seed_from(32);
        for n in [0, 1, 31, 32, 33, 1225, SEGMENT_BLOCKS * BLOCK - 1, SEGMENT_BLOCKS * BLOCK] {
            let segment: Vec<f32> = (0..n)
                .map(|_| match rng.below(2) {
                    0 => classes[rng.below(classes.len())],
                    _ => rng.normal(),
                })
                .collect();
            let keys: Vec<i32> = segment.iter().map(|&s| order_key(s)).collect();
            let mut want = [i32::MIN; SEGMENT_BLOCKS];
            for (max, block) in want.iter_mut().zip(keys.chunks(BLOCK)) {
                *max = *block.iter().max().unwrap();
            }
            let extremes = (
                keys.iter().copied().min().unwrap_or(i32::MAX),
                keys.iter().copied().max().unwrap_or(i32::MIN),
            );
            for arm in Arm::available() {
                let mut got = [i32::MIN; SEGMENT_BLOCKS];
                let name = arm.level();
                assert_eq!(block_maxima(arm, &segment, &mut got), extremes, "{name:?} n {n}");
                assert_eq!(got, want, "{name:?} n {n}");
            }
        }
    }

    #[test]
    fn merge_top_k_edge_cases() {
        // No partials / empty partials / k = 0.
        assert!(merge_top_k(5, &[]).is_empty());
        assert!(merge_top_k(5, &[Vec::new(), Vec::new()]).is_empty());
        let one = vec![vec![
            ScoredItem { item: 3, score: 1.0 },
            ScoredItem { item: 7, score: 0.5 },
        ]];
        assert!(merge_top_k(0, &one).is_empty());
        // Merging a single partial truncates it to k, order untouched.
        let merged = merge_top_k(1, &one);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].item, 3);
        // Ties across partials resolve by ascending item index.
        let parts = vec![
            vec![ScoredItem { item: 9, score: 0.5 }],
            vec![ScoredItem { item: 2, score: 0.5 }],
        ];
        let merged = merge_top_k(2, &parts);
        let items: Vec<usize> = merged.iter().map(|s| s.item).collect();
        assert_eq!(items, vec![2, 9]);
    }

    #[test]
    fn topk_accumulator_matches_filtered_scan() {
        let scores = [0.3f32, 0.9, 0.9, 0.1, 0.6];
        let mut acc = TopK::new(3);
        assert!(acc.is_empty());
        for (i, &s) in scores.iter().enumerate() {
            acc.push(i, s);
        }
        assert_eq!(acc.len(), 3);
        assert_eq!(acc.into_sorted(), top_k_filtered(&scores, 3, &[]));
        // k = 0 accepts pushes and stays empty.
        let mut zero = TopK::new(0);
        zero.push(0, 1.0);
        assert!(zero.into_sorted().is_empty());
    }

    #[test]
    fn top_k_handles_nan_deterministically() {
        // total_cmp sorts +NaN above +inf; the point is determinism, not a
        // particular NaN placement.
        let scores = [0.5, f32::NAN, 0.9, f32::NAN];
        let a = top_k_filtered(&scores, 4, &[]);
        let b = top_k_filtered(&scores, 4, &[]);
        let ia: Vec<usize> = a.iter().map(|s| s.item).collect();
        let ib: Vec<usize> = b.iter().map(|s| s.item).collect();
        assert_eq!(ia, ib);
        assert_eq!(ia, vec![1, 3, 2, 0]);
    }

    #[test]
    fn display_format() {
        let mut acc = RankAccumulator::new(&[20, 50]);
        acc.push_rank(0);
        let m = acc.finish();
        let s = m.to_string();
        assert!(s.contains("R@20") && s.contains("N@50"));
    }
}
