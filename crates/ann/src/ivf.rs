//! IVF-flat index: inverted lists keyed by a k-means coarse quantizer.
//!
//! # Layout
//!
//! Build partitions the catalog `V: [n_items, dim]` into `nlist` inverted
//! lists by nearest centroid. Within a list, ids ascend (rows are assigned
//! in ascending order), which makes the scan order — and therefore every
//! tie-break — deterministic. The scanned vectors live in **column
//! panels**: each list's rows, [`PANEL`] at a time, are stored transposed
//! as a contiguous `[dim, w]` block (`w = PANEL`, or what is left of the
//! list), list after list in one buffer — the only copy of the vectors the
//! index holds. A panel is exactly the right-hand operand of a
//! `[1, dim] · [dim, w]` product, so a probe is a handful of
//! [`wr_tensor::gemm`] calls into a stack array; the centroids are kept in
//! the same layout and ranked the same way. The panel width is a constant
//! and the score buffer lives on the stack, so what a query allocates
//! follows `(nlist, k)` and the length of its exclusion list — never how
//! k-means happened to size the lists.
//!
//! # Exactness dial
//!
//! `nprobe` picks how many lists a query visits, ordered by descending
//! `dot(query, centroid)` (the MIPS probe heuristic; ties → lower list
//! index). `nprobe = nlist` visits everything and is **bit-identical** to
//! the exact scorer, by construction rather than by imitation: the exact
//! scorer is `users · Vᵀ` through `wr_tensor::gemm`, whose contract fixes
//! each output element's sum (start from `c`, add `a·b` for `p` ascending,
//! multiply and add rounded separately) and nothing else — not which
//! columns share a call, nor how many. A panel column holds the same
//! `dim` values as the item's column of `Vᵀ`, so the same kernel gives
//! the same bits, and every non-excluded row is offered to **one**
//! [`TopK`] for the whole probe — a single accumulator over a disjoint
//! union is the merge of its parts.
//!
//! # WRIV v1 wire format (a `wr_fault::sealed` envelope around)
//!
//! ```text
//! u64 build_seed | u32 nlist | u32 dim | u64 n_items
//! centroids: nlist·dim f32
//! per list: u32 len | u32 ids…
//! ```
//!
//! Only the quantizer (centroids + list membership) is persisted — never
//! the vectors. [`IvfIndex::load`] re-attaches the catalog tensor and
//! rebuilds the panels from it, so a stale index can disagree
//! with the serving table only in *shape* (caught as [`AnnError::Mismatch`]),
//! never silently in values. Beyond the envelope's own rules the loader
//! checks `nlist ≤ n_items` and an exact partition (every id in
//! `0..n_items` exactly once).

use std::borrow::Cow;
use std::path::Path;

use wr_eval::{ScoredItem, TopK};
use wr_fault::sealed::{self, SealError};
use wr_fault::write_atomic;
use wr_tensor::{gemm, Tensor};

use crate::kmeans::{fit_kmeans, KMeansConfig};
use crate::AnnError;

const MAGIC: &[u8; 4] = b"WRIV";
/// Current WRIV wire-format version.
pub const WRIV_VERSION: u32 = 1;
/// Iteration cap for the build-time quantizer fit.
const BUILD_MAX_ITERS: usize = 25;
/// Rows per column panel: the width of one gemm call and of the stack
/// array its scores land in.
const PANEL: usize = 64;

/// Per-query probe accounting, surfaced so the serving layer can bridge
/// it into `serve.ann.*` counters without this crate depending on wr-obs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Inverted lists visited (= effective `nprobe`).
    pub lists_probed: usize,
    /// Catalog rows whose scores were accumulated (excluded rows are
    /// skipped *before* the dot product and do not count).
    pub rows_scanned: usize,
    /// Owning trace id when the probe was issued through
    /// [`IvfIndex::search_traced`] (0 = untraced). Pure accounting — it
    /// never influences the scan — but it lets the serving layer join a
    /// probe's cost back to the request batch that paid it.
    pub trace_id: u64,
}

/// An IVF-flat index over a frozen catalog tensor.
#[derive(Debug, Clone)]
pub struct IvfIndex {
    centroids: Tensor, // [nlist, dim]
    /// The centroids again, as column panels (rows `0..nlist`).
    centroid_panels: Vec<f32>,
    lists: Vec<Vec<u32>>,
    /// Catalog rows as column panels, list by list (see the module doc).
    panels: Vec<f32>,
    /// Rows in the lists before `l`: its panels start at float
    /// `offsets[l] * dim` of `panels`.
    offsets: Vec<usize>,
    dim: usize,
    n_items: usize,
    build_seed: u64,
}

/// Append rows `ids` of `table` to `out` as column panels: for every
/// [`PANEL`] ids, a `[dim, w]` row-major block whose column `c` is row
/// `ids[c]`.
fn pack_panels(table: &Tensor, ids: &[u32], out: &mut Vec<f32>) {
    for chunk in ids.chunks(PANEL) {
        for p in 0..table.cols() {
            out.extend(chunk.iter().filter_map(|&id| table.row(id as usize).get(p)));
        }
    }
}

/// `sink(r, dot(query, row r))` for the `count` rows held in `panels`,
/// `r` ascending. The dot products are `gemm`'s, one panel per call.
fn score_panels(query: &[f32], panels: &[f32], count: usize, mut sink: impl FnMut(usize, f32)) {
    let dim = query.len();
    for first in (0..count).step_by(PANEL) {
        let w = (count - first).min(PANEL);
        let mut scores = [0.0f32; PANEL];
        let panel = panels.get(first * dim..(first + w) * dim);
        if let (Some(panel), Some(out)) = (panel, scores.get_mut(..w)) {
            gemm(query, panel, out, 1, dim, w);
        }
        for (c, &s) in scores.iter().take(w).enumerate() {
            sink(first + c, s);
        }
    }
}

impl IvfIndex {
    /// Cluster `items: [n_items, dim]` into `nlist` inverted lists.
    ///
    /// Deterministic for fixed `(items, nlist, seed)` at any `WR_THREADS`
    /// (see [`fit_kmeans`]); rejects non-finite rows with
    /// [`AnnError::NonFinite`].
    pub fn build(items: &Tensor, nlist: usize, seed: u64) -> Result<IvfIndex, AnnError> {
        let fit = fit_kmeans(
            items,
            &KMeansConfig {
                n_clusters: nlist,
                max_iters: BUILD_MAX_ITERS,
                seed,
            },
        )?;
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); nlist];
        for (i, &c) in fit.assignments.iter().enumerate() {
            if let Some(list) = lists.get_mut(c as usize) {
                list.push(i as u32);
            }
        }
        Ok(IvfIndex::assemble(fit.centroids, lists, items, seed))
    }

    /// Pack the catalog rows into per-list column panels; `lists` must
    /// partition `0..items.rows()`.
    fn assemble(centroids: Tensor, lists: Vec<Vec<u32>>, items: &Tensor, seed: u64) -> IvfIndex {
        let n_items = items.rows();
        let dim = items.cols();
        let mut panels = Vec::with_capacity(n_items * dim);
        let mut offsets = Vec::with_capacity(lists.len());
        let mut rows = 0;
        for list in &lists {
            offsets.push(rows);
            pack_panels(items, list, &mut panels);
            rows += list.len();
        }
        let centroid_ids: Vec<u32> = (0..centroids.rows() as u32).collect();
        let mut centroid_panels = Vec::with_capacity(centroids.numel());
        pack_panels(&centroids, &centroid_ids, &mut centroid_panels);
        IvfIndex {
            centroids,
            centroid_panels,
            lists,
            panels,
            offsets,
            dim,
            n_items,
            build_seed: seed,
        }
    }

    pub fn nlist(&self) -> usize {
        self.lists.len()
    }

    pub fn n_items(&self) -> usize {
        self.n_items
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Seed the quantizer was built with (persisted for provenance).
    pub fn build_seed(&self) -> u64 {
        self.build_seed
    }

    /// Item ids of list `l`, ascending (none past `nlist`).
    pub fn list(&self, l: usize) -> &[u32] {
        self.lists.get(l).map_or(&[], Vec::as_slice)
    }

    /// Largest inverted-list length — the worst-case single-probe scan.
    pub fn max_list_len(&self) -> usize {
        self.lists.iter().map(|l| l.len()).max().unwrap_or(0)
    }

    /// Probe order for `query`: list indices by descending centroid inner
    /// product, ties to the lower index.
    fn probe_order(&self, query: &[f32]) -> Vec<(usize, f32)> {
        let mut scored: Vec<(usize, f32)> = Vec::with_capacity(self.nlist());
        score_panels(query, &self.centroid_panels, self.nlist(), |l, s| {
            scored.push((l, s))
        });
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored
    }

    /// Top-`k` items by inner product against `query`, scanning the
    /// `nprobe` most promising lists. `excluded` ids (user history,
    /// quarantined rows) are skipped before scoring. Returns the ranked
    /// results plus scan accounting.
    ///
    /// `nprobe` is clamped to `nlist`; at the clamp the candidate set is
    /// the whole catalog and scores match the exact gemm bit-for-bit.
    pub fn search(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        excluded: &[usize],
    ) -> (Vec<ScoredItem>, SearchStats) {
        self.search_traced(query, k, nprobe, excluded, 0)
    }

    /// [`IvfIndex::search`] under a trace identity: the scan is
    /// bit-identical (the id is write-only accounting), but the returned
    /// [`SearchStats`] carry `trace_id` so per-probe cost can be joined
    /// to the owning request batch's span tree.
    pub fn search_traced(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        excluded: &[usize],
        trace_id: u64,
    ) -> (Vec<ScoredItem>, SearchStats) {
        assert_eq!(
            query.len(),
            self.dim,
            "query dim {} vs index dim {}",
            query.len(),
            self.dim
        );
        let nprobe = nprobe.clamp(1, self.nlist());
        // Ids stay `usize` end to end: an exclusion that cannot name an
        // indexed row (≥ 2³² included) matches nothing instead of wrapping
        // onto a real one. A caller that hands over a strictly ascending
        // list (the serving shard does) is read in place.
        let mut skip = Cow::Borrowed(excluded);
        if !excluded.is_sorted_by(|a, b| a < b) {
            let owned = skip.to_mut();
            owned.sort_unstable();
            owned.dedup();
        }

        let mut acc = TopK::new(k);
        let mut stats = SearchStats {
            trace_id,
            ..SearchStats::default()
        };
        for &(l, _) in self.probe_order(query).iter().take(nprobe) {
            stats.lists_probed += 1;
            // `l < nlist == offsets.len()` by construction; checked reads
            // keep a corrupt index from panicking a probe.
            let start = self.offsets.get(l).map(|&rows| rows * self.dim);
            let (Some(ids), Some(panels)) = (
                self.lists.get(l),
                start.and_then(|at| self.panels.get(at..)),
            ) else {
                continue;
            };
            score_panels(query, panels, ids.len(), |r, score| {
                let Some(&id) = ids.get(r) else { return };
                if skip.binary_search(&(id as usize)).is_err() {
                    acc.push(id as usize, score);
                    stats.rows_scanned += 1;
                }
            });
        }
        (acc.into_sorted(), stats)
    }

    /// Serialize the quantizer to the sealed WRIV v1 wire form.
    fn encode(&self) -> Vec<u8> {
        let mut buf: Vec<u8> = Vec::new();
        buf.extend_from_slice(&self.build_seed.to_le_bytes());
        buf.extend_from_slice(&(self.nlist() as u32).to_le_bytes());
        buf.extend_from_slice(&(self.dim as u32).to_le_bytes());
        buf.extend_from_slice(&(self.n_items as u64).to_le_bytes());
        for &v in self.centroids.data() {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        for list in &self.lists {
            buf.extend_from_slice(&(list.len() as u32).to_le_bytes());
            for &id in list {
                buf.extend_from_slice(&id.to_le_bytes());
            }
        }
        sealed::seal(MAGIC, WRIV_VERSION, &buf)
    }

    /// Persist the quantizer crash-safely (temp → fsync → rename → dir
    /// fsync via `wr_fault::write_atomic`).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), AnnError> {
        write_atomic(path, &self.encode())?;
        Ok(())
    }

    /// Load a WRIV file and re-attach the catalog it indexes.
    ///
    /// The file is untrusted: integrity footer, magic, version, size
    /// arithmetic, and the id partition are all validated before the
    /// panels are rebuilt from `items`. Shape disagreement with
    /// `items` is [`AnnError::Mismatch`] — the "index built against a
    /// different catalog" failure mode.
    pub fn load(path: impl AsRef<Path>, items: &Tensor) -> Result<IvfIndex, AnnError> {
        IvfIndex::decode(&std::fs::read(path)?, items)
    }

    fn decode(raw: &[u8], items: &Tensor) -> Result<IvfIndex, AnnError> {
        let mut r = sealed::open(MAGIC, WRIV_VERSION, raw)?;
        let build_seed = r.u64("build seed")?;
        // A list is at least its length field.
        let nlist = r.count("nlist", 4)?;
        let dim = r.u32("dim")? as usize;
        let n_items = r.u64("n_items")? as usize;
        if nlist == 0 || nlist > n_items {
            return Err(AnnError::Format(format!(
                "hostile header: nlist {nlist} vs n_items {n_items}"
            )));
        }
        if items.rows() != n_items || items.cols() != dim {
            return Err(AnnError::Mismatch(format!(
                "index is [{n_items}, {dim}] but catalog is [{}, {}]",
                items.rows(),
                items.cols()
            )));
        }
        let cent_len = nlist
            .checked_mul(dim)
            .ok_or_else(|| AnnError::Format("hostile header: centroid size overflow".into()))?;
        let centroids = Tensor::try_from_vec(r.f32s(cent_len, "centroids")?, &[nlist, dim])
            .map_err(|e| AnnError::Format(e.to_string()))?;

        let mut lists: Vec<Vec<u32>> = Vec::with_capacity(nlist);
        let mut seen = vec![false; n_items];
        for l in 0..nlist {
            let len = r.count("list length", 4)?;
            let mut ids = Vec::with_capacity(len);
            for _ in 0..len {
                let id = r.u32("list id")?;
                match seen.get_mut(id as usize) {
                    None => {
                        return Err(AnnError::Format(format!(
                            "list {l} id {id} out of range (n_items {n_items})"
                        )));
                    }
                    Some(true) => {
                        return Err(AnnError::Format(format!("item {id} appears twice")));
                    }
                    Some(s) => *s = true,
                }
                ids.push(id);
            }
            lists.push(ids);
        }
        r.finish()?;
        if !seen.iter().all(|&s| s) {
            return Err(AnnError::Format("lists do not cover the catalog".into()));
        }
        Ok(IvfIndex::assemble(centroids, lists, items, build_seed))
    }
}

impl From<SealError> for AnnError {
    fn from(e: SealError) -> Self {
        match e {
            SealError::Corrupt(m) => AnnError::Corrupt(m),
            SealError::Format(m) => AnnError::Format(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_eval::top_k_filtered;
    use wr_tensor::Rng64;

    /// The gemm's per-element contract written as the plain loop it is
    /// (DESIGN.md §5c): start from zero, add `a·b` for `p` ascending. The
    /// reference the panel scan is held to — the index itself has no
    /// scalar dot.
    fn dot_gemm_order(a: &[f32], b: &[f32]) -> f32 {
        let mut s = 0.0f32;
        for p in 0..a.len() {
            s += a[p] * b[p];
        }
        s
    }

    fn catalog(n: usize, dim: usize, seed: u64) -> Tensor {
        let mut rng = Rng64::seed_from(seed);
        Tensor::randn(&[n, dim], &mut rng)
    }

    /// Exact reference: brute-force scores in gemm order, then the shared
    /// bounded-heap top-k.
    fn exact_top_k(items: &Tensor, query: &[f32], k: usize, excluded: &[usize]) -> Vec<ScoredItem> {
        let scores: Vec<f32> = (0..items.rows())
            .map(|i| dot_gemm_order(query, items.row(i)))
            .collect();
        top_k_filtered(&scores, k, excluded)
    }

    #[test]
    fn full_probe_matches_exact_bitwise() {
        let items = catalog(300, 16, 9);
        let index = IvfIndex::build(&items, 12, 42).unwrap();
        let mut rng = Rng64::seed_from(10);
        for _ in 0..20 {
            let q: Vec<f32> = (0..16).map(|_| rng.normal()).collect();
            let (got, stats) = index.search(&q, 10, index.nlist(), &[]);
            let want = exact_top_k(&items, &q, 10, &[]);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.item, w.item);
                assert_eq!(g.score.to_bits(), w.score.to_bits(), "item {}", g.item);
            }
            assert_eq!(stats.lists_probed, 12);
            assert_eq!(stats.rows_scanned, 300);
        }
    }

    #[test]
    fn traced_search_is_bit_identical_and_stamps_the_id() {
        let items = catalog(150, 8, 11);
        let index = IvfIndex::build(&items, 6, 4).unwrap();
        let q: Vec<f32> = items.row(3).to_vec();
        let (plain, plain_stats) = index.search(&q, 7, 3, &[2]);
        let (traced, traced_stats) = index.search_traced(&q, 7, 3, &[2], 0xDEAD_BEEF);
        assert_eq!(plain, traced, "trace id must never change the scan");
        assert_eq!(plain_stats.lists_probed, traced_stats.lists_probed);
        assert_eq!(plain_stats.rows_scanned, traced_stats.rows_scanned);
        assert_eq!(plain_stats.trace_id, 0);
        assert_eq!(traced_stats.trace_id, 0xDEAD_BEEF);
    }

    #[test]
    fn exclusions_are_skipped_and_uncounted() {
        let items = catalog(120, 8, 3);
        let index = IvfIndex::build(&items, 6, 1).unwrap();
        let q: Vec<f32> = items.row(17).to_vec(); // self-query: 17 would win
        let (top, stats) = index.search(&q, 5, index.nlist(), &[17, 17, 40]);
        assert!(top.iter().all(|s| s.item != 17 && s.item != 40));
        assert_eq!(top, exact_top_k(&items, &q, 5, &[17, 40]));
        assert_eq!(stats.rows_scanned, 118);
    }

    /// A hand-assembled index whose lists have exactly `lens` rows: ids are
    /// dealt out in ascending order, list by list in rotation, so every
    /// list's ids ascend but no list is a contiguous id range.
    fn index_with_list_lengths(lens: &[usize], dim: usize, seed: u64) -> (Tensor, IvfIndex) {
        let n: usize = lens.iter().sum();
        let items = catalog(n, dim, seed);
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); lens.len()];
        let mut l = 0;
        for id in 0..n as u32 {
            while lists[l].len() == lens[l] {
                l = (l + 1) % lens.len();
            }
            lists[l].push(id);
            l = (l + 1) % lens.len();
        }
        let centroids = catalog(lens.len(), dim, seed + 1);
        let index = IvfIndex::assemble(centroids, lists, &items, seed);
        (items, index)
    }

    #[test]
    fn full_probe_matches_exact_bitwise_at_every_panel_edge() {
        // Empty, single-row, one short of a panel, exactly one, one over,
        // two and a bit; inner dimensions around the gemm's strip widths.
        let lens = [0usize, 1, 63, 64, 65, 131];
        let n: usize = lens.iter().sum();
        for dim in [1usize, 7, 64, 65] {
            let (items, index) = index_with_list_lengths(&lens, dim, 30 + dim as u64);
            for (l, &len) in lens.iter().enumerate() {
                assert_eq!(index.list(l).len(), len);
            }
            let mut rng = Rng64::seed_from(dim as u64);
            for trial in 0..6 {
                let q: Vec<f32> = (0..dim).map(|_| rng.normal()).collect();
                let excluded: Vec<usize> = (0..trial).map(|_| rng.below(n)).collect();
                let mut distinct = excluded.clone();
                distinct.sort_unstable();
                distinct.dedup();
                for k in [1usize, 10, n] {
                    let (got, stats) = index.search(&q, k, index.nlist(), &excluded);
                    let want = exact_top_k(&items, &q, k, &excluded);
                    assert_eq!(got.len(), want.len(), "dim {dim} k {k}");
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(g.item, w.item, "dim {dim} k {k}");
                        assert_eq!(g.score.to_bits(), w.score.to_bits(), "dim {dim} k {k}");
                    }
                    assert_eq!(stats.lists_probed, lens.len());
                    assert_eq!(stats.rows_scanned, n - distinct.len(), "skipped ⇒ uncounted");
                }
            }
        }
    }

    #[test]
    fn panels_hold_each_list_transposed_and_survive_a_reload() {
        let lens = [0usize, 1, 63, 64, 65, 131];
        let (items, index) = index_with_list_lengths(&lens, 7, 5);
        let dim = index.dim();
        assert_eq!(index.panels.len(), items.numel(), "panels replace the row copy, no second one");
        for l in 0..index.nlist() {
            let ids = index.list(l);
            for (r, &id) in ids.iter().enumerate() {
                let first = r / PANEL * PANEL;
                let w = (ids.len() - first).min(PANEL);
                for p in 0..dim {
                    let at = (index.offsets[l] + first) * dim + p * w + (r - first);
                    assert_eq!(index.panels[at].to_bits(), items.row(id as usize)[p].to_bits());
                }
            }
        }
        let loaded = IvfIndex::decode(&index.encode(), &items).unwrap();
        assert_eq!(loaded.panels, index.panels);
        assert_eq!(loaded.centroid_panels, index.centroid_panels);
        assert_eq!(loaded.offsets, index.offsets);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn an_exclusion_beyond_u32_names_no_row() {
        // `(1 << 32) + 3` narrowed with `as u32` is 3: the exclusion used
        // to wrap onto a real row and silently remove it from the answer.
        let items = catalog(16, 4, 13);
        let index = IvfIndex::build(&items, 2, 1).unwrap();
        let q: Vec<f32> = items.row(3).to_vec();
        let (top, stats) = index.search(&q, 16, index.nlist(), &[(1usize << 32) + 3, 99]);
        assert!(top.iter().any(|s| s.item == 3), "item 3 must still be returned");
        assert_eq!(top, exact_top_k(&items, &q, 16, &[]));
        assert_eq!(stats.rows_scanned, 16);
    }

    #[test]
    fn partial_probe_scans_fewer_rows() {
        let items = catalog(400, 8, 5);
        let index = IvfIndex::build(&items, 16, 2).unwrap();
        let q: Vec<f32> = items.row(0).to_vec();
        let (top, stats) = index.search(&q, 10, 4, &[]);
        assert_eq!(stats.lists_probed, 4);
        assert!(stats.rows_scanned < 400);
        assert!(!top.is_empty());
        // The self-item lives in a probed list (its own nearest centroid
        // ranks first for its own vector in the common case) — but the
        // guaranteed property is weaker: results are a subset of exact
        // scores, bit-identical where they overlap.
        let exact: Vec<ScoredItem> = exact_top_k(&items, &q, 400, &[]);
        for s in &top {
            let reference = exact.iter().find(|e| e.item == s.item).unwrap();
            assert_eq!(s.score.to_bits(), reference.score.to_bits());
        }
    }

    #[test]
    fn save_load_roundtrip_preserves_search() {
        let dir = std::env::temp_dir().join(format!("wr_ann_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let items = catalog(150, 8, 21);
        let index = IvfIndex::build(&items, 10, 77).unwrap();
        let path = dir.join("index.wriv");
        index.save(&path).unwrap();
        let loaded = IvfIndex::load(&path, &items).unwrap();
        assert_eq!(loaded.nlist(), 10);
        assert_eq!(loaded.build_seed(), 77);
        for l in 0..10 {
            assert_eq!(loaded.list(l), index.list(l));
        }
        let q: Vec<f32> = items.row(3).to_vec();
        let (a, sa) = index.search(&q, 7, 3, &[]);
        let (b, sb) = loaded.search(&q, 7, 3, &[]);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn golden_bytes_are_what_every_earlier_commit_wrote() {
        // (len, crc32) of this literal fixture under the encoder as it was
        // before `wr_fault::sealed` existed: files written by any earlier
        // commit still load, and a rollback can read files written now.
        let items =
            Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, -1.0, 0.5, 0.25, -2.0, 3.0, 3.0], &[5, 2]);
        let centroids = Tensor::from_vec(vec![0.5, 0.5, -0.375, -0.75, 3.0, 3.0], &[3, 2]);
        let lists = vec![vec![0, 1], vec![2, 3], vec![4]];
        let index = IvfIndex::assemble(centroids, lists, &items, 0xC0FFEE);
        let bytes = index.encode();
        assert_eq!((bytes.len(), wr_fault::crc32(&bytes)), (96, 0x898d_c2d9));
        let loaded = IvfIndex::decode(&bytes, &items).unwrap();
        assert_eq!(loaded.build_seed(), 0xC0FFEE);
        assert_eq!(loaded.lists, index.lists);
        assert_eq!(loaded.centroids, index.centroids);
        assert_eq!(loaded.panels, index.panels);
    }

    #[test]
    fn load_rejects_wrong_catalog_shape() {
        let dir = std::env::temp_dir().join(format!("wr_ann_shape_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let items = catalog(80, 8, 2);
        let index = IvfIndex::build(&items, 8, 1).unwrap();
        let path = dir.join("index.wriv");
        index.save(&path).unwrap();
        let other = catalog(81, 8, 2);
        assert!(matches!(
            IvfIndex::load(&path, &other).unwrap_err(),
            AnnError::Mismatch(_)
        ));
        let narrower = catalog(80, 4, 2);
        assert!(matches!(
            IvfIndex::load(&path, &narrower).unwrap_err(),
            AnnError::Mismatch(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
