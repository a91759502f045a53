//! Read-only item-embedding cache shared across serving threads.

use std::sync::Arc;

use wr_tensor::Tensor;
use wr_train::ModelSnapshot;

/// The frozen item matrix a serving process scores against, stored once.
///
/// Two tensors live behind `Arc`s: the ranked item matrix `V: [n_items, d]`
/// (a cosine model's rows normalised) and its pre-materialized transpose
/// that the scoring matmul consumes. Cloning the cache clones handles, not
/// buffers — every micro-batch, worker thread, and engine clone reads the
/// same memory. The transpose is materialized eagerly because it is hit by
/// every single query, while `V` itself is kept for diagnostics and
/// row-level lookups.
///
/// The cache is deliberately *not* mutable: WhitenRec's whitening matrix
/// and the trained projection head are fixed at deployment time (the paper
/// computes the whitened table once, as a pre-processing step), which is
/// what makes the zero-copy sharing sound.
#[derive(Debug, Clone)]
pub struct EmbeddingCache {
    items: Arc<Tensor>,
    items_t: Arc<Tensor>,
}

impl EmbeddingCache {
    /// Wrap a projected item matrix `V: [n_items, d]`, materializing its
    /// transpose.
    pub fn new(items: Tensor) -> Self {
        assert!(items.rank() == 2, "EmbeddingCache expects [n_items, d]");
        let items_t = items.transpose();
        EmbeddingCache {
            items: Arc::new(items),
            items_t: Arc::new(items_t),
        }
    }

    /// The cache of a trained model: handles onto the two tables its
    /// [`ModelSnapshot`] already ranks by (for WhitenRec, the whitened table
    /// *and* the trained projection head baked into one frozen matrix), so
    /// the scorer and the serving encode ([`crate::HistoryEncoder`]) read
    /// one buffer and nothing is transposed twice.
    pub fn of_snapshot(snapshot: &ModelSnapshot) -> Self {
        EmbeddingCache {
            items: snapshot.items().clone(),
            items_t: snapshot.items_t().clone(),
        }
    }

    /// The item matrix `V: [n_items, d]`.
    pub fn items(&self) -> &Tensor {
        &self.items
    }

    /// The pre-materialized transpose `Vᵀ: [d, n_items]`.
    pub fn items_t(&self) -> &Tensor {
        &self.items_t
    }

    pub fn n_items(&self) -> usize {
        self.items.rows()
    }

    pub fn dim(&self) -> usize {
        self.items.cols()
    }

    /// True when `other` is a handle onto the same underlying buffers —
    /// the no-copy guarantee, testable.
    pub fn shares_storage_with(&self, other: &EmbeddingCache) -> bool {
        Arc::ptr_eq(&self.items, &other.items) && Arc::ptr_eq(&self.items_t, &other.items_t)
    }

    /// Build an IVF-flat index over this catalog (deterministic for fixed
    /// `(table, nlist, seed)` — see `wr_ann`). The whitened table is the
    /// intended input: isotropic geometry is what makes the coarse
    /// quantizer's cells well-behaved for inner-product search.
    pub fn build_ivf(&self, nlist: usize, seed: u64) -> Result<wr_ann::IvfIndex, wr_ann::AnnError> {
        wr_ann::IvfIndex::build(&self.items, nlist, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_tensor::Rng64;

    #[test]
    fn clone_shares_storage() {
        let mut rng = Rng64::seed_from(1);
        let cache = EmbeddingCache::new(Tensor::randn(&[10, 4], &mut rng));
        let handle = cache.clone();
        assert!(cache.shares_storage_with(&handle));
        assert_eq!(handle.n_items(), 10);
        assert_eq!(handle.dim(), 4);
        // Independent caches over equal data do NOT share storage.
        let other = EmbeddingCache::new(cache.items().clone());
        assert!(!cache.shares_storage_with(&other));
    }

    #[test]
    fn transpose_is_materialized_consistently() {
        let mut rng = Rng64::seed_from(2);
        let v = Tensor::randn(&[6, 3], &mut rng);
        let cache = EmbeddingCache::new(v.clone());
        assert_eq!(cache.items_t().dims(), &[3, 6]);
        for i in 0..6 {
            for j in 0..3 {
                assert_eq!(cache.items().at2(i, j), cache.items_t().at2(j, i));
            }
        }
        assert_eq!(cache.items().data(), v.data());
    }

    #[test]
    fn sharing_across_pool_threads_reads_one_buffer() {
        let mut rng = Rng64::seed_from(4);
        let cache = EmbeddingCache::new(Tensor::randn(&[64, 8], &mut rng));
        // Sum each row on the pool; every task reads through the same Arc.
        let sums = wr_runtime::parallel_map(cache.n_items(), 8, |i| {
            cache.items().row(i).iter().map(|&x| x as f64).sum::<f64>()
        });
        let serial: Vec<f64> = (0..cache.n_items())
            .map(|i| cache.items().row(i).iter().map(|&x| x as f64).sum::<f64>())
            .collect();
        assert_eq!(sums, serial);
    }
}
