//! Deterministic Lloyd's k-means — the IVF coarse quantizer.
//!
//! Everything here is engineered for replayability rather than raw
//! clustering quality:
//!
//! * **Init** — `k` distinct rows sampled by a seeded partial
//!   Fisher–Yates ([`wr_tensor::Rng64`]); the same `(data, config)` pair
//!   picks the same seeds in any process.
//! * **Assignment** — embarrassingly parallel over rows via
//!   `wr_runtime::parallel_map`, which stitches per-index results in
//!   order; each row's nearest-centroid scan is self-contained sequential
//!   float math, so the result is bit-identical at any `WR_THREADS`.
//! * **Update** — single-threaded accumulation in ascending row order
//!   (float addition is not associative; a parallel reduction would make
//!   centroids depend on the thread count).
//! * **Termination** — a fixed iteration cap plus early exit when the
//!   assignment vector stops changing (an exact `Vec<u32>` comparison —
//!   no float-tolerance convergence test).
//!
//! Ties everywhere resolve to the lowest index: a row equidistant from
//! two centroids joins the lower-numbered cluster, deterministically.

use wr_runtime::parallel_map;
use wr_tensor::{Rng64, Tensor};

use crate::AnnError;

/// Build parameters for [`fit_kmeans`].
#[derive(Debug, Clone, Copy)]
pub struct KMeansConfig {
    /// Number of clusters (`nlist` when used as an IVF quantizer).
    pub n_clusters: usize,
    /// Hard iteration cap; Lloyd's usually settles far earlier.
    pub max_iters: usize,
    /// Seed for the init row sample.
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            n_clusters: 64,
            max_iters: 25,
            seed: 0x5eed_a11,
        }
    }
}

/// A fitted quantizer: centroids plus the final assignment of every row.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// `[n_clusters, dim]` cluster centers.
    pub centroids: Tensor,
    /// `assignments[i]` = cluster of row `i`.
    pub assignments: Vec<u32>,
    /// Lloyd iterations actually executed (≤ `max_iters`).
    pub iters_run: usize,
}

/// Squared Euclidean distance, plain ascending-`p` accumulation.
fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    let mut s = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        let d = x - y;
        s += d * d;
    }
    s
}

/// Index of the nearest centroid to `row`; ties go to the lowest index
/// (strict `<` keeps the first minimum).
fn nearest(row: &[f32], centroids: &Tensor) -> u32 {
    let mut best = 0u32;
    let mut best_d = f32::INFINITY;
    for c in 0..centroids.rows() {
        let d = sq_dist(row, centroids.row(c));
        if d < best_d {
            best_d = d;
            best = c as u32;
        }
    }
    best
}

/// Grain for the parallel assignment pass: each unit is `n_clusters`
/// distance evaluations, so even small rows amortize pool dispatch.
const ASSIGN_GRAIN: usize = 16;

/// Run Lloyd's k-means over the rows of `data: [n, dim]`.
///
/// Rejects NaN/Inf rows with [`AnnError::NonFinite`] before touching the
/// pool. Clusters left empty by duplicate points keep their previous
/// centroid (they surface as empty inverted lists downstream, which the
/// index handles); singleton clusters are ordinary.
pub fn fit_kmeans(data: &Tensor, cfg: &KMeansConfig) -> Result<KMeans, AnnError> {
    if data.rank() != 2 {
        return Err(AnnError::InvalidConfig(format!(
            "kmeans expects [n, dim] data, got rank {}",
            data.rank()
        )));
    }
    let n = data.rows();
    let dim = data.cols();
    let k = cfg.n_clusters;
    if k == 0 {
        return Err(AnnError::InvalidConfig("n_clusters must be ≥ 1".into()));
    }
    if n == 0 || dim == 0 {
        return Err(AnnError::InvalidConfig(format!(
            "kmeans needs a non-empty matrix, got [{n}, {dim}]"
        )));
    }
    if k > n {
        return Err(AnnError::InvalidConfig(format!(
            "n_clusters {k} exceeds row count {n}"
        )));
    }
    for i in 0..n {
        if data.row(i).iter().any(|v| !v.is_finite()) {
            return Err(AnnError::NonFinite { row: i });
        }
    }

    // Seeded init: k distinct rows via partial Fisher–Yates.
    let mut rng = Rng64::seed_from(cfg.seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = i + rng.below(n - i);
        order.swap(i, j);
    }
    let mut centroids = Tensor::zeros(&[k, dim]);
    for (c, &src) in order.iter().take(k).enumerate() {
        centroids.row_mut(c).copy_from_slice(data.row(src));
    }

    let mut assignments: Vec<u32> = vec![u32::MAX; n];
    let mut iters_run = 0usize;
    for _ in 0..cfg.max_iters {
        iters_run += 1;
        let next = {
            let cref = &centroids;
            parallel_map(n, ASSIGN_GRAIN, |i| nearest(data.row(i), cref))
        };
        let converged = next == assignments;
        assignments = next;
        if converged {
            break;
        }
        // Deterministic update: ascending-row accumulation, one thread.
        let mut sums = vec![0.0f32; k * dim];
        let mut counts = vec![0usize; k];
        for (i, &c) in assignments.iter().enumerate() {
            let c = c as usize;
            if let (Some(count), Some(acc)) =
                (counts.get_mut(c), sums.get_mut(c * dim..(c + 1) * dim))
            {
                *count += 1;
                for (a, &v) in acc.iter_mut().zip(data.row(i)) {
                    *a += v;
                }
            }
        }
        for (c, (&count, sum)) in counts.iter().zip(sums.chunks_exact(dim)).enumerate() {
            if count == 0 {
                continue; // empty cluster keeps its previous centroid
            }
            let inv = 1.0 / count as f32;
            for (d, &s) in centroids.row_mut(c).iter_mut().zip(sum) {
                *d = s * inv;
            }
        }
    }

    Ok(KMeans {
        centroids,
        assignments,
        iters_run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n_per: usize, centers: &[[f32; 2]], seed: u64) -> Tensor {
        let mut rng = Rng64::seed_from(seed);
        let mut data = Vec::with_capacity(n_per * centers.len() * 2);
        for c in centers {
            for _ in 0..n_per {
                data.push(c[0] + 0.05 * rng.normal());
                data.push(c[1] + 0.05 * rng.normal());
            }
        }
        Tensor::from_vec(data, &[n_per * centers.len(), 2])
    }

    #[test]
    fn recovers_separated_blobs() {
        let data = blobs(40, &[[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]], 7);
        let fit = fit_kmeans(
            &data,
            &KMeansConfig {
                n_clusters: 3,
                max_iters: 50,
                seed: 11,
            },
        )
        .unwrap();
        // All rows of a blob land in one cluster, and the three blobs get
        // three distinct clusters.
        let block: Vec<u32> = (0..3).map(|b| fit.assignments[b * 40]).collect();
        for b in 0..3 {
            assert!(fit.assignments[b * 40..(b + 1) * 40]
                .iter()
                .all(|&a| a == block[b]));
        }
        assert_ne!(block[0], block[1]);
        assert_ne!(block[1], block[2]);
        assert!(fit.iters_run <= 50);
    }

    #[test]
    fn rejects_bad_configs() {
        let data = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0], &[2, 2]);
        let err = |k: usize| {
            fit_kmeans(
                &data,
                &KMeansConfig {
                    n_clusters: k,
                    max_iters: 5,
                    seed: 1,
                },
            )
            .unwrap_err()
        };
        assert!(matches!(err(0), AnnError::InvalidConfig(_)));
        assert!(matches!(err(3), AnnError::InvalidConfig(_)));
    }

    #[test]
    fn rejects_nan_rows_with_row_index() {
        let mut data = Tensor::from_vec(vec![0.0; 12], &[6, 2]);
        data.row_mut(4)[1] = f32::NAN;
        let err = fit_kmeans(&data, &KMeansConfig::default_small()).unwrap_err();
        match err {
            AnnError::NonFinite { row } => assert_eq!(row, 4),
            other => panic!("expected NonFinite, got {other:?}"),
        }
    }

    impl KMeansConfig {
        fn default_small() -> KMeansConfig {
            KMeansConfig {
                n_clusters: 2,
                max_iters: 5,
                seed: 3,
            }
        }
    }

    #[test]
    fn duplicate_points_leave_empty_clusters_but_finite_centroids() {
        // 6 identical rows, k=4: after one update every row joins cluster
        // of the first init pick; other clusters keep their (identical)
        // init centroid. Nothing NaNs out.
        let data = Tensor::from_vec(vec![1.0; 12], &[6, 2]);
        let fit = fit_kmeans(
            &data,
            &KMeansConfig {
                n_clusters: 4,
                max_iters: 10,
                seed: 5,
            },
        )
        .unwrap();
        assert!(fit.centroids.data().iter().all(|v| v.is_finite()));
        let occupied = fit.assignments[0];
        assert!(fit.assignments.iter().all(|&a| a == occupied));
    }
}
