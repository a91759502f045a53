//! Relaxed (group) whitening — Eq. (5).

use crate::{WhiteningMethod, WhiteningTransform};
use wr_tensor::Tensor;

/// Relaxed whitening with `G` dimension groups: ZCA (or another method)
/// applied independently within each contiguous block of `d/G` dimensions,
/// leaving cross-group correlations intact.
///
/// `G = 1` recovers full whitening; larger `G` preserves more of the
/// original text semantics at the cost of embedding uniformity (Fig. 4).
#[derive(Debug, Clone)]
pub struct GroupWhitening {
    transforms: Vec<WhiteningTransform>,
    group_size: usize,
    groups: usize,
}

impl GroupWhitening {
    /// Fit on `x: [n, d]`. `d` must be divisible by `groups`.
    ///
    /// Groups are independent ZCA problems (covariance + eigendecomposition
    /// per `d/G` block), so they fan out across the [`wr_runtime`] pool; the
    /// per-group solves are untouched and results are stitched in group
    /// order, so the fit is bit-identical for any `WR_THREADS`.
    pub fn fit(x: &Tensor, groups: usize, method: WhiteningMethod, eps: f32) -> Self {
        assert!(groups >= 1, "need at least one group");
        let d = x.cols();
        assert!(
            d % groups == 0,
            "dimension {d} not divisible into {groups} groups"
        );
        let group_size = d / groups;
        let transforms = wr_runtime::parallel_map(groups, 1, |h| {
            let block = x.slice_cols(h * group_size, (h + 1) * group_size);
            WhiteningTransform::fit(&block, method, eps)
        });
        GroupWhitening {
            transforms,
            group_size,
            groups,
        }
    }

    /// Apply to rows of `x: [m, d]`, one pool task per group.
    pub fn apply(&self, x: &Tensor) -> Tensor {
        assert_eq!(
            x.cols(),
            self.group_size * self.groups,
            "dimension mismatch in group apply"
        );
        let parts: Vec<Tensor> = wr_runtime::parallel_map(self.groups, 1, |h| {
            let block = x.slice_cols(h * self.group_size, (h + 1) * self.group_size);
            self.transforms[h].apply(&block)
        });
        let refs: Vec<&Tensor> = parts.iter().collect();
        Tensor::concat_cols(&refs)
    }

    pub fn groups(&self) -> usize {
        self.groups
    }

    pub fn group_size(&self) -> usize {
        self.group_size
    }
}

/// One-shot convenience: fit on `x` and transform `x` itself.
pub fn group_whiten(x: &Tensor, groups: usize, method: WhiteningMethod, eps: f32) -> Tensor {
    GroupWhitening::fit(x, groups, method, eps).apply(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_linalg::covariance_of_rows;
    use wr_tensor::{Rng64, Tensor};

    fn correlated(n: usize, d: usize, seed: u64) -> Tensor {
        let mut rng = Rng64::seed_from(seed);
        let mixer = Tensor::randn(&[d, d], &mut rng);
        Tensor::randn(&[n, d], &mut rng).matmul(&mixer)
    }

    #[test]
    fn g1_equals_full_whitening() {
        let x = correlated(400, 8, 1);
        let grouped = group_whiten(&x, 1, WhiteningMethod::Zca, 1e-6);
        let full = WhiteningTransform::fit(&x, WhiteningMethod::Zca, 1e-6).apply(&x);
        assert!(grouped.sub(&full).frob_norm() < 1e-3);
    }

    #[test]
    fn within_group_decorrelated_cross_group_not() {
        let x = correlated(2000, 8, 2);
        let z = group_whiten(&x, 2, WhiteningMethod::Zca, 1e-6);
        let cov = covariance_of_rows(&z, 0.0);
        // within-group blocks ≈ identity
        for block in 0..2 {
            let o = block * 4;
            for i in 0..4 {
                for j in 0..4 {
                    let expect = if i == j { 1.0 } else { 0.0 };
                    let got = cov.at2(o + i, o + j);
                    assert!(
                        (got - expect).abs() < 0.08,
                        "within-group cov[{}][{}] = {got}",
                        o + i,
                        o + j
                    );
                }
            }
        }
        // cross-group correlation survives somewhere
        let mut max_cross = 0.0f32;
        for i in 0..4 {
            for j in 4..8 {
                max_cross = max_cross.max(cov.at2(i, j).abs());
            }
        }
        assert!(max_cross > 0.05, "cross-group correlation was destroyed ({max_cross})");
    }

    #[test]
    fn more_groups_preserve_more_semantics() {
        // Distortion from the (centered) input grows as G shrinks.
        let x = correlated(600, 16, 3);
        let centered = x.sub_row_broadcast(&x.mean_rows());
        // Compare normalized representations: relaxed whitening should keep
        // pairwise geometry closer to the original than full whitening does.
        let cos_orig = wr_eval::average_pairwise_cosine(&centered, 200, 7);
        let cos_g1 = wr_eval::average_pairwise_cosine(
            &group_whiten(&x, 1, WhiteningMethod::Zca, 1e-6),
            200,
            7,
        );
        let cos_g8 = wr_eval::average_pairwise_cosine(
            &group_whiten(&x, 8, WhiteningMethod::Zca, 1e-6),
            200,
            7,
        );
        // Full whitening pushes average cosine toward 0; relaxed whitening
        // stays closer to the raw geometry.
        assert!(
            (cos_g8 - cos_orig).abs() <= (cos_g1 - cos_orig).abs() + 1e-3,
            "orig {cos_orig}, g1 {cos_g1}, g8 {cos_g8}"
        );
    }

    /// The paper's direction, where it holds (G = 1 ZCA): whitening drives
    /// the mean pairwise cosine toward 0 and κ toward 1, measured with the
    /// `whiten.*` gauges' estimators and constants (2 048 pairs, seed 7).
    #[test]
    fn whitening_lowers_cosine_and_condition_number() {
        // Random rows pushed toward a common direction with a per-dimension
        // scale spread, mimicking the pre-trained text-embedding cone.
        let mut rng = Rng64::seed_from(41);
        let mut x = Tensor::randn(&[200, 8], &mut rng);
        for r in 0..200 {
            for (c, v) in x.row_mut(r).iter_mut().enumerate() {
                *v = *v * (1.0 + c as f32 * 0.3) + 3.0;
            }
        }
        let z = group_whiten(&x, 1, WhiteningMethod::Zca, crate::DEFAULT_EPS);
        let (pre_cos, post_cos) = (
            wr_eval::average_pairwise_cosine(&x, 2048, 7),
            wr_eval::average_pairwise_cosine(&z, 2048, 7),
        );
        let (pre_cond, post_cond) = (
            wr_eval::item_condition_number(&x).unwrap(),
            wr_eval::item_condition_number(&z).unwrap(),
        );
        assert!(pre_cos > 0.5, "fixture should be anisotropic, got cosine {pre_cos}");
        assert!(post_cos.abs() < 0.2, "whitened cosine should be near zero, got {post_cos}");
        assert!(post_cond < pre_cond, "κ should drop: pre {pre_cond} post {post_cond}");
        assert!(post_cond < 2.0, "whitened covariance should be near-identity, got {post_cond}");
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_groups_rejected() {
        let x = Tensor::zeros(&[10, 7]);
        group_whiten(&x, 2, WhiteningMethod::Zca, 1e-5);
    }

    /// Relaxed fits run the Jacobi kernel on pool threads, one group each,
    /// and the full fit runs it on the caller's; neither may depend on how
    /// many threads there are. 12-wide groups, so the kernel's row blocks
    /// and tails are all in play.
    #[test]
    fn fits_are_bit_identical_across_thread_counts() {
        let x = correlated(300, 48, 9);
        let fresh = correlated(40, 48, 10);
        let run = |threads: usize| {
            wr_runtime::set_threads(threads);
            let full = WhiteningTransform::fit(&x, WhiteningMethod::Zca, 1e-6);
            let gw = GroupWhitening::fit(&x, 4, WhiteningMethod::Zca, 1e-6);
            let mut bits = vec![full.w, gw.apply(&x), gw.apply(&fresh)];
            bits.extend(gw.transforms.into_iter().map(|t| t.w));
            bits
        };
        let to_bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let serial = run(1);
        for threads in [2, 8] {
            let parallel = run(threads);
            wr_runtime::set_threads(1);
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(to_bits(a), to_bits(b), "WR_THREADS = {threads}");
            }
        }
    }

    #[test]
    fn fit_apply_on_new_data() {
        let x = correlated(500, 6, 5);
        let gw = GroupWhitening::fit(&x, 3, WhiteningMethod::Zca, 1e-6);
        assert_eq!(gw.groups(), 3);
        assert_eq!(gw.group_size(), 2);
        let fresh = correlated(50, 6, 6);
        let z = gw.apply(&fresh);
        assert_eq!(z.dims(), &[50, 6]);
        assert_eq!(z.non_finite_count(), 0);
    }
}
