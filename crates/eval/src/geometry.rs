//! The paper's embedding-geometry statistics, each stated once: anisotropy
//! (mean pairwise cosine, §III-B, and its CDF, Fig. 4), the singular
//! spectrum (Fig. 2), alignment and uniformity (Eq. 7, Fig. 6), the
//! covariance condition number κ (Fig. 7) and the whiteness error.
//!
//! The figures, `whitenrec analyze` and the `whiten.{pre,post}.*` gauges
//! (`whitenrec::ExperimentContext::record_whitening_health`) all call these
//! functions, so a gauge and the figure of the same name print the same
//! bits. κ and the top-k singular mass share one eigensolve
//! ([`covariance_spectrum`]).

use wr_linalg::{condition_number, covariance_of_rows, singular_values, sym_eigvals, LinalgError};
use wr_tensor::{Rng64, Tensor};

/// `‖cov(Z) − I‖_F / √d` — 0 for perfectly whitened rows.
pub fn whiteness_error(z: &Tensor) -> f32 {
    let d = z.cols();
    let cov = covariance_of_rows(z, 0.0);
    cov.sub(&Tensor::eye(d)).frob_norm() / (d as f32).sqrt()
}

/// Cosine similarities of `samples` random distinct row pairs.
pub fn pairwise_cosines(x: &Tensor, samples: usize, seed: u64) -> Vec<f32> {
    assert!(x.rank() == 2 && x.rows() >= 2, "need at least two rows");
    let mut rng = Rng64::seed_from(seed);
    let n = x.rows();
    let mut out = Vec::with_capacity(samples);
    for _ in 0..samples {
        let i = rng.below(n);
        let mut j = rng.below(n);
        while j == i {
            j = rng.below(n);
        }
        out.push(cosine(x.row(i), x.row(j)));
    }
    out
}

/// Mean cosine similarity over sampled item pairs (the paper's ≈0.85
/// anisotropy statistic, §III-B).
pub fn average_pairwise_cosine(x: &Tensor, samples: usize, seed: u64) -> f32 {
    let cs = pairwise_cosines(x, samples, seed);
    cs.iter().sum::<f32>() / cs.len() as f32
}

/// Empirical CDF of pairwise cosine similarities evaluated on a fixed grid
/// (Fig. 4). Returns `(grid, cdf)` with `cdf[k] = P(cos ≤ grid[k])`.
pub fn pairwise_cosine_cdf(
    x: &Tensor,
    samples: usize,
    grid_points: usize,
    seed: u64,
) -> (Vec<f32>, Vec<f32>) {
    let mut cs = pairwise_cosines(x, samples, seed);
    cs.sort_by(|a, b| a.total_cmp(b));
    let grid: Vec<f32> = (0..grid_points)
        .map(|k| -1.0 + 2.0 * k as f32 / (grid_points - 1) as f32)
        .collect();
    let cdf = grid
        .iter()
        .map(|&g| {
            let count = cs.partition_point(|&c| c <= g);
            count as f32 / cs.len() as f32
        })
        .collect();
    (grid, cdf)
}

fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let dot = wr_tensor::dot(a, b);
    let na = wr_tensor::dot(a, a).sqrt();
    let nb = wr_tensor::dot(b, b).sqrt();
    // Exact zero-norm guard before the division; a tolerance here would
    // silently zero out tiny-but-real vectors.
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// `l_align = E ‖f(s_u) − f(v_i)‖²` over positive user–item pairs, with
/// `f` = L2 normalization. `users` and `items` are row-aligned positives.
pub fn alignment(users: &Tensor, items: &Tensor) -> f32 {
    assert_eq!(users.dims(), items.dims(), "positives must be row-aligned");
    let u = users.l2_normalize_rows();
    let v = items.l2_normalize_rows();
    let mut total = 0.0f64;
    for r in 0..u.rows() {
        let d: f32 = u
            .row(r)
            .iter()
            .zip(v.row(r))
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        total += d as f64;
    }
    (total / u.rows() as f64) as f32
}

/// `l_uniform = log E exp(−2‖f(x) − f(y)‖²)` over random same-set pairs.
/// Lower is more uniform.
pub fn uniformity(x: &Tensor, samples: usize, seed: u64) -> f32 {
    assert!(x.rows() >= 2, "uniformity needs at least two rows");
    let xn = x.l2_normalize_rows();
    let mut rng = Rng64::seed_from(seed);
    let mut acc = 0.0f64;
    for _ in 0..samples {
        let i = rng.below(xn.rows());
        let mut j = rng.below(xn.rows());
        while j == i {
            j = rng.below(xn.rows());
        }
        let d2: f32 = xn
            .row(i)
            .iter()
            .zip(xn.row(j))
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        acc += (-2.0 * d2 as f64).exp();
    }
    ((acc / samples as f64).ln()) as f32
}

/// The per-epoch point plotted in Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformityReport {
    pub align: f32,
    pub uniform_user: f32,
    pub uniform_item: f32,
}

impl UniformityReport {
    pub fn compute(
        users: &Tensor,
        positive_items: &Tensor,
        all_items: &Tensor,
        samples: usize,
        seed: u64,
    ) -> Self {
        UniformityReport {
            align: alignment(users, positive_items),
            uniform_user: uniformity(users, samples, seed),
            uniform_item: uniformity(all_items, samples, seed.wrapping_add(1)),
        }
    }
}

/// Floor under both ends of the spectrum in κ: keeps it finite for a
/// numerically singular covariance (Fig. 7 plots κ on a log scale).
const CONDITION_FLOOR: f32 = 1e-10;

/// Eigenvalues of the population covariance of `v`'s rows, descending:
/// the one eigensolve behind [`item_condition_number`] and
/// [`top_k_singular_mass`].
pub fn covariance_spectrum(v: &Tensor) -> Result<Vec<f32>, LinalgError> {
    sym_eigvals(&covariance_of_rows(v, 0.0))
}

/// κ of a [`covariance_spectrum`] — [`item_condition_number`] without the
/// eigensolve.
pub fn spectrum_condition_number(spectrum: &[f32]) -> f32 {
    condition_number(spectrum, CONDITION_FLOOR)
}

/// Condition number `κ` of the covariance of projected item embeddings
/// `V: [n_items, d]` — the quantity plotted (log-scale) in Fig. 7a–d.
///
/// Ill-conditioned covariance (large κ) destabilizes optimization; the
/// paper shows whitening keeps κ small and stable across epochs.
pub fn item_condition_number(v: &Tensor) -> Result<f32, LinalgError> {
    Ok(spectrum_condition_number(&covariance_spectrum(v)?))
}

/// Share of the singular-value mass `Σ σ_i` (`σ_i = √λ_i`, negative
/// round-off clamped to 0) the first `k` of a [`covariance_spectrum`] hold:
/// ≈ 1 for a collapsed table, `k / d` for a white one, 0 for a zero one.
pub fn top_k_singular_mass(spectrum: &[f32], k: usize) -> f64 {
    let sigmas: Vec<f64> = spectrum.iter().map(|&l| (l as f64).max(0.0).sqrt()).collect();
    let total: f64 = sigmas.iter().sum();
    let top: f64 = sigmas.iter().take(k).sum();
    if total > 0.0 {
        top / total
    } else {
        0.0
    }
}

/// Singular values of the centered embedding matrix, normalized so the
/// largest is 1 (the y-axis of Fig. 2).
pub fn normalized_singular_values(embeddings: &Tensor) -> Result<Vec<f32>, LinalgError> {
    let centered = embeddings.sub_row_broadcast(&embeddings.mean_rows());
    let mut sv = singular_values(&centered)?;
    let top = sv.first().copied().unwrap_or(0.0).max(1e-30);
    for s in &mut sv {
        *s /= top;
    }
    Ok(sv)
}

/// Summary report on one embedding matrix, bundling the statistics the
/// paper quotes for pre-trained text embeddings.
#[derive(Debug, Clone)]
pub struct EmbeddingReport {
    pub n_items: usize,
    pub dim: usize,
    pub average_cosine: f32,
    pub whiteness_error: f32,
    /// Fraction of spectral energy in the top-1 singular value.
    pub top1_energy: f32,
    /// Number of singular values above 10% of the maximum.
    pub effective_directions: usize,
}

impl EmbeddingReport {
    pub fn compute(embeddings: &Tensor, cosine_samples: usize, seed: u64) -> Result<Self, LinalgError> {
        let sv = normalized_singular_values(embeddings)?;
        let energy: f32 = sv.iter().map(|s| s * s).sum();
        let top1_energy = sv[0] * sv[0] / energy.max(1e-30);
        let effective_directions = sv.iter().filter(|&&s| s > 0.1).count();
        Ok(EmbeddingReport {
            n_items: embeddings.rows(),
            dim: embeddings.cols(),
            average_cosine: average_pairwise_cosine(embeddings, cosine_samples, seed),
            whiteness_error: whiteness_error(embeddings),
            top1_energy,
            effective_directions,
        })
    }
}

impl std::fmt::Display for EmbeddingReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} items × {} dims | avg cos {:.3} | whiteness err {:.3} | top-1 energy {:.1}% | {} effective dirs",
            self.n_items,
            self.dim,
            self.average_cosine,
            self.whiteness_error,
            self.top1_energy * 100.0,
            self.effective_directions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whiteness_of_gaussian_is_small() {
        let mut rng = Rng64::seed_from(1);
        let z = Tensor::randn(&[3000, 8], &mut rng);
        assert!(whiteness_error(&z) < 0.1);
    }

    #[test]
    fn whiteness_of_anisotropic_is_large() {
        let mut rng = Rng64::seed_from(2);
        let mut x = Tensor::randn(&[500, 8], &mut rng);
        for r in 0..500 {
            let base = x.at2(r, 0) * 10.0;
            for v in x.row_mut(r) {
                *v += base;
            }
        }
        assert!(whiteness_error(&x) > 1.0);
    }

    #[test]
    fn cosine_of_identical_rows_is_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 1.0, 2.0, 1.0, 2.0], &[3, 2]);
        let avg = average_pairwise_cosine(&x, 50, 3);
        assert!((avg - 1.0).abs() < 1e-5);
    }

    #[test]
    fn cosine_of_random_rows_near_zero() {
        let mut rng = Rng64::seed_from(4);
        let x = Tensor::randn(&[400, 64], &mut rng);
        let avg = average_pairwise_cosine(&x, 500, 5);
        assert!(avg.abs() < 0.1, "avg cosine {avg}");
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let mut rng = Rng64::seed_from(6);
        let x = Tensor::randn(&[200, 64], &mut rng);
        let (grid, cdf) = pairwise_cosine_cdf(&x, 1000, 41, 7);
        assert_eq!(grid.len(), 41);
        assert_eq!(cdf.len(), 41);
        for w in cdf.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(cdf[0] >= 0.0 && cdf[40] <= 1.0 + 1e-6);
        // random vectors: nearly everything below cos=0.5
        let idx = grid.iter().position(|&g| g >= 0.5).unwrap();
        assert!(cdf[idx] > 0.99);
    }

    #[test]
    fn zero_rows_yield_zero_cosine() {
        let x = Tensor::zeros(&[3, 4]);
        assert_eq!(average_pairwise_cosine(&x, 10, 1), 0.0);
    }

    #[test]
    fn alignment_zero_for_identical() {
        let mut rng = Rng64::seed_from(1);
        let x = Tensor::randn(&[10, 4], &mut rng);
        assert!(alignment(&x, &x) < 1e-10);
    }

    #[test]
    fn alignment_positive_for_different() {
        let mut rng = Rng64::seed_from(2);
        let a = Tensor::randn(&[50, 8], &mut rng);
        let b = Tensor::randn(&[50, 8], &mut rng);
        let l = alignment(&a, &b);
        // random unit vectors: E||a-b||² = 2
        assert!((l - 2.0).abs() < 0.3, "alignment {l}");
    }

    #[test]
    fn uniform_distribution_scores_lower() {
        let mut rng = Rng64::seed_from(3);
        // spread: random directions
        let spread = Tensor::randn(&[300, 16], &mut rng);
        // collapsed: tiny perturbations of one direction
        let mut collapsed = Tensor::zeros(&[300, 16]);
        for r in 0..300 {
            collapsed.row_mut(r)[0] = 1.0;
            collapsed.row_mut(r)[1] = 0.01 * rng.normal();
        }
        let lu_spread = uniformity(&spread, 2000, 4);
        let lu_collapsed = uniformity(&collapsed, 2000, 4);
        assert!(
            lu_spread < lu_collapsed - 0.5,
            "spread {lu_spread} vs collapsed {lu_collapsed}"
        );
    }

    #[test]
    fn uniformity_bounds() {
        // exp(-2 d²) ≤ 1 ⇒ log-mean ≤ 0, and ≥ exp(-2·4) for unit vectors.
        let mut rng = Rng64::seed_from(5);
        let x = Tensor::randn(&[100, 8], &mut rng);
        let lu = uniformity(&x, 1000, 6);
        assert!(lu <= 0.0 && lu >= -8.0, "lu = {lu}");
    }

    #[test]
    fn report_bundles_all_three() {
        let mut rng = Rng64::seed_from(7);
        let u = Tensor::randn(&[40, 8], &mut rng);
        let v = Tensor::randn(&[40, 8], &mut rng);
        let all = Tensor::randn(&[100, 8], &mut rng);
        let r = UniformityReport::compute(&u, &v, &all, 500, 8);
        assert!(r.align > 0.0);
        assert!(r.uniform_user < 0.0);
        assert!(r.uniform_item < 0.0);
    }

    #[test]
    fn whitened_matrix_is_well_conditioned() {
        let mut rng = Rng64::seed_from(1);
        let v = Tensor::randn(&[2000, 8], &mut rng);
        let k = item_condition_number(&v).unwrap();
        assert!(k < 2.0, "κ = {k}");
    }

    #[test]
    fn collapsed_matrix_is_ill_conditioned() {
        let mut rng = Rng64::seed_from(2);
        let mut v = Tensor::randn(&[500, 8], &mut rng).scale(0.01);
        for r in 0..500 {
            let a = rng.normal();
            for x in v.row_mut(r) {
                *x += a; // rank-1 dominant component
            }
        }
        let k = item_condition_number(&v).unwrap();
        assert!(k > 100.0, "κ = {k}");
    }

    #[test]
    fn top_k_singular_mass_follows_the_spectrum() {
        // λ = (4, 1, −ε): σ = (2, 1, 0), so the top direction holds 2/3 of
        // the mass; a slightly negative tail (solver round-off on a
        // singular covariance) counts as 0.
        assert!((top_k_singular_mass(&[4.0, 1.0, -1e-9], 1) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(top_k_singular_mass(&[4.0, 1.0, -1e-9], 3), 1.0);
        assert_eq!(top_k_singular_mass(&[0.0; 4], 2), 0.0);
    }

    // The two below are the recorder's: its constants (2 048 pairs, seed 7)
    // on the estimators the `whiten.*` gauges are recorded with.

    #[test]
    fn isotropic_random_data_has_low_cosine_and_condition() {
        let mut rng = Rng64::seed_from(11);
        let x = Tensor::from_vec(
            (0..4096).map(|_| rng.uniform_in(-0.5, 0.5)).collect(),
            &[512, 8],
        );
        let cosine = average_pairwise_cosine(&x, 2048, 7);
        let spectrum = covariance_spectrum(&x).unwrap();
        let kappa = spectrum_condition_number(&spectrum);
        let mass = top_k_singular_mass(&spectrum, 2);
        assert!(
            cosine.abs() < 0.15,
            "iid rows should be near-orthogonal on average, got {cosine}"
        );
        assert!(
            kappa < 3.0,
            "iid covariance should be well-conditioned, got {kappa}"
        );
        // 2 of 8 roughly equal directions ≈ 1/4 of the mass.
        assert!(mass > 0.15 && mass < 0.4);
    }

    #[test]
    fn collapsed_data_is_flagged_by_every_spectral_metric() {
        // Rank-1 structure plus a whisper of noise: x_i = s_i * u + eps.
        let (rows, cols) = (256, 8);
        let u: Vec<f32> = (0..cols).map(|c| (c as f32 + 1.0).sin()).collect();
        let mut rng = Rng64::seed_from(3);
        let mut x = Tensor::zeros(&[rows, cols]);
        for r in 0..rows {
            // Positive scales: every row points the same way, so the mean
            // pairwise cosine saturates as well as the spectrum collapsing.
            let s = rng.uniform_in(1e-3, 1.0);
            for (v, uc) in x.row_mut(r).iter_mut().zip(&u) {
                *v = s * uc + rng.uniform_in(-0.5e-3, 0.5e-3);
            }
        }
        let cosine = average_pairwise_cosine(&x, 2048, 7);
        let spectrum = covariance_spectrum(&x).unwrap();
        let kappa = spectrum_condition_number(&spectrum);
        let mass = top_k_singular_mass(&spectrum, 1);
        assert!(
            cosine.abs() > 0.5,
            "rank-1 rows are parallel up to sign, got {cosine}"
        );
        assert!(
            mass > 0.9,
            "one direction should hold the mass, got {mass}"
        );
        assert!(
            kappa > 1e3,
            "collapsed spectrum should be ill-conditioned, got {kappa}"
        );
    }

    #[test]
    fn isotropic_data_report() {
        let mut rng = Rng64::seed_from(1);
        let e = Tensor::randn(&[600, 16], &mut rng);
        let r = EmbeddingReport::compute(&e, 500, 2).unwrap();
        assert!(r.average_cosine.abs() < 0.1);
        assert!(r.effective_directions >= 14, "{r}");
        assert!(r.top1_energy < 0.2);
    }

    #[test]
    fn dominant_direction_report() {
        let mut rng = Rng64::seed_from(3);
        let mut e = Tensor::randn(&[600, 16], &mut rng).scale(0.05);
        for r in 0..600 {
            let a = 1.0 + 0.2 * rng.normal();
            e.row_mut(r)[0] += 5.0 * a;
        }
        let r = EmbeddingReport::compute(&e, 500, 4).unwrap();
        assert!(r.average_cosine > 0.8, "{r}");
        assert!(r.top1_energy > 0.5, "{r}");
        assert!(r.effective_directions < 5, "{r}");
    }

    #[test]
    fn normalized_spectrum_starts_at_one() {
        let mut rng = Rng64::seed_from(5);
        let e = Tensor::randn(&[100, 8], &mut rng);
        let sv = normalized_singular_values(&e).unwrap();
        assert!((sv[0] - 1.0).abs() < 1e-6);
        for w in sv.windows(2) {
            assert!(w[0] >= w[1] - 1e-6);
        }
    }

    #[test]
    fn display_formats() {
        let mut rng = Rng64::seed_from(6);
        let e = Tensor::randn(&[50, 4], &mut rng);
        let r = EmbeddingReport::compute(&e, 100, 7).unwrap();
        let s = r.to_string();
        assert!(s.contains("50 items"));
    }
}
