//! Embedding-health diagnostics: the paper's anisotropy statistics as
//! continuously recordable gauges.
//!
//! WhitenRec's argument is diagnostic: pre-trained text embeddings are
//! anisotropic — mean pairwise cosine ≈ 0.85, singular-value mass
//! concentrated in a few directions, ill-conditioned covariance — and
//! whitening fixes exactly that. This module computes those statistics on
//! a raw row-major `f32` matrix so any layer can record them against a
//! [`crate::Registry`] without depending on the tensor stack (`wr-obs`
//! sits *below* `wr-runtime`, which `wr-tensor` depends on). The one
//! thing it cannot compute down here is an eigendecomposition, so the
//! caller hands in the covariance spectrum: `wr_whiten`'s
//! `record_embedding_health` takes it from `wr_linalg::sym_eigvals`, the
//! solver behind `wr_eval::item_condition_number` and Fig. 7.
//!
//! Metrics (embeddings `x_1 … x_n ∈ R^d`, `Σ` the column-centered
//! population covariance, eigenvalues `λ_1 ≥ … ≥ λ_d ≥ 0`, singular
//! values `σ_i = √λ_i`):
//!
//! * **mean pairwise cosine** — `E[cos(x_i, x_j)]` over sampled `i ≠ j`
//!   pairs; the paper's headline anisotropy number (≈0.85 raw, ≈0 white).
//! * **top-k singular mass** — `Σ_{i≤k} σ_i / Σ_i σ_i`: how much of the
//!   spectrum the leading `k` directions hold (≈1 collapsed, `k/d` white).
//! * **condition number** — `λ_max / max(λ_min, floor)`, equal to
//!   `wr_eval::item_condition_number` whenever the floor is not reached
//!   (→ 1 when whitened).
//! * **uniformity** — `log E[exp(−2‖x̂_i − x̂_j‖²)]` over sampled pairs of
//!   L2-normalized rows (Wang & Isola); lower = more uniform.
//! * **alignment** — `E[‖x̂_i − ŷ_i‖²]` over row-aligned pairs of two
//!   matrices (e.g. user representation vs. target item), see
//!   [`alignment`].
//!
//! Pair sampling uses a fixed-seed splitmix64 stream, so every value here
//! is a pure function of the input matrix — health gauges never introduce
//! run-to-run jitter into metric snapshots.

use crate::registry::Registry;

/// Knobs for [`EmbeddingHealth::compute`].
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// `k` for the top-k singular-mass ratio (clamped to the dimension).
    pub top_k: usize,
    /// Seed for the deterministic pair-sampling stream.
    pub seed: u64,
    /// Floor applied to the smallest eigenvalue in the condition number,
    /// matching `wr_linalg::condition_number`'s default.
    pub cond_floor: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            top_k: 10,
            seed: 7,
            cond_floor: 1e-10,
        }
    }
}

/// The computed diagnostics for one embedding matrix.
#[derive(Debug, Clone, Copy)]
pub struct EmbeddingHealth {
    pub rows: usize,
    pub cols: usize,
    pub mean_pairwise_cosine: f64,
    pub top_k_singular_mass: f64,
    /// The `k` actually used (config `top_k` clamped to `cols`).
    pub top_k: usize,
    pub condition_number: f64,
    pub uniformity: f64,
}

/// splitmix64: tiny, seedable, and good enough for pair sampling.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0); modulo bias is irrelevant at these sizes.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn row(data: &[f32], cols: usize, i: usize) -> &[f32] {
    &data[i * cols..(i + 1) * cols]
}

fn dot(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| *x as f64 * *y as f64)
        .sum()
}

/// Number of sampled `i ≠ j` pairs for the cosine and uniformity
/// estimates (capped at `n·(n−1)` implicitly by sampling with replacement;
/// the estimate is what matters, not exhaustiveness).
const PAIR_SAMPLES: usize = 2048;

/// Deterministic sampled `i ≠ j` index pairs (with replacement).
fn sample_pairs(rows: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = SplitMix64(seed);
    let mut pairs = Vec::with_capacity(PAIR_SAMPLES);
    for _ in 0..PAIR_SAMPLES {
        let i = rng.below(rows);
        let mut j = rng.below(rows);
        if j == i {
            j = (j + 1) % rows;
        }
        pairs.push((i, j));
    }
    pairs
}

impl EmbeddingHealth {
    /// Compute all diagnostics for a row-major `rows × cols` matrix whose
    /// column-centered population covariance has the eigenvalues
    /// `spectrum`, descending.
    ///
    /// Errors (rather than panicking) on shape mismatch, fewer than two
    /// rows, or zero columns — health probes must never take down the
    /// pipeline they observe.
    pub fn compute(
        data: &[f32],
        rows: usize,
        cols: usize,
        spectrum: &[f32],
        cfg: &HealthConfig,
    ) -> Result<EmbeddingHealth, String> {
        if cols == 0 || rows < 2 {
            return Err(format!(
                "embedding health needs at least 2 rows and 1 column, got {rows}x{cols}"
            ));
        }
        if data.len() != rows * cols || spectrum.len() != cols {
            return Err(format!(
                "embedding health: data length {} / spectrum length {} != {rows}x{cols}",
                data.len(),
                spectrum.len()
            ));
        }

        let pairs = sample_pairs(rows, cfg.seed);

        // Mean pairwise cosine over sampled pairs (zero-norm rows skipped).
        let mut cos_sum = 0.0;
        let mut cos_n = 0usize;
        // Uniformity: log E exp(-2 ||x̂ - ŷ||²) over the same pairs.
        let mut unif_sum = 0.0;
        let mut unif_n = 0usize;
        for &(i, j) in &pairs {
            let a = row(data, cols, i);
            let b = row(data, cols, j);
            let na = dot(a, a).sqrt();
            let nb = dot(b, b).sqrt();
            if na > 0.0 && nb > 0.0 {
                let cos = dot(a, b) / (na * nb);
                cos_sum += cos;
                cos_n += 1;
                // ||x̂ - ŷ||² = 2 - 2 cos for unit vectors.
                unif_sum += (-2.0 * (2.0 - 2.0 * cos)).exp();
                unif_n += 1;
            }
        }
        let mean_pairwise_cosine = if cos_n > 0 {
            cos_sum / cos_n as f64
        } else {
            0.0
        };
        let uniformity = if unif_n > 0 {
            (unif_sum / unif_n as f64).ln()
        } else {
            0.0
        };

        let eig: Vec<f64> = spectrum.iter().map(|&l| (l as f64).max(0.0)).collect();
        let lambda_max = eig.first().copied().unwrap_or(0.0);
        let lambda_min = eig.last().copied().unwrap_or(0.0);
        let condition_number = lambda_max / lambda_min.max(cfg.cond_floor);

        let sigmas: Vec<f64> = eig.iter().map(|l| l.sqrt()).collect();
        let total: f64 = sigmas.iter().sum();
        let k = cfg.top_k.clamp(1, cols);
        let top: f64 = sigmas.iter().take(k).sum();
        let top_k_singular_mass = if total > 0.0 { top / total } else { 0.0 };

        Ok(EmbeddingHealth {
            rows,
            cols,
            mean_pairwise_cosine,
            top_k_singular_mass,
            top_k: k,
            condition_number,
            uniformity,
        })
    }

    /// Record every diagnostic as a gauge under `prefix` (e.g.
    /// `whiten.pre.condition_number`).
    pub fn record(&self, registry: &Registry, prefix: &str) {
        registry
            .gauge(&format!("{prefix}.mean_pairwise_cosine"))
            .set(self.mean_pairwise_cosine);
        registry
            .gauge(&format!("{prefix}.top_k_singular_mass"))
            .set(self.top_k_singular_mass);
        registry
            .gauge(&format!("{prefix}.top_k"))
            .set(self.top_k as f64);
        registry
            .gauge(&format!("{prefix}.condition_number"))
            .set(self.condition_number);
        registry
            .gauge(&format!("{prefix}.uniformity"))
            .set(self.uniformity);
        registry.gauge(&format!("{prefix}.rows")).set(self.rows as f64);
        registry.gauge(&format!("{prefix}.cols")).set(self.cols as f64);
    }
}

/// Alignment (Wang & Isola): mean squared distance `E[‖x̂_i − ŷ_i‖²]`
/// between L2-normalized row-aligned pairs of two `rows × cols` matrices
/// (e.g. user representations vs. their target-item embeddings). Lower is
/// better-aligned. Zero-norm rows are skipped.
pub fn alignment(a: &[f32], b: &[f32], rows: usize, cols: usize) -> Result<f64, String> {
    if a.len() != rows * cols || b.len() != rows * cols {
        return Err(format!(
            "alignment: lengths {} / {} != {rows}x{cols}",
            a.len(),
            b.len()
        ));
    }
    if rows == 0 || cols == 0 {
        return Err("alignment needs a non-empty matrix pair".into());
    }
    let mut sum = 0.0;
    let mut n = 0usize;
    for i in 0..rows {
        let ra = row(a, cols, i);
        let rb = row(b, cols, i);
        let na = dot(ra, ra).sqrt();
        let nb = dot(rb, rb).sqrt();
        if na > 0.0 && nb > 0.0 {
            let mut d2 = 0.0;
            for (x, y) in ra.iter().zip(rb.iter()) {
                let dxy = *x as f64 / na - *y as f64 / nb;
                d2 += dxy * dxy;
            }
            sum += d2;
            n += 1;
        }
    }
    if n == 0 {
        return Err("alignment: every row pair had a zero norm".into());
    }
    Ok(sum / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random matrix in [-0.5, 0.5).
    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
        let mut rng = SplitMix64(seed);
        (0..rows * cols)
            .map(|_| (rng.next() >> 11) as f32 / (1u64 << 53) as f32 - 0.5)
            .collect()
    }

    #[test]
    fn identical_rows_are_maximally_anisotropic() {
        let rows = 16;
        let cols = 4;
        let one_row = [0.3f32, -1.2, 0.7, 2.0];
        let data: Vec<f32> = (0..rows).flat_map(|_| one_row).collect();
        // All rows identical → zero covariance in every direction; the
        // spectrum is degenerate and the floor kicks in.
        let h = EmbeddingHealth::compute(&data, rows, cols, &[0.0; 4], &HealthConfig::default())
            .unwrap();
        assert!(
            (h.mean_pairwise_cosine - 1.0).abs() < 1e-9,
            "cosine {} should be 1 for identical rows",
            h.mean_pairwise_cosine
        );
        assert!(h.top_k_singular_mass <= 1.0 + 1e-12);
        assert!(h.condition_number.abs() < 1e-12, "0 / floor, got {}", h.condition_number);
    }

    #[test]
    fn spectral_metrics_follow_the_given_spectrum() {
        // λ = (4, 1, −ε): σ = (2, 1, 0), so the top direction holds 2/3 of
        // the mass; a slightly negative tail (solver round-off on a
        // singular covariance) is clamped to 0 and floored.
        let data = random_matrix(8, 3, 1);
        let cfg = HealthConfig {
            top_k: 1,
            cond_floor: 0.5,
            ..HealthConfig::default()
        };
        let h = EmbeddingHealth::compute(&data, 8, 3, &[4.0, 1.0, -1e-9], &cfg).unwrap();
        assert!((h.top_k_singular_mass - 2.0 / 3.0).abs() < 1e-12);
        assert!((h.condition_number - 8.0).abs() < 1e-12);
        let h = EmbeddingHealth::compute(&data, 8, 3, &[4.0, 1.0, 0.25], &cfg).unwrap();
        assert!((h.condition_number - 8.0).abs() < 1e-12, "0.25 is under the 0.5 floor");
        let h = EmbeddingHealth::compute(&data, 8, 3, &[4.0, 2.0, 1.0], &cfg).unwrap();
        assert!((h.condition_number - 4.0).abs() < 1e-12);
    }

    #[test]
    fn health_is_deterministic() {
        let data = random_matrix(64, 6, 42);
        let cfg = HealthConfig::default();
        let spectrum = [0.1, 0.09, 0.085, 0.08, 0.07, 0.06];
        let a = EmbeddingHealth::compute(&data, 64, 6, &spectrum, &cfg).unwrap();
        let b = EmbeddingHealth::compute(&data, 64, 6, &spectrum, &cfg).unwrap();
        assert_eq!(a.mean_pairwise_cosine.to_bits(), b.mean_pairwise_cosine.to_bits());
        assert_eq!(a.condition_number.to_bits(), b.condition_number.to_bits());
        assert_eq!(a.uniformity.to_bits(), b.uniformity.to_bits());
    }

    #[test]
    fn degenerate_shapes_error_instead_of_panicking() {
        let cfg = HealthConfig::default();
        assert!(EmbeddingHealth::compute(&[], 0, 4, &[0.0; 4], &cfg).is_err());
        assert!(EmbeddingHealth::compute(&[1.0], 1, 1, &[0.0], &cfg).is_err());
        assert!(EmbeddingHealth::compute(&[1.0; 6], 2, 4, &[0.0; 4], &cfg).is_err());
        // A spectrum that is not one eigenvalue per column.
        assert!(EmbeddingHealth::compute(&[1.0; 8], 2, 4, &[0.0; 3], &cfg).is_err());
    }

    #[test]
    fn record_writes_every_gauge() {
        let data = random_matrix(32, 4, 5);
        let h = EmbeddingHealth::compute(&data, 32, 4, &[1.0; 4], &HealthConfig::default())
            .unwrap();
        let reg = Registry::new();
        h.record(&reg, "emb");
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.gauges.iter().map(|(n, _)| n.as_str()).collect();
        for want in [
            "emb.mean_pairwise_cosine",
            "emb.top_k_singular_mass",
            "emb.condition_number",
            "emb.uniformity",
            "emb.rows",
            "emb.cols",
        ] {
            assert!(names.contains(&want), "missing gauge {want}");
        }
    }

    #[test]
    fn alignment_is_zero_for_identical_and_two_for_opposite() {
        let a = vec![1.0f32, 0.0, 0.0, 1.0];
        let b = vec![2.0f32, 0.0, 0.0, 3.0]; // same directions, different norms
        let al = alignment(&a, &b, 2, 2).unwrap();
        assert!(al.abs() < 1e-12);
        let c = vec![-1.0f32, 0.0, 0.0, -1.0];
        let al = alignment(&a, &c, 2, 2).unwrap();
        assert!((al - 4.0).abs() < 1e-9); // ||x̂ + x̂||² = 4 for unit rows
        assert!(alignment(&a, &b, 3, 2).is_err());
    }
}
