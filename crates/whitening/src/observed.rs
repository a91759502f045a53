//! Observability wrappers: whitening with spans and embedding-health
//! telemetry.
//!
//! The paper's Recall-vs-isotropy story is *diagnostic*: whitening should
//! drive mean pairwise cosine from ≈0.85 toward 0 and the covariance
//! condition number toward 1. These wrappers make that observable per run
//! — [`observed_group_whiten`] times fit/apply with tracer spans and
//! records a [`wr_obs::EmbeddingHealth`] gauge set for the matrix before
//! (`<prefix>.pre.*`) and after (`<prefix>.post.*`) the transform.
//! Telemetry is write-only: the returned tensor is exactly what
//! [`group_whiten`] produces.

use wr_linalg::{covariance_of_rows, sym_eigvals};
use wr_obs::{EmbeddingHealth, HealthConfig, Telemetry};
use wr_tensor::Tensor;

use crate::{GroupWhitening, WhiteningMethod};

/// [`EmbeddingHealth`] of `x` (row-sample `[n, d]`) under `cfg`, on the
/// spectrum of its covariance from `wr_linalg::sym_eigvals` — the solver
/// behind the ZCA fit and Fig. 7's κ, so the gauge and the figure cannot
/// disagree. Degenerate shapes and non-finite tables are an `Err`.
fn embedding_health(x: &Tensor, cfg: &HealthConfig) -> Result<EmbeddingHealth, String> {
    let dims = x.dims();
    if dims.len() != 2 || dims[0] < 2 || dims[1] == 0 {
        return Err(format!("embedding health wants a matrix of ≥ 2 rows, got {dims:?}"));
    }
    let spectrum = sym_eigvals(&covariance_of_rows(x, 0.0)).map_err(|e| e.to_string())?;
    EmbeddingHealth::compute(x.data(), dims[0], dims[1], &spectrum, cfg)
}

/// Compute [`EmbeddingHealth`] for `x` (row-sample `[n, d]`) and record it
/// under `prefix` in `telemetry.registry`. Returns the health struct so
/// drivers can also print it. Degenerate inputs (fewer than 2 rows) are
/// reported as an `Err` without recording anything.
pub fn record_embedding_health(
    telemetry: &Telemetry,
    prefix: &str,
    x: &Tensor,
) -> Result<EmbeddingHealth, String> {
    let _span = telemetry.tracer.span(format!("{prefix}.health"), "whiten");
    let health = embedding_health(x, &HealthConfig::default())?;
    health.record(&telemetry.registry, prefix);
    Ok(health)
}

/// [`crate::group_whiten`] with telemetry: `whiten.fit` / `whiten.apply`
/// spans on the tracer, and pre/post [`EmbeddingHealth`] gauges under
/// `<prefix>.pre` / `<prefix>.post`.
///
/// Health recording failures (degenerate shapes) are swallowed — the
/// transform must behave identically with and without telemetry.
pub fn observed_group_whiten(
    x: &Tensor,
    groups: usize,
    method: WhiteningMethod,
    eps: f32,
    telemetry: &Telemetry,
    prefix: &str,
) -> Tensor {
    let _ = record_embedding_health(telemetry, &format!("{prefix}.pre"), x);
    let gw = {
        let _span = telemetry.tracer.span("whiten.fit", "whiten");
        GroupWhitening::fit(x, groups, method, eps)
    };
    let z = {
        let _span = telemetry.tracer.span("whiten.apply", "whiten");
        gw.apply(x)
    };
    let _ = record_embedding_health(telemetry, &format!("{prefix}.post"), &z);
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_EPS;
    use wr_tensor::Rng64;

    /// Anisotropic fixture: random rows pushed toward a common direction,
    /// mimicking the pre-trained text-embedding cone the paper measures.
    fn anisotropic(n: usize, d: usize, seed: u64) -> Tensor {
        let mut rng = Rng64::seed_from(seed);
        let mut x = Tensor::randn(&[n, d], &mut rng);
        for r in 0..n {
            let row = x.row_mut(r);
            for (c, v) in row.iter_mut().enumerate() {
                // Shared offset direction + per-dim scale spread.
                *v = *v * (1.0 + c as f32 * 0.3) + 3.0;
            }
        }
        x
    }

    #[test]
    fn whitening_lowers_cosine_and_condition_number() {
        let x = anisotropic(200, 8, 41);
        let tel = Telemetry::new();
        let z = observed_group_whiten(&x, 1, WhiteningMethod::Zca, DEFAULT_EPS, &tel, "whiten");
        assert_eq!(z.dims(), x.dims());

        let snap = tel.registry.snapshot();
        let gauge = |name: &str| {
            snap.gauges
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing gauge {name}"))
        };
        let pre_cos = gauge("whiten.pre.mean_pairwise_cosine");
        let post_cos = gauge("whiten.post.mean_pairwise_cosine");
        let pre_cond = gauge("whiten.pre.condition_number");
        let post_cond = gauge("whiten.post.condition_number");
        // The paper's direction: whitening reduces anisotropy and
        // ill-conditioning.
        assert!(
            post_cos < pre_cos,
            "cosine should drop: pre {pre_cos} post {post_cos}"
        );
        assert!(
            pre_cos > 0.5,
            "fixture should be anisotropic, got cosine {pre_cos}"
        );
        assert!(
            post_cos.abs() < 0.2,
            "whitened cosine should be near zero, got {post_cos}"
        );
        assert!(
            post_cond < pre_cond,
            "condition number should drop: pre {pre_cond} post {post_cond}"
        );
        assert!(
            post_cond < 2.0,
            "whitened covariance should be near-identity, got {post_cond}"
        );

        // Spans: pre-health, fit, apply, post-health.
        let names: Vec<String> = tel.tracer.events().iter().map(|e| e.name.clone()).collect();
        for want in ["whiten.pre.health", "whiten.fit", "whiten.apply", "whiten.post.health"] {
            assert!(names.iter().any(|n| n == want), "missing span {want}: {names:?}");
        }
    }

    #[test]
    fn observed_output_is_bit_identical_to_unobserved() {
        let x = anisotropic(64, 6, 9);
        let tel = Telemetry::new();
        let observed =
            observed_group_whiten(&x, 2, WhiteningMethod::Zca, DEFAULT_EPS, &tel, "whiten");
        let plain = crate::group_whiten(&x, 2, WhiteningMethod::Zca, DEFAULT_EPS);
        assert_eq!(observed.data(), plain.data());
    }

    #[test]
    fn health_condition_number_is_the_eval_crate_s() {
        // One solver: the gauge is `wr_eval::item_condition_number` (Fig. 7),
        // computed in f64 from the same f32 spectrum.
        let x = anisotropic(128, 6, 77);
        let tel = Telemetry::new();
        let h = record_embedding_health(&tel, "x", &x).unwrap();
        let reference = wr_eval::item_condition_number(&x).unwrap();
        assert_eq!((h.condition_number as f32).to_bits(), reference.to_bits());
    }

    #[test]
    fn degenerate_and_non_finite_tables_are_errors_not_panics() {
        let tel = Telemetry::new();
        for dims in [&[4][..], &[1, 4], &[0, 4], &[4, 0]] {
            assert!(record_embedding_health(&tel, "x", &Tensor::zeros(dims)).is_err());
        }
        let mut poisoned = anisotropic(8, 3, 1);
        poisoned.row_mut(2)[1] = f32::NAN;
        assert!(record_embedding_health(&tel, "x", &poisoned).is_err());
        assert!(tel.registry.snapshot().gauges.is_empty());
    }

    #[test]
    fn isotropic_random_data_has_low_cosine_and_condition() {
        let mut rng = Rng64::seed_from(11);
        let x = Tensor::from_vec(
            (0..4096).map(|_| rng.uniform_in(-0.5, 0.5)).collect(),
            &[512, 8],
        );
        let cfg = HealthConfig {
            top_k: 2,
            ..HealthConfig::default()
        };
        let h = embedding_health(&x, &cfg).unwrap();
        assert!(
            h.mean_pairwise_cosine.abs() < 0.15,
            "iid rows should be near-orthogonal on average, got {}",
            h.mean_pairwise_cosine
        );
        assert!(
            h.condition_number < 3.0,
            "iid covariance should be well-conditioned, got {}",
            h.condition_number
        );
        // 2 of 8 roughly equal directions ≈ 1/4 of the mass.
        assert!(h.top_k_singular_mass > 0.15 && h.top_k_singular_mass < 0.4);
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
        let cfg = HealthConfig {
            top_k: 1,
            ..HealthConfig::default()
        };
        let h = embedding_health(&x, &cfg).unwrap();
        assert!(
            h.mean_pairwise_cosine.abs() > 0.5,
            "rank-1 rows are parallel up to sign, got {}",
            h.mean_pairwise_cosine
        );
        assert!(
            h.top_k_singular_mass > 0.9,
            "one direction should hold the mass, got {}",
            h.top_k_singular_mass
        );
        assert!(
            h.condition_number > 1e3,
            "collapsed spectrum should be ill-conditioned, got {}",
            h.condition_number
        );
    }
}
