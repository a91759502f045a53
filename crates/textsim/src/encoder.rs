//! Simulated pre-trained text encoder.

use crate::Catalog;
use wr_tensor::{Rng64, Tensor};

/// Parameters of the simulated pre-trained encoder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlmConfig {
    /// Output embedding dimensionality (BERT's 768, scaled down).
    pub dim: usize,
    pub seed: u64,
}

impl Default for PlmConfig {
    fn default() -> Self {
        PlmConfig { dim: 256, seed: 7 }
    }
}

/// Norm of the shared "anisotropy" direction relative to signal. The
/// average pairwise cosine is ≈ `common²/(common² + signal² + noise²)`;
/// this targets ≈ 0.85 as measured on Arts/Toys/Tools (§III-B).
const COMMON_SCALE: f32 = 4.0;
/// Scale of the semantic-factor signal.
const SIGNAL_SCALE: f32 = 1.0;
/// Per-factor geometric decay of signal strength — produces the
/// fast-decaying singular spectrum of Fig. 2.
const SPECTRUM_DECAY: f32 = 0.7;
/// Isotropic residual noise ("everything BERT encodes that isn't our
/// factors").
const NOISE_SCALE: f32 = 0.35;
/// Condition number of a fixed ill-conditioned mixing matrix applied to
/// the final embeddings. Real PLM embeddings correlate dimensions at
/// wildly different scales; this is what makes them *hard to use
/// directly* (the paper's degeneration) while remaining information-
/// equivalent — whitening inverts the mixing exactly, an MLP has to learn
/// to.
const MIXING_CONDITION: f32 = 20.0;

/// The simulated encoder: a fixed random linear map from semantic factors
/// to `dim`-dimensional embeddings plus a large shared offset direction.
///
/// `e(item) = (COMMON_SCALE · u₀ · (1 + 0.1 ξ) + Σ_f decay^f · s_f · a_f
///            + noise) · M`,
/// with `u₀` and the `a_f` random fixed unit vectors and `M` the
/// ill-conditioned mixing. The `ξ` jitter keeps the common direction from
/// being perfectly constant (BERT's dominant direction varies slightly per
/// sentence).
#[derive(Debug, Clone)]
pub struct PlmEncoder {
    pub config: PlmConfig,
    /// `[1, dim]` shared direction.
    common: Tensor,
    /// `[n_factors, dim]` factor loading rows (already decay-scaled).
    loadings: Tensor,
    /// `[dim, dim]` ill-conditioned mixing applied to the final output.
    mixing: Tensor,
}

impl PlmEncoder {
    pub fn new(n_factors: usize, config: PlmConfig) -> Self {
        let mut rng = Rng64::seed_from(config.seed);
        let common = unit_rows(Tensor::randn(&[1, config.dim], &mut rng));
        let mut loadings = unit_rows(Tensor::randn(&[n_factors, config.dim], &mut rng));
        for f in 0..n_factors {
            let s = SIGNAL_SCALE * SPECTRUM_DECAY.powi(f as i32);
            for v in loadings.row_mut(f) {
                *v *= s;
            }
        }
        let mixing = ill_conditioned_mixing(config.dim, &mut rng);
        PlmEncoder {
            config,
            common,
            loadings,
            mixing,
        }
    }

    /// Encode every catalog item → `[n_items, dim]` embedding matrix.
    pub fn encode(&self, catalog: &Catalog) -> Tensor {
        self.encode_semantics(catalog.semantics())
    }

    /// Encode raw semantic vectors `[n, n_factors]`.
    pub fn encode_semantics(&self, semantics: &Tensor) -> Tensor {
        assert_eq!(
            semantics.cols(),
            self.loadings.rows(),
            "semantic dimensionality mismatch"
        );
        let mut rng = Rng64::seed_from(self.config.seed.wrapping_add(0x9E3779B9));
        let n = semantics.rows();
        let d = self.config.dim;

        // Signal: S · L.
        let mut e = semantics.matmul(&self.loadings);
        // Shared direction + residual noise.
        for r in 0..n {
            let jitter = 1.0 + 0.1 * rng.normal();
            let row = e.row_mut(r);
            for (j, v) in row.iter_mut().enumerate() {
                *v += COMMON_SCALE * jitter * self.common.data()[j]
                    + NOISE_SCALE * rng.normal() / (d as f32).sqrt() * 3.0;
            }
        }
        // Ill-conditioned mixing (information-preserving, geometry-ruining).
        e.matmul(&self.mixing)
    }

    pub fn dim(&self) -> usize {
        self.config.dim
    }
}

/// Build `M = Q₁ diag(s) Q₂` with log-spaced singular values from 1 down to
/// `1/MIXING_CONDITION`, where `Q₁,Q₂` are random orthogonal matrices
/// (eigenvector bases of random symmetric matrices).
fn ill_conditioned_mixing(dim: usize, rng: &mut Rng64) -> Tensor {
    let ortho = |rng: &mut Rng64| -> Tensor {
        let a = Tensor::randn(&[dim, dim], rng);
        let sym = a.add(&a.transpose());
        wr_linalg::sym_eig(&sym)
            .expect("random symmetric matrix eigendecomposition")
            .vectors
    };
    let q1 = ortho(rng);
    let q2 = ortho(rng);
    let mut scaled = q1;
    for j in 0..dim {
        let t = j as f32 / (dim - 1).max(1) as f32;
        let s = MIXING_CONDITION.powf(-t); // 1 → 1/MIXING_CONDITION, log-spaced
        for i in 0..dim {
            *scaled.at2_mut(i, j) *= s;
        }
    }
    scaled.matmul_nt(&q2)
}

fn unit_rows(mut t: Tensor) -> Tensor {
    for r in 0..t.rows() {
        let norm = t.row(r).iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
        for v in t.row_mut(r) {
            *v /= norm;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Catalog, CatalogConfig};
    use wr_eval::{average_pairwise_cosine, normalized_singular_values};

    fn catalog() -> Catalog {
        Catalog::generate(CatalogConfig {
            n_items: 1200,
            ..CatalogConfig::default()
        })
    }

    #[test]
    fn embeddings_are_anisotropic_like_bert() {
        let c = catalog();
        let enc = PlmEncoder::new(c.config.n_factors, PlmConfig::default());
        let e = enc.encode(&c);
        let avg = average_pairwise_cosine(&e, 1500, 3);
        // The paper reports 0.84–0.85 on the Amazon datasets.
        assert!(
            (0.72..=0.95).contains(&avg),
            "avg pairwise cosine {avg}, want ≈0.85"
        );
    }

    #[test]
    fn singular_values_decay_fast() {
        let c = catalog();
        let enc = PlmEncoder::new(c.config.n_factors, PlmConfig::default());
        let e = enc.encode(&c);
        let sv = normalized_singular_values(&e).unwrap();
        assert!((sv[0] - 1.0).abs() < 1e-5);
        // Fig. 2 shape: rapid drop — the bulk of the spectrum is far below
        // the leading directions (the ill-conditioned mixing keeps a longer
        // but still collapsing tail, like real BERT).
        assert!(sv[9] < 0.4, "sv[9] = {} — spectrum decays too slowly", sv[9]);
        assert!(sv[30] < 0.15, "sv[30] = {} — tail too heavy", sv[30]);
    }

    #[test]
    fn semantic_neighbors_stay_close_in_embedding_space() {
        let c = catalog();
        let enc = PlmEncoder::new(c.config.n_factors, PlmConfig::default());
        let e = enc.encode(&c);
        // Compare same- vs different-category cosine after removing the
        // common direction effect (use centered embeddings).
        let centered = e.sub_row_broadcast(&e.mean_rows());
        let cos = |i: usize, j: usize| {
            let (a, b) = (centered.row(i), centered.row(j));
            let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
            let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
            dot / (na * nb).max(1e-12)
        };
        let mut same = Vec::new();
        let mut diff = Vec::new();
        for i in (0..c.n_items()).step_by(13) {
            for j in (i + 1..c.n_items()).step_by(29) {
                if c.items[i].category == c.items[j].category {
                    same.push(cos(i, j));
                } else {
                    diff.push(cos(i, j));
                }
            }
        }
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        assert!(
            mean(&same) > mean(&diff) + 0.1,
            "same-cat {} vs diff-cat {}",
            mean(&same),
            mean(&diff)
        );
    }

    #[test]
    fn deterministic() {
        let c = catalog();
        let enc = PlmEncoder::new(c.config.n_factors, PlmConfig::default());
        let a = enc.encode(&c);
        let b = enc.encode(&c);
        assert_eq!(a.data(), b.data());
    }

    /// `ill_conditioned_mixing` is the one place that hands `sym_eig`
    /// *indefinite* matrices (`A + Aᵀ`), and every generated dataset sits
    /// downstream of it. The digest was computed with the textbook
    /// three-loop Jacobi (PR 16's tree); an eigensolver edit that moves one
    /// bit of an eigenvector moves it.
    #[test]
    fn encoder_output_bits_are_pinned() {
        let c = Catalog::generate(CatalogConfig {
            n_items: 40,
            ..CatalogConfig::default()
        });
        let config = PlmConfig {
            dim: 24,
            ..PlmConfig::default()
        };
        let e = PlmEncoder::new(c.config.n_factors, config).encode(&c);
        assert_eq!(e.dims(), &[40, 24]);
        let mut digest = 0xcbf29ce484222325u64; // FNV-1a over the f32 bits
        for v in e.data() {
            for byte in v.to_bits().to_le_bytes() {
                digest = (digest ^ byte as u64).wrapping_mul(0x100000001b3);
            }
        }
        assert_eq!(
            digest, 0x7c623b196fd23836,
            "encoder output moved: {digest:#018x}"
        );
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_factor_count_panics() {
        let enc = PlmEncoder::new(8, PlmConfig::default());
        enc.encode_semantics(&Tensor::zeros(&[4, 5]));
    }
}
