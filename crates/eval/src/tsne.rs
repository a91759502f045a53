//! Exact t-SNE (small-N) for the qualitative embedding plots of Fig. 3.

use wr_tensor::{Rng64, Tensor};

/// t-SNE hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct TsneConfig {
    pub perplexity: f32,
    pub iterations: usize,
    pub seed: u64,
}

impl Default for TsneConfig {
    fn default() -> Self {
        TsneConfig {
            perplexity: 30.0,
            iterations: 250,
            seed: 1,
        }
    }
}

/// Gradient-descent step size.
const LEARNING_RATE: f32 = 100.0;
/// Early-exaggeration factor applied for the first quarter of the run.
const EXAGGERATION: f32 = 4.0;

/// Exact (O(n²)) t-SNE embedding of the rows of `x` into 2-D.
///
/// Suited to the ≤2k-item plots of Fig. 3; the experiment harness samples
/// the catalog down before calling this.
pub fn tsne_2d(x: &Tensor, config: TsneConfig) -> Tensor {
    let n = x.rows();
    assert!(n >= 4, "t-SNE needs at least a handful of points");
    let p = joint_probabilities(x, config.perplexity);
    let mut rng = Rng64::seed_from(config.seed);
    let mut y = Tensor::randn(&[n, 2], &mut rng).scale(1e-2);
    let mut velocity = Tensor::zeros(&[n, 2]);
    let exaggeration_until = config.iterations / 4;

    for iter in 0..config.iterations {
        let exag = if iter < exaggeration_until {
            EXAGGERATION
        } else {
            1.0
        };
        // Student-t affinities in the embedding.
        let mut num = vec![0.0f32; n * n];
        let mut z = 0.0f64;
        for i in 0..n {
            for j in (i + 1)..n {
                let d2: f32 = y
                    .row(i)
                    .iter()
                    .zip(y.row(j))
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                let q = 1.0 / (1.0 + d2);
                num[i * n + j] = q;
                num[j * n + i] = q;
                z += 2.0 * q as f64;
            }
        }
        let z = (z as f32).max(1e-12);

        // Gradient: 4 Σ_j (exag·p_ij − q_ij) q_num_ij (y_i − y_j).
        let mut grad = Tensor::zeros(&[n, 2]);
        for i in 0..n {
            let mut gx = 0.0f32;
            let mut gy = 0.0f32;
            for j in 0..n {
                if i == j {
                    continue;
                }
                let qn = num[i * n + j];
                let q = qn / z;
                let coeff = 4.0 * (exag * p[i * n + j] - q) * qn;
                gx += coeff * (y.at2(i, 0) - y.at2(j, 0));
                gy += coeff * (y.at2(i, 1) - y.at2(j, 1));
            }
            *grad.at2_mut(i, 0) = gx;
            *grad.at2_mut(i, 1) = gy;
        }

        let momentum = if iter < exaggeration_until { 0.5 } else { 0.8 };
        velocity.scale_(momentum);
        velocity.axpy_(-LEARNING_RATE, &grad);
        y.add_assign_(&velocity);
    }
    y
}

/// Symmetric joint probabilities with per-point bandwidth calibrated to the
/// target perplexity by bisection.
fn joint_probabilities(x: &Tensor, perplexity: f32) -> Vec<f32> {
    let n = x.rows();
    // Pairwise squared distances.
    let mut d2 = vec![0.0f32; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d: f32 = x
                .row(i)
                .iter()
                .zip(x.row(j))
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            d2[i * n + j] = d;
            d2[j * n + i] = d;
        }
    }
    let target_entropy = perplexity.min((n - 1) as f32 / 1.05).max(2.0).ln();

    let mut p = vec![0.0f32; n * n];
    for i in 0..n {
        let row = &d2[i * n..(i + 1) * n];
        let (mut lo, mut hi) = (1e-8f32, 1e8f32);
        let mut beta = 1.0f32;
        for _ in 0..40 {
            let (h, probs) = row_entropy(row, i, beta);
            if (h - target_entropy).abs() < 1e-4 {
                write_row(&mut p, i, n, &probs);
                break;
            }
            if h > target_entropy {
                lo = beta;
                beta = if hi >= 1e8 { beta * 2.0 } else { 0.5 * (beta + hi) };
            } else {
                hi = beta;
                beta = 0.5 * (beta + lo);
            }
            write_row(&mut p, i, n, &probs);
        }
    }
    // Symmetrize and normalize.
    let mut joint = vec![0.0f32; n * n];
    let mut total = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            let v = 0.5 * (p[i * n + j] + p[j * n + i]);
            joint[i * n + j] = v;
            total += v as f64;
        }
    }
    let total = (total as f32).max(1e-12);
    for v in &mut joint {
        *v = (*v / total).max(1e-12);
    }
    joint
}

fn row_entropy(d2_row: &[f32], skip: usize, beta: f32) -> (f32, Vec<f32>) {
    let n = d2_row.len();
    let mut probs = vec![0.0f32; n];
    let mut sum = 0.0f32;
    for (j, &d) in d2_row.iter().enumerate() {
        if j == skip {
            continue;
        }
        let v = (-beta * d).exp();
        probs[j] = v;
        sum += v;
    }
    let sum = sum.max(1e-12);
    let mut h = 0.0f32;
    for pj in probs.iter_mut() {
        *pj /= sum;
        if *pj > 1e-12 {
            h -= *pj * pj.ln();
        }
    }
    (h, probs)
}

fn write_row(p: &mut [f32], i: usize, n: usize, probs: &[f32]) {
    p[i * n..(i + 1) * n].copy_from_slice(probs);
}

/// Clustering statistic for a 2-D point cloud: the ratio of the data's
/// mean nearest-neighbour distance to that of a uniform reference sample in
/// the same bounding box. ≈1 for a uniformly spread cloud (whitened,
/// Fig. 3b); ≪1 for cluttered/clustered clouds (raw and strongly relaxed
/// whitening, Fig. 3a/d).
pub fn radial_dispersion(y: &Tensor) -> f32 {
    assert!(y.rank() == 2 && y.cols() == 2, "expects [n, 2] points");
    let n = y.rows();
    assert!(n >= 4);
    // Bounding box.
    let (mut xmin, mut xmax) = (f32::INFINITY, f32::NEG_INFINITY);
    let (mut ymin, mut ymax) = (f32::INFINITY, f32::NEG_INFINITY);
    for r in 0..n {
        xmin = xmin.min(y.at2(r, 0));
        xmax = xmax.max(y.at2(r, 0));
        ymin = ymin.min(y.at2(r, 1));
        ymax = ymax.max(y.at2(r, 1));
    }
    let mut rng = Rng64::seed_from(0xD15C);
    let mut reference = Tensor::zeros(&[n, 2]);
    for r in 0..n {
        *reference.at2_mut(r, 0) = rng.uniform_in(xmin, xmax);
        *reference.at2_mut(r, 1) = rng.uniform_in(ymin, ymax);
    }
    mean_nn_distance(y) / mean_nn_distance(&reference).max(1e-12)
}

fn mean_nn_distance(y: &Tensor) -> f32 {
    let n = y.rows();
    let mut total = 0.0f64;
    for i in 0..n {
        let mut best = f32::INFINITY;
        for j in 0..n {
            if i == j {
                continue;
            }
            let d2 = (y.at2(i, 0) - y.at2(j, 0)).powi(2) + (y.at2(i, 1) - y.at2(j, 1)).powi(2);
            best = best.min(d2);
        }
        total += best.sqrt() as f64;
    }
    (total / n as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_clusters(n: usize, sep: f32, seed: u64) -> Tensor {
        let mut rng = Rng64::seed_from(seed);
        let mut x = Tensor::randn(&[n, 8], &mut rng).scale(0.3);
        for r in 0..n / 2 {
            x.row_mut(r)[0] += sep;
        }
        x
    }

    #[test]
    fn tsne_separates_clusters() {
        let x = two_clusters(60, 8.0, 1);
        let y = tsne_2d(
            &x,
            TsneConfig {
                perplexity: 10.0,
                iterations: 200,
                ..TsneConfig::default()
            },
        );
        assert_eq!(y.dims(), &[60, 2]);
        assert_eq!(y.non_finite_count(), 0);
        // Between-cluster distance should exceed within-cluster spread.
        let centroid = |range: std::ops::Range<usize>| {
            let mut cx = 0.0;
            let mut cy = 0.0;
            for r in range.clone() {
                cx += y.at2(r, 0);
                cy += y.at2(r, 1);
            }
            let m = range.len() as f32;
            (cx / m, cy / m)
        };
        let (ax, ay) = centroid(0..30);
        let (bx, by) = centroid(30..60);
        let between = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
        let mut within = 0.0f32;
        for r in 0..30 {
            within += ((y.at2(r, 0) - ax).powi(2) + (y.at2(r, 1) - ay).powi(2)).sqrt();
        }
        within /= 30.0;
        assert!(
            between > 2.0 * within,
            "clusters not separated: between {between}, within {within}"
        );
    }

    #[test]
    fn dispersion_separates_uniform_from_clustered() {
        let mut rng = Rng64::seed_from(2);
        // Uniform cloud in a box.
        let data = (0..800).map(|_| rng.uniform_in(-5.0, 5.0)).collect();
        let uniform = Tensor::from_vec(data, &[400, 2]);
        // Two tight far-apart clusters in a similar bounding box.
        let clustered = {
            let mut c = Tensor::randn(&[400, 2], &mut rng).scale(0.15);
            for r in 0..200 {
                c.row_mut(r)[0] += 10.0;
            }
            c
        };
        let du = radial_dispersion(&uniform);
        let dc = radial_dispersion(&clustered);
        assert!(du > 0.7, "uniform cloud scored {du}");
        assert!(dc < 0.5 * du, "clustered {dc} vs uniform {du}");
    }

    #[test]
    fn tsne_is_deterministic() {
        let x = two_clusters(24, 4.0, 3);
        let cfg = TsneConfig {
            iterations: 50,
            ..TsneConfig::default()
        };
        let a = tsne_2d(&x, cfg);
        let b = tsne_2d(&x, cfg);
        assert_eq!(a.data(), b.data());
    }
}
