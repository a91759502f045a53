//! Normalizing-flow Gaussianization (the BERT-flow row of Table VI).
//!
//! BERT-flow learns an invertible map from the embedding distribution to a
//! latent Gaussian and uses the latents as sentence representations. We
//! train a small RealNVP-style stack of affine coupling layers by maximum
//! likelihood on the item-embedding matrix and emit the latents.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]

use wr_autograd::{Graph, Var};
use wr_nn::{Mlp, Module, Param, Session};
use wr_tensor::{Rng64, Tensor};
use wr_whiten::{WhiteningMethod, WhiteningTransform};

/// One affine coupling layer: the `keep` half passes through; the other
/// half is scaled/shifted by networks of the kept half. `swap` alternates
/// which half is transformed between layers.
#[derive(Debug, Clone)]
struct Coupling {
    s_net: Mlp,
    t_net: Mlp,
    swap: bool,
}

impl Coupling {
    fn new(half: usize, hidden: usize, swap: bool, rng: &mut Rng64) -> Self {
        Coupling {
            s_net: Mlp::new(&[half, hidden, half], false, 0.0, rng),
            t_net: Mlp::new(&[half, hidden, half], false, 0.0, rng),
            swap,
        }
    }

    /// Returns `(y, log_scale_sum)` where `log_scale_sum` is a graph node
    /// holding Σ log-scales (the layer's log-det contribution summed over
    /// the whole batch).
    fn forward(&self, sess: &mut Session, x: Var, dim: usize) -> (Var, Var) {
        let g = sess.graph;
        let half = dim / 2;
        let (keep, change) = if self.swap {
            (g.slice_cols(x, half, dim), g.slice_cols(x, 0, half))
        } else {
            (g.slice_cols(x, 0, half), g.slice_cols(x, half, dim))
        };
        // Bounded log-scale keeps the flow numerically tame.
        let s = g.tanh(self.s_net.forward(sess, keep));
        let t = self.t_net.forward(sess, keep);
        let scaled = g.add(g.mul(change, g.exp(s)), t);
        let y = if self.swap {
            g.concat_cols(&[scaled, keep])
        } else {
            g.concat_cols(&[keep, scaled])
        };
        (y, g.sum_all(s))
    }
}

impl Module for Coupling {
    fn params(&self) -> Vec<Param> {
        let mut ps = self.s_net.params();
        ps.extend(self.t_net.params());
        ps
    }
}

/// A fitted flow-based whitening: standardize, then push through the
/// trained coupling stack.
#[derive(Debug, Clone)]
pub struct FlowWhitening {
    standardizer: WhiteningTransform,
    layers: Vec<Coupling>,
    dim: usize,
    /// Final negative log-likelihood per sample, for diagnostics.
    pub final_nll: f32,
}

/// Coupling layers in the stack.
const LAYERS: usize = 4;
const _: () = assert!(LAYERS >= 1, "a flow needs a coupling layer");
/// Hidden width of each coupling layer's scale and shift networks.
const HIDDEN: usize = 64;
/// Rows per maximum-likelihood step.
const BATCH: usize = 256;
/// Adam learning rate of the maximum-likelihood fit.
const LR: f32 = 1e-3;

impl FlowWhitening {
    /// Train on `x: [n, d]` (d must be even) for `epochs` passes and
    /// return the fitted flow.
    pub fn fit(x: &Tensor, epochs: usize, seed: u64) -> Self {
        let d = x.cols();
        assert!(d % 2 == 0, "flow whitening needs an even dimension");
        let mut rng = Rng64::seed_from(seed);
        // Per-dimension standardization first (BN) so the flow starts near
        // a reasonable scale.
        let standardizer = WhiteningTransform::fit(x, WhiteningMethod::BatchNorm, 1e-5);
        let xs = standardizer.apply(x);

        let layers: Vec<Coupling> = (0..LAYERS)
            .map(|i| Coupling::new(d / 2, HIDDEN, i % 2 == 1, &mut rng))
            .collect();

        // Adam state per parameter id.
        let all_params: Vec<Param> = layers.iter().flat_map(|l| l.params()).collect();
        let mut m: Vec<Tensor> = all_params
            .iter()
            .map(|p| Tensor::zeros(&p.dims()))
            .collect();
        let mut v = m.clone();
        let (b1, b2, eps) = (0.9f32, 0.999f32, 1e-8f32);
        let mut step_no = 0usize;

        let n = xs.rows();
        let mut order: Vec<usize> = (0..n).collect();
        let mut final_nll = f32::INFINITY;

        for _epoch in 0..epochs {
            rng.shuffle(&mut order);
            let mut epoch_nll = 0.0f64;
            let mut batches = 0usize;
            for chunk in order.chunks(BATCH) {
                let batch = xs.gather_rows(chunk);
                let bsz = chunk.len() as f32;

                let g = Graph::new();
                let mut sess = Session::train(&g, rng.fork());
                let mut h = g.constant(batch);
                let mut logdet_sum: Option<Var> = None;
                for layer in &layers {
                    let (y, ls) = layer.forward(&mut sess, h, d);
                    h = y;
                    logdet_sum = Some(match logdet_sum {
                        Some(acc) => g.add(acc, ls),
                        None => ls,
                    });
                }
                // NLL/sample = 0.5·Σ y² / n − logdet / n (+ const).
                let sq = g.mul(h, h);
                let energy = g.scale(g.sum_all(sq), 0.5 / bsz);
                #[expect(
                    clippy::expect_used,
                    reason = "Some because LAYERS >= 1 is asserted at compile time, so the layer loop ran"
                )]
                let logdet = g.scale(logdet_sum.expect("≥1 layer"), 1.0 / bsz);
                let loss = g.sub(energy, logdet);
                epoch_nll += g.value(loss).item() as f64;
                batches += 1;

                g.backward(loss);
                step_no += 1;
                let bias1 = 1.0 - b1.powi(step_no as i32);
                let bias2 = 1.0 - b2.powi(step_no as i32);
                for (p, var) in sess.bindings() {
                    let Some(grad) = g.grad(*var) else { continue };
                    #[expect(
                        clippy::expect_used,
                        reason = "every bound param came from `layers`, the same source as `all_params`"
                    )]
                    let idx = all_params
                        .iter()
                        .position(|q| q.id() == p.id())
                        .expect("bound param not in registry");
                    let mt = &mut m[idx];
                    mt.scale_(b1);
                    mt.axpy_(1.0 - b1, &grad);
                    let vt = &mut v[idx];
                    vt.scale_(b2);
                    let g2 = grad.mul(&grad);
                    vt.axpy_(1.0 - b2, &g2);
                    let update: Vec<f32> = mt
                        .data()
                        .iter()
                        .zip(vt.data())
                        .map(|(&mi, &vi)| {
                            let mhat = mi / bias1;
                            let vhat = vi / bias2;
                            -LR * mhat / (vhat.sqrt() + eps)
                        })
                        .collect();
                    let delta = Tensor::from_vec(update, &grad.dims().to_vec());
                    p.update(|t| t.add_assign_(&delta));
                }
            }
            final_nll = (epoch_nll / batches as f64) as f32;
        }

        FlowWhitening {
            standardizer,
            layers,
            dim: d,
            final_nll,
        }
    }

    /// Transform rows of `x` into flow latents.
    pub fn apply(&self, x: &Tensor) -> Tensor {
        let xs = self.standardizer.apply(x);
        let g = Graph::new();
        let mut sess = Session::eval(&g);
        let mut h = g.constant(xs);
        for layer in &self.layers {
            let (y, _) = layer.forward(&mut sess, h, self.dim);
            h = y;
        }
        g.value(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_eval::whiteness_error;

    fn skewed_data(n: usize, d: usize, seed: u64) -> Tensor {
        // Correlated + non-Gaussian (squared components mixed in).
        let mut rng = Rng64::seed_from(seed);
        let mut x = Tensor::randn(&[n, d], &mut rng);
        for r in 0..n {
            let base = x.at2(r, 0);
            for (j, v) in x.row_mut(r).iter_mut().enumerate() {
                if j > 0 {
                    *v = 0.5 * *v + 0.8 * base + 0.3 * base * base;
                }
            }
        }
        x
    }

    #[test]
    fn training_reduces_nll() {
        let x = skewed_data(512, 8, 1);
        let short = FlowWhitening::fit(&x, 1, 7);
        let long = FlowWhitening::fit(&x, 10, 7);
        assert!(
            long.final_nll < short.final_nll,
            "NLL did not improve: {} -> {}",
            short.final_nll,
            long.final_nll
        );
    }

    #[test]
    fn flow_improves_whiteness() {
        let x = skewed_data(512, 8, 2);
        let before = whiteness_error(&x);
        let flow = FlowWhitening::fit(&x, 8, 3);
        let z = flow.apply(&x);
        let after = whiteness_error(&z);
        assert_eq!(z.dims(), &[512, 8]);
        assert_eq!(z.non_finite_count(), 0);
        assert!(after < before, "whiteness {before} -> {after}");
    }

    /// FNV-1a over the bits of `final_nll` and of every latent `apply`
    /// emits for two small fits, so any change that moves the flow's bits
    /// (its coupling's `exp`, the Adam update, the kernels under its tape)
    /// shows here before it reaches Table VI's BERT-flow row. Each fit is
    /// run twice: the digest is a function of data and seed alone.
    #[test]
    fn digest_probe() {
        fn digest(n: usize, d: usize, epochs: usize) -> u64 {
            let x = skewed_data(n, d, 11);
            let flow = FlowWhitening::fit(&x, epochs, 5);
            let z = flow.apply(&x);
            let mut h = 0xcbf29ce484222325u64;
            let bits = std::iter::once(flow.final_nll).chain(z.data().iter().copied());
            for v in bits {
                for byte in v.to_bits().to_le_bytes() {
                    h = (h ^ byte as u64).wrapping_mul(0x100000001b3);
                }
            }
            h
        }
        for (n, d, epochs, pinned) in [
            (300, 16, 3, 0x6c7f1dc6687fe8d0),
            (700, 32, 2, 0xb5791af80e2aba08),
        ] {
            let got = digest(n, d, epochs);
            assert_eq!(got, digest(n, d, epochs), "{n}×{d}: two fits differ");
            assert_eq!(got, pinned, "{n}×{d}×{epochs}: flow digest {got:#018x}");
        }
    }

    #[test]
    #[should_panic(expected = "even dimension")]
    fn odd_dimension_rejected() {
        let x = Tensor::zeros(&[10, 7]);
        FlowWhitening::fit(&x, 8, 1);
    }
}
