//! Adam optimizer (Kingma & Ba), with RecBole-style L2 weight decay.

use std::collections::BTreeMap;

use wr_autograd::{Graph, Var};
use wr_nn::Param;
use wr_tensor::Tensor;

/// Adam hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    pub lr: f32,
    /// L2 penalty folded into the gradient (`grad += wd * θ`), matching
    /// `torch.optim.Adam(weight_decay=…)` which the paper tunes in
    /// {0, 1e-6, 1e-4}.
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-3,
            weight_decay: 0.0,
        }
    }
}

/// First-moment decay (`torch.optim.Adam`'s default).
const BETA1: f32 = 0.9;
/// Second-moment decay (`torch.optim.Adam`'s default).
const BETA2: f32 = 0.999;
/// Added to `√v̂` in the update's denominator.
const EPS: f32 = 1e-8;
/// Gradients are clipped to this global L2 norm when finite.
const CLIP_NORM: f32 = 5.0;

struct Slot {
    m: Tensor,
    v: Tensor,
}

/// Adam with state keyed by stable parameter ids, so the same optimizer
/// instance follows parameters across the fresh graph built each step.
pub struct Adam {
    pub config: AdamConfig,
    state: BTreeMap<u64, Slot>,
    step: u64,
    /// Pre-clip global gradient L2 norm of the latest step — telemetry
    /// only (the trainer's grad-norm histogram); never read by the update.
    last_grad_norm: f32,
}

impl Adam {
    pub fn new(config: AdamConfig) -> Self {
        Adam {
            config,
            state: BTreeMap::new(),
            step: 0,
            last_grad_norm: 0.0,
        }
    }

    /// Apply one update from the gradients recorded on `graph` for the
    /// given `(param, var)` bindings. Bindings without a gradient are
    /// skipped (e.g. unused heads).
    pub fn step(&mut self, graph: &Graph, bindings: &[(Param, Var)]) {
        self.step += 1;
        let c = self.config;
        let bias1 = 1.0 - BETA1.powi(self.step as i32);
        let bias2 = 1.0 - BETA2.powi(self.step as i32);

        // Global-norm clipping across all gradients of this step.
        let mut sq_sum = 0.0f64;
        let mut grads: Vec<(usize, Tensor)> = Vec::with_capacity(bindings.len());
        for (i, (_, var)) in bindings.iter().enumerate() {
            if let Some(g) = graph.grad(*var) {
                sq_sum += g.data().iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>();
                grads.push((i, g));
            }
        }
        let norm = (sq_sum as f32).sqrt();
        self.last_grad_norm = norm;
        let clip_scale = if norm.is_finite() && norm > CLIP_NORM {
            CLIP_NORM / norm
        } else {
            1.0
        };

        for (i, mut grad) in grads {
            let param = &bindings[i].0;
            // Exact sentinel: 1.0 means "no clipping happened", skipping a
            // full-tensor scale; any other value must scale even if within
            // epsilon of 1.
            if clip_scale != 1.0 {
                grad.scale_(clip_scale);
            }
            if c.weight_decay > 0.0 {
                let value = param.get();
                grad.axpy_(c.weight_decay, &value);
            }
            let slot = self.state.entry(param.id()).or_insert_with(|| Slot {
                m: Tensor::zeros(&grad.dims().to_vec()),
                v: Tensor::zeros(&grad.dims().to_vec()),
            });
            slot.m.scale_(BETA1);
            slot.m.axpy_(1.0 - BETA1, &grad);
            slot.v.scale_(BETA2);
            let g2 = grad.mul(&grad);
            slot.v.axpy_(1.0 - BETA2, &g2);

            let delta: Vec<f32> = slot
                .m
                .data()
                .iter()
                .zip(slot.v.data())
                .map(|(&m, &v)| {
                    let mhat = m / bias1;
                    let vhat = v / bias2;
                    -c.lr * mhat / (vhat.sqrt() + EPS)
                })
                .collect();
            let delta = Tensor::from_vec(delta, &grad.dims().to_vec());
            param.update(|t| t.add_assign_(&delta));
        }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Pre-clip global gradient L2 norm of the most recent [`Adam::step`]
    /// (0.0 before any step). Exposed for the trainer's grad-norm
    /// histogram; the update itself never reads it back.
    pub fn last_grad_norm(&self) -> f32 {
        self.last_grad_norm
    }

    /// Snapshot the optimizer state keyed by parameter *position* in
    /// `params`. Runtime `Param::id`s are assigned per process, so a
    /// checkpoint written by one run must not record them — the position
    /// in a model's deterministic `params()` order is the stable key.
    /// Parameters that never received a gradient export `None`.
    pub fn export_state(&self, params: &[Param]) -> AdamStateExport {
        AdamStateExport {
            step: self.step,
            slots: params
                .iter()
                .map(|p| self.state.get(&p.id()).map(|s| (s.m.clone(), s.v.clone())))
                .collect(),
        }
    }

    /// Restore state exported by [`Adam::export_state`], re-keying each
    /// positional slot to the *current* runtime id of the parameter at
    /// that position. Replaces any existing state.
    pub fn import_state(
        &mut self,
        params: &[Param],
        export: &AdamStateExport,
    ) -> Result<(), String> {
        if params.len() != export.slots.len() {
            return Err(format!(
                "optimizer state has {} slots but model has {} parameters",
                export.slots.len(),
                params.len()
            ));
        }
        for (i, (p, slot)) in params.iter().zip(&export.slots).enumerate() {
            if let Some((m, v)) = slot {
                if m.dims() != p.dims() || v.dims() != p.dims() {
                    return Err(format!(
                        "slot {i} ({:?}): moments {:?}/{:?} vs parameter {:?}",
                        p.name(),
                        m.dims(),
                        v.dims(),
                        p.dims()
                    ));
                }
            }
        }
        self.state.clear();
        self.step = export.step;
        self.last_grad_norm = 0.0;
        for (p, slot) in params.iter().zip(&export.slots) {
            if let Some((m, v)) = slot {
                self.state.insert(
                    p.id(),
                    Slot {
                        m: m.clone(),
                        v: v.clone(),
                    },
                );
            }
        }
        Ok(())
    }
}

/// Optimizer state detached from runtime parameter ids — the wire-safe
/// form produced by [`Adam::export_state`]. `slots[i]` holds the first
/// and second moments of the `i`-th parameter of the model's `params()`
/// order, or `None` if that parameter has not been updated yet.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamStateExport {
    pub step: u64,
    pub slots: Vec<Option<(Tensor, Tensor)>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_nn::Session;
    use wr_tensor::Rng64;

    /// Minimize ‖θ − target‖² and check convergence.
    #[test]
    fn converges_on_quadratic() {
        let target = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        let theta = Param::new("theta", Tensor::zeros(&[3]));
        let mut opt = Adam::new(AdamConfig {
            lr: 0.05,
            ..AdamConfig::default()
        });
        for _ in 0..400 {
            let g = Graph::new();
            let mut sess = Session::train(&g, Rng64::seed_from(0));
            let th = sess.bind(&theta);
            let t = g.constant(target.reshape(&[1, 3]));
            let th2 = g.reshape(th, &[1, 3]);
            let d = g.sub(th2, t);
            let loss = g.sum_all(g.mul(d, d));
            g.backward(loss);
            opt.step(&g, sess.bindings());
        }
        let final_theta = theta.get();
        for (a, b) in final_theta.data().iter().zip(target.data()) {
            assert!((a - b).abs() < 0.02, "{a} vs {b}");
        }
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        // With zero gradient signal, weight decay alone pulls θ toward 0.
        let theta = Param::new("theta", Tensor::from_slice(&[4.0, -4.0]));
        let mut opt = Adam::new(AdamConfig {
            lr: 0.05,
            weight_decay: 0.1,
            ..AdamConfig::default()
        });
        for _ in 0..200 {
            let g = Graph::new();
            let mut sess = Session::train(&g, Rng64::seed_from(0));
            let th = sess.bind(&theta);
            // loss = 0 * θ — gradient is zero, only decay acts
            let loss = g.scale(g.sum_all(th), 0.0);
            g.backward(loss);
            opt.step(&g, sess.bindings());
        }
        let v = theta.get();
        assert!(v.data()[0].abs() < 1.0, "decay had no effect: {:?}", v.data());
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        let theta = Param::new("theta", Tensor::zeros(&[2]));
        let mut opt = Adam::new(AdamConfig {
            lr: 1.0,
            ..AdamConfig::default()
        });
        let g = Graph::new();
        let mut sess = Session::train(&g, Rng64::seed_from(0));
        let th = sess.bind(&theta);
        let huge = g.constant(Tensor::from_slice(&[1e6, 1e6]));
        let loss = g.sum_all(g.mul(th, huge));
        g.backward(loss);
        opt.step(&g, sess.bindings());
        // The gradient's norm is far past CLIP_NORM; the first Adam step's
        // magnitude is ≤ lr regardless, but the state must be finite.
        let v = theta.get();
        assert!(v.non_finite_count() == 0);
        assert!(v.data().iter().all(|x| x.abs() <= 1.1));
    }

    #[test]
    fn export_import_round_trips_across_optimizer_instances() {
        let theta = Param::new("theta", Tensor::from_slice(&[1.0, 2.0]));
        let untouched = Param::new("frozen", Tensor::from_slice(&[5.0]));
        let mut opt = Adam::new(AdamConfig::default());
        // `untouched` is never bound into a graph: no gradient, no slot.
        let run_step = |opt: &mut Adam, theta: &Param| {
            let g = Graph::new();
            let mut sess = Session::train(&g, Rng64::seed_from(0));
            let th = sess.bind(theta);
            let loss = g.sum_all(g.mul(th, th));
            g.backward(loss);
            opt.step(&g, sess.bindings());
        };
        run_step(&mut opt, &theta);
        run_step(&mut opt, &theta);

        let params = vec![theta.clone(), untouched.clone()];
        let export = opt.export_state(&params);
        assert_eq!(export.step, 2);
        assert!(export.slots[0].is_some());
        assert!(export.slots[1].is_none());

        // Import re-keys onto a *different* runtime param (fresh id, same
        // position); the resumed optimizer continues the exact trajectory.
        let theta_b = Param::new("theta", theta.get());
        let params_b = vec![theta_b.clone(), untouched.clone()];
        let mut resumed = Adam::new(AdamConfig::default());
        resumed.import_state(&params_b, &export).unwrap();
        run_step(&mut opt, &theta);
        run_step(&mut resumed, &theta_b);
        assert_eq!(theta.get().data(), theta_b.get().data());
        assert_eq!(opt.steps(), resumed.steps());
    }

    #[test]
    fn import_rejects_mismatched_state() {
        let theta = Param::new("theta", Tensor::from_slice(&[1.0, 2.0]));
        let export = AdamStateExport {
            step: 3,
            slots: vec![Some((Tensor::zeros(&[3]), Tensor::zeros(&[3])))],
        };
        let mut opt = Adam::new(AdamConfig::default());
        assert!(opt.import_state(&[theta.clone()], &export).is_err());
        let short = AdamStateExport {
            step: 3,
            slots: vec![],
        };
        assert!(opt.import_state(&[theta], &short).is_err());
    }

    #[test]
    fn state_follows_params_across_graphs() {
        let theta = Param::new("theta", Tensor::from_slice(&[1.0]));
        let mut opt = Adam::new(AdamConfig::default());
        for _ in 0..3 {
            let g = Graph::new();
            let mut sess = Session::train(&g, Rng64::seed_from(0));
            let th = sess.bind(&theta);
            let loss = g.sum_all(th);
            g.backward(loss);
            opt.step(&g, sess.bindings());
        }
        assert_eq!(opt.steps(), 3);
        assert_eq!(opt.state.len(), 1);
    }
}
