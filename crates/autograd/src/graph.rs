//! The tape: node storage, forward value bookkeeping, and the backward pass.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use wr_tensor::{dot, gelu_grad_scalar, AttentionKeys, Tensor};

/// Handle to a node on the tape. Cheap to copy; only valid for the graph
/// that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var {
    pub(crate) id: usize,
}

/// Recorded operation. Inputs are stored as `Var` ids; constant data that
/// participates in the forward pass but never receives gradients (masks,
/// gather indices) is stored inline behind `Rc`.
pub(crate) enum Op {
    Leaf,
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    AddScalar(Var),
    Exp(Var),
    Ln(Var),
    Relu(Var),
    Gelu(Var),
    Sigmoid(Var),
    Tanh(Var),
    Matmul(Var, Var),
    Bmm(Var, Var),
    BmmNt(Var, Var),
    Transpose(Var),
    Reshape(Var),
    SliceCols(Var, usize, usize),
    ConcatCols(Vec<Var>),
    ConcatRows(Vec<Var>),
    AddRowBroadcast(Var, Var),
    GatherRows(Var, Rc<Vec<usize>>),
    ScatterRows(Var, Rc<Vec<usize>>),
    SoftmaxRows(Var),
    Softmax3dLast(Var),
    LayerNormRows { x: Var, gamma: Var, beta: Var },
    Dropout(Var),
    CrossEntropy { logits: Var, targets: Rc<Vec<usize>> },
    L2NormalizeRows(Var),
    MeanAll(Var),
    SumAll(Var),
    MaskRows(Var, Rc<Vec<f32>>),
    Attention { q: Var, k: Var, v: Var, heads: usize, keys: Rc<AttentionKeys> },
}

/// Saved forward byproducts a backward rule needs.
pub(crate) enum Aux {
    None,
    One(Tensor),
    Two(Tensor, Tensor),
}

pub(crate) struct Inner {
    /// Forward values. Behind `Arc` so that a frozen table its owner
    /// already shares enters the tape by reference ([`Graph::constant`]).
    pub values: Vec<Arc<Tensor>>,
    pub grads: Vec<Option<Tensor>>,
    pub ops: Vec<Op>,
    pub aux: Vec<Aux>,
    pub requires: Vec<bool>,
}

/// A single-use computation tape.
///
/// Build one per forward/backward step. Interior mutability keeps the API
/// ergonomic (`g.matmul(a, b)` with `&self`); the graph is intentionally
/// `!Sync` — training steps are single-threaded, parallelism lives at the
/// data level.
pub struct Graph {
    pub(crate) inner: RefCell<Inner>,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    pub fn new() -> Self {
        Graph {
            inner: RefCell::new(Inner {
                values: Vec::new(),
                grads: Vec::new(),
                ops: Vec::new(),
                aux: Vec::new(),
                requires: Vec::new(),
            }),
        }
    }

    /// Register a trainable parameter. Gradients will be accumulated for it.
    pub fn param(&self, value: Tensor) -> Var {
        self.push(value, Op::Leaf, Aux::None, true)
    }

    /// Register a constant input. No gradient is ever computed for it. An
    /// `Arc<Tensor>` is taken as is — the tape holds the handle, not a copy
    /// of the data.
    pub fn constant(&self, value: impl Into<Arc<Tensor>>) -> Var {
        self.push(value, Op::Leaf, Aux::None, false)
    }

    /// Read a copy of a node's forward value.
    pub fn value(&self, v: Var) -> Tensor {
        Tensor::clone(&self.inner.borrow().values[v.id])
    }

    /// Inspect a node's shape without cloning the data.
    pub fn dims(&self, v: Var) -> Vec<usize> {
        self.inner.borrow().values[v.id].dims().to_vec()
    }

    /// Gradient of the `backward` call w.r.t. the leaf `v`, if any was
    /// produced. Interior nodes hand their gradient on to their operands
    /// and keep none.
    pub fn grad(&self, v: Var) -> Option<Tensor> {
        self.inner.borrow().grads[v.id].clone()
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.inner.borrow().values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn push(
        &self,
        value: impl Into<Arc<Tensor>>,
        op: Op,
        aux: Aux,
        requires: bool,
    ) -> Var {
        let mut inner = self.inner.borrow_mut();
        let id = inner.values.len();
        inner.values.push(value.into());
        inner.grads.push(None);
        inner.ops.push(op);
        inner.aux.push(aux);
        inner.requires.push(requires);
        Var { id }
    }

    pub(crate) fn requires(&self, v: Var) -> bool {
        self.inner.borrow().requires[v.id]
    }

    /// Run the backward pass from a scalar `loss` node.
    ///
    /// Panics if `loss` is not a single-element tensor. Gradients are
    /// accumulated only into nodes that transitively depend on a parameter,
    /// and no other gradient is computed (see [`accumulate`]).
    ///
    /// The pass consumes the tape: every interior node's op, saved
    /// byproducts and gradient are moved into its backward rule, so only
    /// leaves hold a gradient afterwards and a second call does nothing.
    pub fn backward(&self, loss: Var) {
        let mut inner = self.inner.borrow_mut();
        assert_eq!(
            inner.values[loss.id].numel(),
            1,
            "backward() must start from a scalar loss"
        );
        let seed_dims = inner.values[loss.id].dims().to_vec();
        inner.grads[loss.id] = Some(Tensor::ones(&seed_dims));

        for id in (0..=loss.id).rev() {
            // A leaf has no operands to pass its gradient on to; it keeps it
            // for `grad()`.
            if !inner.requires[id] || matches!(inner.ops[id], Op::Leaf) {
                continue;
            }
            if let Some(g) = inner.grads[id].take() {
                backward_step(&mut inner, id, g);
            }
        }
    }
}

/// Accumulate `delta(values)` into `grads[target]`, allocating on first touch.
///
/// This is the only place a backward rule's result enters the tape, and
/// `delta` runs only when `target` requires a gradient: an operand that is a
/// constant (or depends on none but constants) costs no arithmetic and no
/// allocation, whichever op it feeds. `values` are the tape's forward values.
fn accumulate(inner: &mut Inner, target: usize, delta: impl FnOnce(&[Arc<Tensor>]) -> Tensor) {
    if !inner.requires[target] {
        return;
    }
    let delta = delta(&inner.values);
    match &mut inner.grads[target] {
        Some(existing) => existing.add_assign_(&delta),
        slot @ None => *slot = Some(delta),
    }
}

/// Dispatch one node's backward rule. `g` is the upstream gradient with the
/// same shape as the node's value; the rule owns it, along with the node's
/// op and saved byproducts, and hands it to its last consumer.
fn backward_step(inner: &mut Inner, id: usize, g: Tensor) {
    let op = std::mem::replace(&mut inner.ops[id], Op::Leaf);
    let aux = std::mem::replace(&mut inner.aux[id], Aux::None);
    match op {
        Op::Leaf => {}
        Op::Add(a, b) => {
            accumulate(inner, a.id, |_| g.clone());
            accumulate(inner, b.id, |_| g);
        }
        Op::Sub(a, b) => {
            accumulate(inner, a.id, |_| g.clone());
            accumulate(inner, b.id, |_| g.neg());
        }
        Op::Mul(a, b) => {
            accumulate(inner, a.id, |v| g.mul(&v[b.id]));
            accumulate(inner, b.id, |v| g.mul(&v[a.id]));
        }
        Op::Scale(a, s) => accumulate(inner, a.id, |_| {
            let mut da = g;
            da.scale_(s);
            da
        }),
        Op::AddScalar(a) => accumulate(inner, a.id, |_| g),
        // y = exp(x) saved as the node's value
        Op::Exp(a) => accumulate(inner, a.id, |v| g.mul(&v[id])),
        Op::Ln(a) => accumulate(inner, a.id, |v| g.div(&v[a.id])),
        Op::Relu(a) => accumulate(inner, a.id, |v| {
            let mut da = g;
            for (d, &xv) in da.data_mut().iter_mut().zip(v[a.id].data()) {
                // A select, not a conditional store: this form vectorizes.
                *d = if xv <= 0.0 { 0.0 } else { *d };
            }
            da
        }),
        Op::Gelu(a) => accumulate(inner, a.id, |v| {
            let mut da = g;
            for (d, &xv) in da.data_mut().iter_mut().zip(v[a.id].data()) {
                *d *= gelu_grad_scalar(xv);
            }
            da
        }),
        Op::Sigmoid(a) => accumulate(inner, a.id, |v| {
            let mut da = g;
            for (d, &yv) in da.data_mut().iter_mut().zip(v[id].data()) {
                *d *= yv * (1.0 - yv);
            }
            da
        }),
        Op::Tanh(a) => accumulate(inner, a.id, |v| {
            let mut da = g;
            for (d, &yv) in da.data_mut().iter_mut().zip(v[id].data()) {
                *d *= 1.0 - yv * yv;
            }
            da
        }),
        Op::Matmul(a, b) => {
            accumulate(inner, a.id, |v| g.matmul_nt(&v[b.id]));
            accumulate(inner, b.id, |v| v[a.id].matmul_tn(&g));
        }
        Op::Bmm(a, b) => {
            accumulate(inner, a.id, |v| g.bmm_nt(&v[b.id]));
            accumulate(inner, b.id, |v| v[a.id].bmm_tn(&g));
        }
        Op::BmmNt(a, b) => {
            // C = A @ B^T  =>  dA = dC @ B,  dB = dC^T @ A
            accumulate(inner, a.id, |v| g.bmm(&v[b.id]));
            accumulate(inner, b.id, |v| g.bmm_tn(&v[a.id]));
        }
        Op::Transpose(a) => accumulate(inner, a.id, |_| g.transpose()),
        Op::Reshape(a) => accumulate(inner, a.id, |v| g.reshape(v[a.id].dims())),
        Op::SliceCols(a, start, _end) => accumulate(inner, a.id, |v| {
            let mut da = Tensor::zeros(v[a.id].dims());
            let w = g.cols();
            for r in 0..g.rows() {
                da.row_mut(r)[start..start + w].copy_from_slice(g.row(r));
            }
            da
        }),
        Op::ConcatCols(parts) => {
            let mut offset = 0;
            for p in parts {
                let w = inner.values[p.id].cols();
                accumulate(inner, p.id, |_| g.slice_cols(offset, offset + w));
                offset += w;
            }
        }
        Op::ConcatRows(parts) => {
            let mut offset = 0;
            for p in parts {
                let h = inner.values[p.id].rows();
                accumulate(inner, p.id, |_| g.slice_rows(offset, offset + h));
                offset += h;
            }
        }
        Op::AddRowBroadcast(a, row) => {
            accumulate(inner, row.id, |_| g.sum_rows());
            accumulate(inner, a.id, |_| g);
        }
        Op::GatherRows(table, indices) => accumulate(inner, table.id, |v| {
            let mut dt = Tensor::zeros(v[table.id].dims());
            for (r, &ix) in indices.iter().enumerate() {
                for (t, &gv) in dt.row_mut(ix).iter_mut().zip(g.row(r)) {
                    *t += gv;
                }
            }
            dt
        }),
        Op::ScatterRows(a, indices) => accumulate(inner, a.id, |_| g.gather_rows(&indices)),
        Op::SoftmaxRows(a) => accumulate(inner, a.id, |v| {
            let y = &v[id];
            let mut da = g;
            for r in 0..y.rows() {
                softmax_backward_row(da.row_mut(r), y.row(r));
            }
            da
        }),
        Op::Softmax3dLast(a) => accumulate(inner, a.id, |v| {
            let y = &v[id];
            let last = y.dims()[y.rank() - 1];
            let mut da = g;
            for (dy, yr) in da.data_mut().chunks_mut(last).zip(y.data().chunks(last)) {
                softmax_backward_row(dy, yr);
            }
            da
        }),
        Op::LayerNormRows { x, gamma, beta } => {
            let Aux::Two(xhat, inv_std) = aux else {
                unreachable!("LayerNorm aux missing")
            };
            accumulate(inner, beta.id, |_| g.sum_rows());
            accumulate(inner, gamma.id, |_| g.mul(&xhat).sum_rows());
            // dX per row: inv_std/n * (n*dxhat - sum(dxhat) - xhat*sum(dxhat*xhat))
            accumulate(inner, x.id, |v| {
                let n = xhat.cols() as f32;
                let dxhat = g.mul_row_broadcast(&v[gamma.id]);
                let mut dx = Tensor::zeros(xhat.dims());
                for r in 0..xhat.rows() {
                    let dh = dxhat.row(r);
                    let xh = xhat.row(r);
                    let s1: f32 = dh.iter().sum();
                    let s2: f32 = dh.iter().zip(xh).map(|(a, b)| a * b).sum();
                    let is = inv_std.data()[r];
                    for (j, out) in dx.row_mut(r).iter_mut().enumerate() {
                        *out = is / n * (n * dh[j] - s1 - xh[j] * s2);
                    }
                }
                dx
            });
        }
        Op::Dropout(a) => {
            let Aux::One(mask) = aux else {
                unreachable!("Dropout aux missing")
            };
            accumulate(inner, a.id, |_| g.mul(&mask));
        }
        Op::CrossEntropy { logits, targets } => {
            let Aux::One(softmax) = aux else {
                unreachable!("CrossEntropy aux missing")
            };
            accumulate(inner, logits.id, |_| {
                let scale = g.item() / targets.len() as f32;
                let mut dl = softmax;
                for (r, &t) in targets.iter().enumerate() {
                    *dl.at2_mut(r, t) -= 1.0;
                }
                dl.scale_(scale);
                dl
            });
        }
        Op::L2NormalizeRows(a) => {
            let Aux::Two(y, norms) = aux else {
                unreachable!("L2Normalize aux missing")
            };
            accumulate(inner, a.id, |_| {
                let mut da = Tensor::zeros(y.dims());
                for r in 0..y.rows() {
                    let yr = y.row(r);
                    let gr = g.row(r);
                    let dot: f32 = yr.iter().zip(gr).map(|(a, b)| a * b).sum();
                    let n = norms.data()[r];
                    for (j, out) in da.row_mut(r).iter_mut().enumerate() {
                        *out = (gr[j] - yr[j] * dot) / n;
                    }
                }
                da
            });
        }
        Op::MeanAll(a) => accumulate(inner, a.id, |v| {
            let x = &v[a.id];
            Tensor::full(x.dims(), g.item() / x.numel() as f32)
        }),
        Op::SumAll(a) => accumulate(inner, a.id, |v| Tensor::full(v[a.id].dims(), g.item())),
        Op::MaskRows(a, mask) => accumulate(inner, a.id, |_| {
            let mut da = g;
            for (r, &m) in mask.iter().enumerate() {
                for v in da.row_mut(r) {
                    *v *= m;
                }
            }
            da
        }),
        Op::Attention { q, k, v, heads, keys } => {
            let (weights, factors) = match aux {
                Aux::One(weights) => (weights, None),
                Aux::Two(weights, factors) => (weights, Some(factors)),
                Aux::None => unreachable!("Attention aux missing"),
            };
            let operands = [q, k, v];
            let deltas = attention_backward(
                operands.map(|x| &*inner.values[x.id]),
                operands.map(|x| inner.requires[x.id]),
                &g,
                heads,
                &keys,
                weights.data(),
                factors.as_ref().map(Tensor::data),
            );
            for (target, delta) in operands.into_iter().zip(deltas) {
                if let Some(delta) = delta {
                    accumulate(inner, target.id, |_| delta);
                }
            }
        }
    }
}

/// In-place `dy → dx` for one softmax row: `dx = y ⊙ (dy − (dy·y))`.
fn softmax_backward_row(dy: &mut [f32], y: &[f32]) {
    let dot: f32 = dy.iter().zip(y).map(|(a, b)| a * b).sum();
    for (d, &yv) in dy.iter_mut().zip(y) {
        *d = yv * (*d - dot);
    }
}

/// `[dq, dk, dv]` of [`Graph::attention`] for the operands that `need` one
/// (no buffer is made for the others), from the upstream `g`, the saved
/// softmax rows `weights` and dropout `factors` — both stored at allowed
/// keys only, in the forward's (head, sequence, query, key) order.
///
/// Bit for bit the backward of the per-head chain the node replaced
/// (`bmm` ← `dropout` ← `softmax3d_last` ← mask `add` ← `scale` ←
/// `bmm_nt`), which the tests hold it to. Per (head, sequence, query `i`)
/// over the allowed keys `j`, ascending: `dA[j] = dot(g_i, v_j)` (the NT
/// contract, whole); `· factor`; the chain's own softmax rule; `· scale`;
/// then `dq_i = Σ_j dS[j]·k_j` from `+0.0` (NN order) and
/// `dk_j += dS[j]·q_i`, `dv_j += (y·factor)[j]·g_i` with queries ascending
/// inside a sequence (TN order). Every term skipped at a masked key is the
/// `y = +0.0` the chain computed there times a finite number, added to an
/// accumulator that started at `+0.0`.
fn attention_backward(
    [q, k, v]: [&Tensor; 3],
    need: [bool; 3],
    g: &Tensor,
    heads: usize,
    keys: &AttentionKeys,
    weights: &[f32],
    factors: Option<&[f32]>,
) -> [Option<Tensor>; 3] {
    let dim = q.cols();
    let dh = dim / heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let [mut dq, mut dk, mut dv] = need.map(|needed| needed.then(|| vec![0.0f32; q.numel()]));
    let (q, k, v, g) = (q.data(), k.data(), v.data(), g.data());
    let mut ds_row = vec![0.0f32; keys.seq()];
    let mut at = 0;
    for lo in (0..heads).map(|h| h * dh) {
        for b in 0..keys.batch() {
            // Head columns of held row `row` of this sequence.
            let head = |row: usize| {
                let first = (keys.first_row(b) + row) * dim + lo;
                first..first + dh
            };
            for i in 0..keys.held(b) {
                let row_keys = keys.of(b, i);
                let n = row_keys.len();
                let y = &weights[at..at + n];
                let f = factors.map(|f| &f[at..at + n]);
                at += n;
                let g_i = &g[head(i)];
                if let Some(dv) = &mut dv {
                    for (m, j) in row_keys.clone().enumerate() {
                        let a = f.map_or(y[m], |f| y[m] * f[m]);
                        for (d, &gv) in dv[head(j)].iter_mut().zip(g_i) {
                            *d += a * gv;
                        }
                    }
                }
                if dq.is_none() && dk.is_none() {
                    continue;
                }
                let ds = &mut ds_row[..n];
                for (m, j) in row_keys.clone().enumerate() {
                    let da = dot(g_i, &v[head(j)]);
                    ds[m] = f.map_or(da, |f| da * f[m]);
                }
                softmax_backward_row(ds, y);
                for d in ds.iter_mut() {
                    *d *= scale;
                }
                if let Some(dq) = &mut dq {
                    let dq_i = &mut dq[head(i)];
                    for (&s, j) in ds.iter().zip(row_keys.clone()) {
                        for (d, &kv) in dq_i.iter_mut().zip(&k[head(j)]) {
                            *d += s * kv;
                        }
                    }
                }
                if let Some(dk) = &mut dk {
                    let q_i = &q[head(i)];
                    for (&s, j) in ds.iter().zip(row_keys) {
                        for (d, &qv) in dk[head(j)].iter_mut().zip(q_i) {
                            *d += s * qv;
                        }
                    }
                }
            }
        }
    }
    [dq, dk, dv].map(|d| d.map(|d| Tensor::from_vec(d, &[keys.rows(), dim])))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn leaf_bookkeeping() {
        let g = Graph::new();
        let p = g.param(Tensor::ones(&[2, 2]));
        let c = g.constant(Tensor::zeros(&[3]));
        assert!(g.requires(p));
        assert!(!g.requires(c));
        assert_eq!(g.len(), 2);
        assert_eq!(g.dims(p), vec![2, 2]);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_requires_scalar() {
        let g = Graph::new();
        let p = g.param(Tensor::ones(&[2, 2]));
        g.backward(p);
    }

    #[test]
    fn constant_gets_no_grad() {
        let g = Graph::new();
        let p = g.param(Tensor::ones(&[1, 2]));
        let c = g.constant(Tensor::ones(&[1, 2]));
        let s = g.add(p, c);
        let loss = g.sum_all(s);
        g.backward(loss);
        assert!(g.grad(p).is_some());
        assert!(g.grad(c).is_none());
    }

    #[test]
    fn relu_backward_equals_the_conditional_store_it_replaced() {
        // Every special activation under every special upstream gradient,
        // then random pairs.
        let specials = [0.0, -0.0, 1.5, -1.5, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let mut rng = wr_tensor::Rng64::seed_from(3);
        let mut x = Tensor::randn(&[600], &mut rng).data().to_vec();
        let mut upstream = Tensor::randn(&[600], &mut rng).data().to_vec();
        for a in specials {
            for u in specials {
                x.push(a);
                upstream.push(u);
            }
        }
        let n = x.len();

        let g = Graph::new();
        let p = g.param(Tensor::from_vec(x.clone(), &[n]));
        let weights = g.constant(Tensor::from_vec(upstream.clone(), &[n]));
        let loss = g.sum_all(g.mul(g.relu(p), weights));
        g.backward(loss);

        let mut want = upstream;
        for (d, &xv) in want.iter_mut().zip(&x) {
            if xv <= 0.0 {
                *d = 0.0;
            }
        }
        assert_eq!(bits(&g.grad(p).unwrap()), bits(&Tensor::from_vec(want, &[n])));
    }

    #[test]
    fn a_constant_input_costs_no_gradient_and_changes_none() {
        // The same two-layer graph over a frozen table and over a trainable
        // one: the weights' gradients are the same bits, and only the
        // trainable table gets a gradient of its own.
        let mut rng = wr_tensor::Rng64::seed_from(11);
        let table = Tensor::randn(&[9, 6], &mut rng);
        let w1 = Tensor::randn(&[6, 5], &mut rng);
        let w2 = Tensor::randn(&[5, 3], &mut rng);
        let run = |frozen: bool| {
            let g = Graph::new();
            let t = if frozen {
                g.constant(table.clone())
            } else {
                g.param(table.clone())
            };
            let (p1, p2) = (g.param(w1.clone()), g.param(w2.clone()));
            let hidden = g.gelu(g.matmul(t, p1));
            let loss = g.cross_entropy(g.matmul(hidden, p2), &[0, 2, 1, 1, 0, 2, 2, 0, 1]);
            g.backward(loss);
            (g.grad(t), g.grad(p1).unwrap(), g.grad(p2).unwrap())
        };
        let (dt_frozen, d1_frozen, d2_frozen) = run(true);
        let (dt_trained, d1_trained, d2_trained) = run(false);
        assert!(dt_frozen.is_none());
        assert_eq!(dt_trained.unwrap().dims(), &[9, 6]);
        assert_eq!(bits(&d1_frozen), bits(&d1_trained));
        assert_eq!(bits(&d2_frozen), bits(&d2_trained));
    }

    #[test]
    fn cross_entropy_of_a_diverged_row_is_nan() {
        let loss = |row: &[f32], target: usize| {
            let g = Graph::new();
            let logits = g.param(Tensor::from_vec(row.to_vec(), &[1, row.len()]));
            g.value(g.cross_entropy(logits, &[target])).data()[0]
        };
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        for (row, target) in [
            ([nan, 0.0, 1.0], 0),
            ([nan, 0.0, 1.0], 1),
            ([inf, 0.0, 1.0], 0),
            ([-inf, -inf, -inf], 0),
        ] {
            assert!(loss(&row, target).is_nan(), "{row:?} at target {target}");
        }
        // A catalogue-wide row is summed in banks on the widest arm the CPU
        // has; its NaN sum is the same verdict.
        let wide = |at: usize, v: f32| {
            let mut row: Vec<f32> = (0..130).map(|j| (j % 7) as f32 - 3.0).collect();
            row[at] = v;
            row
        };
        for (row, target, kind) in [
            (wide(64, nan), 3, "a NaN"),
            (wide(129, inf), 0, "a +∞"),
            (wide(5, inf), 5, "a +∞ at the target"),
            (vec![-inf; 130], 77, "all −∞"),
        ] {
            assert!(loss(&row, target).is_nan(), "{kind} in a row of 130 at target {target}");
        }
        assert!(loss(&wide(0, -inf), 1).is_finite());
        // A finite row keeps the floored value it had: a probability that
        // underflows to 0 costs `−ln 1e-12`.
        let floored = (-(1e-12f32 as f64).ln()) as f32;
        assert_eq!(loss(&[-200.0, 0.0, 1.0], 0).to_bits(), floored.to_bits());
        assert_eq!(loss(&[-inf, 0.0, 0.0], 1).to_bits(), std::f32::consts::LN_2.to_bits());
    }
}
