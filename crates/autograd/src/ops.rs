//! Forward constructors: each method runs the op eagerly and records it on
//! the tape.

use std::cell::Ref;
use std::rc::Rc;

use crate::graph::{Aux, Graph, Op, Var};
use wr_tensor::{l2_normalize_row, layer_norm_row, AttentionKeys, HeadKv, KeepMask, Tensor};

impl Graph {
    fn any_requires(&self, vars: &[Var]) -> bool {
        vars.iter().any(|&v| self.requires(v))
    }

    /// Borrow a node's forward value. The borrow must end before `push`
    /// (which borrows the tape mutably): keep it inside the statement that
    /// computes the new value, or in a block of its own.
    fn val(&self, v: Var) -> Ref<'_, Tensor> {
        Ref::map(self.inner.borrow(), |inner| &*inner.values[v.id])
    }

    /// Run `f` over the borrowed forward values of `parts`.
    fn with_vals<R>(&self, parts: &[Var], f: impl FnOnce(&[&Tensor]) -> R) -> R {
        let inner = self.inner.borrow();
        let vals: Vec<&Tensor> = parts.iter().map(|p| &*inner.values[p.id]).collect();
        f(&vals)
    }

    // ----- arithmetic -----------------------------------------------------

    pub fn add(&self, a: Var, b: Var) -> Var {
        let out = self.val(a).add(&self.val(b));
        self.push(out, Op::Add(a, b), Aux::None, self.any_requires(&[a, b]))
    }

    pub fn sub(&self, a: Var, b: Var) -> Var {
        let out = self.val(a).sub(&self.val(b));
        self.push(out, Op::Sub(a, b), Aux::None, self.any_requires(&[a, b]))
    }

    pub fn mul(&self, a: Var, b: Var) -> Var {
        let out = self.val(a).mul(&self.val(b));
        self.push(out, Op::Mul(a, b), Aux::None, self.any_requires(&[a, b]))
    }

    pub fn scale(&self, a: Var, s: f32) -> Var {
        let out = self.val(a).scale(s);
        self.push(out, Op::Scale(a, s), Aux::None, self.requires(a))
    }

    pub fn add_scalar(&self, a: Var, s: f32) -> Var {
        let out = self.val(a).add_scalar(s);
        self.push(out, Op::AddScalar(a), Aux::None, self.requires(a))
    }

    pub fn exp(&self, a: Var) -> Var {
        let out = self.val(a).exp();
        self.push(out, Op::Exp(a), Aux::None, self.requires(a))
    }

    /// Natural log; caller must ensure strictly positive inputs.
    pub fn ln(&self, a: Var) -> Var {
        let out = self.val(a).ln();
        self.push(out, Op::Ln(a), Aux::None, self.requires(a))
    }

    // ----- nonlinearities ---------------------------------------------------

    pub fn relu(&self, a: Var) -> Var {
        let out = self.val(a).relu();
        self.push(out, Op::Relu(a), Aux::None, self.requires(a))
    }

    pub fn gelu(&self, a: Var) -> Var {
        let out = self.val(a).gelu();
        self.push(out, Op::Gelu(a), Aux::None, self.requires(a))
    }

    pub fn sigmoid(&self, a: Var) -> Var {
        let out = self.val(a).sigmoid();
        self.push(out, Op::Sigmoid(a), Aux::None, self.requires(a))
    }

    pub fn tanh(&self, a: Var) -> Var {
        let out = self.val(a).tanh();
        self.push(out, Op::Tanh(a), Aux::None, self.requires(a))
    }

    // ----- linear algebra ---------------------------------------------------

    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let out = self.val(a).matmul(&self.val(b));
        self.push(out, Op::Matmul(a, b), Aux::None, self.any_requires(&[a, b]))
    }

    /// Batched matmul of rank-3 tensors `[b,m,k] @ [b,k,n]`.
    pub fn bmm(&self, a: Var, b: Var) -> Var {
        let out = self.val(a).bmm(&self.val(b));
        self.push(out, Op::Bmm(a, b), Aux::None, self.any_requires(&[a, b]))
    }

    /// Batched `A @ Bᵀ`: `[b,m,k] @ [b,n,k]ᵀ → [b,m,n]` (attention scores).
    pub fn bmm_nt(&self, a: Var, b: Var) -> Var {
        let out = self.val(a).bmm_nt(&self.val(b));
        self.push(out, Op::BmmNt(a, b), Aux::None, self.any_requires(&[a, b]))
    }

    pub fn transpose(&self, a: Var) -> Var {
        let out = self.val(a).transpose();
        self.push(out, Op::Transpose(a), Aux::None, self.requires(a))
    }

    pub fn reshape(&self, a: Var, dims: &[usize]) -> Var {
        let out = self.val(a).reshape(dims);
        self.push(out, Op::Reshape(a), Aux::None, self.requires(a))
    }

    // ----- structural -------------------------------------------------------

    /// Copy columns `start..end` of a matrix node.
    pub fn slice_cols(&self, a: Var, start: usize, end: usize) -> Var {
        let out = self.val(a).slice_cols(start, end);
        self.push(out, Op::SliceCols(a, start, end), Aux::None, self.requires(a))
    }

    /// Concatenate matrix nodes along columns.
    pub fn concat_cols(&self, parts: &[Var]) -> Var {
        let out = self.with_vals(parts, Tensor::concat_cols);
        let requires = self.any_requires(parts);
        self.push(out, Op::ConcatCols(parts.to_vec()), Aux::None, requires)
    }

    /// Concatenate matrix nodes along rows.
    pub fn concat_rows(&self, parts: &[Var]) -> Var {
        let out = self.with_vals(parts, Tensor::concat_rows);
        let requires = self.any_requires(parts);
        self.push(out, Op::ConcatRows(parts.to_vec()), Aux::None, requires)
    }

    /// Add a length-`cols` vector node to every row of a matrix node
    /// (bias add).
    pub fn add_row_broadcast(&self, a: Var, row: Var) -> Var {
        let out = self.val(a).add_row_broadcast(&self.val(row));
        self.push(
            out,
            Op::AddRowBroadcast(a, row),
            Aux::None,
            self.any_requires(&[a, row]),
        )
    }

    /// Embedding lookup: gather rows of `table` at `indices`.
    pub fn gather_rows(&self, table: Var, indices: &[usize]) -> Var {
        let out = self.val(table).gather_rows(indices);
        self.push(
            out,
            Op::GatherRows(table, Rc::new(indices.to_vec())),
            Aux::None,
            self.requires(table),
        )
    }

    /// The inverse of [`Self::gather_rows`] over distinct rows: a `[rows,
    /// cols]` node whose row `indices[r]` is row `r` of `a` and whose other
    /// rows are `+0.0` and carry no gradient. `indices` must ascend
    /// strictly.
    pub fn scatter_rows(&self, a: Var, indices: &[usize], rows: usize) -> Var {
        let out = {
            let v = self.val(a);
            assert!(v.rank() == 2, "scatter_rows requires a matrix");
            assert_eq!(v.rows(), indices.len(), "scatter_rows: one index per row");
            assert!(
                indices.windows(2).all(|w| w[0] < w[1]) && indices.iter().all(|&ix| ix < rows),
                "scatter_rows: indices must ascend strictly below {rows}"
            );
            let mut out = Tensor::zeros(&[rows, v.cols()]);
            for (r, &ix) in indices.iter().enumerate() {
                out.row_mut(ix).copy_from_slice(v.row(r));
            }
            out
        };
        self.push(
            out,
            Op::ScatterRows(a, Rc::new(indices.to_vec())),
            Aux::None,
            self.requires(a),
        )
    }

    /// Zero out entire rows (padding positions): row `r` is multiplied by
    /// `mask[r]` (typically 0.0 or 1.0).
    pub fn mask_rows(&self, a: Var, mask: &[f32]) -> Var {
        let mut out = self.val(a).clone();
        assert_eq!(out.rows(), mask.len(), "mask_rows: length mismatch");
        for r in 0..out.rows() {
            let m = mask[r];
            for v in out.row_mut(r) {
                *v *= m;
            }
        }
        self.push(
            out,
            Op::MaskRows(a, Rc::new(mask.to_vec())),
            Aux::None,
            self.requires(a),
        )
    }

    // ----- normalization / attention helpers --------------------------------

    /// Row-wise softmax of a matrix node.
    pub fn softmax_rows(&self, a: Var) -> Var {
        let out = self.val(a).softmax_rows();
        self.push(out, Op::SoftmaxRows(a), Aux::None, self.requires(a))
    }

    /// Softmax over the last axis of a rank-3 node (attention weights).
    pub fn softmax3d_last(&self, a: Var) -> Var {
        let mut out = self.val(a).clone();
        assert_eq!(out.rank(), 3, "softmax3d_last requires rank-3");
        let last = out.dims()[2];
        let rows = out.numel() / last;
        for r in 0..rows {
            wr_tensor::softmax_in_place(&mut out.data_mut()[r * last..(r + 1) * last]);
        }
        self.push(out, Op::Softmax3dLast(a), Aux::None, self.requires(a))
    }

    /// Multi-head scaled-dot-product self-attention over left-padded
    /// sequences, as one node: `q`, `k`, `v` are `[keys.rows(), dim]` — the
    /// rows `keys` holds of each sequence, stacked — head `h` is columns
    /// `h·dh..(h+1)·dh` of each (read in place), and the output `[keys.rows(),
    /// dim]` holds every head's rows in its columns.
    ///
    /// **The rule.** Query `i` of sequence `b` (row `keys.first_row(b) + i`)
    /// reads exactly `keys.of(b, i)` ([`wr_tensor::allowed_keys`]),
    /// ascending, through the one row kernel [`HeadKv::attend`]: no mask, no
    /// `[batch, seq, seq]` tensor, no per-head copy. Over the every-position
    /// layout ([`AttentionKeys::new`]) the values and the three gradients
    /// equal — to the bit, for finite operands — those of the chain it
    /// replaced (`slice_cols` → `reshape` → `bmm_nt` → `scale` → `add` mask
    /// → `softmax3d_last` → dropout → `bmm` → `reshape` → `concat_cols`)
    /// dropping the weights by the same factors, which
    /// `crates/nn/tests/attention_chain.rs` keeps as the reference; over a
    /// packed layout they equal the every-position ones at the rows held
    /// (`crates/nn/tests/packed_rows.rs`). A non-finite operand at a masked
    /// key is never read here, where the chain's `0.0 · NaN` let it poison
    /// the row.
    ///
    /// **Dropout** of the attention weights, under `dropout = Some(mask)`:
    /// the weight of query `i` on key `j` of sequence `b` in head `h` —
    /// `i`, `j` padded positions — is multiplied by `mask.factor(((h ·
    /// batch + b) · seq + i) · seq + j)`, the element's index in a `[heads ·
    /// batch, seq, seq]` plane. Only allowed pairs are hashed; a position
    /// the layout does not hold costs nothing.
    ///
    /// **Saved for the backward:** per head, the softmax row and (under
    /// dropout) the factors at allowed keys only — `heads · keys.pairs()`
    /// floats each.
    pub fn attention(
        &self,
        q: Var,
        k: Var,
        v: Var,
        heads: usize,
        keys: &AttentionKeys,
        dropout: Option<KeepMask>,
    ) -> Var {
        let (batch, seq) = (keys.batch(), keys.seq());
        let saved = heads * keys.pairs();
        let (out, weights, factors) = {
            let (qv, kv, vv) = (self.val(q), self.val(k), self.val(v));
            assert!(qv.rank() == 2, "attention requires matrices");
            assert_eq!(qv.rows(), keys.rows(), "attention: one row per held position");
            assert!(
                qv.dims() == kv.dims() && qv.dims() == vv.dims(),
                "attention: q, k, v shapes differ"
            );
            let dim = qv.cols();
            assert!(
                heads >= 1 && dim % heads == 0,
                "dim {dim} must divide into {heads} heads"
            );
            let dh = dim / heads;
            let scale = 1.0 / (dh as f32).sqrt();
            let mut weights = vec![0.0f32; saved];
            let mut factors = vec![0.0f32; if dropout.is_some() { saved } else { 0 }];
            let mut out = vec![0.0f32; keys.rows() * dim];
            let mut at = 0;
            for (h, lo) in (0..heads).map(|h| (h, h * dh)) {
                for b in 0..batch {
                    let held = keys.held(b);
                    let rows = keys.first_row(b) * dim..(keys.first_row(b) + held) * dim;
                    let head = HeadKv {
                        k: &kv.data()[rows.clone()][lo..],
                        v: &vv.data()[rows.clone()][lo..],
                        stride: dim,
                        scale,
                    };
                    // Padded index of (h, b, query 0, key 0) of the rows held.
                    let absent = seq - held;
                    let origin = ((h * batch + b) * seq + absent) * seq + absent;
                    for i in 0..held {
                        let row_keys = keys.of(b, i);
                        let saved_row = at..at + row_keys.len();
                        at = saved_row.end;
                        if let Some(mask) = &dropout {
                            let row_factors = &mut factors[saved_row.clone()];
                            for (f, j) in row_factors.iter_mut().zip(row_keys.clone()) {
                                *f = mask.factor(origin + i * seq + j);
                            }
                        }
                        let first = rows.start + i * dim + lo;
                        head.attend(
                            &qv.data()[first..first + dh],
                            row_keys,
                            dropout.is_some().then(|| &factors[saved_row.clone()]),
                            &mut weights[saved_row.clone()],
                            &mut out[first..first + dh],
                        );
                    }
                }
            }
            (Tensor::from_vec(out, &[keys.rows(), dim]), weights, factors)
        };
        let weights = Tensor::from_vec(weights, &[saved]);
        let aux = match dropout {
            Some(_) => Aux::Two(weights, Tensor::from_vec(factors, &[saved])),
            None => Aux::One(weights),
        };
        self.push(
            out,
            Op::Attention {
                q,
                k,
                v,
                heads,
                keys: Rc::new(keys.clone()),
            },
            aux,
            self.any_requires(&[q, k, v]),
        )
    }

    /// LayerNorm over the last axis of a matrix node:
    /// `y = γ ⊙ (x − mean)/sqrt(var + eps) + β` per row.
    pub fn layer_norm_rows(&self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let (out, xhat, inv_std) = {
            let (xv, gv, bv) = (self.val(x), self.val(gamma), self.val(beta));
            assert!(xv.rank() == 2, "layer_norm_rows requires a matrix");
            let (rows, cols) = (xv.rows(), xv.cols());
            assert!(
                gv.numel() == cols && bv.numel() == cols,
                "layer_norm_rows: affine lengths"
            );
            let mut out = xv.clone();
            let mut xhat = Tensor::zeros(&[rows, cols]);
            let mut inv_std = Tensor::zeros(&[rows]);
            for r in 0..rows {
                let (mean, is) = layer_norm_row(out.row_mut(r), gv.data(), bv.data(), eps);
                inv_std.data_mut()[r] = is;
                for (o, &v) in xhat.row_mut(r).iter_mut().zip(xv.row(r)) {
                    *o = (v - mean) * is;
                }
            }
            (out, xhat, inv_std)
        };
        self.push(
            out,
            Op::LayerNormRows { x, gamma, beta },
            Aux::Two(xhat, inv_std),
            self.any_requires(&[x, gamma, beta]),
        )
    }

    /// Inverted dropout: element `e` of `a` is multiplied by
    /// `mask.factor(e)`.
    pub fn dropout(&self, a: Var, mask: KeepMask) -> Var {
        let numel = self.val(a).numel();
        self.dropout_runs(a, mask, [(0, numel)])
    }

    /// [`Self::dropout`] of the `[keys.rows(), width]` node `a` as a part of
    /// the padded `[keys.batch() · keys.seq(), width]` plane: the element in
    /// column `u` of the row at padded position `t` of sequence `b` is
    /// multiplied by `mask.factor((b · seq + t) · width + u)`, the factor the
    /// padded plane's node gives it.
    pub fn dropout_held(&self, a: Var, mask: KeepMask, keys: &AttentionKeys) -> Var {
        let (rows, width) = {
            let v = self.val(a);
            assert!(v.rank() == 2, "dropout_held requires a matrix");
            (v.rows(), v.cols())
        };
        assert_eq!(rows, keys.rows(), "dropout_held: one row per held position");
        let seq = keys.seq();
        let runs = (0..keys.batch())
            .map(|b| (((b + 1) * seq - keys.held(b)) * width, keys.held(b) * width));
        self.dropout_runs(a, mask, runs)
    }

    /// The one dropout body. `runs` covers `a`'s elements in order as
    /// `(index, len)` pairs: the next `len` elements sit at indices
    /// `index..index + len` of the plane `mask` addresses.
    fn dropout_runs(
        &self,
        a: Var,
        mask: KeepMask,
        runs: impl IntoIterator<Item = (usize, usize)>,
    ) -> Var {
        let (out, factors) = {
            let v = self.val(a);
            let mut factors = Vec::with_capacity(v.numel());
            for (index, len) in runs {
                factors.extend((index..index + len).map(|e| mask.factor(e)));
            }
            assert_eq!(factors.len(), v.numel(), "dropout: runs must cover the node");
            let out = v.data().iter().zip(&factors).map(|(x, f)| x * f).collect();
            (Tensor::from_vec(out, v.dims()), Tensor::from_vec(factors, v.dims()))
        };
        self.push(out, Op::Dropout(a), Aux::One(factors), self.requires(a))
    }

    /// Normalize each row of a matrix node to unit L2 norm
    /// ([`l2_normalize_row`]).
    pub fn l2_normalize_rows(&self, a: Var) -> Var {
        let mut y = self.val(a).clone();
        assert!(y.rank() == 2, "l2_normalize_rows requires a matrix");
        let mut norms = Tensor::zeros(&[y.rows()]);
        for r in 0..y.rows() {
            norms.data_mut()[r] = l2_normalize_row(y.row_mut(r));
        }
        let out = y.clone();
        self.push(
            out,
            Op::L2NormalizeRows(a),
            Aux::Two(y, norms),
            self.requires(a),
        )
    }

    // ----- losses / reductions -----------------------------------------------

    /// Mean cross-entropy between row logits and integer targets.
    ///
    /// Fused softmax + NLL: numerically stable and avoids materializing the
    /// log-probabilities on the tape.
    pub fn cross_entropy(&self, logits: Var, targets: &[usize]) -> Var {
        let softmax = {
            let lv = self.val(logits);
            assert!(lv.rank() == 2, "cross_entropy requires matrix logits");
            assert_eq!(lv.rows(), targets.len(), "cross_entropy: batch mismatch");
            lv.softmax_rows()
        };
        let mut loss = 0.0f64;
        for (r, &t) in targets.iter().enumerate() {
            assert!(t < softmax.cols(), "cross_entropy: target {t} out of range");
            // A row whose softmax is not finite — a NaN or `+∞` logit, or
            // no logit above `−∞` — holds a NaN, and its loss is NaN: a
            // diverged model must reach the caller's finiteness checks
            // (`max` below would floor a NaN target to 1e-12, and the other
            // entries of such a row are never normalised). A row of finite
            // logits has only finite probabilities.
            let diverged = softmax.row(r).iter().fold(false, |nan, p| nan | p.is_nan());
            let p = if diverged { f32::NAN } else { softmax.at2(r, t).max(1e-12) };
            loss -= (p as f64).ln();
        }
        let loss = (loss / targets.len() as f64) as f32;
        self.push(
            Tensor::scalar(loss),
            Op::CrossEntropy {
                logits,
                targets: Rc::new(targets.to_vec()),
            },
            Aux::One(softmax),
            self.requires(logits),
        )
    }

    /// Mean of all elements → scalar node.
    pub fn mean_all(&self, a: Var) -> Var {
        let out = Tensor::scalar(self.val(a).mean());
        self.push(out, Op::MeanAll(a), Aux::None, self.requires(a))
    }

    /// Sum of all elements → scalar node.
    pub fn sum_all(&self, a: Var) -> Var {
        let out = Tensor::scalar(self.val(a).sum());
        self.push(out, Op::SumAll(a), Aux::None, self.requires(a))
    }
}
