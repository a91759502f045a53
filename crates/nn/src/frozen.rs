//! Frozen, tape-free inference encoder.
//!
//! The serving-side twin of [`crate::TransformerEncoder`]: plain `f32`
//! copies of the weights plus the frozen item matrix `V`, and nothing
//! that belongs to training — no graph, no parameter handles, no interior
//! mutability — so the type is `Send + Sync` by construction and
//! "inference has no tape" is a property of the type rather than a
//! runtime mode. Build one with [`crate::TransformerEncoder::freeze`].
//!
//! [`FrozenEncoder::encode`] is bit-identical to the taped
//! `tower → forward_user` pipeline because it performs the same scalar
//! operations in the same order through the same kernels
//! ([`wr_tensor::gemm`], [`wr_tensor::dot`],
//! [`wr_tensor::softmax_in_place`], [`wr_tensor::gelu_scalar`]); what it
//! drops is everything around the arithmetic: the per-call tower run
//! (history rows are looked up in `V`), the per-op operand clones, the
//! per-head slice/reshape/concat copies and the `[b, t, t]` mask tensor.
//! Scratch is sized once per call and dropped on return.

use std::sync::Arc;

use crate::attention::{causal_allowed, MASK_NEG};
use wr_tensor::{dot, gelu_scalar, gemm, softmax_in_place, Tensor};

/// `y = x W + b` over plain slices.
#[derive(Debug, Clone)]
pub(crate) struct FrozenLinear {
    /// Row-major `[n_in, n_out]`.
    weight: Vec<f32>,
    bias: Option<Vec<f32>>,
    n_in: usize,
    n_out: usize,
}

impl FrozenLinear {
    pub(crate) fn new(weight: &Tensor, bias: Option<&Tensor>) -> Self {
        assert!(weight.rank() == 2, "FrozenLinear expects a weight matrix");
        let (n_in, n_out) = (weight.rows(), weight.cols());
        if let Some(b) = bias {
            assert_eq!(b.numel(), n_out, "FrozenLinear: bias length");
        }
        FrozenLinear {
            weight: weight.data().to_vec(),
            bias: bias.map(|b| b.data().to_vec()),
            n_in,
            n_out,
        }
    }

    /// `out[..rows * n_out] = x[..rows * n_in] · W (+ b)`.
    fn apply(&self, x: &[f32], out: &mut [f32], rows: usize) {
        let x = &x[..rows * self.n_in];
        let out = &mut out[..rows * self.n_out];
        out.fill(0.0);
        gemm(x, &self.weight, out, rows, self.n_in, self.n_out);
        if let Some(bias) = &self.bias {
            for row in out.chunks_exact_mut(self.n_out) {
                for (a, b) in row.iter_mut().zip(bias) {
                    *a += b;
                }
            }
        }
    }
}

/// LayerNorm over the last axis, in place.
#[derive(Debug, Clone)]
pub(crate) struct FrozenLayerNorm {
    gamma: Vec<f32>,
    beta: Vec<f32>,
    eps: f32,
}

impl FrozenLayerNorm {
    pub(crate) fn new(gamma: &Tensor, beta: &Tensor, eps: f32) -> Self {
        assert_eq!(
            gamma.numel(),
            beta.numel(),
            "FrozenLayerNorm: affine lengths"
        );
        FrozenLayerNorm {
            gamma: gamma.data().to_vec(),
            beta: beta.data().to_vec(),
            eps,
        }
    }

    /// The arithmetic of `Graph::layer_norm_rows`, row by row.
    fn apply(&self, x: &mut [f32]) {
        let cols = self.gamma.len();
        for row in x.chunks_exact_mut(cols) {
            let mean = row.iter().sum::<f32>() / cols as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
            let is = 1.0 / (var + self.eps).sqrt();
            for ((v, g), b) in row.iter_mut().zip(&self.gamma).zip(&self.beta) {
                let xhat = (*v - mean) * is;
                *v = xhat * g;
                *v += b;
            }
        }
    }
}

/// One post-norm Transformer block with frozen weights.
#[derive(Debug, Clone)]
pub(crate) struct FrozenBlock {
    pub(crate) wq: FrozenLinear,
    pub(crate) wk: FrozenLinear,
    pub(crate) wv: FrozenLinear,
    pub(crate) wo: FrozenLinear,
    pub(crate) ln1: FrozenLayerNorm,
    pub(crate) ff1: FrozenLinear,
    pub(crate) ff2: FrozenLinear,
    pub(crate) ln2: FrozenLayerNorm,
}

/// Per-call working memory: five `[rows, dim]` planes, the feed-forward
/// plane and one attention row. Allocated once per [`FrozenEncoder::encode`]
/// and dropped on return — nothing is held between calls, which is what
/// keeps the encoder free of interior mutability.
struct Scratch {
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    ctx: Vec<f32>,
    tmp: Vec<f32>,
    ff: Vec<f32>,
    scores: Vec<f32>,
}

/// Shape of one packed batch.
#[derive(Clone, Copy)]
struct Dims {
    batch: usize,
    seq: usize,
    dim: usize,
    heads: usize,
}

/// Causal multi-head attention into `s.ctx`. With `last_only` the
/// queries are the compacted last-position rows (`s.q` is
/// `[batch, dim]`, one query per sequence); otherwise every position
/// queries (`s.q` is `[batch * seq, dim]`). Keys and values always
/// span all positions.
fn attend(s: &mut Scratch, starts: &[usize], dims: Dims, last_only: bool) {
    let Dims {
        batch,
        seq,
        dim,
        heads,
    } = dims;
    let dh = dim / heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let scores = &mut s.scores[..seq];
    let first_query = if last_only { seq - 1 } else { 0 };
    for b in 0..batch {
        let start = starts[b];
        for i in first_query..seq {
            let q_row = if last_only { b } else { b * seq + i };
            for h in 0..heads {
                let lo = h * dh;
                let q = &s.q[q_row * dim + lo..q_row * dim + lo + dh];
                for (j, score) in scores.iter_mut().enumerate() {
                    let k_row = (b * seq + j) * dim + lo;
                    let mask = if causal_allowed(i, j, start) {
                        0.0
                    } else {
                        MASK_NEG
                    };
                    *score = dot(q, &s.k[k_row..k_row + dh]) * scale + mask;
                }
                softmax_in_place(scores);
                let out = &mut s.ctx[q_row * dim + lo..q_row * dim + lo + dh];
                out.fill(0.0);
                for (p, &a) in scores.iter().enumerate() {
                    let v_row = (b * seq + p) * dim + lo;
                    for (c, &bv) in out.iter_mut().zip(&s.v[v_row..v_row + dh]) {
                        *c += a * bv;
                    }
                }
            }
        }
    }
}

impl FrozenBlock {
    /// Everything after attention for `rows` rows of `x`: output
    /// projection, residual + LayerNorm, feed-forward, residual +
    /// LayerNorm. `s.ctx[..rows * dim]` holds the attention output.
    fn finish(&self, x: &mut [f32], s: &mut Scratch, rows: usize, dim: usize) {
        let x = &mut x[..rows * dim];
        self.wo.apply(&s.ctx, &mut s.tmp, rows);
        for (xv, a) in x.iter_mut().zip(&s.tmp) {
            *xv += a;
        }
        self.ln1.apply(x);
        self.ff1.apply(x, &mut s.ff, rows);
        for v in &mut s.ff[..rows * self.ff1.n_out] {
            *v = gelu_scalar(*v);
        }
        self.ff2.apply(&s.ff, &mut s.tmp, rows);
        for (xv, a) in x.iter_mut().zip(&s.tmp) {
            *xv += a;
        }
        self.ln2.apply(x);
    }

    /// The block over every position: `h` is `[batch * seq, dim]` in and
    /// out.
    fn forward_full(&self, h: &mut [f32], s: &mut Scratch, starts: &[usize], dims: Dims) {
        let rows = dims.batch * dims.seq;
        self.wq.apply(h, &mut s.q, rows);
        self.wk.apply(h, &mut s.k, rows);
        self.wv.apply(h, &mut s.v, rows);
        attend(s, starts, dims, false);
        self.finish(h, s, rows, dims.dim);
    }

    /// The final block, for the one row per sequence the caller reads.
    /// Keys and values are still computed for every position, but the
    /// query, attention, output projection, both LayerNorms and the
    /// feed-forward run for the last position only. Legal bit for bit:
    /// every kernel on the path accumulates one output row from that
    /// row's inputs alone (gemm over `p = 0..k` in order whether the row
    /// sits in a 4-row group or the tail; attention scores are per-row
    /// dots), so a row's bits do not depend on which other rows are
    /// computed. On return `h[..batch * dim]` holds the user rows.
    fn forward_last(&self, h: &mut [f32], s: &mut Scratch, starts: &[usize], dims: Dims) {
        let Dims {
            batch, seq, dim, ..
        } = dims;
        self.wk.apply(h, &mut s.k, batch * seq);
        self.wv.apply(h, &mut s.v, batch * seq);
        // Left padding ⇒ the last real position is always `seq - 1`.
        for b in 0..batch {
            let last = (b * seq + seq - 1) * dim;
            h.copy_within(last..last + dim, b * dim);
        }
        self.wq.apply(h, &mut s.q, batch);
        attend(s, starts, dims, true);
        self.finish(h, s, batch, dim);
    }
}

/// The SASRec chassis at inference: frozen item matrix → causal
/// Transformer → last position, with no autograd state anywhere in the
/// type.
#[derive(Debug, Clone)]
pub struct FrozenEncoder {
    /// The clean item matrix `V: [n_items, dim]` history rows are looked
    /// up in (shared with whoever else holds the `Arc`).
    items: Arc<Tensor>,
    /// Positional table `[max_seq, dim]`.
    pos: Vec<f32>,
    input_ln: FrozenLayerNorm,
    /// Every block but the final one runs over all positions …
    body: Vec<FrozenBlock>,
    /// … and the final one for the last position only.
    last: FrozenBlock,
    dim: usize,
    heads: usize,
    max_seq: usize,
}

impl FrozenEncoder {
    pub(crate) fn new(
        items: Arc<Tensor>,
        pos: &Tensor,
        input_ln: FrozenLayerNorm,
        body: Vec<FrozenBlock>,
        last: FrozenBlock,
        heads: usize,
    ) -> Self {
        assert!(
            items.rank() == 2 && pos.rank() == 2,
            "FrozenEncoder expects matrices"
        );
        let (max_seq, dim) = (pos.rows(), pos.cols());
        assert_eq!(
            items.cols(),
            dim,
            "item matrix width must match the encoder"
        );
        assert!(
            heads >= 1 && dim % heads == 0,
            "dim {dim} must divide into {heads} heads"
        );
        FrozenEncoder {
            items,
            pos: pos.data().to_vec(),
            input_ln,
            body,
            last,
            dim,
            heads,
            max_seq,
        }
    }

    /// The padded sequence length every batch must be packed to.
    pub fn max_seq(&self) -> usize {
        self.max_seq
    }

    /// User representations `[batch, dim]` for one packed inference batch
    /// in the `wr_data::Batch` layout: `items` is `[batch * max_seq]`
    /// left-padded item ids, `lengths[b]` the true length of sequence `b`.
    ///
    /// Bit-identical to the taped `tower.all_items → gather_rows →
    /// forward_user` of the model this encoder was frozen from. Panics on
    /// an item id outside the catalogue — callers validate requests before
    /// packing them.
    pub fn encode(&self, items: &[usize], lengths: &[usize]) -> Tensor {
        let dims = Dims {
            batch: lengths.len(),
            seq: self.max_seq,
            dim: self.dim,
            heads: self.heads,
        };
        let Dims {
            batch, seq, dim, ..
        } = dims;
        assert!(batch > 0, "empty batch");
        assert_eq!(items.len(), batch * seq, "items must be [batch * max_seq]");
        let rows = batch * seq;

        // Item rows + positional rows (`g.add(x, p)`), then input LN.
        let mut h = vec![0.0f32; rows * dim];
        for ((out, &item), pos) in h
            .chunks_exact_mut(dim)
            .zip(items)
            .zip(self.pos.chunks_exact(dim).cycle())
        {
            for ((o, x), p) in out.iter_mut().zip(self.items.row(item)).zip(pos) {
                *o = x + p;
            }
        }
        self.input_ln.apply(&mut h);

        let starts: Vec<usize> = lengths.iter().map(|&len| seq - len.min(seq)).collect();
        let blocks = self.body.iter().chain(std::iter::once(&self.last));
        let ff_width = blocks.map(|b| b.ff1.n_out).max().unwrap_or(0);
        let plane = || vec![0.0f32; rows * dim];
        let mut scratch = Scratch {
            q: plane(),
            k: plane(),
            v: plane(),
            ctx: plane(),
            tmp: plane(),
            ff: vec![0.0f32; rows * ff_width],
            scores: vec![0.0f32; seq],
        };
        for block in &self.body {
            block.forward_full(&mut h, &mut scratch, &starts, dims);
        }
        self.last.forward_last(&mut h, &mut scratch, &starts, dims);
        h.truncate(batch * dim);
        Tensor::from_vec(h, &[batch, dim])
    }
}
