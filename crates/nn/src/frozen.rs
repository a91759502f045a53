//! Frozen, tape-free inference encoder.
//!
//! The serving-side twin of [`crate::TransformerEncoder`]: plain `f32`
//! copies of the weights plus the frozen item matrix `V`, and nothing
//! that belongs to training — no graph, no parameter handles, no interior
//! mutability — so the type is `Send + Sync` by construction and
//! "inference has no tape" is a property of the type rather than a
//! runtime mode. Build one with [`crate::TransformerEncoder::freeze`].
//! It is the one inference encode of the repo: the serving engine and the
//! SASRec-chassis models' `score` (hence the offline evaluator) both call
//! [`FrozenEncoder::encode`].
//!
//! **One sequence at a time, over the rows it holds, keys instead of a
//! mask.** The input is the packed, left-padded `wr_data::Batch`
//! (`[batch * max_seq]` ids). Each sequence runs through the blocks on its
//! own, over its last `max(min(len, max_seq), 1)` positions only — its
//! real tokens, or an empty history's final pad — the rows the taped
//! forward's `AttentionKeys::packed` holds; pad positions are never
//! looked up, normalised or multiplied. A query reads only the contiguous
//! key range [`allowed_keys`] permits, so there is no mask value and no
//! `max_seq × max_seq` score matrix, and a history the batch already holds
//! (a hot user under skewed traffic) is not encoded twice. What one call
//! costs in time therefore follows the histories' lengths; what it asks
//! for in bytes does not — scratch is one `max_seq` sequence's footprint
//! whatever the batch holds (DESIGN.md §6 has the measurements).
//!
//! [`FrozenEncoder::encode`] is bit-identical to the taped, padded
//! `tower → forward_user` pipeline for every finite model (a non-finite
//! one does not freeze): it performs the same scalar operations in the
//! same order through the same kernels ([`wr_tensor::gemm`],
//! [`wr_tensor::gelu_scalar`], and for attention the row the taped
//! `Graph::attention` node runs, [`wr_tensor::HeadKv::attend`] over
//! [`allowed_keys`]; its argument for skipping masked keys is in
//! `wr_tensor`'s attention module). The final block's one query row, and
//! every row of a sequence shorter than `BLOCK_MIN_SEQ`, call that row
//! kernel itself. The other blocks' rows of a longer sequence go through
//! [`wr_tensor::HeadKv::attend_causal`], the block kernel that runs 16
//! rows to an AVX-512 register (8 to an AVX2 one), one row per lane. Each
//! lane performs the row kernel's operations in the row kernel's order, so
//! the two agree to the bit. That is a second statement of the row, not
//! shared code, so frozen ≡ taped is a test here
//! (`tests/frozen_encoder.rs`, every history length from 0 to past
//! `max_seq` 50), not a fact of construction.
//! Every row-wise kernel produces a row from that row's inputs alone, so a
//! row's bits do not depend on which rows are computed beside it — one
//! sequence or a batch of them. What the frozen forward drops is everything
//! around the arithmetic: the per-call tower run (history rows are looked
//! up in `V`), the per-op operand clones and the batch-sized planes.
//! Scratch is sized once per call and dropped on return.

use std::sync::Arc;

use wr_tensor::{allowed_keys, gelu_scalar, gemm, layer_norm_row, AttentionRule, HeadKv, Tensor};

fn all_finite(values: &[f32]) -> bool {
    values.iter().all(|v| v.is_finite())
}

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

    fn is_finite(&self) -> bool {
        all_finite(&self.weight) && self.bias.as_deref().map_or(true, all_finite)
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

    fn is_finite(&self) -> bool {
        all_finite(&self.gamma) && all_finite(&self.beta)
    }

    /// [`wr_tensor::layer_norm_row`] — the row `Graph::layer_norm_rows`
    /// runs — over every row of `x`.
    fn apply(&self, x: &mut [f32]) {
        for row in x.chunks_exact_mut(self.gamma.len()) {
            layer_norm_row(row, &self.gamma, &self.beta, self.eps);
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

/// Per-call working memory: five `[max_seq, dim]` planes, the feed-forward
/// plane and one attention row — the footprint of one full-length
/// sequence, whatever the batch holds; a shorter history uses a `[held,
/// dim]` prefix of each, so the bytes a call asks for do not follow the
/// lengths. Allocated once per [`FrozenEncoder::encode`] and dropped on
/// return — nothing is held between calls, which is what keeps the encoder
/// free of interior mutability.
struct Scratch {
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    ctx: Vec<f32>,
    tmp: Vec<f32>,
    ff: Vec<f32>,
    scores: Vec<f32>,
}

/// The rows of one sequence the blocks run over: `seq` of them (its last
/// `held` positions), real tokens at `[start, seq)` — `start = 0`, or `1`
/// for an empty history's lone pad row.
#[derive(Clone, Copy)]
struct Shape {
    start: usize,
    seq: usize,
    dim: usize,
    heads: usize,
}

/// Sequences at least this long run their causal rows through the block
/// kernel ([`HeadKv::attend_causal`]); shorter ones, whose few keys do not
/// repay a block's setup, through the row kernel.
const BLOCK_MIN_SEQ: usize = 8;

/// Causal multi-head attention into `s.ctx`. With `last_only` the one
/// query is the last position, compacted to row 0 of `s.q` and `s.ctx`;
/// otherwise every position queries. A query visits only the keys the
/// mask rule lets it read: every row of a sequence of [`BLOCK_MIN_SEQ`] or
/// more through the block kernel, which gives each row the bits of the row
/// kernel the taped `Graph::attention` node runs, and the rest through that
/// row kernel itself.
fn attend(s: &mut Scratch, shape: Shape, last_only: bool) {
    let Shape {
        start,
        seq,
        dim,
        heads,
    } = shape;
    let dh = dim / heads;
    let scale = 1.0 / (dh as f32).sqrt();
    if !last_only && seq >= BLOCK_MIN_SEQ {
        for lo in (0..heads).map(|h| h * dh) {
            let head = HeadKv {
                k: &s.k[lo..],
                v: &s.v[lo..],
                stride: dim,
                scale,
            };
            head.attend_causal(&s.q[lo..], dh, start, seq, &mut s.scores, &mut s.ctx[lo..]);
        }
        return;
    }
    let queries = if last_only { seq - 1..seq } else { 0..seq };
    for row in queries {
        let q_row = if last_only { 0 } else { row };
        let keys = allowed_keys(AttentionRule::Causal, row, start, seq);
        let weights = &mut s.scores[..keys.len()];
        for lo in (0..heads).map(|h| h * dh) {
            let head = HeadKv {
                k: &s.k[lo..],
                v: &s.v[lo..],
                stride: dim,
                scale,
            };
            let at = q_row * dim + lo;
            let (q, out) = (&s.q[at..at + dh], &mut s.ctx[at..at + dh]);
            head.attend(q, keys.clone(), None, weights, out);
        }
    }
}

impl FrozenBlock {
    fn is_finite(&self) -> bool {
        [&self.wq, &self.wk, &self.wv, &self.wo, &self.ff1, &self.ff2]
            .iter()
            .all(|l| l.is_finite())
            && self.ln1.is_finite()
            && self.ln2.is_finite()
    }

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

    /// The block over every row one sequence holds: `h[..shape.seq * dim]`
    /// in and out.
    fn forward_full(&self, h: &mut [f32], s: &mut Scratch, shape: Shape) {
        self.wq.apply(h, &mut s.q, shape.seq);
        self.wk.apply(h, &mut s.k, shape.seq);
        self.wv.apply(h, &mut s.v, shape.seq);
        attend(s, shape, false);
        self.finish(h, s, shape.seq, shape.dim);
    }

    /// The final block, for the one row the caller reads. Keys and values
    /// are computed for every row the sequence holds, but the query,
    /// attention, output projection, both LayerNorms and the feed-forward
    /// run for the last position only. Legal bit for bit — here and for
    /// the pad rows no block computes: every kernel on the path
    /// accumulates one output row from that row's inputs alone (gemm over
    /// `p = 0..k` in order whether the row sits in a full register tile or
    /// the tail; attention scores are per-row dots), so a row's bits do not
    /// depend on which other rows are computed, and no real query reads a
    /// pad key. On return `h[..dim]` holds the user row.
    fn forward_last(&self, h: &mut [f32], s: &mut Scratch, shape: Shape) {
        let Shape { seq, dim, .. } = shape;
        self.wk.apply(h, &mut s.k, seq);
        self.wv.apply(h, &mut s.v, seq);
        // Left padding ⇒ the last row is the position the caller reads.
        h.copy_within((seq - 1) * dim..seq * dim, 0);
        self.wq.apply(h, &mut s.q, 1);
        attend(s, shape, true);
        self.finish(h, s, 1, dim);
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
    /// Every block but the final one runs over every position held …
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

    /// Whether every snapshotted weight, the positional table and the
    /// item matrix are finite — the condition under which skipping masked
    /// keys is bit-identical to masking them.
    pub(crate) fn is_finite(&self) -> bool {
        all_finite(self.items.data())
            && all_finite(&self.pos)
            && self.input_ln.is_finite()
            && self.body.iter().all(FrozenBlock::is_finite)
            && self.last.is_finite()
    }

    /// The padded sequence length every batch must be packed to.
    pub fn max_seq(&self) -> usize {
        self.max_seq
    }

    /// User representations `[batch, dim]` for one packed inference batch
    /// in the `wr_data::Batch` layout: `items` is `[batch * max_seq]`
    /// left-padded item ids, `lengths[b]` the true length of sequence `b`
    /// (clamped to `max_seq`; `0` reads the last, pad, position).
    ///
    /// Bit-identical to the taped `tower.all_items → gather_rows →
    /// forward_user` of the model this encoder was frozen from. Reads only
    /// the last `max(min(len, max_seq), 1)` ids of sequence `b`; the ids
    /// before them are never looked at. Panics on an item id outside the
    /// catalogue at a position it reads — callers validate requests before
    /// packing them.
    pub fn encode(&self, items: &[usize], lengths: &[usize]) -> Tensor {
        let (batch, seq, dim) = (lengths.len(), self.max_seq, self.dim);
        assert!(batch > 0, "empty batch");
        assert_eq!(items.len(), batch * seq, "items must be [batch * max_seq]");

        let blocks = self.body.iter().chain(std::iter::once(&self.last));
        let ff_width = blocks.map(|b| b.ff1.n_out).max().unwrap_or(0);
        let plane = || vec![0.0f32; seq * dim];
        let mut h = plane();
        let mut scratch = Scratch {
            q: plane(),
            k: plane(),
            v: plane(),
            ctx: plane(),
            tmp: plane(),
            ff: vec![0.0f32; seq * ff_width],
            scores: vec![0.0f32; seq],
        };
        // The ids a user row is computed from, and the only positions
        // encoded: the last `held = max(min(len, seq), 1)` of the sequence —
        // its real tokens, or an empty history's final pad, which reads
        // itself (the rows `AttentionKeys::packed` holds).
        let read = |b: usize| {
            let end = (b + 1) * seq;
            &items[end - lengths[b].min(seq).max(1)..end]
        };
        let mut users = vec![0.0f32; batch * dim];
        for b in 0..batch {
            // A history the batch already holds — a hot user under skewed
            // traffic — takes the row computed for it.
            if let Some(twin) = (0..b).find(|&a| read(a) == read(b)) {
                users.copy_within(twin * dim..(twin + 1) * dim, b * dim);
                continue;
            }
            let ids = read(b);
            let held = ids.len();
            let h = &mut h[..held * dim];
            // Item rows + the positional rows of the positions held
            // (`g.add(x, p)`), then input LN.
            for ((out, &id), pos) in h
                .chunks_exact_mut(dim)
                .zip(ids)
                .zip(self.pos[(seq - held) * dim..].chunks_exact(dim))
            {
                for ((o, x), p) in out.iter_mut().zip(self.items.row(id)).zip(pos) {
                    *o = x + p;
                }
            }
            self.input_ln.apply(h);
            let shape = Shape {
                start: held - lengths[b].min(seq),
                seq: held,
                dim,
                heads: self.heads,
            };
            for block in &self.body {
                block.forward_full(h, &mut scratch, shape);
            }
            self.last.forward_last(h, &mut scratch, shape);
            users[b * dim..(b + 1) * dim].copy_from_slice(&h[..dim]);
        }
        Tensor::from_vec(users, &[batch, dim])
    }
}
