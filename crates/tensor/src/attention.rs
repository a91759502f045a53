//! One attention row over the keys its query may read.
//!
//! The taped `wr_autograd::Graph::attention` node and the tape-free
//! `wr_nn::FrozenEncoder` both compute attention here: [`allowed_keys`] is
//! the one statement of the mask rule and [`HeadKv::attend`] the statement
//! of the row. [`HeadKv::attend_causal`] runs a sequence's causal rows side
//! by side, one per vector lane, each lane the row's operations in the
//! row's order; the frozen encoder takes it for longer sequences, and the
//! bit tests below hold it to [`HeadKv::attend`]. Neither builds a mask or
//! a `[seq, seq]` score matrix.
//!
//! **Why skipping the other keys moves no bit** (DESIGN.md §5c "Attention
//! and dropout order"). The per-head chain this replaced masked a
//! forbidden score to `dot · scale − 1e9`. The row maximum is always an
//! allowed score (a query may read itself), so that score's `exp(x − max)`
//! is exactly `+0.0`; the softmax's sequential sum and the `Σ a·v`
//! accumulator both start at `+0.0` and run over ascending keys, so the
//! terms dropped here are `+0.0` addends and `0.0 · v` products that could
//! not have changed either — for finite `v`, which is the condition
//! `TransformerEncoder::freeze` checks.
//!
//! **Rows nobody reads need not exist.** A real query reads real keys
//! only, so [`AttentionKeys`] also says which positions of a sequence the
//! planes hold a row for: all of them ([`AttentionKeys::new`], the padded
//! reference layout) or the last `max(len, 1)` ([`AttentionKeys::packed`],
//! what the taped encoder runs over). A non-finite operand that only pad
//! positions would have read is then read by nothing at all.

use std::ops::Range;

#[cfg(target_arch = "x86")]
use std::arch::x86::{__m256, __m512};
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{__m256, __m512};

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
use crate::lanes::{exp, Lanes, MAX_LANES};
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
use crate::ops::SOFTMAX_BANKED_MIN;
use crate::{dot, softmax_in_place, Arm, Level};

/// Which real tokens a query may read in a left-padded sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttentionRule {
    /// Every real `j ≤ i` (SASRec).
    Causal,
    /// Every real `j`, before or after `i` (BERT4Rec's Cloze setting).
    Bidirectional,
}

/// The keys one query reads, ascending: the query's own position when it
/// is a pad, then a contiguous range of real positions.
#[derive(Debug, Clone)]
pub struct Keys {
    own: Option<usize>,
    real: Range<usize>,
}

impl Iterator for Keys {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        self.own.take().or_else(|| self.real.next())
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::from(self.own.is_some()) + self.real.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for Keys {}

/// The mask rule, as the keys query `i` may read in a sequence of `seq`
/// positions whose real tokens sit at `[start, seq)`: every real `j` the
/// [`AttentionRule`] admits, and a pad query (`i < start`, which is every
/// query of an empty history, `start = seq`) also reads itself, so that
/// its softmax stays well-defined — alone under the causal rule, ahead of
/// the real range under the bidirectional one.
#[inline]
pub fn allowed_keys(rule: AttentionRule, i: usize, start: usize, seq: usize) -> Keys {
    let end = match rule {
        AttentionRule::Causal => (i + 1).max(start),
        AttentionRule::Bidirectional => seq,
    };
    Keys {
        own: (i < start).then_some(i),
        real: start..end,
    }
}

/// The key layout of one left-padded batch: the rule, the padded length
/// and, per sequence, which of its `seq` positions the `q` / `k` / `v`
/// planes hold a row for — always its last `held`, stacked sequence after
/// sequence, so sequence `b`'s rows are `first_row(b)..first_row(b) +
/// held(b)` and query / key indices are local to them.
///
/// The layout is data, not a mode: [`Self::new`] holds every position (the
/// padded plane, `first_row(b) = b · seq`), [`Self::packed`] only the
/// positions something downstream reads. Both describe the same attention
/// and the same RNG stream — `seq` stays the shape the dropout draws are
/// counted over (DESIGN.md §5c "Attention and dropout order").
#[derive(Debug, Clone)]
pub struct AttentionKeys {
    rule: AttentionRule,
    seq: usize,
    /// Per sequence: where its real tokens start among the rows it holds.
    starts: Vec<usize>,
    /// Sequence `b` holds rows `first_rows[b]..first_rows[b + 1]`.
    first_rows: Vec<usize>,
}

impl AttentionKeys {
    /// Every position held: sequence `b` holds `lengths[b]` real tokens
    /// (clamped to `seq`) at the end of its `seq` rows.
    pub fn new(rule: AttentionRule, seq: usize, lengths: &[usize]) -> Self {
        Self::holding(rule, seq, lengths.iter().map(|&len| (seq, seq - len.min(seq))))
    }

    /// Only the last `max(len, 1)` positions held (`len` clamped to `seq`):
    /// a history's real tokens and no pad, and for an empty history its
    /// final pad position, which reads itself — the rows
    /// `wr_nn::FrozenEncoder` reads too.
    pub fn packed(rule: AttentionRule, seq: usize, lengths: &[usize]) -> Self {
        assert!(seq >= 1, "a sequence holds at least one position");
        Self::holding(
            rule,
            seq,
            lengths.iter().map(|&len| match len.min(seq) {
                0 => (1, 1),
                real => (real, 0),
            }),
        )
    }

    /// From each sequence's `(rows held, start of its real tokens among
    /// them)`.
    fn holding(
        rule: AttentionRule,
        seq: usize,
        held: impl Iterator<Item = (usize, usize)>,
    ) -> Self {
        let mut starts = Vec::new();
        let mut first_rows = vec![0];
        for (held, start) in held {
            starts.push(start);
            first_rows.push(first_rows[starts.len() - 1] + held);
        }
        AttentionKeys {
            rule,
            seq,
            starts,
            first_rows,
        }
    }

    /// Number of sequences.
    pub fn batch(&self) -> usize {
        self.starts.len()
    }

    /// Padded length of every sequence.
    pub fn seq(&self) -> usize {
        self.seq
    }

    /// Rows of the whole batch: `Σ held(b)`.
    pub fn rows(&self) -> usize {
        self.first_rows[self.batch()]
    }

    /// Rows sequence `b` holds: its last `held(b)` positions.
    pub fn held(&self, b: usize) -> usize {
        self.first_rows[b + 1] - self.first_rows[b]
    }

    /// Sequence `b`'s first row in the planes.
    pub fn first_row(&self, b: usize) -> usize {
        self.first_rows[b]
    }

    /// The held rows as rows of the padded `[batch · seq, _]` plane,
    /// ascending: row `r` is position `r % seq` of sequence `r / seq`.
    pub fn padded_rows(&self) -> Vec<usize> {
        let mut rows = Vec::with_capacity(self.rows());
        for b in 0..self.batch() {
            rows.extend((b + 1) * self.seq - self.held(b)..(b + 1) * self.seq);
        }
        rows
    }

    /// The keys query `i` of sequence `b` reads, both local to the
    /// sequence's held rows.
    #[inline]
    pub fn of(&self, b: usize, i: usize) -> Keys {
        allowed_keys(self.rule, i, self.starts[b], self.held(b))
    }

    /// Allowed (query, key) pairs over the whole batch — the softmax
    /// entries one head computes.
    pub fn pairs(&self) -> usize {
        (0..self.batch())
            .map(|b| (0..self.held(b)).map(|i| self.of(b, i).len()).sum::<usize>())
            .sum()
    }
}

/// One head's keys and values for one sequence, read in place: row `j`'s
/// head columns are `k[j * stride..][..dh]`, so the caller hands over its
/// `[seq, dim]` planes from the head's first column on and copies nothing.
#[derive(Debug, Clone, Copy)]
pub struct HeadKv<'a> {
    pub k: &'a [f32],
    pub v: &'a [f32],
    /// Floats between consecutive rows (the model width).
    pub stride: usize,
    /// `1 / √dh`.
    pub scale: f32,
}

impl HeadKv<'_> {
    /// The attention row of query `q` (its `dh` head columns) over `keys`:
    /// `dot(q, k_j) · scale` → [`softmax_in_place`] → `Σ_j a_j · v_j` into
    /// `out`, keys ascending from `+0.0`, each multiply and add rounded on
    /// its own. `weights` (one per key) returns the softmax row — what a
    /// backward pass saves. `factors`, when given, are the inverted-dropout
    /// factors at those keys: `a_j = weights[j] · factors[j]`, rounded
    /// before it multiplies `v_j`; without them `a_j = weights[j]`.
    #[inline]
    pub fn attend(
        &self,
        q: &[f32],
        keys: Keys,
        factors: Option<&[f32]>,
        weights: &mut [f32],
        out: &mut [f32],
    ) {
        let dh = q.len();
        debug_assert_eq!(weights.len(), keys.len());
        for (w, j) in weights.iter_mut().zip(keys.clone()) {
            *w = dot(q, &self.k[j * self.stride..][..dh]) * self.scale;
        }
        softmax_in_place(weights);
        out.fill(0.0);
        for (n, j) in keys.enumerate() {
            let a = factors.map_or(weights[n], |f| weights[n] * f[n]);
            for (c, &bv) in out.iter_mut().zip(&self.v[j * self.stride..][..dh]) {
                *c += a * bv;
            }
        }
    }

    /// Every query row of one sequence under the causal rule, real tokens
    /// at `[start, seq)`: row `i`'s `dh` head columns are `q[i *
    /// stride..][..dh]` and its output goes to `out[i * stride..][..dh]`
    /// (planes laid out as `k` and `v` are). Each row gets the bits
    /// [`Self::attend`] gives it over `allowed_keys(Causal, i, start, seq)`
    /// without factors; `weights` is scratch of at least `seq` floats.
    ///
    /// With an AVX-512F (AVX2) [`Arm::detected`] the rows run 16 (8) to a
    /// register, one row per lane, each lane the row kernel's operations in
    /// its order (DESIGN.md §5c "Attention and dropout order"); a row of 64
    /// keys or more, a head wider than 64 or not a multiple of 4, and the
    /// baseline take [`Self::attend`].
    pub fn attend_causal(
        &self,
        q: &[f32],
        dh: usize,
        start: usize,
        seq: usize,
        weights: &mut [f32],
        out: &mut [f32],
    ) {
        self.attend_causal_on(Arm::detected(), q, dh, start, seq, weights, out);
    }

    /// [`Self::attend_causal`] on `arm`'s block kernel when the head fits
    /// one, else row by row.
    fn attend_causal_on(
        &self,
        arm: Arm,
        q: &[f32],
        dh: usize,
        start: usize,
        seq: usize,
        weights: &mut [f32],
        out: &mut [f32],
    ) {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        let fits = dh <= BLOCK_DH && dh % 4 == 0;
        match arm.level() {
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            // SAFETY: an `Avx512` token exists only on a CPU that runs
            // AVX-512F.
            Level::Avx512 if fits => unsafe { attend_causal_avx512(self, q, dh, start, seq, weights, out) },
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            // SAFETY: an `Avx2` token exists only on a CPU that runs AVX2.
            Level::Avx2 if fits => unsafe { attend_causal_avx2(self, q, dh, start, seq, weights, out) },
            _ => {
                for i in 0..seq {
                    self.attend_row(q, dh, start, seq, i, weights, out);
                }
            }
        }
    }

    /// [`Self::attend`] for causal row `i` of the strided planes.
    #[inline]
    fn attend_row(
        &self,
        q: &[f32],
        dh: usize,
        start: usize,
        seq: usize,
        i: usize,
        weights: &mut [f32],
        out: &mut [f32],
    ) {
        let keys = allowed_keys(AttentionRule::Causal, i, start, seq);
        let at = i * self.stride;
        let weights = &mut weights[..keys.len()];
        self.attend(&q[at..at + dh], keys, None, weights, &mut out[at..at + dh]);
    }
}

/// A row with this many keys or more sums its softmax in banks
/// (`softmax_in_place`), which no lane of the block kernel reproduces; the
/// row kernel takes it.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
const BLOCK_KEYS: usize = SOFTMAX_BANKED_MIN;
/// The widest head the block kernel holds on the stack.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
const BLOCK_DH: usize = 64;

/// [`attend_causal_with`] over AVX-512F registers: 16 rows to a block.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f")]
fn attend_causal_avx512(
    head: &HeadKv<'_>,
    q: &[f32],
    dh: usize,
    start: usize,
    seq: usize,
    weights: &mut [f32],
    out: &mut [f32],
) {
    // SAFETY: `__m512`'s lanes need AVX-512F, which this function enables.
    unsafe { attend_causal_with::<__m512>(head, q, dh, start, seq, weights, out) };
}

/// [`attend_causal_with`] over AVX2 registers: 8 rows to a block.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn attend_causal_avx2(
    head: &HeadKv<'_>,
    q: &[f32],
    dh: usize,
    start: usize,
    seq: usize,
    weights: &mut [f32],
    out: &mut [f32],
) {
    // SAFETY: `__m256`'s lanes need AVX2, which this function enables.
    unsafe { attend_causal_with::<__m256>(head, q, dh, start, seq, weights, out) };
}

/// The body of [`HeadKv::attend_causal`], `V::L` rows to a block: the
/// block kernel over the rows it takes, the row kernel over the rest. The
/// blocks end at `seq`, so a short one holds the first rows, which read
/// the fewest keys. Requires `V`'s CPU feature, `dh ≤ BLOCK_DH` and `dh`
/// a multiple of 4.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[inline(always)]
unsafe fn attend_causal_with<V: Lanes>(
    head: &HeadKv<'_>,
    q: &[f32],
    dh: usize,
    start: usize,
    seq: usize,
    weights: &mut [f32],
    out: &mut [f32],
) {
    let mut planes = Planes::<V> {
        q: [V::splat(0.0); BLOCK_DH],
        w: [V::splat(0.0); BLOCK_KEYS],
        // The empty run `0..0`: no lane.
        reads: [V::holds(V::splat_int(0), V::splat_int(0), 0); BLOCK_KEYS],
    };
    let mut rows = 0..seq % V::L;
    while rows.start < seq {
        if !rows.is_empty() {
            let held = planes.attend(head, q, dh, start, seq, rows.clone(), out);
            for i in rows.clone() {
                if held & (1 << (i - rows.start)) == 0 {
                    head.attend_row(q, dh, start, seq, i, weights, out);
                }
            }
        }
        rows = rows.end..rows.end + V::L;
    }
}

/// One block's registers on the stack, lane `l` for the block's row `l`:
/// the query transposed (one register per head column); and per key of the
/// block's span, the scores, then weights, and which lanes read the key.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
struct Planes<V: Lanes> {
    q: [V; BLOCK_DH],
    w: [V; BLOCK_KEYS],
    reads: [V::Mask; BLOCK_KEYS],
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
impl<V: Lanes> Planes<V> {
    /// Those of the causal rows `rows` (at most `V::L`) with fewer than
    /// [`BLOCK_KEYS`] keys, lane `l` holding row `rows.start + l`, each
    /// lane [`HeadKv::attend`]'s row operation for operation: `dot`'s four
    /// banks then `· scale`; the maximum folded from `−∞` in key order;
    /// [`crate::exp_scalar`]'s sequence; the sum in key order from `+0`; each
    /// weight divided by the sum when the sum is positive; `Σ a·v`
    /// ascending from `+0`. A lane takes no part in a key it may not read —
    /// no maximum, no addend. Returns the rows it wrote, bit `l` for row
    /// `rows.start + l`.
    #[inline(always)]
    unsafe fn attend(
        &mut self,
        head: &HeadKv<'_>,
        q: &[f32],
        dh: usize,
        start: usize,
        seq: usize,
        rows: Range<usize>,
        out: &mut [f32],
    ) -> u32 {
        let r0 = rows.start;
        // Each lane's keys from the one statement of the rule. Under the
        // causal rule they are one ascending run: a pad query's own
        // position, or a real query's `start..=i`. A lane the block does
        // not hold gets the empty run.
        let mut from = [i32::MAX; MAX_LANES];
        let mut to = [0i32; MAX_LANES];
        let (mut first, mut end) = (usize::MAX, 0);
        let mut held = 0u32;
        for l in 0..rows.len().min(V::L) {
            let keys = allowed_keys(AttentionRule::Causal, r0 + l, start, seq);
            let run = keys.own.map_or(keys.real.clone(), |i| i..i + 1);
            debug_assert_eq!(run.len(), keys.len(), "causal keys are one run");
            if run.len() >= BLOCK_KEYS {
                continue;
            }
            (first, end) = (first.min(run.start), end.max(run.end));
            (from[l], to[l]) = (run.start as i32, run.end as i32);
            held |= 1 << l;
        }
        // A block's keys span at most `BLOCK_KEYS`: its real rows read
        // `start..` and its pad rows sit inside the block.
        if held == 0 || end - first > BLOCK_KEYS {
            return 0;
        }
        let (from, to) = (V::load_int(&from), V::load_int(&to));
        let stride = head.stride;
        // Lane `l`'s row starts `l · stride` floats into the block's rows,
        // and `span` ends at the last held lane's `dh`-th column, so every
        // float a gather or scatter below touches is inside `q_rows` /
        // `out_rows` (column `c < dh`).
        let mut offsets = [0i32; MAX_LANES];
        for (l, at) in offsets.iter_mut().enumerate() {
            *at = (l * stride) as i32;
        }
        let offsets = V::load_int(&offsets);
        let span = r0 * stride..(r0 + rows.len().min(V::L) - 1) * stride + dh;
        let q_rows = &q[span.clone()];
        for (c, qc) in self.q[..dh].iter_mut().enumerate() {
            *qc = V::gather(q_rows[c..].as_ptr(), offsets, held);
        }

        // Scores and their running maximum.
        let zero = V::splat(0.0);
        let mut max = V::splat(f32::NEG_INFINITY);
        for ((j, wj), on) in (first..end).zip(self.w.iter_mut()).zip(self.reads.iter_mut()) {
            *on = V::holds(from, to, j as i32);
            let (mut s0, mut s1, mut s2, mut s3) = (zero, zero, zero, zero);
            let k_quads = head.k[j * stride..][..dh].chunks_exact(4);
            for (qs, ks) in self.q[..dh].chunks_exact(4).zip(k_quads) {
                s0 = s0.add(qs[0].mul(V::splat(ks[0])));
                s1 = s1.add(qs[1].mul(V::splat(ks[1])));
                s2 = s2.add(qs[2].mul(V::splat(ks[2])));
                s3 = s3.add(qs[3].mul(V::splat(ks[3])));
            }
            *wj = s0.add(s1).add(s2).add(s3).mul(V::splat(head.scale));
            max = max.blend(*on, max.max(*wj));
        }

        // `e^(x − max)` and their sum, keys ascending.
        let keys = end - first;
        let mut sum = zero;
        for (wj, &on) in self.w[..keys].iter_mut().zip(&self.reads) {
            *wj = exp(wj.sub(max));
            sum = sum.blend(on, sum.add(*wj));
        }

        // `Σ a·v`, eight columns a pass (four for a last four); the first
        // pass divides the weights on its way.
        let out_rows = &mut out[span];
        let mut divide = Some((zero.lt(sum), sum));
        let mut c = 0;
        while c < dh {
            let v = &head.v[first * stride + c..];
            let cols = &mut out_rows[c..];
            if dh - c >= 8 {
                self.mix::<8>(v, stride, keys, divide.take(), cols, offsets, held);
                c += 8;
            } else {
                self.mix::<4>(v, stride, keys, divide.take(), cols, offsets, held);
                c += 4;
            }
        }
        held
    }

    /// `G` columns of `Σ a·v` over the block's `keys` keys into the held
    /// rows: `v` starts at the first key's first column (rows `stride`
    /// apart), `out` at the rows' first column. Accumulators start at `+0`
    /// and take each key a lane reads in ascending order, the product
    /// rounded before the add. With `divide = Some((sum > 0, sum))` each
    /// weight is first divided by its lane's sum where that is positive.
    /// The `G` chains run over keys; `G` of them side by side keep the
    /// adder busy.
    #[inline(always)]
    unsafe fn mix<const G: usize>(
        &mut self,
        v: &[f32],
        stride: usize,
        keys: usize,
        divide: Option<(V::Mask, V)>,
        out: &mut [f32],
        offsets: V::Int,
        held: u32,
    ) {
        let mut acc = [V::splat(0.0); G];
        for (n, (wj, &on)) in self.w[..keys].iter_mut().zip(&self.reads).enumerate() {
            if let Some((positive, sum)) = divide {
                *wj = wj.blend(positive, wj.div(sum));
            }
            for (a, &vc) in acc.iter_mut().zip(&v[n * stride..][..G]) {
                *a = a.blend(on, a.add(wj.mul(V::splat(vc))));
            }
        }
        for (n, a) in acc.into_iter().enumerate() {
            a.scatter(out[n..].as_mut_ptr(), offsets, held);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use AttentionRule::{Bidirectional, Causal};

    /// The rule pair by pair, as the mask tensors have always applied it —
    /// the specification [`allowed_keys`] is pinned against.
    fn allowed(rule: AttentionRule, i: usize, j: usize, start: usize) -> bool {
        j == i || (j >= start && (rule == Bidirectional || j <= i))
    }

    #[test]
    fn allowed_keys_is_exactly_the_pairwise_rule() {
        for rule in [Causal, Bidirectional] {
            for seq in 1..=8usize {
                // `start = seq` is the empty history: every row, the last
                // included, attends only to itself.
                for start in 0..=seq {
                    let layout = AttentionKeys::new(rule, seq, &[seq - start, seq + 3]);
                    let mut pairs = 0;
                    for i in 0..seq {
                        let pairwise: Vec<usize> =
                            (0..seq).filter(|&j| allowed(rule, i, j, start)).collect();
                        let keys = allowed_keys(rule, i, start, seq);
                        assert_eq!(keys.len(), pairwise.len());
                        let keys: Vec<usize> = keys.collect();
                        assert_eq!(keys, pairwise, "{rule:?} seq {seq} start {start} i {i}");
                        assert!(keys.contains(&i), "a query always reads itself");
                        assert_eq!(layout.of(0, i).collect::<Vec<_>>(), pairwise);
                        pairs += pairwise.len() + layout.of(1, i).len();
                    }
                    // An over-long history is clamped: no pads.
                    assert_eq!(layout.of(1, 0).collect::<Vec<_>>()[0], 0);
                    assert_eq!(layout.pairs(), pairs);
                }
            }
        }
    }

    #[test]
    fn a_packed_layout_holds_the_last_rows_and_reads_the_same_keys() {
        for rule in [Causal, Bidirectional] {
            for seq in 1..=6usize {
                let lengths: Vec<usize> = (0..=seq + 2).collect();
                let padded = AttentionKeys::new(rule, seq, &lengths);
                let packed = AttentionKeys::packed(rule, seq, &lengths);
                assert_eq!((padded.rows(), padded.batch()), (lengths.len() * seq, lengths.len()));
                assert_eq!(padded.padded_rows(), (0..padded.rows()).collect::<Vec<_>>());
                let mut rows = Vec::new();
                let mut pairs = 0;
                for (b, &len) in lengths.iter().enumerate() {
                    let held = len.min(seq).max(1);
                    assert_eq!((padded.held(b), padded.first_row(b)), (seq, b * seq));
                    assert_eq!((packed.held(b), packed.first_row(b)), (held, rows.len()));
                    // Local query `i` is padded position `absent + i`, and
                    // so are its keys.
                    let absent = seq - held;
                    for i in 0..held {
                        let want: Vec<usize> = padded.of(b, absent + i).map(|j| j - absent).collect();
                        assert_eq!(packed.of(b, i).collect::<Vec<_>>(), want, "{rule:?} {seq} {len} {i}");
                        pairs += want.len();
                        rows.push(b * seq + absent + i);
                    }
                }
                assert_eq!(packed.padded_rows(), rows);
                assert_eq!((packed.rows(), packed.pairs(), packed.seq()), (rows.len(), pairs, seq));
            }
        }
    }

    #[test]
    fn attend_is_softmax_weighted_values_with_optional_factors() {
        // Two heads of width 2 side by side; the kernel reads head 1 in
        // place (columns 2..4 of every row).
        let (seq, dim, dh) = (3, 4, 2);
        let k: Vec<f32> = (0..seq * dim).map(|x| x as f32 * 0.1).collect();
        let v: Vec<f32> = (0..seq * dim).map(|x| 1.0 - x as f32 * 0.2).collect();
        let q = [0.3f32, -0.7];
        let head = HeadKv {
            k: &k[dh..],
            v: &v[dh..],
            stride: dim,
            scale: 0.5,
        };
        let keys = allowed_keys(Bidirectional, 0, 1, seq); // own 0, then 1..3
        let mut weights = [0.0f32; 3];
        let mut out = [9.0f32; 2];
        head.attend(&q, keys.clone(), None, &mut weights, &mut out);

        let mut want: Vec<f32> = (0..seq)
            .map(|j| dot(&q, &k[j * dim + dh..][..dh]) * 0.5)
            .collect();
        softmax_in_place(&mut want);
        assert_eq!(weights.to_vec(), want);
        for c in 0..dh {
            let mut acc = 0.0f32;
            for j in 0..seq {
                acc += want[j] * v[j * dim + dh + c];
            }
            assert_eq!(out[c].to_bits(), acc.to_bits());
        }

        // Factors scale the mix, never the returned softmax row.
        let factors = [2.0f32, 0.0, 2.0];
        let mut dropped = [0.0f32; 2];
        head.attend(&q, keys, Some(&factors), &mut weights, &mut dropped);
        assert_eq!(weights.to_vec(), want);
        for c in 0..dh {
            let mut acc = 0.0f32;
            for j in 0..seq {
                acc += (want[j] * factors[j]) * v[j * dim + dh + c];
            }
            assert_eq!(dropped[c].to_bits(), acc.to_bits());
        }
    }

    #[test]
    fn every_attention_block_arm_matches_the_row_kernel_bit_for_bit() {
        use crate::Rng64;
        // `a` and `b` are the same `f32`, or both NaN (a NaN's payload is
        // not part of any kernel's contract).
        let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let mut rng = Rng64::seed_from(44);
        for dh in [4, 8, 16, 32] {
            // Two heads side by side; the kernel reads head 1 in place.
            let dim = 2 * dh;
            for seq in 1..=70usize {
                let plane = |rng: &mut Rng64| (0..seq * dim).map(|_| rng.normal()).collect::<Vec<f32>>();
                let (q, k, v) = (plane(&mut rng), plane(&mut rng), plane(&mut rng));
                let mut cases = vec![("finite", q.clone(), k.clone())];
                // One key's score is NaN for every row that reads it.
                let mut nan_k = k.clone();
                nan_k[(seq / 2) * dim + dh] = f32::NAN;
                cases.push(("a NaN score", q.clone(), nan_k));
                // ±∞ scores: an infinite query column meets keys of both
                // signs; an infinite key column with an opposite-signed one
                // sums a row's dot to NaN.
                let mut inf_q = q.clone();
                inf_q[(seq - 1) * dim + dh] = f32::INFINITY;
                inf_q[(seq / 3) * dim + dh + 1] = f32::NEG_INFINITY;
                cases.push(("±∞ scores", inf_q, k.clone()));
                let mut nan_sum = k.clone();
                nan_sum[dh] = f32::INFINITY;
                nan_sum[dh + 1] = f32::NEG_INFINITY;
                let mut nan_sum_q = q.clone();
                for row in nan_sum_q.chunks_exact_mut(dim) {
                    (row[dh], row[dh + 1]) = (1.0, 1.0);
                }
                cases.push(("a NaN sum", nan_sum_q, nan_sum));
                // Real tokens from 0 (the frozen encoder's full rows), the
                // pad row of an empty history, and pads ahead of a history.
                let mut starts = vec![0, seq / 3, seq];
                starts.dedup();
                let layouts: Vec<(usize, usize)> = if seq == 1 {
                    vec![(1, 0), (1, 1)]
                } else {
                    starts.into_iter().map(|start| (seq, start)).collect()
                };
                for (kind, q, k) in &cases {
                    let head = HeadKv {
                        k: &k[dh..],
                        v: &v[dh..],
                        stride: dim,
                        scale: 1.0 / (dh as f32).sqrt(),
                    };
                    for &(seq, start) in &layouts {
                        let mut want = vec![9.0f32; seq * dim];
                        let mut weights = vec![0.0f32; seq];
                        for i in 0..seq {
                            let keys = allowed_keys(Causal, i, start, seq);
                            let at = i * dim + dh;
                            head.attend(&q[at..at + dh], keys.clone(), None, &mut weights[..keys.len()], &mut want[at..at + dh]);
                        }
                        for arm in Arm::available() {
                            let name = arm.level();
                            let mut got = vec![9.0f32; seq * dim];
                            head.attend_causal_on(arm, &q[dh..], dh, start, seq, &mut weights, &mut got[dh..]);
                            for (n, (&g, &w)) in got.iter().zip(&want).enumerate() {
                                let (i, c) = (n / dim, n % dim);
                                assert!(
                                    same(g, w),
                                    "{name:?} arm, {kind}, dh {dh}, seq {seq}, start {start}, row {i} col {c}: {g:e}, want {w:e}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
