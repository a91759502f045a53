//! Attention rows over the keys their queries may read.
//!
//! The taped `wr_autograd::Graph::attention` node and the tape-free
//! `wr_nn::FrozenEncoder` both compute attention through one entry,
//! [`HeadKv::attend_rows`], the only place that decides which kernel
//! computes a row: [`HeadKv::attend`], the statement of the row over the
//! keys [`allowed_keys`] (the mask rule) lists, or for 8 rows or more a
//! block kernel that runs them one per vector lane, each lane the row's
//! operations in the row's order — which the bit tests below hold. Nothing
//! builds a mask or a `[seq, seq]` score matrix.
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

    /// Where sequence `b`'s real tokens start among the rows it holds.
    pub fn start(&self, b: usize) -> usize {
        self.starts[b]
    }

    /// The rule every query reads by.
    pub fn rule(&self) -> AttentionRule {
        self.rule
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

/// Where [`HeadKv::attend_rows`] leaves each row's softmax.
#[derive(Debug)]
pub enum Weights<'a> {
    /// Nowhere: scratch of at least `seq` floats that each row overwrites.
    Scratch(&'a mut [f32]),
    /// The rows' softmax rows end to end, keys ascending — what a backward
    /// pass reads — and, under dropout, the factors at the same places.
    Saved {
        weights: &'a mut [f32],
        factors: Option<&'a [f32]>,
    },
}

impl HeadKv<'_> {
    /// The attention row of query `q` (its `dh` head columns) over `keys`:
    /// `dot(q, k_j) · scale` → [`softmax_in_place`] → `Σ_j a_j · v_j` into
    /// `out`, keys ascending from `+0.0`, each multiply and add rounded on
    /// its own. `weights` (one per key) returns the softmax row — what a
    /// backward pass saves. `factors`, when given, are the inverted-dropout
    /// factors at those keys: `a_j = weights[j] · factors[j]`, rounded
    /// before it multiplies `v_j`; without them `a_j = weights[j]`. Other
    /// crates reach it only through [`Self::attend_rows`].
    #[inline]
    pub(crate) fn attend(
        &self,
        q: &[f32],
        keys: Keys,
        factors: Option<&[f32]>,
        weights: &mut [f32],
        out: &mut [f32],
    ) {
        let dh = q.len();
        debug_assert!(keys.len() > 0 && weights.len() == keys.len(), "a query reads at least itself");
        for (w, j) in weights.iter_mut().zip(keys.clone()) {
            *w = dot(q, &self.k[j * self.stride..][..dh]) * self.scale;
        }
        softmax_in_place(weights);
        for (n, j) in keys.enumerate() {
            let a = factors.map_or(weights[n], |f| weights[n] * f[n]);
            for (c, &bv) in out.iter_mut().zip(&self.v[j * self.stride..][..dh]) {
                // `+0.0 + a·v` on the first key: a fill would be a `memset` call.
                *c = if n == 0 { 0.0 } else { *c } + a * bv;
            }
        }
    }

    /// Rows `rows` of a sequence of `seq` positions, real tokens at `[start,
    /// seq)`, each with the bits of the row kernel `HeadKv::attend` over
    /// `allowed_keys(rule, i, start, seq)`: row `rows.start + r` reads
    /// `q[r * stride..][..dh]` and writes `out[r * stride..][..dh]`.
    /// [`Weights::Saved`] holds each row's `weights` and `factors`, row
    /// after row; returns their length (the pairs the rows read).
    ///
    /// The one place a kernel is chosen. With an AVX-512F (AVX2)
    /// [`Arm::detected`], a call of 8 rows or more runs them 16 (8) to a
    /// register (DESIGN.md §5c); the row kernel takes fewer rows, a row of
    /// 64 keys or more or of keys that are not one run (a bidirectional pad
    /// query), a head wider than 64 or not a multiple of 4, and the baseline.
    #[inline]
    pub fn attend_rows(
        &self,
        rule: AttentionRule,
        q: &[f32],
        dh: usize,
        start: usize,
        seq: usize,
        rows: Range<usize>,
        weights: Weights<'_>,
        out: &mut [f32],
    ) -> usize {
        self.attend_rows_on(Arm::detected(), rule, q, dh, start, seq, rows, weights, out)
    }

    /// [`Self::attend_rows`] on `arm`: the call's arm-selecting function.
    /// Scratch, saved, and saved with dropout are each their own
    /// instantiation, so a call that neither saves nor drops out compiles
    /// to neither.
    #[inline]
    fn attend_rows_on(
        &self,
        arm: Arm,
        rule: AttentionRule,
        q: &[f32],
        dh: usize,
        start: usize,
        seq: usize,
        rows: Range<usize>,
        weights: Weights<'_>,
        out: &mut [f32],
    ) -> usize {
        let call = |weights, factors| Rows { head: self, rule, q, dh, start, seq, rows, factors, weights, out };
        match weights {
            Weights::Scratch(weights) => call(weights, &[]).run::<false, false>(arm),
            Weights::Saved { weights, factors: None } => call(weights, &[]).run::<false, true>(arm),
            Weights::Saved { weights, factors: Some(f) } => call(weights, f).run::<true, true>(arm),
        }
    }
}

/// One [`HeadKv::attend_rows`] call.
struct Rows<'c, 'a> {
    head: &'c HeadKv<'a>,
    rule: AttentionRule,
    q: &'c [f32],
    dh: usize,
    start: usize,
    seq: usize,
    /// The call's rows; the first one's columns open `q` and `out`.
    rows: Range<usize>,
    factors: &'c [f32],
    weights: &'c mut [f32],
    out: &'c mut [f32],
}

impl Rows<'_, '_> {
    /// The rows through `arm`'s block kernel when the call fits one, else
    /// row by row. `SAVE`: whether `weights` is the saved layout, not
    /// scratch; `DROP` (saving calls only): whether `factors` holds the
    /// rows' factors.
    fn run<const DROP: bool, const SAVE: bool>(mut self, arm: Arm) -> usize {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        let fits = self.rows.len() >= BLOCK_MIN_SEQ && (4..=BLOCK_DH).contains(&self.dh) && self.dh % 4 == 0;
        match arm.level() {
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            // SAFETY: an `Avx512` token exists only on a CPU that runs
            // AVX-512F.
            Level::Avx512 if fits => unsafe { attend_rows_avx512::<DROP, SAVE>(&mut self) },
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            // SAFETY: an `Avx2` token exists only on a CPU that runs AVX2.
            Level::Avx2 if fits => unsafe { attend_rows_avx2::<DROP, SAVE>(&mut self) },
            _ => self.rows.clone().fold(0, |at, i| self.row::<DROP, SAVE>(i, at)),
        }
    }

    /// [`HeadKv::attend`] for row `i`, whose factors and saved softmax
    /// start at `at`; returns where the next row's start.
    #[inline]
    fn row<const DROP: bool, const SAVE: bool>(&mut self, i: usize, at: usize) -> usize {
        let keys = allowed_keys(self.rule, i, self.start, self.seq);
        let next = at + keys.len();
        let weights = if SAVE { &mut self.weights[at..next] } else { &mut self.weights[..keys.len()] };
        let r = (i - self.rows.start) * self.head.stride;
        let (q, out) = (&self.q[r..r + self.dh], &mut self.out[r..r + self.dh]);
        self.head.attend(q, keys, DROP.then(|| &self.factors[at..next]), weights, out);
        next
    }
}

/// Calls of fewer rows, whose few keys do not repay a block's setup, take
/// the row kernel.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
const BLOCK_MIN_SEQ: usize = 8;
/// A row with this many keys or more sums its softmax in banks
/// (`softmax_in_place`), which no lane of the block kernel reproduces; the
/// row kernel takes it.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
const BLOCK_KEYS: usize = SOFTMAX_BANKED_MIN;
/// The widest head the block kernel holds on the stack.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
const BLOCK_DH: usize = 64;

/// [`attend_rows_with`] over AVX-512F registers: 16 rows to a block.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f")]
fn attend_rows_avx512<const DROP: bool, const SAVE: bool>(call: &mut Rows<'_, '_>) -> usize {
    // SAFETY: `__m512`'s lanes need AVX-512F, which this function enables.
    unsafe { attend_rows_with::<__m512, DROP, SAVE>(call) }
}

/// [`attend_rows_with`] over AVX2 registers: 8 rows to a block.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn attend_rows_avx2<const DROP: bool, const SAVE: bool>(call: &mut Rows<'_, '_>) -> usize {
    // SAFETY: `__m256`'s lanes need AVX2, which this function enables.
    unsafe { attend_rows_with::<__m256, DROP, SAVE>(call) }
}

/// The block arms of [`HeadKv::attend_rows`], `V::L` rows to a block. The
/// blocks end at the call's last row, so a short one holds the first rows, which
/// read the fewest causal keys. Requires `V`'s CPU feature, `dh ≤
/// BLOCK_DH` and `dh` a multiple of 4.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[inline(always)]
unsafe fn attend_rows_with<V: Lanes, const DROP: bool, const SAVE: bool>(call: &mut Rows<'_, '_>) -> usize {
    let rows = call.rows.clone();
    let mut planes = Planes::<V> {
        q: [V::splat(0.0); BLOCK_DH],
        w: [V::splat(0.0); BLOCK_KEYS],
        // The empty run `0..0`: no lane.
        reads: [V::holds(V::splat_int(0), V::splat_int(0), 0); BLOCK_KEYS],
    };
    let mut at = 0;
    let mut block = rows.start..rows.start + rows.len() % V::L;
    while block.start < rows.end {
        if !block.is_empty() {
            at = planes.attend::<DROP, SAVE>(call, block.clone(), at);
        }
        block = block.end..block.end + V::L;
    }
    at
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
    /// The rows `rows` (at most `V::L`), whose factors and saved softmax
    /// start at `at`; returns where the next row's start. Lane `l` holds
    /// row `rows.start + l` when its keys are one run of fewer than
    /// [`BLOCK_KEYS`] (the block's too), and performs [`HeadKv::attend`]'s
    /// row operation for operation (DESIGN.md §5c lists them); it takes no
    /// part in a key it may not read — no maximum, no addend. The row
    /// kernel takes the other rows.
    #[inline(always)]
    unsafe fn attend<const DROP: bool, const SAVE: bool>(
        &mut self,
        call: &mut Rows<'_, '_>,
        rows: Range<usize>,
        at: usize,
    ) -> usize {
        // Each lane's keys from the one statement of the rule, and where its
        // row's factors and softmax start. A lane the block does not hold
        // gets the empty run.
        let mut from = [i32::MAX; MAX_LANES];
        let mut to = [0i32; MAX_LANES];
        let mut row_at = [0usize; MAX_LANES];
        let mut key_at = [0i32; MAX_LANES];
        let (mut first, mut end, mut next) = (usize::MAX, 0, at);
        let mut held = 0u32;
        for (l, i) in rows.clone().enumerate() {
            let keys = allowed_keys(call.rule, i, call.start, call.seq);
            (row_at[l], next) = (next, next + keys.len());
            // A bidirectional pad query's keys are not one run: itself,
            // then the real range.
            let run = keys.own.map_or(keys.real.clone(), |i| i..i + 1);
            if run.len() < keys.len() || run.len() >= BLOCK_KEYS {
                continue;
            }
            (first, end) = (first.min(run.start), end.max(run.end));
            (from[l], to[l]) = (run.start as i32, run.end as i32);
            key_at[l] = (row_at[l] - at) as i32 - run.start as i32;
            held |= 1 << l;
        }
        // Causal real rows read `start..`, so a block's keys span at most
        // `BLOCK_KEYS` unless pad rows or the other rule widen it.
        let block = held != 0 && end - first <= BLOCK_KEYS;
        if block {
            let (from, to) = (V::load_int(&from), V::load_int(&to));
            let (head, dh, stride) = (call.head, call.dh, call.head.stride);
            let on = V::lanes(held);
            // Lane `l`'s row starts `l · stride` floats into the block's
            // rows, and `cols` ends at the block's last row's `dh`-th
            // column, so every float a gather or scatter below touches is
            // inside `q_rows` / `out_rows` (column `c < dh`).
            let mut offsets = [0i32; MAX_LANES];
            for (l, at) in offsets.iter_mut().enumerate() {
                *at = (l * stride) as i32;
            }
            let offsets = V::load_int(&offsets);
            let r0 = rows.start - call.rows.start;
            let cols = r0 * stride..(r0 + rows.len() - 1) * stride + dh;
            let q_rows = &call.q[cols.clone()];
            for (c, qc) in self.q[..dh].iter_mut().enumerate() {
                *qc = V::gather(q_rows[c..].as_ptr(), offsets, on);
            }

            // Scores and their running maximum.
            let zero = V::splat(0.0);
            let mut max = V::splat(f32::NEG_INFINITY);
            for ((j, wj), reads) in (first..end).zip(self.w.iter_mut()).zip(self.reads.iter_mut()) {
                *reads = V::holds(from, to, j as i32);
                let (mut s0, mut s1, mut s2, mut s3) = (zero, zero, zero, zero);
                let k_quads = head.k[j * stride..][..dh].chunks_exact(4);
                for (qs, ks) in self.q[..dh].chunks_exact(4).zip(k_quads) {
                    s0 = s0.add(qs[0].mul(V::splat(ks[0])));
                    s1 = s1.add(qs[1].mul(V::splat(ks[1])));
                    s2 = s2.add(qs[2].mul(V::splat(ks[2])));
                    s3 = s3.add(qs[3].mul(V::splat(ks[3])));
                }
                *wj = s0.add(s1).add(s2).add(s3).mul(V::splat(head.scale));
                max = max.blend(*reads, max.max(*wj));
            }

            // `e^(x − max)` and their sum, keys ascending.
            let keys = end - first;
            let mut sum = zero;
            for (wj, &reads) in self.w[..keys].iter_mut().zip(&self.reads) {
                *wj = exp(wj.sub(max));
                sum = sum.blend(reads, sum.add(*wj));
            }

            // `Σ a·v`, eight columns a pass (four for a last four); the first
            // pass finishes the weights on its way.
            let saved = if SAVE { call.weights[at..next].as_mut_ptr() } else { std::ptr::null_mut() };
            let factors = if DROP { call.factors[at..next].as_ptr() } else { std::ptr::null() };
            let key_at = V::add_int(V::load_int(&key_at), V::splat_int(first as i32));
            let mut finish = Some((zero.lt(sum), sum, key_at, saved, factors));
            let out_rows = &mut call.out[cols];
            let mut c = 0;
            while c < dh {
                let (v, out) = (&head.v[first * stride + c..], &mut out_rows[c..]);
                if dh - c >= 8 {
                    self.mix::<8, DROP, SAVE>(v, stride, keys, finish.take(), out, offsets, on);
                    c += 8;
                } else {
                    self.mix::<4, DROP, SAVE>(v, stride, keys, finish.take(), out, offsets, on);
                    c += 4;
                }
            }
        }
        for (l, i) in rows.enumerate() {
            if !block || held & (1 << l) == 0 {
                call.row::<DROP, SAVE>(i, row_at[l]);
            }
        }
        next
    }

    /// `G` columns of `Σ a·v` over the block's `keys` keys into the held
    /// rows: `v` starts at the first key's first column (rows `stride`
    /// apart), `out` at the rows' first column. Accumulators start at `+0`
    /// and take each key a lane reads in ascending order, the product
    /// rounded before the add. With `finish = Some((sum > 0, sum, key_at,
    /// saved, factors))` each weight is first divided by its lane's sum
    /// where that is positive, then (`SAVE`) written to its row's saved
    /// softmax and (`DROP`) multiplied by its factor: lane `l`'s weight at
    /// the block's key `n` sits `key_at[l] + n` floats into both. The `G`
    /// chains run over keys; `G` of them side by side keep the adder busy.
    #[inline(always)]
    unsafe fn mix<const G: usize, const DROP: bool, const SAVE: bool>(
        &mut self,
        v: &[f32],
        stride: usize,
        keys: usize,
        finish: Option<(V::Mask, V, V::Int, *mut f32, *const f32)>,
        out: &mut [f32],
        offsets: V::Int,
        held: V::Mask,
    ) {
        let mut acc = [V::splat(0.0); G];
        for (n, (wj, &reads)) in self.w[..keys].iter_mut().zip(&self.reads).enumerate() {
            if let Some((positive, sum, key_at, saved, factors)) = finish {
                *wj = wj.blend(positive, wj.div(sum));
                let at = V::add_int(key_at, V::splat_int(n as i32));
                if SAVE {
                    wj.scatter(saved, at, reads);
                }
                if DROP {
                    *wj = wj.mul(V::gather(factors, at, reads));
                }
            }
            for (a, &vc) in acc.iter_mut().zip(&v[n * stride..][..G]) {
                *a = a.blend(reads, a.add(wj.mul(V::splat(vc))));
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
            // Every length to past the 64-key cut.
            for seq in 1..=70usize {
                let plane = |rng: &mut Rng64| (0..seq * dim).map(|_| rng.normal()).collect::<Vec<f32>>();
                let (q, k, v) = (plane(&mut rng), plane(&mut rng), plane(&mut rng));
                // Inverted-dropout factors at keep 0.8, zeros included;
                // enough for every pair of any call below.
                let factors: Vec<f32> =
                    (0..seq * seq).map(|_| if rng.chance(0.2) { 0.0 } else { 1.25 }).collect();
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
                // Real tokens from 0 (the packed layout, the frozen
                // encoder's rows), pads ahead of a history (the padded
                // layout: `start > 1` from 6 rows on), and an empty
                // history's pad rows.
                let mut starts = vec![0, seq / 3, seq];
                starts.dedup();
                // Every row, the final one alone, and a run inside.
                let mut row_sets = vec![0..seq, seq - 1..seq, seq / 4..seq - seq / 5];
                row_sets.dedup();
                for (kind, q, k) in &cases {
                    let head = HeadKv {
                        k: &k[dh..],
                        v: &v[dh..],
                        stride: dim,
                        scale: 1.0 / (dh as f32).sqrt(),
                    };
                    let calls = [Causal, Bidirectional].into_iter().flat_map(|rule| {
                        let row_sets = &row_sets;
                        starts.iter().flat_map(move |&start| row_sets.iter().map(move |rows| (rule, start, rows)))
                    });
                    for (rule, start, rows) in calls {
                        // The row kernel, row by row: its outputs without
                        // and with the factors, and its softmax rows end
                        // to end.
                        let at = rows.start * dim + dh;
                        let (mut plain, mut dropped) = (vec![9.0f32; seq * dim], vec![9.0f32; seq * dim]);
                        let mut saved = Vec::new();
                        for i in rows.clone() {
                            let keys = allowed_keys(rule, i, start, seq);
                            let (row, n, pair) = (i * dim + dh, keys.len(), saved.len());
                            saved.resize(pair + n, 0.0);
                            let w = &mut saved[pair..];
                            head.attend(&q[row..row + dh], keys.clone(), None, w, &mut plain[row..row + dh]);
                            let f = Some(&factors[pair..pair + n]);
                            head.attend(&q[row..row + dh], keys, f, w, &mut dropped[row..row + dh]);
                        }
                        for arm in Arm::available() {
                            for (drop, save) in [(false, false), (false, true), (true, true)] {
                                let case = format!(
                                    "{:?} arm, {kind}, {rule:?}, drop {drop}, save {save}, dh {dh}, seq {seq}, start {start}, rows {rows:?}",
                                    arm.level()
                                );
                                let mut got = vec![9.0f32; seq * dim];
                                let mut buf = vec![9.0f32; if save { saved.len() } else { seq }];
                                let weights = match (drop, save) {
                                    (false, false) => Weights::Scratch(&mut buf),
                                    _ => Weights::Saved {
                                        weights: &mut buf,
                                        factors: drop.then(|| &factors[..saved.len()]),
                                    },
                                };
                                let (q, out) = (&q[at..], &mut got[at..]);
                                let pairs = head.attend_rows_on(arm, rule, q, dh, start, seq, rows.clone(), weights, out);
                                assert_eq!(pairs, saved.len(), "{case}: pairs read");
                                let want = if drop { &dropped } else { &plain };
                                for (n, (&g, &w)) in got.iter().zip(want).enumerate() {
                                    let (i, c) = (n / dim, n % dim);
                                    assert!(same(g, w), "{case}, row {i} col {c}: {g:e}, want {w:e}");
                                }
                                if save {
                                    for (n, (&g, &w)) in buf.iter().zip(&saved).enumerate() {
                                        assert!(same(g, w), "{case}, saved weight {n}: {g:e}, want {w:e}");
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
