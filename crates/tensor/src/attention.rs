//! One attention row over the keys its query may read.
//!
//! The taped `wr_autograd::Graph::attention` node and the tape-free
//! `wr_nn::FrozenEncoder` both compute attention here, so the two forwards
//! are one arithmetic by construction: [`allowed_keys`] is the one
//! statement of the mask rule and [`HeadKv::attend`] the one statement of
//! the row. Neither builds a mask or a `[seq, seq]` score matrix.
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

use crate::{dot, softmax_in_place};

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
}
