//! Mini-batching with left padding.

use wr_tensor::Rng64;

/// Pad slot item id. Item 0 doubles as the pad filler: pad positions are
/// excluded from attention, recurrent updates, and the loss, so the filler
/// embedding never influences anything real.
pub const PAD_ITEM: usize = 0;

/// One training batch over flattened `[batch * seq]` positions.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Item ids, left-padded, row-major `[batch * seq]`.
    pub items: Vec<usize>,
    /// True sequence lengths (≤ seq).
    pub lengths: Vec<usize>,
    pub batch: usize,
    pub seq: usize,
    /// Flat row indices (into `[batch * seq]`) that carry a training loss.
    pub loss_positions: Vec<usize>,
    /// Next-item target per loss position.
    pub targets: Vec<usize>,
}

impl Batch {
    /// Build a batch from raw sequences: inputs are `seq[..len-1]`
    /// (truncated to the last `max_seq` items), targets are the successor
    /// of every input position.
    pub fn from_sequences(seqs: &[&[usize]], max_seq: usize) -> Batch {
        assert!(!seqs.is_empty(), "empty batch");
        let batch = seqs.len();
        let seq = max_seq;
        let mut items = vec![PAD_ITEM; batch * seq];
        let mut lengths = Vec::with_capacity(batch);
        let mut loss_positions = Vec::new();
        let mut targets = Vec::new();

        for (b, s) in seqs.iter().enumerate() {
            assert!(s.len() >= 2, "sequence must have ≥2 items to train on");
            // Inputs: all but last; truncate to the most recent max_seq.
            let inputs = &s[..s.len() - 1];
            let start = inputs.len().saturating_sub(seq);
            let window = &inputs[start..];
            let len = window.len();
            lengths.push(len);
            let offset = seq - len; // left padding
            for (t, &item) in window.iter().enumerate() {
                let pos = b * seq + offset + t;
                items[pos] = item;
                loss_positions.push(pos);
                targets.push(s[start + t + 1]);
            }
        }

        Batch {
            items,
            lengths,
            batch,
            seq,
            loss_positions,
            targets,
        }
    }

    /// Build an inference batch: the whole context is input, no targets.
    pub fn inference(contexts: &[&[usize]], max_seq: usize) -> Batch {
        assert!(!contexts.is_empty(), "empty batch");
        let batch = contexts.len();
        let seq = max_seq;
        let mut items = vec![PAD_ITEM; batch * seq];
        let mut lengths = Vec::with_capacity(batch);
        for (b, s) in contexts.iter().enumerate() {
            assert!(!s.is_empty(), "empty context");
            let start = s.len().saturating_sub(seq);
            let window = &s[start..];
            let len = window.len();
            lengths.push(len);
            let offset = seq - len;
            for (t, &item) in window.iter().enumerate() {
                items[b * seq + offset + t] = item;
            }
        }
        Batch {
            items,
            lengths,
            batch,
            seq,
            loss_positions: Vec::new(),
            targets: Vec::new(),
        }
    }

    /// Each row's input ids without the padding: the last `lengths[b]`
    /// ids of row `b`.
    pub fn contexts(&self) -> Vec<Vec<usize>> {
        (0..self.batch)
            .map(|b| {
                let end = (b + 1) * self.seq;
                self.items[end - self.lengths[b]..end].to_vec()
            })
            .collect()
    }
}

/// Shuffling mini-batch iterator over training sequences.
pub struct Batcher {
    sequences: Vec<Vec<usize>>,
    batch_size: usize,
    max_seq: usize,
}

impl Batcher {
    /// Sequences shorter than 2 items are silently dropped (nothing to
    /// predict).
    pub fn new(sequences: Vec<Vec<usize>>, batch_size: usize, max_seq: usize) -> Self {
        assert!(batch_size >= 1);
        let sequences: Vec<Vec<usize>> = sequences.into_iter().filter(|s| s.len() >= 2).collect();
        Batcher {
            sequences,
            batch_size,
            max_seq,
        }
    }

    pub fn n_sequences(&self) -> usize {
        self.sequences.len()
    }

    /// One epoch of shuffled batches.
    pub fn epoch(&self, rng: &mut Rng64) -> Vec<Batch> {
        let mut order: Vec<usize> = (0..self.sequences.len()).collect();
        rng.shuffle(&mut order);
        order
            .chunks(self.batch_size)
            .map(|chunk| {
                let refs: Vec<&[usize]> =
                    chunk.iter().map(|&i| self.sequences[i].as_slice()).collect();
                Batch::from_sequences(&refs, self.max_seq)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contexts_roundtrip() {
        let s1: &[usize] = &[1, 2, 3, 4];
        let s2: &[usize] = &[7, 8];
        let b = Batch::from_sequences(&[s1, s2], 5);
        let raw = b.contexts();
        assert_eq!(raw[0], vec![1, 2, 3]); // inputs only (last item is target)
        assert_eq!(raw[1], vec![7]);
    }

    #[test]
    fn left_padding_layout() {
        let s1: &[usize] = &[10, 11, 12];
        let s2: &[usize] = &[20, 21, 22, 23, 24, 25];
        let b = Batch::from_sequences(&[s1, s2], 4);
        assert_eq!(b.batch, 2);
        assert_eq!(b.seq, 4);
        // s1 inputs [10,11] → padded to [P,P,10,11]
        assert_eq!(&b.items[0..4], &[PAD_ITEM, PAD_ITEM, 10, 11]);
        assert_eq!(b.lengths[0], 2);
        // s2 inputs [20..24] truncated to last 4 → [21,22,23,24]
        assert_eq!(&b.items[4..8], &[21, 22, 23, 24]);
        assert_eq!(b.lengths[1], 4);
    }

    #[test]
    fn targets_align_with_positions() {
        let s: &[usize] = &[1, 2, 3, 4];
        let b = Batch::from_sequences(&[s], 5);
        // inputs [1,2,3] at positions 2,3,4; targets 2,3,4
        assert_eq!(b.loss_positions, vec![2, 3, 4]);
        assert_eq!(b.targets, vec![2, 3, 4]);
        for (&p, &t) in b.loss_positions.iter().zip(&b.targets) {
            // target is the item after the input at p
            let input = b.items[p];
            assert_eq!(t, input + 1);
        }
    }

    #[test]
    fn truncation_keeps_most_recent() {
        let s: Vec<usize> = (0..20).collect();
        let b = Batch::from_sequences(&[&s], 5);
        // inputs are items 14..19, targets 15..20
        assert_eq!(&b.items[0..5], &[14, 15, 16, 17, 18]);
        assert_eq!(b.targets, vec![15, 16, 17, 18, 19]);
    }

    #[test]
    fn inference_batch_has_full_context() {
        let c: &[usize] = &[5, 6, 7];
        let long: &[usize] = &[1, 2, 3, 4, 5, 6, 7]; // truncated to the last 5
        let b = Batch::inference(&[c, long], 5);
        assert_eq!(&b.items[0..5], &[PAD_ITEM, PAD_ITEM, 5, 6, 7]);
        assert_eq!(&b.items[5..10], &[3, 4, 5, 6, 7]);
        assert!(b.targets.is_empty());
        assert_eq!(b.lengths, vec![3, 5]);
        assert_eq!((b.batch, b.seq), (2, 5));
    }

    #[test]
    fn batcher_covers_all_sequences() {
        let seqs: Vec<Vec<usize>> = (0..23).map(|u| vec![u, u + 1, u + 2]).collect();
        let batcher = Batcher::new(seqs, 5, 10);
        let mut rng = Rng64::seed_from(1);
        let batches = batcher.epoch(&mut rng);
        assert_eq!(batches.len(), 5); // 23 → 5+5+5+5+3
        let total: usize = batches.iter().map(|b| b.batch).sum();
        assert_eq!(total, 23);
    }

    #[test]
    fn batcher_drops_degenerate_sequences() {
        let seqs = vec![vec![1], vec![2, 3, 4], vec![]];
        let batcher = Batcher::new(seqs, 4, 10);
        assert_eq!(batcher.n_sequences(), 1);
    }
}
