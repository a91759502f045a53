//! Five-core filtering (§V-A3: discard users and items with <5 actions).

/// Result of k-core filtering: sequences over *re-mapped* dense item ids.
#[derive(Debug, Clone)]
pub struct FilteredData {
    /// Per-user sequences with new item ids in `0..n_items()`.
    pub sequences: Vec<Vec<usize>>,
    /// `item_map[new_id] = original catalog id`.
    pub item_map: Vec<usize>,
}

impl FilteredData {
    pub fn n_items(&self) -> usize {
        self.item_map.len()
    }

    pub fn n_users(&self) -> usize {
        self.sequences.len()
    }
}

/// Iteratively drop users with fewer than `k` interactions and items with
/// fewer than `k` occurrences until a fixed point, then remap item ids to
/// a dense range.
pub fn five_core_filter(sequences: &[Vec<usize>], n_items: usize, k: usize) -> FilteredData {
    let mut seqs: Vec<Vec<usize>> = sequences.to_vec();
    loop {
        // Count item occurrences.
        let mut item_counts = vec![0usize; n_items];
        for s in &seqs {
            for &i in s {
                item_counts[i] += 1;
            }
        }
        let mut changed = false;
        // Drop rare items from sequences.
        for s in &mut seqs {
            let before = s.len();
            s.retain(|&i| item_counts[i] >= k);
            if s.len() != before {
                changed = true;
            }
        }
        // Drop short users entirely.
        let before_users = seqs.len();
        seqs.retain(|s| s.len() >= k);
        if seqs.len() != before_users {
            changed = true;
        }
        if !changed {
            break;
        }
    }

    // Dense remap.
    let mut present = vec![false; n_items];
    for s in &seqs {
        for &i in s {
            present[i] = true;
        }
    }
    let mut new_id = vec![usize::MAX; n_items];
    let mut item_map = Vec::new();
    for (old, &p) in present.iter().enumerate() {
        if p {
            new_id[old] = item_map.len();
            item_map.push(old);
        }
    }
    for s in &mut seqs {
        for i in s.iter_mut() {
            *i = new_id[*i];
        }
    }

    FilteredData {
        sequences: seqs,
        item_map,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drops_rare_items_and_users() {
        // Item 9 appears once; user 2 is too short after filtering.
        let seqs = vec![
            vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2],
            vec![1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 9],
            vec![3, 3, 3],
        ];
        let f = five_core_filter(&seqs, 10, 5);
        assert_eq!(f.n_users(), 2);
        assert_eq!(f.n_items(), 3); // items 0,1,2 survive
        for s in &f.sequences {
            for &i in s {
                assert!(i < 3);
            }
        }
        // Mapping points back to original ids.
        assert_eq!(f.item_map, vec![0, 1, 2]);
    }

    #[test]
    fn fixed_point_cascades() {
        // Dropping a user can push an item below threshold, which shortens
        // another user below threshold, etc.
        let seqs = vec![
            vec![0, 0, 0, 0, 1], // user A: item 1 appears once here
            vec![1, 1, 1, 1, 2], // user B: item 1 four times here
            vec![2, 2, 2, 2, 2, 2],
        ];
        let f = five_core_filter(&seqs, 3, 5);
        // item 1 has 5 occurrences initially; dropping nothing... walk it:
        // counts: item0=4 (<5, dropped), item1=5, item2=7.
        // user A loses item0 → [1], too short, dropped → item1 count 4 → drop
        // → user B becomes [2], too short → dropped → item2 count 6 → user C ok.
        assert_eq!(f.n_users(), 1);
        assert_eq!(f.n_items(), 1);
        assert_eq!(f.item_map, vec![2]);
    }

    #[test]
    fn preserves_order_within_sequences() {
        let seqs = vec![
            vec![5, 3, 5, 3, 5, 3, 5],
            vec![3, 5, 3, 5, 3, 5, 3],
        ];
        let f = five_core_filter(&seqs, 6, 5);
        // items 3→0, 5→1
        assert_eq!(f.sequences[0], vec![1, 0, 1, 0, 1, 0, 1]);
        assert_eq!(f.sequences[1], vec![0, 1, 0, 1, 0, 1, 0]);
    }

    #[test]
    fn everything_survives_when_dense() {
        let seqs: Vec<Vec<usize>> = (0..10).map(|_| (0..8).collect()).collect();
        let f = five_core_filter(&seqs, 8, 5);
        assert_eq!(f.n_users(), 10);
        assert_eq!(f.n_items(), 8);
    }

    #[test]
    fn empty_input() {
        let f = five_core_filter(&[], 5, 5);
        assert_eq!(f.n_users(), 0);
        assert_eq!(f.n_items(), 0);
    }
}
