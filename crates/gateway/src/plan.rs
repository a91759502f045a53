//! The deterministic catalog partition behind a sharded gateway.

use std::ops::Range;

use crate::GatewayError;

/// A deterministic assignment of catalog rows to shards.
///
/// Windows are contiguous and cover `0..n_items` exactly
/// once, in ascending shard order. When `n_items` is not divisible by the
/// shard count, the first `n_items % n_shards` shards take one extra row
/// (the standard balanced split), so windows differ in width by at most
/// one — the uneven case the differential suite covers explicitly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    n_items: usize,
    ranges: Vec<Range<usize>>,
}

impl ShardPlan {
    /// Balanced contiguous partition of `n_items` rows into `n_shards`
    /// windows. Every shard must own at least one row — a plan with more
    /// shards than items is a deployment bug, not a degenerate success.
    pub fn partitioned(n_items: usize, n_shards: usize) -> Result<ShardPlan, GatewayError> {
        if n_shards == 0 {
            return Err(GatewayError::NoShards);
        }
        if n_shards > n_items {
            return Err(GatewayError::EmptyShard { n_items, n_shards });
        }
        let base = n_items / n_shards;
        let extra = n_items % n_shards;
        let mut ranges = Vec::with_capacity(n_shards);
        let mut start = 0;
        for s in 0..n_shards {
            let width = base + usize::from(s < extra);
            ranges.push(start..start + width);
            start += width;
        }
        Ok(ShardPlan { n_items, ranges })
    }

    pub fn n_items(&self) -> usize {
        self.n_items
    }

    pub fn n_shards(&self) -> usize {
        self.ranges.len()
    }

    /// The global-id windows, one per shard.
    pub fn ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_exactly_once_even_and_uneven() {
        for (n_items, n_shards) in [(12, 3), (157, 8), (7, 7), (100, 1), (9, 2)] {
            let plan = ShardPlan::partitioned(n_items, n_shards).unwrap();
            assert_eq!(plan.n_shards(), n_shards);
            let mut covered = 0;
            for (s, r) in plan.ranges().iter().enumerate() {
                assert_eq!(r.start, covered, "windows must be contiguous");
                assert!(!r.is_empty(), "shard {s} is empty");
                covered = r.end;
            }
            assert_eq!(covered, n_items, "windows must cover the catalog");
            let widths: Vec<usize> = plan.ranges().iter().map(|r| r.len()).collect();
            let (min, max) = (widths.iter().min().unwrap(), widths.iter().max().unwrap());
            assert!(max - min <= 1, "balanced split: widths {widths:?}");
        }
    }

    #[test]
    fn degenerate_plans_are_typed_errors() {
        assert!(matches!(
            ShardPlan::partitioned(10, 0),
            Err(GatewayError::NoShards)
        ));
        assert!(matches!(
            ShardPlan::partitioned(3, 5),
            Err(GatewayError::EmptyShard {
                n_items: 3,
                n_shards: 5
            })
        ));
    }
}
