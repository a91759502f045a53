//! VQRec (lite): vector-quantized item representations.
//!
//! Text embeddings are product-quantized offline: the `d_t` dimensions are
//! split into `M` sub-blocks, each clustered into `K` codes with k-means.
//! An item is its `M` discrete codes; its representation is the sum of `M`
//! trainable code embeddings — text determines *which* codes, training
//! determines what the codes *mean*.

use wr_autograd::Var;
use wr_nn::{Embedding, Module, Param, Session};
use wr_tensor::{Rng64, Tensor};

use crate::ItemTower;

/// Product-quantize rows of `x: [n, d]` into `m` blocks of `k` codes each.
///
/// Returns `codes[item][block] ∈ 0..k`. Plain Lloyd k-means per block with
/// k-means++-style seeding from the data.
pub fn product_quantize(x: &Tensor, m: usize, k: usize, iterations: usize, seed: u64) -> Vec<Vec<usize>> {
    let (n, d) = (x.rows(), x.cols());
    assert!(d % m == 0, "dimension {d} not divisible into {m} blocks");
    assert!(k >= 1 && k <= n, "need 1 ≤ k ≤ n");
    let block = d / m;
    let mut rng = Rng64::seed_from(seed);
    let mut codes = vec![vec![0usize; m]; n];

    for b in 0..m {
        let sub = x.slice_cols(b * block, (b + 1) * block);
        // Seed centroids from distinct random rows.
        let mut centroid_rows: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut centroid_rows);
        let mut centroids: Vec<Vec<f32>> = centroid_rows
            .iter()
            .take(k)
            .map(|&r| sub.row(r).to_vec())
            .collect();

        let mut assign = vec![0usize; n];
        for _ in 0..iterations {
            // Assign.
            for (i, slot) in assign.iter_mut().enumerate() {
                let row = sub.row(i);
                let mut best = 0;
                let mut best_d = f32::INFINITY;
                for (c, cent) in centroids.iter().enumerate() {
                    let d2: f32 = row.iter().zip(cent).map(|(a, b)| (a - b) * (a - b)).sum();
                    if d2 < best_d {
                        best_d = d2;
                        best = c;
                    }
                }
                *slot = best;
            }
            // Update.
            let mut sums = vec![vec![0.0f32; block]; k];
            let mut counts = vec![0usize; k];
            for (i, &a) in assign.iter().enumerate() {
                if let (Some(count), Some(sum)) = (counts.get_mut(a), sums.get_mut(a)) {
                    *count += 1;
                    for (s, &v) in sum.iter_mut().zip(sub.row(i)) {
                        *s += v;
                    }
                }
            }
            for ((centroid, mut sum), &count) in centroids.iter_mut().zip(sums).zip(&counts) {
                if count > 0 {
                    for s in &mut sum {
                        *s /= count as f32;
                    }
                    *centroid = sum;
                } else {
                    // Re-seed empty cluster from a random row.
                    *centroid = sub.row(rng.below(n)).to_vec();
                }
            }
        }
        for (item_codes, &a) in codes.iter_mut().zip(&assign) {
            if let Some(code) = item_codes.get_mut(b) {
                *code = a;
            }
        }
    }
    codes
}

/// VQRec's item tower: sum of trainable code embeddings.
pub struct VqTower {
    /// Flattened code ids: item `i`, block `b` → `b * k + codes[i][b]`.
    lookup: Vec<usize>,
    pub code_emb: Embedding,
    n_items: usize,
    m: usize,
    dim: usize,
}

impl VqTower {
    pub fn new(text_embeddings: &Tensor, m: usize, k: usize, dim: usize, rng: &mut Rng64) -> Self {
        let codes = product_quantize(text_embeddings, m, k, 8, 0xC0DE);
        let n_items = text_embeddings.rows();
        let mut lookup = Vec::with_capacity(n_items * m);
        for item_codes in &codes {
            for (b, &c) in item_codes.iter().enumerate() {
                lookup.push(b * k + c);
            }
        }
        VqTower {
            lookup,
            code_emb: Embedding::new(m * k, dim, rng),
            n_items,
            m,
            dim,
        }
    }
}

impl ItemTower for VqTower {
    fn all_items(&self, sess: &mut Session) -> Var {
        let g = sess.graph;
        // Gather [n*m, dim] then fold blocks by summing: reshape to
        // [n, m*dim] view won't sum — instead gather per block and add.
        let table = sess.bind(&self.code_emb.table);
        let mut acc: Option<Var> = None;
        for b in 0..self.m {
            let idx: Vec<usize> = self.lookup.iter().skip(b).step_by(self.m).copied().collect();
            let part = g.gather_rows(table, &idx);
            acc = Some(match acc {
                Some(a) => g.add(a, part),
                None => part,
            });
        }
        // `m ≥ 1` by construction; an impossible m = 0 degrades to a zero
        // item table instead of panicking.
        acc.unwrap_or_else(|| g.constant(Tensor::zeros(&[self.n_items, self.dim])))
    }

    fn params(&self) -> Vec<Param> {
        self.code_emb.params()
    }

    fn n_items(&self) -> usize {
        self.n_items
    }

    fn dim(&self) -> usize {
        self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_autograd::Graph;

    #[test]
    fn quantization_groups_similar_rows() {
        let mut rng = Rng64::seed_from(1);
        // Two well-separated clusters in each half of the space.
        let n = 40;
        let mut x = Tensor::randn(&[n, 8], &mut rng).scale(0.1);
        for r in 0..n / 2 {
            for v in x.row_mut(r) {
                *v += 5.0;
            }
        }
        let codes = product_quantize(&x, 2, 2, 10, 7);
        // Items in the same cluster share codes; across clusters differ.
        assert_eq!(codes[0], codes[1]);
        assert_ne!(codes[0], codes[n - 1]);
    }

    #[test]
    fn codes_within_range() {
        let mut rng = Rng64::seed_from(2);
        let x = Tensor::randn(&[30, 12], &mut rng);
        let codes = product_quantize(&x, 3, 4, 5, 8);
        assert_eq!(codes.len(), 30);
        for c in &codes {
            assert_eq!(c.len(), 3);
            assert!(c.iter().all(|&v| v < 4));
        }
    }

    #[test]
    fn tower_output_and_grads() {
        let mut rng = Rng64::seed_from(3);
        let x = Tensor::randn(&[20, 8], &mut rng);
        let tower = VqTower::new(&x, 2, 4, 6, &mut rng);
        let g = Graph::new();
        let mut s = Session::train(&g, Rng64::seed_from(4));
        let v = tower.all_items(&mut s);
        assert_eq!(g.dims(v), vec![20, 6]);
        let loss = g.sum_all(v);
        g.backward(loss);
        let (_, var) = &s.bindings()[0];
        assert!(g.grad(*var).is_some());
        // Code table is the only trainable part.
        assert_eq!(tower.params().len(), 1);
        assert_eq!(tower.param_count(), 2 * 4 * 6);
    }

    #[test]
    fn items_with_same_codes_share_representation() {
        let mut rng = Rng64::seed_from(5);
        let mut x = Tensor::randn(&[10, 8], &mut rng).scale(0.05);
        // rows 0 and 1 nearly identical
        let r0: Vec<f32> = x.row(0).to_vec();
        x.row_mut(1).copy_from_slice(&r0);
        let tower = VqTower::new(&x, 2, 3, 4, &mut rng);
        let g = Graph::new();
        let mut s = Session::eval(&g);
        let v = g.value(tower.all_items(&mut s));
        assert_eq!(v.row(0), v.row(1));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_blocks_rejected() {
        let x = Tensor::zeros(&[10, 7]);
        product_quantize(&x, 2, 2, 3, 1);
    }
}
