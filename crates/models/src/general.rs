//! General (non-sequential) recommenders with text features: the BM3 and
//! GRCN baselines of Table III, adapted to the sequential protocol by
//! mean-pooling context items into the user representation.

use wr_autograd::{Graph, Var};
use wr_data::Batch;
use wr_nn::{Param, Session};
use wr_tensor::{Rng64, Tensor};
use wr_train::{Adam, SeqRecModel};

use crate::{ItemTower, ModelConfig, TextIdTower, TextTower};

/// Mean-pool item rows per sequence: builds the `[b, ctx_rows]` averaging
/// matrix and returns `users = M · ctx_item_rows`.
fn mean_pool_users(
    g: &Graph,
    v: Var,
    contexts: &[&[usize]],
) -> Var {
    let total: usize = contexts.iter().map(|c| c.len()).sum();
    let flat: Vec<usize> = contexts.iter().flat_map(|c| c.iter().copied()).collect();
    let rows = g.gather_rows(v, &flat);
    let mut m = Tensor::zeros(&[contexts.len(), total]);
    let mut offset = 0;
    for (b, ctx) in contexts.iter().enumerate() {
        let w = 1.0 / ctx.len().max(1) as f32;
        for j in 0..ctx.len() {
            *m.at2_mut(b, offset + j) = w;
        }
        offset += ctx.len();
    }
    let mv = g.constant(m);
    g.matmul(mv, rows)
}

/// Rebuild unpadded contexts + final target from a training batch.
fn contexts_and_targets(batch: &Batch) -> (Vec<Vec<usize>>, Vec<usize>) {
    (batch.contexts(), crate::gru4rec::final_targets(batch))
}

/// BM3-lite: multimodal recommender trained with (i) a user–item softmax
/// alignment and (ii) an inter-modality alignment between each target
/// item's ID embedding and its text projection (the bootstrap-alignment
/// signal of BM3, without the momentum machinery).
pub struct Bm3Lite {
    pub tower: TextIdTower,
    pub config: ModelConfig,
    pub modal_lambda: f32,
}

impl Bm3Lite {
    pub fn new(text_embeddings: Tensor, config: ModelConfig, rng: &mut Rng64) -> Self {
        Bm3Lite {
            tower: TextIdTower::new(text_embeddings, config.dim, 1, rng),
            config,
            modal_lambda: 0.5,
        }
    }
}

impl SeqRecModel for Bm3Lite {
    fn name(&self) -> String {
        "BM3".into()
    }

    fn params(&self) -> Vec<Param> {
        self.tower.params()
    }

    fn train_step(&mut self, batch: &Batch, optimizer: &mut Adam, rng: &mut Rng64) -> f32 {
        let (contexts, targets) = contexts_and_targets(batch);
        let ctx_refs: Vec<&[usize]> = contexts.iter().map(|c| c.as_slice()).collect();
        let g = Graph::new();
        let mut sess = Session::train(&g, rng.fork());
        let v = self.tower.all_items(&mut sess);
        let users = mean_pool_users(&g, v, &ctx_refs);
        let logits = g.matmul(users, g.transpose(v));
        let main = g.cross_entropy(logits, &targets);

        // Modality alignment on the targets: text proj ≈ id embedding.
        let text_all = self.tower.text.all_items(&mut sess);
        let id_all = sess.bind(&self.tower.id.table);
        let t_rows = g.gather_rows(text_all, &targets);
        let i_rows = g.gather_rows(id_all, &targets);
        let tn = g.l2_normalize_rows(t_rows);
        let in_ = g.l2_normalize_rows(i_rows);
        let diff = g.sub(tn, in_);
        let modal = g.mean_all(g.mul(diff, diff));

        let loss = g.add(main, g.scale(modal, self.modal_lambda));
        let value = g.value(loss).item();
        g.backward(loss);
        optimizer.step(&g, sess.bindings());
        value
    }

    fn item_representations(&self) -> Tensor {
        let g = Graph::new();
        let mut sess = Session::eval(&g);
        let v = self.tower.all_items(&mut sess);
        g.value(v)
    }

    fn user_representations(&self, contexts: &[&[usize]]) -> Tensor {
        let g = Graph::new();
        let mut sess = Session::eval(&g);
        let v = self.tower.all_items(&mut sess);
        g.value(mean_pool_users(&g, v, contexts))
    }
}

/// GRCN-lite: graph-refined convolution. Item representations are smoothed
/// over a co-occurrence graph whose edges are *refined* (re-weighted) by
/// text similarity, pruning likely-false-positive links — the core of GRCN
/// without the full multi-layer message passing.
pub struct GrcnLite {
    pub tower: TextTower,
    /// `neighbors[i]` = up to K `(neighbor, weight)` pairs, text-refined.
    neighbors: Vec<Vec<(usize, f32)>>,
    pub alpha: f32,
    pub config: ModelConfig,
}

impl GrcnLite {
    /// `train_sequences` supply the co-occurrence graph.
    pub fn new(
        text_embeddings: Tensor,
        train_sequences: &[Vec<usize>],
        k_neighbors: usize,
        config: ModelConfig,
        rng: &mut Rng64,
    ) -> Self {
        let n = text_embeddings.rows();
        let neighbors = refined_graph(&text_embeddings, train_sequences, n, k_neighbors);
        GrcnLite {
            tower: TextTower::new(text_embeddings, config.dim, 1, rng),
            neighbors,
            alpha: 0.5,
            config,
        }
    }

    /// `V = proj(text) + α · Agg_graph(proj(text))`.
    fn items_with_graph(&self, sess: &mut Session) -> Var {
        let g = sess.graph;
        let base = self.tower.all_items(sess);
        let n = self.tower.n_items();
        // Aggregate neighbor rows slot-by-slot (ragged lists padded with
        // self-loops of weight 0).
        let k_max = self.neighbors.iter().map(Vec::len).max().unwrap_or(0);
        let mut agg: Option<Var> = None;
        let d = self.tower.dim();
        let mut idx: Vec<usize> = Vec::with_capacity(n);
        for slot in 0..k_max {
            idx.clear();
            let mut w = Tensor::zeros(&[n, 1]);
            for (i, nbrs) in self.neighbors.iter().enumerate() {
                match nbrs.get(slot) {
                    Some(&(j, weight)) => {
                        idx.push(j);
                        *w.at2_mut(i, 0) = weight;
                    }
                    None => idx.push(i),
                }
            }
            let rows = g.gather_rows(base, &idx);
            let wv = g.constant(w);
            let ones = g.constant(Tensor::ones(&[1, d]));
            let wfull = g.matmul(wv, ones);
            let contrib = g.mul(rows, wfull);
            agg = Some(match agg {
                Some(a) => g.add(a, contrib),
                None => contrib,
            });
        }
        match agg {
            Some(a) => g.add(base, g.scale(a, self.alpha)),
            None => base,
        }
    }
}

/// Build the text-refined co-occurrence graph: count adjacent co-occurrences,
/// weight each edge by `count · max(0, cos(text_i, text_j))`, keep the top-K
/// per item, normalize weights to sum to 1.
fn refined_graph(
    text: &Tensor,
    sequences: &[Vec<usize>],
    n: usize,
    k: usize,
) -> Vec<Vec<(usize, f32)>> {
    // BTreeMap, not HashMap: the top-K truncation below breaks weight ties
    // by whatever order the map iterates in, so the map must iterate
    // deterministically for the graph (and the model) to be reproducible.
    use std::collections::BTreeMap;
    let mut counts: Vec<BTreeMap<usize, f32>> = vec![BTreeMap::new(); n];
    for s in sequences {
        for (&a, &b) in s.iter().zip(s.iter().skip(1)) {
            if a != b {
                for (from, to) in [(a, b), (b, a)] {
                    if let Some(row) = counts.get_mut(from) {
                        *row.entry(to).or_insert(0.0) += 1.0;
                    }
                }
            }
        }
    }
    let tn = text.l2_normalize_rows();
    counts
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let mut edges: Vec<(usize, f32)> = row
                .iter()
                .map(|(&j, &c)| {
                    let cos: f32 = tn.row(i).iter().zip(tn.row(j)).map(|(a, b)| a * b).sum();
                    (j, c * cos.max(0.0))
                })
                .filter(|&(_, w)| w > 0.0)
                .collect();
            // Sort by weight descending, tie-broken by item index so the
            // kept top-K never depends on the incoming order.
            edges.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            edges.truncate(k);
            let total: f32 = edges.iter().map(|e| e.1).sum();
            if total > 0.0 {
                for e in &mut edges {
                    e.1 /= total;
                }
            }
            edges
        })
        .collect()
}

impl SeqRecModel for GrcnLite {
    fn name(&self) -> String {
        "GRCN".into()
    }

    fn params(&self) -> Vec<Param> {
        self.tower.params()
    }

    fn train_step(&mut self, batch: &Batch, optimizer: &mut Adam, rng: &mut Rng64) -> f32 {
        let (contexts, targets) = contexts_and_targets(batch);
        let ctx_refs: Vec<&[usize]> = contexts.iter().map(|c| c.as_slice()).collect();
        let g = Graph::new();
        let mut sess = Session::train(&g, rng.fork());
        let v = self.items_with_graph(&mut sess);
        let users = mean_pool_users(&g, v, &ctx_refs);
        let logits = g.matmul(users, g.transpose(v));
        let loss = g.cross_entropy(logits, &targets);
        let value = g.value(loss).item();
        g.backward(loss);
        optimizer.step(&g, sess.bindings());
        value
    }

    fn item_representations(&self) -> Tensor {
        let g = Graph::new();
        let mut sess = Session::eval(&g);
        let v = self.items_with_graph(&mut sess);
        g.value(v)
    }

    fn user_representations(&self, contexts: &[&[usize]]) -> Tensor {
        let g = Graph::new();
        let mut sess = Session::eval(&g);
        let v = self.items_with_graph(&mut sess);
        g.value(mean_pool_users(&g, v, contexts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_train::{AdamConfig, ModelSnapshot};

    fn toy_batches(n_items: usize, cfg: &ModelConfig) -> Vec<Batch> {
        let seqs: Vec<Vec<usize>> = (0..16)
            .map(|u| (0..5).map(|t| (u + t) % n_items).collect())
            .collect();
        seqs.chunks(8)
            .map(|c| {
                let refs: Vec<&[usize]> = c.iter().map(|s| s.as_slice()).collect();
                Batch::from_sequences(&refs, cfg.max_seq)
            })
            .collect()
    }

    #[test]
    fn bm3_trains() {
        let mut rng = Rng64::seed_from(1);
        let cfg = ModelConfig {
            dim: 12,
            max_seq: 6,
            ..ModelConfig::default()
        };
        let mut model = Bm3Lite::new(Tensor::randn(&[10, 16], &mut rng), cfg, &mut rng);
        let mut opt = Adam::new(AdamConfig {
            lr: 5e-3,
            ..AdamConfig::default()
        });
        let batches = toy_batches(10, &cfg);
        let mut first = 0.0;
        let mut last = 0.0;
        for e in 0..10 {
            let mut sum = 0.0;
            for b in &batches {
                sum += model.train_step(b, &mut opt, &mut rng);
            }
            if e == 0 {
                first = sum;
            }
            last = sum;
        }
        assert!(last < first);
        assert_eq!(ModelSnapshot::of(&model).scores(&model, &[&[1, 2][..]]).dims(), &[1, 10]);
    }

    #[test]
    fn grcn_graph_is_text_refined() {
        let mut rng = Rng64::seed_from(2);
        // Items 0,1 textually similar; 0,2 co-occur but dissimilar.
        let mut text = Tensor::randn(&[4, 8], &mut rng).scale(0.05);
        let shared: Vec<f32> = (0..8).map(|j| (j as f32).sin()).collect();
        for r in [0usize, 1] {
            for (v, s) in text.row_mut(r).iter_mut().zip(&shared) {
                *v += s;
            }
        }
        for (v, s) in text.row_mut(2).iter_mut().zip(&shared) {
            *v -= s; // opposite direction → negative cosine with 0
        }
        let seqs = vec![vec![0, 1, 0, 2, 0, 1], vec![0, 2, 0, 2]];
        let graph = refined_graph(&text, &seqs, 4, 3);
        // edge 0→1 survives; edge 0→2 has negative cosine → pruned
        assert!(graph[0].iter().any(|&(j, _)| j == 1));
        assert!(
            !graph[0].iter().any(|&(j, _)| j == 2),
            "dissimilar edge should be pruned: {:?}",
            graph[0]
        );
    }

    #[test]
    fn grcn_trains_and_scores() {
        let mut rng = Rng64::seed_from(3);
        let cfg = ModelConfig {
            dim: 12,
            max_seq: 6,
            ..ModelConfig::default()
        };
        let text = Tensor::randn(&[10, 16], &mut rng);
        let seqs: Vec<Vec<usize>> = (0..16).map(|u| (0..5).map(|t| (u + t) % 10).collect()).collect();
        let mut model = GrcnLite::new(text, &seqs, 4, cfg, &mut rng);
        let mut opt = Adam::new(AdamConfig {
            lr: 5e-3,
            ..AdamConfig::default()
        });
        for b in toy_batches(10, &cfg) {
            let loss = model.train_step(&b, &mut opt, &mut rng);
            assert!(loss.is_finite());
        }
        let s = ModelSnapshot::of(&model).scores(&model, &[&[0, 1, 2][..]]);
        assert_eq!(s.dims(), &[1, 10]);
        assert_eq!(s.non_finite_count(), 0);
    }

    #[test]
    fn mean_pool_users_averages() {
        let g = Graph::new();
        let v = g.constant(Tensor::from_vec(
            vec![1.0, 0.0, 3.0, 0.0, 0.0, 6.0],
            &[3, 2],
        ));
        let ctx: Vec<&[usize]> = vec![&[0, 1][..], &[2][..]];
        let u = mean_pool_users(&g, v, &ctx);
        let uv = g.value(u);
        assert_eq!(uv.row(0), &[2.0, 0.0]);
        assert_eq!(uv.row(1), &[0.0, 6.0]);
    }
}
