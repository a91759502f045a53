//! Dataset presets mirroring Table II's shape at ~1/10 scale.

use crate::{five_core_filter, generate_interactions, InteractionConfig};
use wr_tensor::Tensor;
use wr_textsim::{Catalog, CatalogConfig, PlmConfig, PlmEncoder};

/// The four evaluation datasets of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    Arts,
    Toys,
    Tools,
    Food,
}

impl DatasetKind {
    pub const ALL: [DatasetKind; 4] = [
        DatasetKind::Arts,
        DatasetKind::Toys,
        DatasetKind::Tools,
        DatasetKind::Food,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Arts => "Arts",
            DatasetKind::Toys => "Toys",
            DatasetKind::Tools => "Tools",
            DatasetKind::Food => "Food",
        }
    }
}

/// Everything needed to materialize one synthetic dataset.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    pub kind: DatasetKind,
    pub catalog: CatalogConfig,
    pub plm: PlmConfig,
    pub interactions: InteractionConfig,
}

impl DatasetSpec {
    /// Preset for a dataset kind at ~1/10 of the paper's Table II scale.
    ///
    /// Shape choices carried over from the paper: Food has the shortest
    /// catalogs texts (avg ~3.8 words vs ~20.5) and the longest user
    /// sequences (avg 9.5 vs ~7).
    pub fn preset(kind: DatasetKind) -> Self {
        let (n_items, n_users, mean_len, title_len, n_categories, seed) = match kind {
            DatasetKind::Arts => (2100, 4550, 7.7, (12, 28), 20, 11),
            DatasetKind::Toys => (4050, 8570, 7.2, (12, 28), 28, 12),
            DatasetKind::Tools => (3620, 9060, 6.9, (12, 28), 24, 13),
            DatasetKind::Food => (1290, 2900, 9.5, (2, 6), 14, 14),
        };
        DatasetSpec {
            kind,
            catalog: CatalogConfig {
                n_items,
                n_categories,
                n_brands: n_categories * 3,
                title_len,
                seed,
                ..CatalogConfig::default()
            },
            plm: PlmConfig {
                seed: seed + 100,
                ..PlmConfig::default()
            },
            interactions: InteractionConfig {
                n_users,
                mean_len,
                seed: seed + 200,
                ..InteractionConfig::default()
            },
        }
    }

    /// Scale only the catalog size. Growing items at fixed users thins the
    /// interactions available per item, pushing ID embeddings into the
    /// overparameterized regime the paper's 20k–40k-item catalogs live in.
    pub fn scaled_items(mut self, f: f32) -> Self {
        assert!(f > 0.0);
        self.catalog.n_items = ((self.catalog.n_items as f32 * f).round() as usize).max(32);
        self
    }

    /// Uniformly shrink users and items (tests use small scales).
    pub fn scaled(mut self, f: f32) -> Self {
        assert!(f > 0.0);
        let scale = |x: usize| ((x as f32 * f).round() as usize).max(32);
        self.catalog.n_items = scale(self.catalog.n_items);
        self.interactions.n_users = scale(self.interactions.n_users);
        self.catalog.n_categories = ((self.catalog.n_categories as f32 * f.sqrt()).round() as usize).max(4);
        self.catalog.n_brands = self.catalog.n_categories * 3;
        self
    }

    /// Tiny instance for unit/integration tests (hundreds of interactions).
    pub fn tiny(kind: DatasetKind) -> Self {
        let mut spec = Self::preset(kind).scaled(0.04);
        spec.plm.dim = 64;
        spec
    }

    /// Materialize: catalog → interactions → five-core → PLM embeddings.
    pub fn build(&self) -> ReadyDataset {
        let catalog = Catalog::generate(self.catalog);
        let raw = generate_interactions(&catalog, self.interactions);
        let filtered = five_core_filter(&raw, catalog.n_items(), 5);
        let encoder = PlmEncoder::new(self.catalog.n_factors, self.plm);
        let all_embeddings = encoder.encode(&catalog);
        // Keep only surviving items, in the dense id order.
        let embeddings = all_embeddings.gather_rows(&filtered.item_map);
        ReadyDataset {
            spec: self.clone(),
            catalog,
            sequences: filtered.sequences,
            item_map: filtered.item_map,
            embeddings,
        }
    }
}

/// A fully materialized dataset ready for splitting and training.
#[derive(Debug, Clone)]
pub struct ReadyDataset {
    pub spec: DatasetSpec,
    pub catalog: Catalog,
    /// Five-core-filtered sequences over dense item ids.
    pub sequences: Vec<Vec<usize>>,
    /// Dense id → original catalog id.
    pub item_map: Vec<usize>,
    /// `[n_items, d_t]` pre-trained text embeddings of surviving items.
    pub embeddings: Tensor,
}

impl ReadyDataset {
    pub fn n_items(&self) -> usize {
        self.item_map.len()
    }

    pub fn n_users(&self) -> usize {
        self.sequences.len()
    }

    /// Original catalog category of a dense item id (used by analysis).
    pub fn category_of(&self, dense_id: usize) -> usize {
        self.catalog.items[self.item_map[dense_id]].category
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset_stats;

    #[test]
    fn tiny_builds_fast_and_consistent() {
        let ds = DatasetSpec::tiny(DatasetKind::Arts).build();
        assert!(ds.n_items() >= 10, "only {} items survived", ds.n_items());
        assert!(ds.n_users() >= 20);
        assert_eq!(ds.embeddings.rows(), ds.n_items());
        assert_eq!(ds.embeddings.cols(), 64);
        for s in &ds.sequences {
            for &i in s {
                assert!(i < ds.n_items());
            }
        }
    }

    #[test]
    fn presets_have_paper_shape() {
        let arts = DatasetSpec::preset(DatasetKind::Arts);
        let food = DatasetSpec::preset(DatasetKind::Food);
        // Food: shorter texts, longer sequences.
        assert!(food.catalog.title_len.1 < arts.catalog.title_len.0);
        assert!(food.interactions.mean_len > arts.interactions.mean_len);
        // Relative sizes follow Table II ordering.
        let toys = DatasetSpec::preset(DatasetKind::Toys);
        let tools = DatasetSpec::preset(DatasetKind::Tools);
        assert!(tools.interactions.n_users > toys.interactions.n_users);
        assert!(toys.catalog.n_items > tools.catalog.n_items);
    }

    #[test]
    fn stats_reflect_generation() {
        let ds = DatasetSpec::tiny(DatasetKind::Food).build();
        let stats = dataset_stats(&ds.sequences, ds.n_items());
        assert!(stats.avg_seq_len >= 5.0, "five-core guarantees ≥5: {stats}");
        assert!(stats.avg_item_actions >= 5.0, "{stats}");
    }

    #[test]
    fn build_is_deterministic() {
        let a = DatasetSpec::tiny(DatasetKind::Tools).build();
        let b = DatasetSpec::tiny(DatasetKind::Tools).build();
        assert_eq!(a.sequences, b.sequences);
        assert_eq!(a.embeddings.data(), b.embeddings.data());
    }

    #[test]
    fn scaled_shrinks() {
        let base = DatasetSpec::preset(DatasetKind::Arts);
        let small = base.clone().scaled(0.1);
        assert!(small.catalog.n_items < base.catalog.n_items / 5);
        assert!(small.interactions.n_users < base.interactions.n_users / 5);
    }
}
