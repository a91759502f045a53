//! Generative item catalog.

use wr_tensor::{Rng64, Tensor};

/// Catalog generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CatalogConfig {
    pub n_items: usize,
    pub n_categories: usize,
    pub n_brands: usize,
    /// Words per title drawn uniformly from this inclusive range. The
    /// Amazon datasets average ~20 words; Food averages ~4 (§V-E).
    pub title_len: (usize, usize),
    /// Latent semantic factor dimensionality.
    pub n_factors: usize,
    pub seed: u64,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        CatalogConfig {
            n_items: 2000,
            n_categories: 20,
            n_brands: 60,
            title_len: (12, 28),
            n_factors: 16,
            seed: 42,
        }
    }
}

/// Topical words per category, plus a shared generic pool of
/// [`GENERIC_VOCAB`] words.
const VOCAB_PER_CATEGORY: usize = 50;
const GENERIC_VOCAB: usize = 300;
/// Scale of per-item idiosyncratic semantic noise.
const ITEM_NOISE: f32 = 0.35;

/// One catalog item. `title` stores word ids; topical words of category `c`
/// occupy ids `[GENERIC_VOCAB + c*VOCAB_PER_CATEGORY, …)`.
#[derive(Debug, Clone)]
pub struct Item {
    pub id: usize,
    pub title: Vec<u32>,
    pub category: usize,
    pub brand: usize,
}

/// A generated catalog with ground-truth semantics.
#[derive(Debug, Clone)]
pub struct Catalog {
    pub config: CatalogConfig,
    pub items: Vec<Item>,
    /// `[n_categories, n_factors]` latent category factors.
    pub category_factors: Tensor,
    /// `[n_brands, n_factors]` latent brand factors.
    pub brand_factors: Tensor,
    /// `[n_items, n_factors]` ground-truth item semantic vectors.
    semantics: Tensor,
}

impl Catalog {
    pub fn generate(config: CatalogConfig) -> Self {
        assert!(config.n_items >= 2, "catalog needs at least two items");
        assert!(config.n_categories >= 1 && config.n_brands >= 1);
        assert!(config.title_len.0 >= 1 && config.title_len.0 <= config.title_len.1);
        let mut rng = Rng64::seed_from(config.seed);
        let k = config.n_factors;

        let category_factors = Tensor::randn(&[config.n_categories, k], &mut rng);
        let brand_factors = Tensor::randn(&[config.n_brands, k], &mut rng).scale(0.5);

        // Brands concentrate within categories (realistic co-occurrence):
        // each brand has a "home" category it is sampled from preferentially.
        let brand_home: Vec<usize> = (0..config.n_brands)
            .map(|_| rng.below(config.n_categories))
            .collect();

        let mut items = Vec::with_capacity(config.n_items);
        let mut semantics = Tensor::zeros(&[config.n_items, k]);
        for id in 0..config.n_items {
            // Zipf-ish category popularity.
            let cat_weights: Vec<f32> = (0..config.n_categories)
                .map(|c| 1.0 / (c as f32 + 1.5))
                .collect();
            let category = rng.weighted(&cat_weights);
            // Pick a brand whose home matches where possible.
            let brand = {
                let local: Vec<usize> = brand_home
                    .iter()
                    .enumerate()
                    .filter(|(_, &h)| h == category)
                    .map(|(b, _)| b)
                    .collect();
                if !local.is_empty() && rng.chance(0.8) {
                    local.get(rng.below(local.len())).copied().unwrap_or_default()
                } else {
                    rng.below(config.n_brands)
                }
            };

            let len = config.title_len.0 + rng.below(config.title_len.1 - config.title_len.0 + 1);
            let title: Vec<u32> = (0..len)
                .map(|_| {
                    if rng.chance(0.55) {
                        // topical word of this item's category
                        (GENERIC_VOCAB
                            + category * VOCAB_PER_CATEGORY
                            + rng.below(VOCAB_PER_CATEGORY)) as u32
                    } else {
                        rng.below(GENERIC_VOCAB) as u32
                    }
                })
                .collect();

            // Ground-truth semantics: category + brand + noise.
            for (j, s) in semantics.row_mut(id).iter_mut().enumerate() {
                *s = category_factors.at2(category, j)
                    + brand_factors.at2(brand, j)
                    + ITEM_NOISE * rng.normal();
            }

            items.push(Item {
                id,
                title,
                category,
                brand,
            });
        }

        Catalog {
            config,
            items,
            category_factors,
            brand_factors,
            semantics,
        }
    }

    pub fn n_items(&self) -> usize {
        self.items.len()
    }

    /// Ground-truth `[n_items, n_factors]` semantic vectors.
    pub fn semantics(&self) -> &Tensor {
        &self.semantics
    }

    /// Render an item's text the way the paper concatenates it:
    /// `title words. category: c. brand: b.` (`None` past the catalog)
    pub fn text_of(&self, id: usize) -> Option<String> {
        let item = self.items.get(id)?;
        let words: Vec<String> = item.title.iter().map(|w| format!("w{w}")).collect();
        Some(format!(
            "{}. category: cat{}. brand: brand{}.",
            words.join(" "),
            item.category,
            item.brand
        ))
    }

    /// Average title length in words (to compare against the paper's 20.5
    /// Amazon vs 3.8 Food statistic).
    pub fn average_title_words(&self) -> f32 {
        let total: usize = self.items.iter().map(|i| i.title.len()).sum();
        total as f32 / self.items.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Catalog::generate(CatalogConfig::default());
        let b = Catalog::generate(CatalogConfig::default());
        assert_eq!(a.items[7].title, b.items[7].title);
        assert_eq!(a.semantics().data(), b.semantics().data());
    }

    #[test]
    fn fields_within_bounds() {
        let cfg = CatalogConfig {
            n_items: 500,
            ..CatalogConfig::default()
        };
        let c = Catalog::generate(cfg);
        assert_eq!(c.n_items(), 500);
        for item in &c.items {
            assert!(item.category < cfg.n_categories);
            assert!(item.brand < cfg.n_brands);
            assert!(item.title.len() >= cfg.title_len.0 && item.title.len() <= cfg.title_len.1);
        }
    }

    #[test]
    fn same_category_items_are_semantically_closer() {
        let c = Catalog::generate(CatalogConfig::default());
        let s = c.semantics();
        let mut same = Vec::new();
        let mut diff = Vec::new();
        for i in (0..c.n_items()).step_by(17) {
            for j in (i + 1..c.n_items()).step_by(23) {
                let d: f32 = s
                    .row(i)
                    .iter()
                    .zip(s.row(j))
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                if c.items[i].category == c.items[j].category {
                    same.push(d);
                } else {
                    diff.push(d);
                }
            }
        }
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        assert!(
            mean(&same) < mean(&diff) * 0.8,
            "same-cat {} vs diff-cat {}",
            mean(&same),
            mean(&diff)
        );
    }

    #[test]
    fn titles_are_topical() {
        let cfg = CatalogConfig::default();
        let c = Catalog::generate(cfg);
        // Majority of non-generic words should belong to the item's own
        // category vocabulary.
        let mut own = 0usize;
        let mut other = 0usize;
        for item in &c.items {
            for &w in &item.title {
                let w = w as usize;
                if w >= GENERIC_VOCAB {
                    let cat = (w - GENERIC_VOCAB) / VOCAB_PER_CATEGORY;
                    if cat == item.category {
                        own += 1;
                    } else {
                        other += 1;
                    }
                }
            }
        }
        assert!(own > 10 * other.max(1), "topical words leak: {own} vs {other}");
    }

    #[test]
    fn text_rendering() {
        let c = Catalog::generate(CatalogConfig {
            n_items: 3,
            ..CatalogConfig::default()
        });
        let t = c.text_of(0).unwrap();
        assert!(c.text_of(3).is_none());
        assert!(t.contains("category: cat"));
        assert!(t.contains("brand: brand"));
    }

    #[test]
    fn average_title_words_tracks_config() {
        let long = Catalog::generate(CatalogConfig::default());
        let short = Catalog::generate(CatalogConfig {
            title_len: (2, 6),
            ..CatalogConfig::default()
        });
        assert!(long.average_title_words() > 15.0);
        assert!(short.average_title_words() < 7.0);
    }
}
