//! Latent-factor behaviour simulator.

use wr_tensor::{Rng64, Tensor};
use wr_textsim::Catalog;

/// Parameters of the interaction simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InteractionConfig {
    pub n_users: usize,
    /// Sequence length sampled geometrically with this mean, clamped to
    /// `[min_len, max_len]`.
    pub mean_len: f32,
    pub min_len: usize,
    pub max_len: usize,
    /// Zipf exponent for item popularity.
    pub zipf: f32,
    /// Weight of user-preference affinity in the choice model.
    pub preference_strength: f32,
    /// Weight of similarity to the previous item (co-consumption chains).
    pub markov_strength: f32,
    /// Candidate pool size per choice (popularity-proposed, then re-scored).
    pub pool: usize,
    /// How strongly item popularity follows a text-expressible "quality"
    /// direction in semantic space (0 = popularity independent of text,
    /// 1 = fully text-determined). Real catalogs sit high: demand tracks
    /// category and product attributes, which *are* in the text — without
    /// this, text-only models face an artificial ceiling no amount of
    /// whitening can cross.
    pub popularity_text_corr: f32,
    pub seed: u64,
}

impl Default for InteractionConfig {
    fn default() -> Self {
        InteractionConfig {
            n_users: 4000,
            mean_len: 8.0,
            min_len: 5,
            max_len: 50,
            zipf: 0.55,
            preference_strength: 2.6,
            markov_strength: 1.6,
            pool: 90,
            popularity_text_corr: 0.75,
            seed: 99,
        }
    }
}

/// Generate chronological item sequences for `n_users` synthetic users.
///
/// Choice model per step: propose `pool` candidates from a Zipf popularity
/// distribution, then sample among them with weights
/// `exp(pref·sem(i)·α + sim(prev, i)·β)`.
pub fn generate_interactions(catalog: &Catalog, config: InteractionConfig) -> Vec<Vec<usize>> {
    assert!(config.n_users >= 1);
    assert!(config.min_len >= 2 && config.min_len <= config.max_len);
    let mut rng = Rng64::seed_from(config.seed);
    let n = catalog.n_items();
    let k = catalog.config.n_factors;
    let sem = normalize_rows(catalog.semantics());

    // Zipf popularity ranked by a noisy "quality" score: a mix of a fixed
    // direction in semantic space (text-expressible) and pure noise,
    // blended by `popularity_text_corr`.
    let quality_dir: Vec<f32> = (0..k).map(|_| rng.normal()).collect();
    let mut scored: Vec<(usize, f32)> = (0..n)
        .map(|i| {
            let sem_q: f32 = sem.row(i).iter().zip(&quality_dir).map(|(a, b)| a * b).sum();
            let noise = rng.normal();
            let c = config.popularity_text_corr.clamp(0.0, 1.0);
            (i, c * sem_q + (1.0 - c) * noise)
        })
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut pop = vec![0.0f32; n];
    for (rank, &(item, _)) in scored.iter().enumerate() {
        pop[item] = 1.0 / (rank as f32 + 1.0).powf(config.zipf);
    }
    let cumulative = cumulative_sum(&pop);

    let mut sequences = Vec::with_capacity(config.n_users);
    for _ in 0..config.n_users {
        // Preference = a perturbed category archetype: pick 1–2 anchor
        // categories so users are topically coherent.
        let mut pref = vec![0.0f32; k];
        for _ in 0..2 {
            let c = rng.below(catalog.config.n_categories);
            for (j, p) in pref.iter_mut().enumerate() {
                *p += catalog.category_factors.at2(c, j);
            }
        }
        let norm = pref.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-9);
        for p in &mut pref {
            *p /= norm;
        }

        let len = sample_length(&mut rng, &config);
        let mut seq: Vec<usize> = Vec::with_capacity(len);
        let mut prev: Option<usize> = None;
        for _ in 0..len {
            let mut best_pool: Vec<usize> = Vec::with_capacity(config.pool);
            for _ in 0..config.pool {
                best_pool.push(sample_from_cumulative(&cumulative, &mut rng));
            }
            let weights: Vec<f32> = best_pool
                .iter()
                .map(|&item| {
                    let srow = sem.row(item);
                    let aff: f32 = pref.iter().zip(srow).map(|(a, b)| a * b).sum();
                    let chain = match prev {
                        Some(p) => {
                            let prow = sem.row(p);
                            prow.iter().zip(srow).map(|(a, b)| a * b).sum::<f32>()
                        }
                        None => 0.0,
                    };
                    (config.preference_strength * aff + config.markov_strength * chain)
                        .clamp(-10.0, 10.0)
                        .exp()
                })
                .collect();
            let choice = best_pool[rng.weighted(&weights)];
            prev = Some(choice);
            seq.push(choice);
        }
        sequences.push(seq);
    }
    sequences
}

fn sample_length(rng: &mut Rng64, c: &InteractionConfig) -> usize {
    // Geometric with the configured mean, shifted by min_len.
    let extra_mean = (c.mean_len - c.min_len as f32).max(0.1);
    let p = 1.0 / (1.0 + extra_mean);
    let mut extra = 0usize;
    while !rng.chance(p) && extra + c.min_len < c.max_len {
        extra += 1;
    }
    c.min_len + extra
}

fn cumulative_sum(w: &[f32]) -> Vec<f32> {
    let mut out = Vec::with_capacity(w.len());
    let mut acc = 0.0f32;
    for &x in w {
        acc += x;
        out.push(acc);
    }
    out
}

fn sample_from_cumulative(cum: &[f32], rng: &mut Rng64) -> usize {
    #[expect(
        clippy::expect_used,
        reason = "cum mirrors the catalog's item list, which Catalog::generate guarantees non-empty"
    )]
    let total = *cum.last().expect("non-empty weights");
    let target = rng.uniform() * total;
    cum.partition_point(|&c| c < target).min(cum.len() - 1)
}

fn normalize_rows(t: &Tensor) -> Tensor {
    t.l2_normalize_rows()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wr_textsim::{Catalog, CatalogConfig};

    fn small_catalog() -> Catalog {
        Catalog::generate(CatalogConfig {
            n_items: 300,
            n_categories: 10,
            n_brands: 20,
            ..CatalogConfig::default()
        })
    }

    fn small_config() -> InteractionConfig {
        InteractionConfig {
            n_users: 200,
            ..InteractionConfig::default()
        }
    }

    #[test]
    fn lengths_respect_bounds() {
        let cat = small_catalog();
        let seqs = generate_interactions(&cat, small_config());
        assert_eq!(seqs.len(), 200);
        for s in &seqs {
            assert!(s.len() >= 5 && s.len() <= 50);
            for &i in s {
                assert!(i < cat.n_items());
            }
        }
        let avg: f32 = seqs.iter().map(|s| s.len() as f32).sum::<f32>() / 200.0;
        assert!((5.0..14.0).contains(&avg), "avg len {avg}");
    }

    #[test]
    fn deterministic() {
        let cat = small_catalog();
        let a = generate_interactions(&cat, small_config());
        let b = generate_interactions(&cat, small_config());
        assert_eq!(a, b);
    }

    #[test]
    fn popularity_is_skewed() {
        let cat = small_catalog();
        let seqs = generate_interactions(&cat, small_config());
        let mut counts = vec![0usize; cat.n_items()];
        for s in &seqs {
            for &i in s {
                counts[i] += 1;
            }
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = counts.iter().sum();
        let top10: usize = counts.iter().take(cat.n_items() / 10).sum();
        assert!(
            top10 as f32 / total as f32 > 0.3,
            "top-10% items hold {} of interactions",
            top10 as f32 / total as f32
        );
    }

    #[test]
    fn users_are_topically_coherent() {
        // Within-user category entropy should be much lower than uniform.
        let cat = small_catalog();
        let seqs = generate_interactions(&cat, small_config());
        let mut dominant_share = 0.0f32;
        for s in &seqs {
            let mut counts = vec![0usize; cat.config.n_categories];
            for &i in s {
                counts[cat.items[i].category] += 1;
            }
            let max = *counts.iter().max().unwrap();
            dominant_share += max as f32 / s.len() as f32;
        }
        dominant_share /= seqs.len() as f32;
        assert!(
            dominant_share > 0.35,
            "dominant-category share {dominant_share}, users look random"
        );
    }

    #[test]
    fn markov_chains_link_consecutive_items() {
        let cat = small_catalog();
        let with_chain = generate_interactions(
            &cat,
            InteractionConfig {
                markov_strength: 2.5,
                preference_strength: 0.0,
                seed: 5,
                ..small_config()
            },
        );
        let without = generate_interactions(
            &cat,
            InteractionConfig {
                markov_strength: 0.0,
                preference_strength: 0.0,
                seed: 5,
                ..small_config()
            },
        );
        let same_cat_rate = |seqs: &[Vec<usize>]| {
            let mut same = 0usize;
            let mut total = 0usize;
            for s in seqs {
                for w in s.windows(2) {
                    total += 1;
                    if cat.items[w[0]].category == cat.items[w[1]].category {
                        same += 1;
                    }
                }
            }
            same as f32 / total as f32
        };
        assert!(
            same_cat_rate(&with_chain) > same_cat_rate(&without) + 0.1,
            "chains: {} vs {}",
            same_cat_rate(&with_chain),
            same_cat_rate(&without)
        );
    }
}
