//! Integration: textsim → whitening. The simulated PLM embeddings must
//! exhibit the paper's §III-B pathology, and the whitening stack must fix
//! it — the premise of the whole method.

use whitenrec::eval::{average_pairwise_cosine, whiteness_error};
use whitenrec::textsim::{Catalog, CatalogConfig, PlmConfig, PlmEncoder};
use whitenrec::whiten::{group_whiten, WhiteningMethod, WhiteningTransform, DEFAULT_EPS};

fn embeddings() -> (Catalog, whitenrec::tensor::Tensor) {
    let catalog = Catalog::generate(CatalogConfig {
        n_items: 900,
        ..CatalogConfig::default()
    });
    let encoder = PlmEncoder::new(catalog.config.n_factors, PlmConfig {
        dim: 128,
        ..PlmConfig::default()
    });
    let emb = encoder.encode(&catalog);
    (catalog, emb)
}

#[test]
fn simulated_plm_is_anisotropic_and_whitening_fixes_it() {
    let (_, emb) = embeddings();
    let raw_cos = average_pairwise_cosine(&emb, 2000, 1);
    assert!(raw_cos > 0.7, "raw avg cosine {raw_cos}, expected BERT-like ≈0.85");
    assert!(whiteness_error(&emb) > 0.5);

    let z = WhiteningTransform::fit(&emb, WhiteningMethod::Zca, DEFAULT_EPS).apply(&emb);
    let white_cos = average_pairwise_cosine(&z, 2000, 2);
    assert!(white_cos.abs() < 0.1, "whitened avg cosine {white_cos}");
    assert!(whiteness_error(&z) < 0.2, "whiteness {}", whiteness_error(&z));
}

#[test]
fn group_whitening_interpolates_between_raw_and_full() {
    let (_, emb) = embeddings();
    let cos_of = |g: usize| {
        average_pairwise_cosine(
            &group_whiten(&emb, g, WhiteningMethod::Zca, DEFAULT_EPS),
            1500,
            3,
        )
    };
    let c1 = cos_of(1);
    let c8 = cos_of(8);
    let c64 = cos_of(64);
    // Stronger relaxation → more of the raw similarity structure survives.
    assert!(c1.abs() < c8.abs() + 1e-3, "G=1 {c1} vs G=8 {c8}");
    assert!(c8 <= c64 + 0.05, "G=8 {c8} vs G=64 {c64}");
}

#[test]
fn whitening_preserves_semantic_neighborhoods() {
    // ZCA rotates back to the original axes, so same-category items should
    // remain more similar than cross-category ones even after whitening.
    let (catalog, emb) = embeddings();
    let z = WhiteningTransform::fit(&emb, WhiteningMethod::Zca, DEFAULT_EPS).apply(&emb);
    let zn = z.l2_normalize_rows();
    let mut same = Vec::new();
    let mut diff = Vec::new();
    for i in (0..catalog.n_items()).step_by(11) {
        for j in (i + 1..catalog.n_items()).step_by(31) {
            let cos: f32 = zn.row(i).iter().zip(zn.row(j)).map(|(a, b)| a * b).sum();
            if catalog.items[i].category == catalog.items[j].category {
                same.push(cos);
            } else {
                diff.push(cos);
            }
        }
    }
    let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
    assert!(
        mean(&same) > mean(&diff),
        "semantics destroyed: same {} vs diff {}",
        mean(&same),
        mean(&diff)
    );
}

#[test]
fn all_methods_whiten_the_plm_embeddings() {
    let (_, emb) = embeddings();
    for method in [WhiteningMethod::Zca, WhiteningMethod::Pca, WhiteningMethod::Cholesky] {
        let z = WhiteningTransform::fit(&emb, method, DEFAULT_EPS).apply(&emb);
        let err = whiteness_error(&z);
        assert!(err < 0.25, "{:?}: whiteness error {err}", method);
    }
    // BN only standardizes — correlation (and thus whiteness error) remains.
    let bn = WhiteningTransform::fit(&emb, WhiteningMethod::BatchNorm, DEFAULT_EPS).apply(&emb);
    assert!(whiteness_error(&bn) > 0.5, "BN should not decorrelate");
}
