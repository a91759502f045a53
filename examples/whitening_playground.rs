//! Whitening playground: inspect what each whitening transform does to an
//! anisotropic embedding matrix — the paper's §III-B analysis as a runnable
//! demo on your own (or synthetic) embeddings.
//!
//! ```sh
//! cargo run --release --example whitening_playground
//! ```

use whitenrec::eval::{average_pairwise_cosine, whiteness_error, EmbeddingReport};
use whitenrec::textsim::{Catalog, CatalogConfig, PlmConfig, PlmEncoder};
use whitenrec::whiten::{group_whiten, WhiteningMethod, WhiteningTransform, DEFAULT_EPS};

fn main() {
    // 1. Generate a catalog and encode it with the simulated PLM.
    let catalog = Catalog::generate(CatalogConfig {
        n_items: 1500,
        ..CatalogConfig::default()
    });
    let encoder = PlmEncoder::new(catalog.config.n_factors, PlmConfig::default());
    let embeddings = encoder.encode(&catalog);
    println!("Sample item text: {:?}", catalog.text_of(0));

    let report = EmbeddingReport::compute(&embeddings, 2000, 1).unwrap();
    println!("\nRaw embeddings: {report}");

    // 2. Whiten with every method and compare.
    println!("\n{:<10} {:>12} {:>12}", "method", "avg cos", "whiteness");
    for method in WhiteningMethod::ALL {
        let z = WhiteningTransform::fit(&embeddings, method, DEFAULT_EPS).apply(&embeddings);
        println!(
            "{:<10} {:>12.4} {:>12.4}",
            method.name(),
            average_pairwise_cosine(&z, 2000, 2),
            whiteness_error(&z)
        );
    }

    // 3. Relaxed (group) whitening: semantics retained vs uniformity.
    println!("\nRelaxed ZCA whitening by group count:");
    println!("{:<8} {:>12} {:>12}", "G", "avg cos", "whiteness");
    for g in [1usize, 4, 16, 64] {
        if embeddings.cols() % g != 0 {
            continue;
        }
        let z = group_whiten(&embeddings, g, WhiteningMethod::Zca, DEFAULT_EPS);
        println!(
            "{:<8} {:>12.4} {:>12.4}",
            g,
            average_pairwise_cosine(&z, 2000, 3),
            whiteness_error(&z)
        );
    }
    println!(
        "\nReading: full ZCA (G=1) drives avg cosine to ~0 and whiteness\n\
         error to ~0; larger G preserves more raw geometry (higher cosine)."
    );
}
