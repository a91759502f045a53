//! New items arriving after training (the paper's cold-start motivation,
//! as a production workflow): fold fresh item embeddings into an
//! incremental whitening estimate and score them without retraining.
//!
//! ```sh
//! cargo run --release --example incremental_items
//! ```

use whitenrec::eval::whiteness_error;
use whitenrec::textsim::{Catalog, CatalogConfig, PlmConfig, PlmEncoder};
use whitenrec::whiten::IncrementalWhitening;

fn main() {
    // Day 0: the existing catalog.
    let catalog = Catalog::generate(CatalogConfig {
        n_items: 1200,
        ..CatalogConfig::default()
    });
    let encoder = PlmEncoder::new(catalog.config.n_factors, PlmConfig::default());
    let embeddings = encoder.encode(&catalog);
    let day0 = embeddings.slice_rows(0, 800);

    let mut moments = IncrementalWhitening::new(embeddings.cols(), 1e-5);
    moments.update(&day0);
    let transform_day0 = moments.transform();
    println!(
        "day 0: fitted on {} items | whiteness of day-0 set: {:.4}",
        moments.count(),
        whiteness_error(&transform_day0.apply(&day0))
    );

    // Days 1..4: batches of new products arrive. Their text embeddings are
    // whitened with the *current* transform immediately (no refit needed),
    // and folded into the moments for the next refresh.
    for (day, range) in [(1, 800..900), (2, 900..1000), (3, 1000..1100), (4, 1100..1200)] {
        let fresh = embeddings.slice_rows(range.start, range.end);
        // Score-path view: whiten the new items with yesterday's transform.
        let z_fresh = moments.transform().apply(&fresh);
        println!(
            "day {day}: {} new items | whiteness under current transform: {:.4}",
            fresh.rows(),
            whiteness_error(&z_fresh)
        );
        moments.update(&fresh);
    }

    // Refit from moments: one d×d eigendecomposition, no pass over the
    // 1200-item history.
    let final_transform = moments.transform();
    println!(
        "\nafter all arrivals ({} items): whiteness of the full catalog {:.4}",
        moments.count(),
        whiteness_error(&final_transform.apply(&embeddings))
    );
    println!(
        "round-trip sanity: coloring the whitened catalog back reconstructs\n\
         the original within {:.2e} relative error",
        {
            let z = final_transform.apply(&embeddings);
            let back = final_transform.uncolor(&z);
            back.sub(&embeddings).frob_norm() / embeddings.frob_norm()
        }
    );
}
