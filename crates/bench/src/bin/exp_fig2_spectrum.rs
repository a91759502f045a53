//! Fig. 2 + §III-B: singular-value spectrum and average pairwise cosine of
//! the pre-trained text embeddings, per dataset.
//!
//! Paper reference: normalized singular values decay rapidly (one dominant
//! direction); average pairwise cosine ≈ 0.85 / 0.84 / 0.85 for
//! Arts / Toys / Tools.

use wr_bench::{context, datasets, m4};
use wr_eval::{normalized_singular_values, EmbeddingReport};
use whitenrec::TableWriter;

fn main() {
    let mut cos_table = TableWriter::new(
        "SIII-B: average pairwise cosine (paper: Arts 0.85, Toys 0.84, Tools 0.85)",
        &["Dataset", "avg cos", "whiteness err", "top-1 energy", "eff. dirs"],
    );
    let mut spec_table = TableWriter::new(
        "Fig 2: normalized singular values (first 12, per dataset)",
        &["Dataset", "sigma_k / sigma_0 for k = 0..11"],
    );

    for kind in datasets() {
        let ctx = context(kind);
        let emb = &ctx.dataset.embeddings;
        let report = EmbeddingReport::compute(emb, 2000, 7).expect("embedding report");
        cos_table.row(&[
            kind.name().to_string(),
            format!("{:.3}", report.average_cosine),
            format!("{:.3}", report.whiteness_error),
            format!("{:.1}%", report.top1_energy * 100.0),
            report.effective_directions.to_string(),
        ]);

        let sv = normalized_singular_values(emb).expect("spectrum");
        let head: Vec<String> = sv.iter().take(12).map(|s| m4(*s)).collect();
        spec_table.row(&[kind.name().to_string(), head.join(" ")]);
    }

    cos_table.print();
    spec_table.print();
    println!(
        "Shape check: the spectrum should collapse within ~10 directions and\n\
         the average cosine should sit near the paper's 0.85 anisotropy level."
    );
}
