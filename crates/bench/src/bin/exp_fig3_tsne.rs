//! Fig. 3: t-SNE of item text embeddings — Raw vs whitened with
//! G ∈ {1, 4, 32} on Arts.
//!
//! The paper's claim is visual: raw embeddings clump (anisotropic cone),
//! G=1 spreads them uniformly/spherically, larger G re-clusters. We emit
//! both the 2-D coordinates (head) and a numeric *dispersion* statistic
//! (nearest-neighbour uniformity ratio: ≈1 uniform, ≪1 clustered) so the
//! claim is machine-checkable.

use wr_bench::context;
use wr_bench::tsne::{radial_dispersion, tsne_2d, TsneConfig};
use wr_data::DatasetKind;
use wr_tensor::Tensor;
use wr_whiten::{group_whiten, WhiteningMethod, DEFAULT_EPS};
use whitenrec::TableWriter;

fn main() {
    let ctx = context(DatasetKind::Arts);
    let emb = &ctx.dataset.embeddings;
    // Sample down for the O(n²) exact t-SNE.
    let n = emb.rows().min(300);
    let idx: Vec<usize> = (0..n).map(|i| i * emb.rows() / n).collect();
    let sample = emb.gather_rows(&idx);

    let mut t = TableWriter::new(
        "Fig 3: t-SNE dispersion of item embeddings (Arts sample)",
        &["Setting", "NN-uniformity (1=uniform, <<1=clustered)", "first 3 points (x,y)"],
    );

    let mut run = |name: &str, x: &Tensor| {
        let y = tsne_2d(
            x,
            TsneConfig {
                perplexity: 20.0,
                iterations: 220,
                ..TsneConfig::default()
            },
        );
        let disp = radial_dispersion(&y);
        let pts: Vec<String> = (0..3)
            .map(|r| format!("({:.1},{:.1})", y.at2(r, 0), y.at2(r, 1)))
            .collect();
        t.row(&[name.to_string(), format!("{disp:.3}"), pts.join(" ")]);
        disp
    };

    let raw = run("Raw", &sample);
    let g1 = run("G=1", &group_whiten(&sample, 1, WhiteningMethod::Zca, DEFAULT_EPS));
    let g4 = run("G=4", &group_whiten(&sample, 4, WhiteningMethod::Zca, DEFAULT_EPS));
    let g32 = run("G=32", &group_whiten(&sample, 32, WhiteningMethod::Zca, DEFAULT_EPS));

    t.print();
    println!(
        "Shape check: G=1 should score the highest uniformity; Raw and G=32\n\
         lower (clustered). Measured: Raw {raw:.3}, G=1 {g1:.3}, G=4 {g4:.3}, G=32 {g32:.3}"
    );
}
