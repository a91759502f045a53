//! Table III: warm-start comparison of the full 13-model roster across all
//! four datasets (R@20/R@50/N@20/N@50 + paired t-test vs the best
//! baseline).
//!
//! Paper reference (shape): WhitenRec+ best everywhere, WhitenRec second
//! among text-only models; text-based sequential models beat general
//! recommenders on the Amazon datasets; on Food the general model BM3 is
//! competitive.

use wr_bench::ttest::paired_t_test;
use wr_bench::{context, datasets, m4};
use wr_models::zoo::WARM_ROSTER;
use whitenrec::TableWriter;

fn main() {
    for kind in datasets() {
        let ctx = context(kind);
        let mut t = TableWriter::new(
            format!("Table III ({}, warm start)", kind.name()),
            &["Model", "R@20", "R@50", "N@20", "N@50", "sig vs best baseline"],
        );
        let mut results = Vec::new();
        for name in WARM_ROSTER {
            eprintln!("  training {name} on {}", kind.name());
            let trained = ctx.run_warm(name);
            results.push((name.to_string(), trained.test_metrics));
        }
        // Best baseline by N@20 among non-WhitenRec models.
        let best_baseline = results
            .iter()
            .filter(|(n, _)| !n.starts_with("WhitenRec"))
            .max_by(|a, b| a.1.ndcg_at(20).partial_cmp(&b.1.ndcg_at(20)).unwrap())
            .map(|(n, m)| (n.clone(), m.clone()))
            .expect("baselines present");

        for (name, metrics) in &results {
            let sig = if name.starts_with("WhitenRec") {
                match paired_t_test(&metrics.per_case_ndcg, &best_baseline.1.per_case_ndcg) {
                    Some(r) if r.significant(0.01) && r.mean_difference > 0.0 => "*".to_string(),
                    Some(r) => format!("p={:.3}", r.p_value),
                    None => "-".to_string(),
                }
            } else if *name == best_baseline.0 {
                "(best baseline)".to_string()
            } else {
                String::new()
            };
            t.row(&[
                name.clone(),
                m4(metrics.recall_at(20)),
                m4(metrics.recall_at(50)),
                m4(metrics.ndcg_at(20)),
                m4(metrics.ndcg_at(50)),
                sig,
            ]);
        }
        t.print();
    }
    println!(
        "Shape check: WhitenRec+ should top every dataset; WhitenRec close\n\
         behind; SASRec(T) not reliably above SASRec(ID); UniSRec the\n\
         strongest baseline (paper Table III)."
    );
}
