//! Fig. 6: alignment–uniformity trajectories of user and item
//! representations during training.
//!
//! Paper reference (shape): WhitenRec/WhitenRec+ achieve the best (lowest)
//! *user* uniformity among text-based methods; ID-based methods reach low
//! uniformity too but worse accuracy — user uniformity tracks performance
//! within the text-based family.

use wr_bench::{context, datasets};
use wr_eval::UniformityReport;
use whitenrec::TableWriter;

const MODELS: [&str; 6] = [
    "SASRec(ID)",
    "UniSRec(T+ID)",
    "SASRec(T)",
    "UniSRec(T)",
    "WhitenRec",
    "WhitenRec+",
];

fn main() {
    for kind in datasets() {
        let ctx = context(kind);
        // Positive pairs for alignment: validation (context → target).
        let probes: Vec<_> = ctx.warm.validation.iter().take(400).cloned().collect();
        let contexts: Vec<&[usize]> = probes.iter().map(|c| c.context.as_slice()).collect();
        let targets: Vec<usize> = probes.iter().map(|c| c.target).collect();

        let mut t = TableWriter::new(
            format!("Fig 6 ({}): final-epoch alignment / uniformity", kind.name()),
            &["Model", "l_align", "l_uniform-user", "l_uniform-item", "test N@20"],
        );
        for name in MODELS {
            eprintln!("  training {name} on {}", kind.name());
            let mut last: Option<UniformityReport> = None;
            let trained = ctx
                .train_and_evaluate(
                    ctx.build_model(name),
                    &ctx.warm.train,
                    &ctx.warm.validation,
                    &ctx.warm.test,
                    None,
                    |model, _rec| {
                        let users = model.user_representations(&contexts);
                        let items = model.item_representations();
                        let pos = items.gather_rows(&targets);
                        last = Some(UniformityReport::compute(&users, &pos, &items, 1500, 31));
                    },
                )
                .expect("training without a checkpoint does no IO");
            let r = last.expect("at least one epoch");
            t.row(&[
                name.to_string(),
                format!("{:.3}", r.align),
                format!("{:.3}", r.uniform_user),
                format!("{:.3}", r.uniform_item),
                format!("{:.4}", trained.test_metrics.ndcg_at(20)),
            ]);
        }
        t.print();
    }
    println!(
        "Shape check: WhitenRec/WhitenRec+ should post the lowest\n\
         l_uniform-user among the four text-based rows, and user uniformity\n\
         should correlate with N@20 within that family."
    );
}
