//! Fig. 7: condition number of the projected item-embedding covariance and
//! training loss, per epoch.
//!
//! Paper reference (shape): WhitenRec/WhitenRec+ keep κ low and stable
//! (best conditioning, fastest convergence among text-based models);
//! ID-based models' conditioning worsens over training (overfitting);
//! SASRec(T)/UniSRec(T) sit in between with higher κ.

use wr_bench::{context, datasets};
use wr_eval::item_condition_number;
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
        let mut t = TableWriter::new(
            format!("Fig 7 ({}): log10 cond. number + train loss per epoch", kind.name()),
            &["Model", "epoch trace: log10(kappa) | loss"],
        );
        for name in MODELS {
            eprintln!("  training {name} on {}", kind.name());
            let mut trace: Vec<String> = Vec::new();
            ctx.train_and_evaluate(
                ctx.build_model(name),
                &ctx.warm.train,
                &ctx.warm.validation,
                &ctx.warm.test,
                None,
                |model, rec| {
                    let v = model.item_representations();
                    let kappa = item_condition_number(&v).unwrap_or(f32::INFINITY);
                    trace.push(format!("{:.1}|{:.2}", kappa.max(1.0).log10(), rec.train_loss));
                },
            )
            .expect("training without a checkpoint does no IO");
            t.row(&[name.to_string(), trace.join("  ")]);
        }
        t.print();
    }
    println!(
        "Shape check: WhitenRec/WhitenRec+ rows should show the smallest and\n\
         flattest log10(kappa); ID rows may drift upward over epochs."
    );
}
