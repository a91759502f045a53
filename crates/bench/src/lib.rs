//! Shared plumbing for the experiment binaries (`exp_*`).
//!
//! Every binary regenerates one table or figure of the paper as text. The
//! harness runs at a reduced scale sized for a single CPU core; set
//! `WR_SCALE` (default 0.25, multiplier on the ~1/10-of-paper presets) and
//! `WR_EPOCHS` (default 15) to trade fidelity for time. The committed
//! `results/` were not run at the epoch default: `run_experiments.sh` sets
//! `WR_EPOCHS=10` for every binary but `exp_ext_transfer`, which it runs at
//! 15.

use std::str::FromStr;

use whitenrec::models::ModelConfig;
use whitenrec::ExperimentContext;
use wr_data::DatasetKind;

pub mod flow;
pub mod tsne;
pub mod ttest;

/// Harness-wide scale, from `WR_SCALE` (default 0.25).
pub fn scale() -> f32 {
    knob("WR_SCALE", 0.25)
}

/// Harness-wide epoch cap, from `WR_EPOCHS` (default 15; the record in
/// `results/` was run at 10, `exp_ext_transfer` alone at 15).
pub fn max_epochs() -> usize {
    knob("WR_EPOCHS", 15)
}

/// Datasets to sweep, from `WR_DATASETS` (comma-separated names; default
/// all four).
pub fn datasets() -> Vec<DatasetKind> {
    or_exit(parse_datasets(env("WR_DATASETS").as_deref()))
}

/// Catalog-size multiplier applied on top of `WR_SCALE`, from
/// `WR_ITEM_SCALE` (default 2.0). Growing the catalog at fixed users thins
/// interactions per item, reproducing the paper's overparameterized-ID
/// regime (its catalogs hold 18× more ID parameters than interactions).
pub fn item_scale() -> f32 {
    knob("WR_ITEM_SCALE", 2.0)
}

/// The environment variable `name` parsed as `T`, `default` when unset.
/// A set value that does not parse stops the binary ([`parse_knob`]).
fn knob<T: FromStr>(name: &str, default: T) -> T {
    or_exit(parse_knob(name, env(name).as_deref(), default))
}

/// The value of the environment variable `name`, `None` when unset. A
/// value that is not UTF-8 comes back with its bad bytes replaced, so it
/// fails to parse like any other garbage.
fn env(name: &str) -> Option<String> {
    std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
}

/// `value`, the setting of `name`, parsed as `T`; `default` when unset. A
/// set value that does not parse is an error naming both: a results table
/// must never record numbers for a setting nobody asked for.
fn parse_knob<T: FromStr>(name: &str, value: Option<&str>, default: T) -> Result<T, String> {
    match value {
        None => Ok(default),
        Some(raw) => raw.trim().parse().map_err(|_| {
            format!(
                "{name}={raw:?} does not parse as {}",
                std::any::type_name::<T>()
            )
        }),
    }
}

/// `WR_DATASETS`: every comma-separated entry must name a dataset.
fn parse_datasets(value: Option<&str>) -> Result<Vec<DatasetKind>, String> {
    let Some(raw) = value else {
        return Ok(DatasetKind::ALL.to_vec());
    };
    raw.split(',')
        .map(|name| {
            DatasetKind::ALL
                .into_iter()
                .find(|kind| kind.name() == name.trim())
                .ok_or_else(|| {
                    format!("WR_DATASETS={raw:?}: {name:?} is not one of Arts, Toys, Tools, Food")
                })
        })
        .collect()
}

/// Stop the binary on a bad setting, before it computes anything.
fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// Standard context the binaries share: preset scaled by [`scale`], epochs
/// capped by [`max_epochs`].
pub fn context(kind: DatasetKind) -> ExperimentContext {
    use whitenrec::data::DatasetSpec;
    // Every knob is read before the dataset is built, so a bad one fails
    // at once.
    let (scale, item_scale, max_epochs) = (scale(), item_scale(), max_epochs());
    let spec = DatasetSpec::preset(kind)
        .scaled(scale)
        .scaled_items(item_scale);
    let mut ctx = ExperimentContext::from_spec(spec);
    ctx.model_config = ModelConfig::default();
    ctx.train_config.max_epochs = max_epochs;
    ctx.train_config.patience = 4;
    ctx.eval_cap = 1200;
    eprintln!(
        "[{}] {} users, {} items, {} train seqs (scale {})",
        kind.name(),
        ctx.dataset.n_users(),
        ctx.dataset.n_items(),
        ctx.warm.train.len(),
        scale
    );
    ctx
}

/// Format a metric to the paper's 4 decimal places.
pub fn m4(x: f32) -> String {
    format!("{x:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m4_formats() {
        assert_eq!(m4(0.16881), "0.1688");
        assert_eq!(m4(0.0), "0.0000");
    }

    #[test]
    fn env_defaults() {
        // Only meaningful when the harness env vars are unset.
        if std::env::var_os("WR_SCALE").is_none() {
            assert_eq!(scale(), 0.25);
        }
        if std::env::var_os("WR_EPOCHS").is_none() {
            assert_eq!(max_epochs(), 15);
        }
        if std::env::var_os("WR_ITEM_SCALE").is_none() {
            assert_eq!(item_scale(), 2.0);
        }
        if std::env::var_os("WR_DATASETS").is_none() {
            assert_eq!(datasets().len(), 4);
        }
    }

    /// A set knob parses to its value; set to garbage, it is an error
    /// that names the variable and the value.
    #[test]
    fn set_knobs_that_do_not_parse_are_errors() {
        fn row<T>(name: &str, good: &str, want: T, bad: &str)
        where
            T: FromStr + Default + PartialEq + std::fmt::Debug,
        {
            assert_eq!(
                parse_knob(name, Some(good), T::default()),
                Ok(want),
                "{name}"
            );
            let e = parse_knob(name, Some(bad), T::default()).unwrap_err();
            assert!(e.contains(name) && e.contains(&format!("{bad:?}")), "{e}");
        }
        row("WR_SCALE", " 0.5 ", 0.5f32, "0,5");
        row("WR_EPOCHS", "10", 10usize, "1O");
        row("WR_ITEM_SCALE", "4", 4.0f32, "x");
    }

    #[test]
    fn wr_datasets_with_an_unknown_or_empty_entry_is_an_error() {
        assert_eq!(parse_datasets(None), Ok(DatasetKind::ALL.to_vec()));
        assert_eq!(
            parse_datasets(Some("Arts, Food")),
            Ok(vec![DatasetKind::Arts, DatasetKind::Food])
        );
        for bad in ["Arts,", "Books", ""] {
            let e = parse_datasets(Some(bad)).unwrap_err();
            assert!(
                e.contains("WR_DATASETS") && e.contains(&format!("{bad:?}")),
                "{e}"
            );
        }
    }
}
