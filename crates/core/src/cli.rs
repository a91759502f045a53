//! The flag parser and dataset-context setup shared by every `whitenrec`
//! verb. Arguments are deliberately parsed by hand — the CLI has a handful
//! of verbs and a flat flag set; a dependency would be heavier than the
//! code.

use crate::data::{DatasetKind, DatasetSpec};
use crate::ExperimentContext;

/// The value following `name`, when the flag is present.
pub fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

pub fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Refuse any `--flag` argument that `usage` does not name, so a typo
/// (`--shard` for `--shards`) or a retired flag fails with its name
/// instead of silently changing nothing.
pub fn check_flags(args: &[String], usage: &str) -> Result<(), String> {
    let known: Vec<&str> = usage
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|word| word.starts_with("--"))
        .collect();
    match args.iter().find(|a| a.starts_with("--") && !known.contains(&a.as_str())) {
        Some(unknown) => Err(format!("unknown flag {unknown}\nusage: {usage}")),
        None => Ok(()),
    }
}

/// `name`'s value parsed as `T` when the flag is present, a typed message
/// when the value does not parse.
pub fn parse_opt<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)
        .map(|s| s.parse().map_err(|_| format!("bad {name} {s}")))
        .transpose()
}

/// [`parse_opt`] with `default` standing in for an absent flag.
pub fn parse_num<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    Ok(parse_opt(args, name)?.unwrap_or(default))
}

/// The experiment context `--dataset` / `--scale` / `--epochs` describe;
/// `default_epochs` overrides the training config's own default when the
/// flag is absent.
pub fn build_context(args: &[String], default_epochs: Option<usize>) -> Result<ExperimentContext, String> {
    let kind = match flag(args, "--dataset").as_deref() {
        Some("Arts") | None => DatasetKind::Arts,
        Some("Toys") => DatasetKind::Toys,
        Some("Tools") => DatasetKind::Tools,
        Some("Food") => DatasetKind::Food,
        Some(other) => return Err(format!("unknown dataset {other} (Arts|Toys|Tools|Food)")),
    };
    let scale: f32 = parse_num(args, "--scale", 0.2)?;
    let spec = DatasetSpec::preset(kind).scaled(scale).scaled_items(2.0);
    let mut ctx = ExperimentContext::from_spec(spec);
    let default_epochs = default_epochs.unwrap_or(ctx.train_config.max_epochs);
    ctx.train_config.max_epochs = parse_num(args, "--epochs", default_epochs)?;
    Ok(ctx)
}
