//! `ledger agree`: run the benchmark several times the way the driver does —
//! one process per workload and pass — and say whether the runs agree.
//!
//! With one seed (the default) every end-to-end metric's half-range must
//! stay within its bound and every exact value must repeat. With `--seeds`
//! each run takes another seed, as the driver's acceptance runs do, and the
//! distance between the quartiles is held to the bound instead (`setup_s`
//! is reported but, as in the driver, not held).

use std::process::Command;

use wr_tensor::json::Json;

use crate::report::{Contract, LedgerError};
use crate::stats::{half_range_share, iqr_share, median};
use crate::{Args, DEFAULT_SEED};

const DEFAULT_RUNS: usize = 5;

/// One child run: its metrics and exact values, by name.
struct Run {
    metrics: Vec<(String, f64)>,
    exact: Vec<(String, String)>,
}

fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<Run, LedgerError> {
    let fail = |what: String| LedgerError::Io(format!("run of {workload} seed {seed}: {what}"));
    let exe = std::env::current_exe().map_err(|e| fail(e.to_string()))?;
    let mut command = Command::new(exe);
    command.args(["run", "--workload", workload]);
    command.args([
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]);
    command.args(["--trace", if traced { "1" } else { "0" }]);
    if smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = command.output().map_err(|e| fail(e.to_string()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(fail(format!("{}\n{stdout}", output.status)));
    }
    let mut lines = stdout.lines().rev();
    let result = Json::parse(lines.next().unwrap_or("")).map_err(&fail)?;
    let exact = lines
        .find_map(|l| l.strip_prefix("exact "))
        .ok_or_else(|| fail("no exact line".into()))
        .and_then(|l| Json::parse(l).map_err(&fail))?;
    let (Some(Json::Obj(metrics)), Json::Obj(exact)) = (result.get("metrics"), exact) else {
        return Err(fail("result without metrics".into()));
    };
    Ok(Run {
        metrics: metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        exact: exact
            .into_iter()
            .filter_map(|(name, v)| Some((name, v.as_str()?.to_string())))
            .collect(),
    })
}

pub fn run(args: &Args) -> Result<bool, LedgerError> {
    let contract = Contract::load();
    let runs: usize = args.number("--runs", DEFAULT_RUNS)?;
    if runs < 2 {
        return Err(LedgerError::Usage("--runs needs at least 2".into()));
    }
    let seed: u64 = args.number("--seed", DEFAULT_SEED)?;
    let seconds: f64 = args.number("--seconds", contract.run_seconds)?;
    let vary_seed = args.switch("--seeds");
    let smoke = args.switch("--smoke");
    let spread_name = if vary_seed {
        "iqr/median"
    } else {
        "half-range"
    };

    let mut disagreements = 0;
    for w in args.workloads()? {
        for traced in args.passes()? {
            let results: Vec<Run> = (0..runs as u64)
                .map(|i| {
                    child(
                        w.name,
                        if vary_seed { seed + i } else { seed },
                        seconds,
                        traced,
                        smoke,
                    )
                })
                .collect::<Result<_, _>>()?;
            println!("== {} trace {} runs {runs}", w.name, u8::from(traced));
            println!(
                "{:<34} {:>16} {:>11} {:>7}",
                "metric", "median", spread_name, "bound"
            );
            for d in contract.declared(traced) {
                let values: Vec<f64> = results
                    .iter()
                    .filter_map(|r| {
                        r.metrics
                            .iter()
                            .find(|(n, _)| *n == d.name)
                            .map(|(_, v)| *v)
                    })
                    .collect();
                if values.len() != runs {
                    println!("{:<34} missing from {} runs", d.name, runs - values.len());
                    disagreements += 1;
                    continue;
                }
                let spread = if vary_seed {
                    iqr_share(&values)
                } else {
                    half_range_share(&values)
                };
                let held = !(smoke || vary_seed && d.name == "setup_s");
                let verdict = match d.bound {
                    Some(bound) if held && spread > bound => {
                        disagreements += 1;
                        "  OUT OF BOUND"
                    }
                    _ => "",
                };
                let bound = d.bound.map_or(String::new(), |b| format!("{b}"));
                println!(
                    "{:<34} {:>16.6} {:>11.4} {:>7}{verdict}",
                    d.name,
                    median(&values),
                    spread,
                    bound
                );
                if args.switch("--values") {
                    println!("    {values:.4?}");
                }
            }
            if !vary_seed {
                for (name, first) in &results[0].exact {
                    let same = results
                        .iter()
                        .all(|r| r.exact.iter().any(|(n, v)| n == name && v == first));
                    println!(
                        "{name} {first}{}",
                        if same { "" } else { "  DIFFERS BETWEEN RUNS" }
                    );
                    disagreements += usize::from(!same);
                }
            }
        }
    }
    println!("{disagreements} disagreements");
    Ok(disagreements == 0)
}
