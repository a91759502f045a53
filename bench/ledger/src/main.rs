//! `ledger`: the repo's one benchmark. See README.md.
//!
//! ```text
//! ledger [run] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ledger agree [--runs N] [--seeds] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ledger list
//! ```

mod agree;
mod alloc;
mod cal;
mod e2e;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use e2e::Opts;
use report::{Contract, LedgerError, Outcome};
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const DEFAULT_SEED: u64 = 17;

/// `--name value` flags and bare `--name` switches after the subcommand.
pub struct Args(Vec<String>);

impl Args {
    pub fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, LedgerError> {
        match self.value(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| LedgerError::Usage(format!("{name} {text} is not a number"))),
        }
    }

    pub fn switch(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    /// The workloads `--workload` selects: one by name, or all four.
    pub fn workloads(&self) -> Result<Vec<Workload>, LedgerError> {
        match self.value("--workload") {
            None => Ok(WORKLOADS.to_vec()),
            Some(name) => WORKLOADS
                .iter()
                .find(|w| w.name == name)
                .map(|w| vec![*w])
                .ok_or_else(|| LedgerError::Usage(format!("no workload named {name}"))),
        }
    }

    /// The passes `--trace` selects: untraced, traced, or both in that order.
    pub fn passes(&self) -> Result<Vec<bool>, LedgerError> {
        match self.value("--trace") {
            None => Ok(vec![false, true]),
            Some("0") => Ok(vec![false]),
            Some("1") => Ok(vec![true]),
            Some(other) => Err(LedgerError::Usage(format!("--trace {other} is not 0 or 1"))),
        }
    }
}

/// Where trace files go: under the build directory, which git ignores.
fn trace_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(
            || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"),
            PathBuf::from,
        )
        .join("ledger")
}

/// First line of a tool's output, or "unknown" where the tool is missing.
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn run(args: &Args) -> Result<bool, LedgerError> {
    let contract = Contract::load();
    let smoke = args.switch("--smoke");
    let opts = Opts {
        seed: args.number("--seed", DEFAULT_SEED)?,
        seconds: if smoke {
            0.0
        } else {
            args.number("--seconds", contract.run_seconds)?
        },
        smoke,
    };
    let workloads = args.workloads()?;
    let passes = args.passes()?;
    // Refuse before measuring anything.
    for w in &workloads {
        for &traced in &passes {
            e2e::check_parallelism(w, traced)?;
        }
    }
    println!(
        "ledger seed {} seconds {} smoke {} available_parallelism {} rustc [{}] commit {}",
        opts.seed,
        opts.seconds,
        smoke,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        tool_line("rustc", &["--version"]),
        tool_line("git", &["rev-parse", "HEAD"]),
    );

    let mut outcomes: Vec<(String, Outcome)> = Vec::new();
    for w in &workloads {
        let w = if smoke { w.smoke() } else { *w };
        println!(
            "workload {} threads {} traced_threads {}",
            w.name,
            w.threads(false),
            w.threads(true)
        );
        // Load generation, shared by the passes and timed for the raw block.
        let started = cal::now_ns();
        let inputs = workloads::generate(&w, opts.seed);
        let datagen_s = cal::ms_since(started) / 1e3;
        for &traced in &passes {
            let mut outcome = if traced {
                let (outcome, spans) = layers::run(&w, &inputs, &opts);
                let dir = trace_dir();
                let path = dir.join(format!("{}.trace.json", w.name));
                std::fs::create_dir_all(&dir)
                    .and_then(|()| std::fs::write(&path, trace::to_chrome_json(&spans)))
                    .map_err(|e| LedgerError::Io(format!("{}: {e}", path.display())))?;
                println!("trace {} ({} spans)", path.display(), spans.len());
                outcome
            } else {
                e2e::run(&w, &inputs, &opts)
            };
            outcome.raw.insert(0, ("datagen_s", datagen_s));
            contract.check(traced, &mut outcome);
            report::print_outcome(w.name, traced, &contract, &outcome);
            // One pass of one workload reports bare names, as the driver
            // reads them; more than one prefixes each with its workload.
            let prefix = if workloads.len() * passes.len() == 1 {
                String::new()
            } else {
                format!("{}.", w.name)
            };
            outcomes.push((prefix, outcome));
        }
    }
    let passes = || outcomes.iter().map(|(prefix, o)| (prefix.as_str(), o));
    println!("exact {}", report::exact_json(passes()));
    println!("{}", report::result_json(passes()));
    Ok(outcomes.iter().all(|(_, o)| o.correct()))
}

fn main() -> ExitCode {
    alloc::keep_the_heap();
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match argv.first() {
        Some(first) if !first.starts_with("--") => argv.remove(0),
        _ => "run".to_string(),
    };
    let args = Args(argv);
    let done = match command.as_str() {
        "run" => run(&args),
        "agree" => agree::run(&args),
        "list" => {
            for (name, why) in Contract::load().workloads {
                println!("{name}: {why}");
            }
            Ok(true)
        }
        other => Err(LedgerError::Usage(format!("no command named {other}"))),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("ledger: a correctness gate failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}
