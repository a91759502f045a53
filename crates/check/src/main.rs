//! `wr-check` CLI: scan the workspace, print diagnostics, exit non-zero on
//! any unsuppressed violation.
//!
//! ```text
//! cargo run -p wr-check                    # human diagnostics for the workspace
//! cargo run -p wr-check -- --json          # machine-readable report (wr-check/v2)
//! cargo run -p wr-check -- --verbose       # also list suppressed findings
//! cargo run -p wr-check -- --ratchet       # gate against check_baseline.json
//! cargo run -p wr-check -- --write-baseline  # regenerate the baseline (shrink-only)
//! cargo run -p wr-check -- --explain R6    # print a rule's rationale and syntax
//! cargo run -p wr-check -- PATH            # scan a different tree
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use wr_check::report::{ratchet_failures, Baseline};

const BASELINE_FILE: &str = "check_baseline.json";

fn main() -> ExitCode {
    let mut json = false;
    let mut verbose = false;
    let mut ratchet = false;
    let mut write_baseline = false;
    let mut explain: Option<String> = None;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--verbose" | "-v" => verbose = true,
            "--ratchet" => ratchet = true,
            "--write-baseline" => write_baseline = true,
            "--explain" => match args.next() {
                Some(name) => explain = Some(name),
                None => {
                    eprintln!("wr-check: --explain needs a rule (R6, R8 or a slug like panic-reachability)");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: wr-check [--json] [--verbose] [--ratchet] [--write-baseline] [--explain RULE] [PATH]"
                );
                return ExitCode::SUCCESS;
            }
            other => root = Some(PathBuf::from(other)),
        }
    }

    if let Some(name) = explain {
        return match wr_check::Rule::from_name(&name) {
            Some(rule) => {
                println!("{} ({})\n\n{}", rule.id(), rule.slug(), rule.explain());
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("wr-check: unknown rule {name:?} (expected R6, R8 or a slug like hot-loop-alloc)");
                ExitCode::FAILURE
            }
        };
    }

    let root = match root {
        Some(r) => r,
        None => {
            let start = std::env::var_os("CARGO_MANIFEST_DIR")
                .map(PathBuf::from)
                .or_else(|| std::env::current_dir().ok())
                .unwrap_or_else(|| PathBuf::from("."));
            match wr_check::find_workspace_root(&start) {
                Some(r) => r,
                None => {
                    eprintln!("wr-check: no workspace root found above {}", start.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    let scan = match wr_check::scan_workspace(&root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("wr-check: scan failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let baseline_path = root.join(BASELINE_FILE);

    if write_baseline {
        // Regeneration is shrink-only: refuse to raise any committed count,
        // so the budget cannot be quietly re-inflated.
        let current = Baseline::from_scan(&scan);
        if scan.active() > 0 {
            eprintln!(
                "wr-check: refusing to write baseline with {} unsuppressed violation(s) — fix or justify them first",
                scan.active()
            );
            return ExitCode::FAILURE;
        }
        if let Ok(text) = std::fs::read_to_string(&baseline_path) {
            match Baseline::parse(&text) {
                Ok(old) => {
                    let raised = old.exceeded_by(&current);
                    if !raised.is_empty() {
                        eprintln!("wr-check: refusing to write a looser baseline:");
                        for r in &raised {
                            eprintln!("  {r}");
                        }
                        eprintln!("  (the suppression budget only ratchets down; remove suppressions instead)");
                        return ExitCode::FAILURE;
                    }
                }
                Err(e) => eprintln!("wr-check: note: existing baseline unreadable ({e}); rewriting"),
            }
        }
        if let Err(e) = std::fs::write(&baseline_path, current.to_json() + "\n") {
            eprintln!("wr-check: cannot write {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "wr-check: wrote {} ({} suppression(s))",
            baseline_path.display(),
            current.total_suppressed
        );
        return ExitCode::SUCCESS;
    }

    if json {
        println!("{}", wr_check::report::json_report(&scan));
    } else {
        print!("{}", wr_check::report::human_report(&scan, verbose));
    }

    if ratchet {
        let baseline = match std::fs::read_to_string(&baseline_path) {
            Ok(text) => match Baseline::parse(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("wr-check: {}: {e}", baseline_path.display());
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!(
                    "wr-check: cannot read {} ({e}) — run `wr-check --write-baseline` from a clean tree",
                    baseline_path.display()
                );
                return ExitCode::FAILURE;
            }
        };
        let failures = ratchet_failures(&scan, &baseline);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("wr-check: ratchet: {f}");
            }
            return ExitCode::FAILURE;
        }
        println!("wr-check: ratchet ok (suppressions within the committed baseline)");
        return ExitCode::SUCCESS;
    }

    if scan.active() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
