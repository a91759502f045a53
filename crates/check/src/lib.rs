//! `wr-check` — the workspace's std-only static-analysis gate for what
//! the compiler cannot check.
//!
//! The paper's headline claim (whitening is a pre-computed, deterministic
//! transform whose benefit survives training) only reproduces if the Rust
//! kernels are bit-deterministic and panic-free — and only *serves* at the
//! ROADMAP's million-user scale if the hot path is provably panic-free.
//! Clippy checks the per-site policies with full type information (root
//! `Cargo.toml`, `clippy.toml`); this crate checks the whole-program ones,
//! with zero external dependencies (DESIGN.md §5b):
//!
//! * a comment/string/char-literal-aware tokenizer ([`lexer`]) feeds a
//!   two-pass semantic analyzer ([`symbols`] → [`graph`]) that builds the
//!   workspace call graph — calls resolved within what each crate's
//!   manifest lets it name — and runs R6 (panic-reachability from the
//!   hot-path root set, full call chains in diagnostics) and R8
//!   (allocations in hot loops);
//! * [`rules`] holds the rule set and both suppression forms: this
//!   crate's allow directives and clippy's `#[expect(clippy::…)]`
//!   attributes;
//! * findings render as `file:line` diagnostics or `wr-check/v2` JSON
//!   ([`report`]), and a committed baseline (`check_baseline.json`)
//!   ratchets the count of both suppression forms monotonically downward.
//!
//! Run it locally with `cargo run -p wr-check`; `scripts/check.sh` runs
//! `wr-check --ratchet` as a tier-1 gate.

pub mod graph;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod symbols;

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

pub use graph::{GraphStats, UnresolvedCall};
pub use rules::{Expectation, Rule, Violation};

/// Result of scanning a tree with both passes.
pub struct Scan {
    pub files_scanned: usize,
    /// R6, R8 and D0 findings; `suppressed` carries a directive's reason.
    pub violations: Vec<Violation>,
    /// Clippy's suppressions, counted beside the directives.
    pub expectations: Vec<Expectation>,
    pub stats: GraphStats,
    pub unresolved: Vec<UnresolvedCall>,
}

impl Scan {
    /// Count of violations not covered by an allow directive.
    pub fn active(&self) -> usize {
        self.violations.iter().filter(|v| v.suppressed.is_none()).count()
    }
}

/// Recursively collect the tree's `.rs` files and `Cargo.toml` manifests
/// under `root`, skipping build output and VCS metadata. Paths come back
/// sorted for deterministic reports.
fn collect_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") || name == "Cargo.toml" {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Read every source file and manifest under `root` and [`scan`] them.
pub fn scan_workspace(root: &Path) -> io::Result<Scan> {
    let mut files: Vec<(String, String)> = Vec::new();
    for path in collect_files(root)? {
        let Ok(text) = std::fs::read_to_string(&path) else {
            // Non-UTF-8 or unreadable file: nothing the lexer can do.
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push((rel, text));
    }
    let files: Vec<(&str, &str)> = files.iter().map(|(p, t)| (p.as_str(), t.as_str())).collect();
    Ok(scan(&files))
}

/// Scan `(root-relative path, text)` pairs with the full rule set:
/// `Cargo.toml` entries are manifests, the rest Rust sources. Suppression
/// directives govern findings by `path:line`.
pub fn scan(files: &[(&str, &str)]) -> Scan {
    let (manifests, sources): (Vec<(&str, &str)>, Vec<(&str, &str)>) =
        files.iter().partition(|(path, _)| path.ends_with("Cargo.toml"));
    let mut violations = Vec::new();
    let mut expectations = Vec::new();
    let mut directives = BTreeMap::new();
    let mut tables = Vec::new();
    for (rel, src) in &sources {
        let mut toks = lexer::lex(src);
        lexer::mark_test_regions(&mut toks);
        directives.insert(*rel, rules::collect_directives(rel, &toks, &mut violations));
        expectations.extend(rules::collect_expectations(rel, &toks));
        tables.push(symbols::extract(rel, &toks));
    }
    let analysis = graph::analyze(&tables, &graph::Packages::from_manifests(&manifests));
    violations.extend(analysis.violations);
    for v in &mut violations {
        if let Some(ds) = directives.get(v.path.as_str()) {
            rules::apply_suppression(v, ds);
        }
    }
    violations.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule.id()).cmp(&(b.path.as_str(), b.line, b.rule.id()))
    });
    Scan {
        files_scanned: sources.len(),
        violations,
        expectations,
        stats: analysis.stats,
        unresolved: analysis.unresolved,
    }
}

/// Locate the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
