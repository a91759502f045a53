//! Pass 2 of the semantic analyzer: the workspace call graph and the
//! reachability rules built on it.
//!
//! Links every per-file symbol table ([`crate::symbols`]) into one graph:
//!
//! * **Resolution** is by name + arity, within what the caller's crate can
//!   name: its own package and the closure of its `[dependencies]`, read
//!   from the manifests ([`Packages`]). `Type::name(…)` path calls match
//!   the qualified definition; `wr_x::name(…)` / `crate::name(…)` module
//!   paths bind to free functions of the package whose library the prefix
//!   names; plain calls match free functions, preferring same-package
//!   definitions (shadowing), and a plain call of a parameter or local
//!   binding is no call at all. `.name(…)` method calls link to the
//!   inherent methods of that name and arity the caller can name, plus
//!   every trait-impl and trait-default method anywhere — dynamic dispatch
//!   reaches implementations in crates the caller cannot name. Calls with
//!   no candidate land in an explicit `unresolved` bucket that is counted
//!   and reportable — never silently dropped.
//! * **R6 panic-reachability** walks the graph from the declared hot-path
//!   root set (`ServeEngine::serve` / `try_serve`, `IvfIndex::search`,
//!   `batch_top_k_shifted`, and `parallel_*` closure bodies in the serving
//!   crates) and flags every panic site in a reachable non-kernel
//!   function, printing the full call chain from the root.
//! * **R8 hot-loop-alloc** flags allocation calls inside loops of
//!   hot-path-reachable functions.
//!
//! Kernel crates (clippy's no-panic lints own their panic discipline) and
//! the harness/linter crates are traversed for reachability but do not
//! emit R6/R8 findings; see DESIGN.md §5b.

use crate::rules::{Rule, Violation};
use crate::symbols::{FileSymbols, FnDef};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Crates whose roots deny clippy's no-panic lints in non-test code. The
/// semantic rules traverse them but do not re-report panics there.
const KERNEL_CRATES: &[&str] =
    &["tensor", "linalg", "whitening", "autograd", "nn", "eval", "data", "core"];

/// Crates whose `parallel_*` closure bodies are hot-path roots.
const CLOSURE_ROOT_CRATES: &[&str] = &["serve", "ann", "runtime", "obs", "gateway"];

/// Qualified names of the declared hot-path root set.
const HOT_ROOTS: &[&str] = &[
    "ServeEngine::serve",
    "ServeEngine::try_serve",
    "Gateway::serve",
    "Gateway::try_serve",
    "ReplicaSet::dispatch",
    "IvfIndex::search",
    "batch_top_k_shifted",
];

/// Fail-stop sinks the hot-path BFS does not traverse *through*: sealing
/// a flight dump happens on the way down (degradation, permanent panic,
/// overload), at most a handful of times per process, and is I/O-bound —
/// its callees are not request-path code. The sink itself stays hot (its
/// own body is still checked); only reachability through it is cut. A
/// callee that is also reachable on a genuine hot path keeps its
/// findings via that other chain.
const COLD_SINKS: &[&str] = &["FlightRecorder::trigger"];

/// A call the resolver could not bind to any workspace definition.
#[derive(Debug, Clone)]
pub struct UnresolvedCall {
    pub caller: String,
    pub callee: String,
    pub arity: usize,
    pub path: String,
    pub line: u32,
}

/// Aggregate numbers for the `wr-check/v2` report.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphStats {
    /// Non-test functions (incl. parallel-closure pseudo-functions).
    pub functions: usize,
    /// Resolved call edges.
    pub edges: usize,
    /// Call sites with no workspace candidate.
    pub unresolved: usize,
    /// Distinct unresolved callee names.
    pub unresolved_names: usize,
    /// Functions reachable from the hot-path root set.
    pub hot_functions: usize,
}

/// Result of the semantic pass.
pub struct Analysis {
    pub violations: Vec<Violation>,
    pub stats: GraphStats,
    pub unresolved: Vec<UnresolvedCall>,
}

/// A package read from its `Cargo.toml`.
struct Package {
    name: String,
    /// Directory relative to the scanned root; empty for the root package.
    dir: String,
    /// Package names under `[dependencies]`.
    deps: Vec<String>,
}

/// The packages of the scanned tree: which files each owns and which
/// packages its code can name.
pub struct Packages {
    list: Vec<Package>,
    /// Per package: itself and the closure of its `[dependencies]`.
    visible: Vec<BTreeSet<usize>>,
}

impl Packages {
    /// Read every `(rel_path, text)` manifest. One without `[package]` (a
    /// virtual workspace root) adds nothing.
    pub fn from_manifests(manifests: &[(&str, &str)]) -> Packages {
        let list: Vec<Package> =
            manifests.iter().filter_map(|(path, text)| parse_manifest(path, text)).collect();
        let visible = (0..list.len())
            .map(|i| {
                let mut seen = BTreeSet::from([i]);
                let mut stack = vec![i];
                while let Some(p) = stack.pop() {
                    for dep in &list[p].deps {
                        if let Some(d) = list.iter().position(|q| q.name == *dep) {
                            if seen.insert(d) {
                                stack.push(d);
                            }
                        }
                    }
                }
                seen
            })
            .collect();
        Packages { list, visible }
    }

    /// The package owning `path`: the deepest manifest directory above it.
    fn of_path(&self, path: &str) -> Option<usize> {
        let owns = |dir: &str| {
            dir.is_empty() || path.strip_prefix(dir).is_some_and(|r| r.starts_with('/'))
        };
        (0..self.list.len())
            .filter(|&i| owns(&self.list[i].dir))
            .max_by_key(|&i| self.list[i].dir.len())
    }

    /// The package whose library a path prefix names: `wr_whiten` lives in
    /// crates/whitening, `whitenrec` in crates/core.
    fn by_lib_name(&self, prefix: &str) -> Option<usize> {
        self.list.iter().position(|p| p.name.replace('-', "_") == prefix)
    }
}

/// `[package] name` and the `[dependencies]` keys of one manifest.
fn parse_manifest(path: &str, text: &str) -> Option<Package> {
    let dir = path.strip_suffix("Cargo.toml")?.trim_end_matches('/').to_string();
    let (mut section, mut name, mut deps) = ("", None, Vec::new());
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
            continue;
        }
        let Some((key, value)) = line.split_once('=') else { continue };
        let key = key.trim();
        match section {
            "[package]" if key == "name" => name = Some(value.trim().trim_matches('"').to_string()),
            "[dependencies]" if !key.starts_with('#') => deps.push(key.to_string()),
            _ => {}
        }
    }
    Some(Package { name: name?, dir, deps })
}

struct Graph<'a> {
    /// (file index, fn index) per node, production functions only.
    nodes: Vec<(usize, usize)>,
    files: &'a [FileSymbols],
    /// Owning package per file; `None` when no manifest covers it.
    file_pkg: Vec<Option<usize>>,
    packages: &'a Packages,
}

impl<'a> Graph<'a> {
    fn def(&self, n: usize) -> &'a FnDef {
        let (f, i) = self.nodes[n];
        &self.files[f].fns[i]
    }
    fn krate(&self, n: usize) -> &'a str {
        &self.files[self.nodes[n].0].krate
    }
    fn path(&self, n: usize) -> &'a str {
        &self.files[self.nodes[n].0].path
    }
    fn pkg(&self, n: usize) -> Option<usize> {
        self.file_pkg[self.nodes[n].0]
    }
    /// Whether code in `from` can name items defined in `to`. A file no
    /// manifest covers sees, and is seen by, everything.
    fn sees(&self, from: usize, to: usize) -> bool {
        match (self.pkg(from), self.pkg(to)) {
            (Some(a), Some(b)) => self.packages.visible[a].contains(&b),
            _ => true,
        }
    }
}

/// Whether R6/R8 findings are reported for a crate. Kernel crates answer
/// to clippy's no-panic lints; the harness and the linter itself are not
/// serving code.
fn reports_semantic(krate: &str) -> bool {
    !KERNEL_CRATES.contains(&krate) && !matches!(krate, "bench" | "check" | "workspace")
}

/// Run the semantic rules over the workspace symbol tables.
pub fn analyze(files: &[FileSymbols], packages: &Packages) -> Analysis {
    // ---- collect production nodes ----
    let mut nodes: Vec<(usize, usize)> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        for (di, def) in file.fns.iter().enumerate() {
            if !def.is_test {
                nodes.push((fi, di));
            }
        }
    }
    let file_pkg = files.iter().map(|f| packages.of_path(&f.path)).collect();
    let g = Graph { nodes, files, file_pkg, packages };
    let n = g.nodes.len();

    // ---- resolution indexes ----
    let mut by_qual: BTreeMap<(&str, usize), Vec<usize>> = BTreeMap::new();
    let mut inherent: BTreeMap<(&str, usize), Vec<usize>> = BTreeMap::new();
    let mut dispatch: BTreeMap<(&str, usize), Vec<usize>> = BTreeMap::new();
    let mut free: BTreeMap<(&str, usize), Vec<usize>> = BTreeMap::new();
    let mut by_parent_qual: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for i in 0..n {
        let d = g.def(i);
        by_qual.entry((d.qual.as_str(), d.arity)).or_default().push(i);
        if d.has_self {
            let index = if d.in_trait { &mut dispatch } else { &mut inherent };
            index.entry((d.name.as_str(), d.arity)).or_default().push(i);
        } else if d.qual == d.name {
            free.entry((d.name.as_str(), d.arity)).or_default().push(i);
        }
        if d.is_closure_root {
            if let Some(pos) = d.qual.rfind("::{closure@") {
                by_parent_qual.entry(&d.qual[..pos]).or_default().push(i);
            }
        }
    }
    let candidates = |index: &BTreeMap<(&str, usize), Vec<usize>>, name: &str, arity: usize| {
        index.get(&(name, arity)).cloned().unwrap_or_default()
    };

    // ---- resolve calls into edges ----
    let mut unresolved: Vec<UnresolvedCall> = Vec::new();
    let mut edge_count = 0usize;
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        let d = g.def(i);
        for call in &d.calls {
            let (name, arity) = (call.name.as_str(), call.arity);
            // `.name(…)` / `Self::name(…)`: inherent methods the caller can
            // name, trait methods wherever they are implemented.
            let method = || {
                let mut t = candidates(&inherent, name, arity);
                t.retain(|&t| g.sees(i, t));
                t.extend(candidates(&dispatch, name, arity));
                t
            };
            let mut targets: Vec<usize> = match call.recv.as_deref() {
                Some("Self") => method(),
                None if call.is_method => method(),
                // `Type::name(…)`, else a module path naming a package.
                Some(recv) => {
                    let mut t = candidates(&by_qual, &format!("{recv}::{name}"), arity);
                    t.retain(|&t| g.sees(i, t));
                    if t.is_empty() {
                        let package = match recv {
                            "crate" | "self" | "super" => g.pkg(i),
                            r => packages.by_lib_name(r),
                        };
                        t = candidates(&free, name, arity);
                        t.retain(|&t| package.is_some() && g.pkg(t) == package);
                    }
                    t
                }
                // Plain call: same-package definitions shadow the rest.
                None => {
                    let mut t = candidates(&free, name, arity);
                    t.retain(|&t| g.sees(i, t));
                    if t.iter().any(|&t| g.pkg(t) == g.pkg(i)) {
                        t.retain(|&t| g.pkg(t) == g.pkg(i));
                    }
                    t
                }
            };
            targets.sort_unstable();
            targets.dedup();
            if targets.is_empty() {
                unresolved.push(UnresolvedCall {
                    caller: d.qual.clone(),
                    callee: call.name.clone(),
                    arity: call.arity,
                    path: g.path(i).to_string(),
                    line: call.line,
                });
            } else {
                edge_count += targets.len();
                edges[i].extend(targets);
            }
        }
        // Parallel-closure bodies are invoked by their enclosing function.
        if let Some(v) = by_parent_qual.get(d.qual.as_str()) {
            for &t in v {
                if g.nodes[t].0 == g.nodes[i].0 && t != i {
                    edges[i].push(t);
                    edge_count += 1;
                }
            }
        }
    }
    for e in edges.iter_mut() {
        e.sort_unstable();
        e.dedup();
    }

    // ---- hot-path reachability (BFS with parent pointers) ----
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut hot: Vec<bool> = vec![false; n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for i in 0..n {
        let d = g.def(i);
        let is_root = HOT_ROOTS.contains(&d.qual.as_str())
            || (d.is_closure_root && CLOSURE_ROOT_CRATES.contains(&g.krate(i)));
        if is_root {
            hot[i] = true;
            queue.push_back(i);
        }
    }
    while let Some(u) = queue.pop_front() {
        if COLD_SINKS.contains(&g.def(u).qual.as_str()) {
            continue;
        }
        for &v in &edges[u] {
            if !hot[v] {
                hot[v] = true;
                parent[v] = Some(u);
                queue.push_back(v);
            }
        }
    }
    let chain = |mut i: usize| -> String {
        let mut parts = vec![g.def(i).qual.clone()];
        while let Some(p) = parent[i] {
            parts.push(g.def(p).qual.clone());
            i = p;
        }
        parts.reverse();
        parts.join(" → ")
    };

    let mut violations: Vec<Violation> = Vec::new();

    // ---- R6 / R8: panic sites and loop allocations, hot non-kernel fns ----
    for i in (0..n).filter(|&i| hot[i] && reports_semantic(g.krate(i))) {
        let d = g.def(i);
        let finding = |rule, line, message| Violation {
            rule,
            path: g.path(i).to_string(),
            line,
            message,
            suppressed: None,
        };
        for p in &d.panics {
            violations.push(finding(
                Rule::PanicReachability,
                p.line,
                format!(
                    "{} is reachable from the hot path [{}] — use a checked form or justify",
                    p.what,
                    chain(i)
                ),
            ));
        }
        for a in &d.allocs {
            violations.push(finding(
                Rule::HotLoopAlloc,
                a.line,
                format!(
                    "{} allocates inside a loop on the hot path [{}] — hoist it or justify",
                    a.what,
                    chain(i)
                ),
            ));
        }
    }

    let hot_count = hot.iter().filter(|&&h| h).count();
    let unresolved_names: BTreeSet<&str> =
        unresolved.iter().map(|u| u.callee.as_str()).collect();
    let stats = GraphStats {
        functions: n,
        edges: edge_count,
        unresolved: unresolved.len(),
        unresolved_names: unresolved_names.len(),
        hot_functions: hot_count,
    };
    Analysis { violations, stats, unresolved }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scan, Scan};

    fn r6(scan: &Scan) -> Vec<&Violation> {
        scan.violations.iter().filter(|v| v.rule == Rule::PanicReachability).collect()
    }

    #[test]
    fn manifests_give_names_directories_and_dependency_closures() {
        let packages = Packages::from_manifests(&[
            ("Cargo.toml", "[package]\nname = \"root\"\n[dependencies]\nwr-serve = { workspace = true }\n\
                            [workspace.dependencies]\nwr-textsim = { path = \"crates/textsim\" }"),
            ("crates/serve/Cargo.toml", "[package]\nname = \"wr-serve\"\n\n[dependencies]\n# a comment = 1\nwr-obs = { workspace = true }\n\n[dev-dependencies]\nwr-textsim = { workspace = true }"),
            ("crates/obs/Cargo.toml", "[package]\nname = \"wr-obs\"\n"),
            ("crates/textsim/Cargo.toml", "[package]\nname = \"wr-textsim\""),
            ("bench/Cargo.toml", "[workspace]\nmembers = []"),
        ]);
        let names: Vec<&str> = packages.list.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["root", "wr-serve", "wr-obs", "wr-textsim"]);
        assert_eq!(packages.of_path("crates/serve/src/engine.rs"), Some(1));
        assert_eq!(packages.of_path("crates/serve_more/src/a.rs"), Some(0));
        assert_eq!(packages.of_path("src/lib.rs"), Some(0));
        assert_eq!(packages.by_lib_name("wr_obs"), Some(2));
        // `[dependencies]` only, transitively; dev-dependencies name nothing.
        assert_eq!(packages.visible[0], BTreeSet::from([0, 1, 2]));
        assert_eq!(packages.visible[1], BTreeSet::from([1, 2]));
    }

    #[test]
    fn r6_reports_full_chain_two_calls_deep() {
        let scan = scan(&[
            (
                "crates/serve/src/engine.rs",
                "impl ServeEngine { pub fn serve(&self, n: usize) { plan_batches(n); } }\n\
                 fn plan_batches(n: usize) { score_rows(n); }",
            ),
            ("crates/serve/src/score.rs", "fn score_rows(n: usize) { let x: Option<u32> = None; x.unwrap(); }"),
        ]);
        let r6 = r6(&scan);
        assert_eq!(r6.len(), 1, "{:#?}", scan.violations);
        assert_eq!(r6[0].path, "crates/serve/src/score.rs");
        assert!(r6[0].message.contains("ServeEngine::serve → plan_batches → score_rows"), "{}", r6[0].message);
    }

    #[test]
    fn unreachable_panic_is_not_flagged() {
        let scan = scan(&[(
            "crates/serve/src/a.rs",
            "fn cold() { x.unwrap(); }\n\
             impl ServeEngine { pub fn serve(&self) { warm(); } }\n\
             fn warm() {}",
        )]);
        assert!(r6(&scan).is_empty(), "{:#?}", scan.violations);
    }

    #[test]
    fn kernel_crate_panics_are_not_reported_but_traversed() {
        let scan = scan(&[
            ("crates/serve/Cargo.toml", "[package]\nname = \"wr-serve\"\n[dependencies]\nwr-eval = { workspace = true }"),
            ("crates/eval/Cargo.toml", "[package]\nname = \"wr-eval\""),
            ("crates/serve/src/a.rs", "impl ServeEngine { pub fn serve(&self) { wr_eval::rank(3); } }"),
            ("crates/eval/src/b.rs", "pub fn rank(k: usize) { inner(k); }\npub fn inner(k: usize) { x.unwrap(); }"),
        ]);
        assert!(r6(&scan).is_empty(), "{:#?}", scan.violations);
        // …but the functions are hot (traversal happened).
        assert_eq!(scan.stats.hot_functions, 3, "{:?}", scan.stats);
    }

    #[test]
    fn unresolved_extern_call_lands_in_bucket() {
        let scan = scan(&[("crates/serve/src/a.rs", "fn f() { external_dep::frobnicate(1, 2); }")]);
        assert_eq!(scan.stats.unresolved, 1, "{:?}", scan.unresolved);
        assert_eq!(scan.unresolved[0].callee, "frobnicate");
        assert_eq!(scan.unresolved[0].arity, 2);
    }

    #[test]
    fn trait_method_dispatch_links_all_impls() {
        let scan = scan(&[
            (
                "crates/serve/src/a.rs",
                "impl ServeEngine { pub fn serve(&self, m: &dyn Model) { m.represent(3); } }",
            ),
            (
                "crates/models/src/b.rs",
                "impl Model for SasRec { fn represent(&self, n: usize) { x.unwrap(); } }\n\
                 impl Model for Gru { fn represent(&self, n: usize) { } }",
            ),
        ]);
        let r6 = r6(&scan);
        assert_eq!(r6.len(), 1, "{:#?}", scan.violations);
        assert!(r6[0].message.contains("SasRec::represent"), "{}", r6[0].message);
    }

    #[test]
    fn shadowed_free_fn_prefers_same_package() {
        let scan = scan(&[
            ("crates/serve/Cargo.toml", "[package]\nname = \"wr-serve\"\n[dependencies]\nwr-ann = { workspace = true }"),
            ("crates/ann/Cargo.toml", "[package]\nname = \"wr-ann\""),
            (
                "crates/serve/src/a.rs",
                "impl ServeEngine { pub fn serve(&self) { helper(1); } }\n\
                 fn helper(n: usize) {}",
            ),
            ("crates/ann/src/b.rs", "pub fn helper(n: usize) { x.unwrap(); }"),
        ]);
        // The ann::helper unwrap must NOT be flagged — serve's own helper shadows it.
        assert!(r6(&scan).is_empty(), "{:#?}", scan.violations);
    }

    #[test]
    fn cold_sinks_cut_reachability_but_stay_checked_themselves() {
        let scan = scan(&[
            ("crates/serve/src/engine.rs", "impl ServeEngine { pub fn serve(&self) { self.flight.trigger(1); } }"),
            (
                "crates/obs/src/flight.rs",
                "impl FlightRecorder { pub fn trigger(&self, r: u32) { seal(r); } }\n\
                 pub fn seal(r: u32) { let x: Option<u32> = None; x.unwrap(); }",
            ),
        ]);
        // The unwrap in the dump-sealing callee is NOT hot: the BFS cuts
        // at the fail-stop sink instead of dragging cold sealing code
        // into R6.
        assert!(r6(&scan).is_empty(), "{:#?}", scan.violations);
    }

    #[test]
    fn r8_flags_alloc_in_hot_loop() {
        let scan = scan(&[(
            "crates/serve/src/a.rs",
            "impl ServeEngine { pub fn serve(&self, n: usize) {\n\
                 for i in 0..n { let label = format!(\"batch{i}\"); emit(label); }\n\
             } }",
        )]);
        assert!(
            scan.violations.iter().any(|v| v.rule == Rule::HotLoopAlloc && v.message.contains("format!")),
            "{:#?}",
            scan.violations
        );
    }
}
