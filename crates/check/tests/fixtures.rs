//! Fixture suite for wr-check. The call graph links what a crate can
//! name (and nothing else), R6/R8 fire through it and are silenced by a
//! justified directive, and the binary's exit codes and ratchet hold end
//! to end. The fixtures live in string literals so this file itself stays
//! clean under the workspace scan.

use wr_check::{scan, Rule, Scan, Violation};

/// A package manifest with `[dependencies]` on each of `deps`.
fn manifest(name: &str, deps: &[&str]) -> String {
    let mut out = format!("[package]\nname = \"{name}\"\n\n[dependencies]\n");
    for dep in deps {
        out.push_str(&format!("{dep} = {{ workspace = true }}\n"));
    }
    out
}

fn r6(scan: &Scan) -> Vec<&Violation> {
    scan.violations
        .iter()
        .filter(|v| v.rule == Rule::PanicReachability && v.suppressed.is_none())
        .collect()
}

/// The workspace's crate edges around the three renames the old
/// name+arity graph forced: serve sees obs and ann, gateway and core see
/// serve, textsim is nobody's dependency here.
fn workspace_manifests() -> Vec<(String, String)> {
    vec![
        ("crates/obs/Cargo.toml".into(), manifest("wr-obs", &[])),
        ("crates/ann/Cargo.toml".into(), manifest("wr-ann", &[])),
        ("crates/serve/Cargo.toml".into(), manifest("wr-serve", &["wr-obs", "wr-ann"])),
        ("crates/gateway/Cargo.toml".into(), manifest("wr-gateway", &["wr-serve"])),
        ("crates/textsim/Cargo.toml".into(), manifest("wr-textsim", &[])),
        ("crates/whitening/Cargo.toml".into(), manifest("wr-whiten", &[])),
        ("crates/core/Cargo.toml".into(), manifest("whitenrec", &["wr-serve", "wr-whiten"])),
    ]
}

/// Scan `sources` inside the workspace's crate edges.
fn scan_in_workspace(sources: &[(&str, &str)]) -> Scan {
    let manifests = workspace_manifests();
    let mut files: Vec<(&str, &str)> =
        manifests.iter().map(|(p, t)| (p.as_str(), t.as_str())).collect();
    files.extend_from_slice(sources);
    scan(&files)
}

// ------------------------------------------------------ visibility (R6)

#[test]
fn a_closure_parameter_called_like_a_function_links_nowhere() {
    // The `try_batch` case: a parameter call `run(attempt)` was linked to
    // core's `bench::run(args)` by name and arity, flooding R6/R8.
    let scan = scan_in_workspace(&[
        (
            "crates/serve/src/shard.rs",
            "impl ServeEngine {\n\
                 pub fn serve(&self) { self.retry_batch(|attempt| attempt); }\n\
                 fn retry_batch(&self, run: impl Fn(u32) -> u32) { run(0); }\n\
             }\n",
        ),
        ("crates/core/src/bench.rs", "pub fn run(args: u32) { let v: Option<u32> = None; v.unwrap(); }\n"),
        // A crate serve can name, holding a free `run` too.
        ("crates/obs/src/lib.rs", "pub fn run(args: u32) { let v: Vec<u32> = Vec::new(); v[args as usize]; }\n"),
    ]);
    assert!(r6(&scan).is_empty(), "{:#?}", scan.violations);
}

#[test]
fn a_method_links_no_inherent_impl_of_a_crate_the_caller_cannot_name() {
    // The `encode_requests` case: a one-argument `.encode(x)` on the serve
    // path was linked to textsim's inherent `PlmEncoder::encode`; serve
    // does not depend on textsim.
    let scan = scan_in_workspace(&[
        (
            "crates/serve/src/encode.rs",
            "impl ServeEngine { pub fn serve(&self, x: u32) { self.encoder.encode(x); } }\n\
             impl HistoryEncoder { pub fn encode(&self, x: u32) -> u32 { x } }\n",
        ),
        (
            "crates/textsim/src/encoder.rs",
            "impl PlmEncoder { pub fn encode(&self, x: u32) -> u32 { let v: Option<u32> = None; v.unwrap() } }\n",
        ),
    ]);
    assert!(r6(&scan).is_empty(), "{:#?}", scan.violations);
}

#[test]
fn a_method_still_links_an_inherent_impl_of_a_visible_crate() {
    // The `model_snapshot` case, the limit that remains: a zero-argument
    // `.snapshot()` in serve aliases `Registry::snapshot`, because obs is
    // a dependency of serve and the graph does not know receiver types.
    let scan = scan_in_workspace(&[
        (
            "crates/serve/src/encode.rs",
            "impl ServeEngine { pub fn serve(&self) { self.encoder.snapshot(); } }\n\
             impl HistoryEncoder { pub fn snapshot(&self) -> u32 { 0 } }\n",
        ),
        (
            "crates/obs/src/registry.rs",
            "impl Registry { pub fn snapshot(&self) -> u32 { let v: Option<u32> = None; v.unwrap() } }\n",
        ),
    ]);
    let r6 = r6(&scan);
    assert_eq!(r6.len(), 1, "{:#?}", scan.violations);
    assert!(r6[0].message.contains("ServeEngine::serve → Registry::snapshot"), "{}", r6[0].message);
}

#[test]
fn a_trait_impl_in_a_downstream_crate_stays_linked() {
    // serve declares a trait; gateway (which depends on serve) implements
    // it. Dynamic dispatch reaches the impl although serve cannot name it.
    let scan = scan_in_workspace(&[
        (
            "crates/serve/src/replay.rs",
            "pub trait Replay { fn replay(&self, n: usize) -> usize; }\n\
             impl ServeEngine { pub fn serve(&self, r: &dyn Replay) { r.replay(3); } }\n",
        ),
        (
            "crates/gateway/src/replay.rs",
            "impl Replay for Gateway { fn replay(&self, n: usize) -> usize { self.rows[n] } }\n",
        ),
    ]);
    let r6 = r6(&scan);
    assert_eq!(r6.len(), 1, "{:#?}", scan.violations);
    assert!(r6[0].message.contains("ServeEngine::serve → Gateway::replay"), "{}", r6[0].message);
}

#[test]
fn module_paths_resolve_through_the_manifests_library_names() {
    // `wr_whiten` lives in crates/whitening and `whitenrec` in crates/core:
    // neither is `wr_` + its directory, and both used to stay unresolved.
    let scan = scan_in_workspace(&[
        (
            "crates/core/src/bin/whitenrec.rs",
            "fn main() { whitenrec::export_telemetry(1); wr_whiten::fit(2); }\n",
        ),
        ("crates/core/src/lib.rs", "pub fn export_telemetry(n: u32) {}\n"),
        ("crates/whitening/src/lib.rs", "pub fn fit(n: u32) {}\n"),
    ]);
    assert!(scan.unresolved.is_empty(), "{:#?}", scan.unresolved);
    assert_eq!(scan.stats.edges, 2, "{:?}", scan.stats);
}

// ---------------------------------------------------------- directives

#[test]
fn r6_and_r8_are_silenced_only_by_a_justified_directive() {
    let src = "impl ServeEngine {\n    pub fn serve(&self, n: usize) {\n        \
               // wr-check: allow(R6) — fixture: n is checked by the caller.\n        \
               self.rows[n];\n        \
               for i in 0..n { let s = i.to_string(); } // wr-check: allow(hot-loop-alloc) — fixture: cold loop.\n    \
               }\n}\n";
    let scan = scan(&[("crates/serve/src/lib.rs", src)]);
    assert_eq!(scan.active(), 0, "{:#?}", scan.violations);
    assert_eq!(scan.violations.len(), 2);

    let unjustified = src.replace(" — fixture: n is checked by the caller.", "");
    let scan = wr_check::scan(&[("crates/serve/src/lib.rs", unjustified.as_str())]);
    let active: Vec<Rule> =
        scan.violations.iter().filter(|v| v.suppressed.is_none()).map(|v| v.rule).collect();
    // The malformed directive is flagged AND the finding still counts.
    assert_eq!(active, vec![Rule::Directive, Rule::PanicReachability], "{:#?}", scan.violations);
}

#[test]
fn patterns_inside_strings_and_comments_are_not_code() {
    let src = r##"
impl ServeEngine {
    pub fn serve(&self) -> String {
        // this comment mentions v.unwrap() and rows[i]
        /* and so does this block: panic!("x") */
        let s = "v.unwrap(); rows[i]; panic!()";
        let r = r#"v.expect("x")"#;
        format!("{s}{r}")
    }
}
"##;
    let scan = scan(&[("crates/serve/src/lib.rs", src)]);
    assert!(scan.violations.is_empty(), "{:#?}", scan.violations);
}

// ------------------------------------------------- end-to-end exit codes

/// Run the wr-check binary against a throwaway tree and return
/// (exit-success, stdout).
fn run_binary(root: &std::path::Path, extra: &[&str]) -> (bool, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_wr-check"))
        .arg(root)
        .args(extra)
        .output()
        .expect("spawn wr-check");
    (out.status.success(), String::from_utf8_lossy(&out.stdout).into_owned())
}

/// A serve crate whose `serve` indexes by an unchecked `n`, with `extra`
/// on the line above the index.
fn serve_source(extra: &str) -> String {
    format!("pub struct ServeEngine;\nimpl ServeEngine {{\n    pub fn serve(&self, n: usize) -> u32 {{\n        {extra}\n        self.rows[n]\n    }}\n}}\n")
}

#[test]
fn binary_exits_nonzero_only_when_a_violation_is_injected() {
    let dir = std::env::temp_dir().join(format!("wr-check-fixture-{}", std::process::id()));
    let src_dir = dir.join("crates/serve/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir fixture tree");

    // Clean tree: exit 0.
    std::fs::write(src_dir.join("lib.rs"), "pub fn ok() -> u32 { 1 }\n").expect("write");
    let (ok, stdout) = run_binary(&dir, &[]);
    assert!(ok, "clean tree must pass:\n{stdout}");
    assert!(stdout.contains("0 violation(s)"), "{stdout}");

    // Inject a violation: exit non-zero, diagnostic names file and line.
    std::fs::write(src_dir.join("lib.rs"), serve_source("")).expect("write");
    let (ok, stdout) = run_binary(&dir, &[]);
    assert!(!ok, "injected violation must fail the scan:\n{stdout}");
    assert!(stdout.contains("crates/serve/src/lib.rs:5"), "{stdout}");

    // JSON mode carries the same verdict.
    let (ok, stdout) = run_binary(&dir, &["--json"]);
    assert!(!ok);
    assert!(stdout.contains("\"wr-check/v2\""), "{stdout}");
    assert!(stdout.contains("\"R6\""), "{stdout}");

    // Suppress it with a justified directive: exit 0 again.
    let justified = serve_source("// wr-check: allow(R6) — fixture: injected then justified.");
    std::fs::write(src_dir.join("lib.rs"), justified).expect("write");
    let (ok, stdout) = run_binary(&dir, &[]);
    assert!(ok, "suppressed violation must pass:\n{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn binary_reports_r6_chain_from_serve_root() {
    // Acceptance fixture: a panic two calls deep from ServeEngine::serve
    // must surface with the full call chain in the diagnostic.
    let dir = std::env::temp_dir().join(format!("wr-check-r6-{}", std::process::id()));
    let src_dir = dir.join("crates/serve/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir fixture tree");
    std::fs::write(
        src_dir.join("lib.rs"),
        "pub struct ServeEngine;\n\
         impl ServeEngine {\n\
             pub fn serve(&self) { plan_batches(); }\n\
         }\n\
         fn plan_batches() { score_rows(); }\n\
         fn score_rows() { let v: Option<u32> = None; v.unwrap(); }\n",
    )
    .expect("write");
    let (ok, stdout) = run_binary(&dir, &[]);
    assert!(!ok, "reachable panic must fail the scan:\n{stdout}");
    assert!(stdout.contains("[R6 panic-reachability]"), "{stdout}");
    assert!(
        stdout.contains("ServeEngine::serve → plan_batches → score_rows"),
        "diagnostic must carry the full chain:\n{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ratchet_gates_on_baseline_and_writer_refuses_to_loosen() {
    let dir = std::env::temp_dir().join(format!("wr-check-ratchet-{}", std::process::id()));
    let src_dir = dir.join("crates/serve/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir fixture tree");
    let suppressed = serve_source("// wr-check: allow(R6) — fixture: justified legacy index.");
    std::fs::write(src_dir.join("lib.rs"), &suppressed).expect("write");

    // No baseline yet: --ratchet fails and points at --write-baseline.
    let (ok, _) = run_binary(&dir, &["--ratchet"]);
    assert!(!ok, "ratchet without a baseline must fail");

    // Write the baseline from the clean-but-suppressed tree, then gate.
    let (ok, stdout) = run_binary(&dir, &["--write-baseline"]);
    assert!(ok, "write-baseline must succeed on a clean tree:\n{stdout}");
    let baseline = std::fs::read_to_string(dir.join("check_baseline.json")).expect("baseline");
    assert!(baseline.contains("wr-check-baseline/v1"), "{baseline}");
    let (ok, stdout) = run_binary(&dir, &["--ratchet"]);
    assert!(ok, "ratchet must pass at the recorded budget:\n{stdout}");

    // A clippy expectation is a second suppression: it exceeds the
    // budget, and the writer refuses to loosen the committed counts.
    std::fs::write(
        src_dir.join("more.rs"),
        "#[expect(clippy::disallowed_methods, reason = \"fixture: a second suppression\")]\nfn g() {}\n",
    )
    .expect("write");
    let (ok, _) = run_binary(&dir, &["--ratchet"]);
    assert!(!ok, "suppression growth must fail the ratchet");
    let (ok, _) = run_binary(&dir, &["--write-baseline"]);
    assert!(!ok, "write-baseline must refuse to raise a count");

    // Removing all suppressions shrinks the budget: writer accepts.
    std::fs::remove_file(src_dir.join("more.rs")).expect("rm");
    std::fs::write(src_dir.join("lib.rs"), "pub fn f() -> u32 { 1 }\n").expect("write");
    let (ok, _) = run_binary(&dir, &["--write-baseline"]);
    assert!(ok, "shrinking the budget must be allowed");
    let (ok, _) = run_binary(&dir, &["--ratchet"]);
    assert!(ok, "ratchet must pass at the shrunk budget");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explain_prints_rationale_for_ids_and_slugs() {
    let explain = |rule: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_wr-check"))
            .args(["--explain", rule])
            .output()
            .expect("spawn wr-check")
    };
    let out = explain("R6");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("panic-reachability"), "{text}");
    assert!(text.contains("ServeEngine::serve"), "{text}");

    let out = explain("hot-loop-alloc");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("R8"));

    // The rules clippy took over are gone, not renamed.
    for gone in ["R1", "R5", "lock-order", "R99"] {
        assert!(!explain(gone).status.success(), "{gone} must exit non-zero");
    }
}
