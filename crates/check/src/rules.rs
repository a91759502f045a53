//! The `wr-check` rule set and the two suppression forms it counts.
//!
//! Two semantic rules run on the workspace call graph built by
//! [`crate::symbols`] / [`crate::graph`]:
//!
//! * **R6 `panic-reachability`** — panic sites (unwrap/expect/panic!-family,
//!   non-literal indexing) in functions transitively reachable from the
//!   hot-path root set, full call chain in the diagnostic.
//! * **R8 `hot-loop-alloc`** — allocation calls inside loops of
//!   hot-path-reachable functions.
//!
//! Everything a type checker can see — no-panic kernels, SAFETY comments,
//! pool-only threads, wall-clock reads and hash collections — is clippy's
//! (root `Cargo.toml` and `clippy.toml`, DESIGN.md §5b).
//!
//! Suppression is explicit and justified, never silent:
//!
//! ```text
//! // wr-check: allow(R6) — index bounded by the loop above
//! ```
//!
//! The directive goes on the offending line or the line directly above it,
//! names one or more rules (`R6`/`panic-reachability`, …), and must carry a
//! reason; a directive without a justification is itself a violation (D0)
//! that cannot be suppressed. Clippy's suppressions are
//! `#[expect(clippy::…, reason = "…")]` attributes ([`Expectation`]); the
//! ratchet counts both forms against one budget.

use crate::lexer::{Kind, Token};

/// Rule identifiers. `Directive` marks malformed suppression directives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    PanicReachability,
    HotLoopAlloc,
    Directive,
}

impl Rule {
    pub fn id(self) -> &'static str {
        match self {
            Rule::PanicReachability => "R6",
            Rule::HotLoopAlloc => "R8",
            Rule::Directive => "D0",
        }
    }

    pub fn slug(self) -> &'static str {
        match self {
            Rule::PanicReachability => "panic-reachability",
            Rule::HotLoopAlloc => "hot-loop-alloc",
            Rule::Directive => "directive",
        }
    }

    /// Parse a rule name from a directive (`R6` or its slug; case-insensitive).
    pub fn from_name(name: &str) -> Option<Rule> {
        match name.trim().to_ascii_lowercase().as_str() {
            "r6" | "panic-reachability" => Some(Rule::PanicReachability),
            "r8" | "hot-loop-alloc" => Some(Rule::HotLoopAlloc),
            _ => None,
        }
    }

    /// The `--explain` text: rationale, scope, and directive syntax.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::PanicReachability => {
                "R6 panic-reachability — unwrap/expect/panic!-family and non-literal\n\
                 indexing in any function transitively reachable from the hot-path\n\
                 root set, with the full call chain in the diagnostic.\n\n\
                 Rationale: the serving SLO says no request may kill the process;\n\
                 a panic three calls below ServeEngine::serve is invisible to a\n\
                 per-crate lint but just as fatal. The workspace call graph\n\
                 (name+arity resolution within each caller's dependency closure,\n\
                 trait dispatch linked to all impls, unresolved calls kept in an\n\
                 explicit bucket) proves reachability.\n\n\
                 Hot-path roots: ServeEngine::serve, ServeEngine::try_serve,\n\
                 Gateway::serve, Gateway::try_serve, ReplicaSet::dispatch,\n\
                 IvfIndex::search, batch_top_k_shifted, and parallel_* closure bodies in\n\
                 crates/{serve,ann,runtime,obs,gateway}.\n\n\
                 Scope: hot-reachable functions outside the kernel crates (clippy's\n\
                 no-panic lints own kernel panic discipline), excluding crates/bench\n\
                 and wr-check.\n\
                 Exemptions: asserts (sanctioned precondition contract), literal\n\
                 indices, indices naming an enclosing for-range loop variable or a\n\
                 parallel-closure parameter.\n\n\
                 Suppress: // wr-check: allow(R6) — <why the panic is unreachable>\n\
                 (zero suppressions are allowed in crates/serve and crates/ann)"
            }
            Rule::HotLoopAlloc => {
                "R8 hot-loop-alloc — allocation calls (Vec/Box/String constructors,\n\
                 vec!/format!, .to_vec()/.to_string()/.to_owned()) inside loops of\n\
                 hot-path-reachable functions.\n\n\
                 Rationale: serving throughput is memory-bound; a per-iteration\n\
                 allocation in a hot loop is a silent 2–10× tax the profiler only\n\
                 shows after deploy. Hoist the buffer or justify why the loop is\n\
                 cold in practice.\n\n\
                 Scope: same reachability and crate set as R6.\n\n\
                 Suppress: // wr-check: allow(R8) — <why the allocation must stay>"
            }
            Rule::Directive => {
                "D0 directive — a malformed `wr-check:` suppression directive.\n\n\
                 Rationale: suppression is explicit and justified, never silent; a\n\
                 directive that names no known rule or carries no reason would\n\
                 otherwise rot into an accidental blanket allow.\n\n\
                 Syntax: // wr-check: allow(R6,R8) — <justification, ≥ 5 chars>\n\
                 placed on the offending line or the line directly above.\n\
                 D0 findings cannot be suppressed."
            }
        }
    }
}

/// One finding. `suppressed` carries the directive's justification when an
/// allow directive covers the line.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: Rule,
    pub path: String,
    pub line: u32,
    pub message: String,
    pub suppressed: Option<String>,
}

/// A parsed allow directive.
#[derive(Debug, Clone)]
pub struct Directive {
    pub rules: Vec<Rule>,
    pub reason: String,
    pub target_line: u32,
}

/// One clippy lint named by an `#[expect(clippy::…, reason = "…")]`
/// attribute. Clippy proves the suppression still fires
/// (`unfulfilled_lint_expectations`); `wr-check` counts it against the
/// ratchet's budget.
#[derive(Debug, Clone)]
pub struct Expectation {
    /// `clippy::<lint>`.
    pub lint: String,
    pub path: String,
    pub line: u32,
    pub reason: String,
}

/// Mark `v` suppressed when a directive of its file covers its line and
/// rule. No directive can name `D0`, so malformed directives stay active.
pub fn apply_suppression(v: &mut Violation, directives: &[Directive]) {
    if let Some(d) = directives
        .iter()
        .find(|d| d.target_line == v.line && d.rules.contains(&v.rule))
    {
        v.suppressed = Some(d.reason.clone());
    }
}

/// Extract allow directives from comments; malformed directives are pushed
/// into `out` as unsuppressible `D0` violations.
pub fn collect_directives(
    rel_path: &str,
    toks: &[Token],
    out: &mut Vec<Violation>,
) -> Vec<Directive> {
    let mut directives = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_comment() || !t.text.contains("wr-check:") {
            continue;
        }
        match parse_directive(&t.text) {
            Ok((rules, reason)) => {
                directives.push(Directive {
                    rules,
                    reason,
                    target_line: directive_target(toks, i),
                });
            }
            Err(msg) => out.push(Violation {
                rule: Rule::Directive,
                path: rel_path.to_string(),
                line: t.line,
                message: msg,
                suppressed: None,
            }),
        }
    }
    directives
}

/// Every clippy lint named by an `#[expect(…)]` / `#![expect(…)]`
/// attribute in the file, one entry per lint.
pub fn collect_expectations(rel_path: &str, toks: &[Token]) -> Vec<Expectation> {
    let code: Vec<&Token> = toks.iter().filter(|t| !t.is_comment()).collect();
    let text = |k: usize| code.get(k).map_or("", |t| t.text.as_str());
    let mut out = Vec::new();
    for k in 0..code.len() {
        let open = if text(k + 1) == "!" { k + 2 } else { k + 1 };
        let attribute = [text(k), text(open), text(open + 1), text(open + 2)];
        if attribute != ["#", "[", "expect", "("] {
            continue;
        }
        let (mut lints, mut reason, mut depth) = (Vec::new(), String::new(), 0usize);
        for j in open + 2..code.len() {
            match text(j) {
                "(" => depth += 1,
                ")" if depth == 1 => break,
                ")" => depth -= 1,
                "clippy" if text(j + 1) == "::" => lints.push(format!("clippy::{}", text(j + 2))),
                "reason" if text(j + 1) == "=" => {
                    if code.get(j + 2).is_some_and(|t| t.kind == Kind::Str) {
                        reason = text(j + 2).trim_matches('"').to_string();
                    }
                }
                _ => {}
            }
        }
        out.extend(lints.into_iter().map(|lint| Expectation {
            lint,
            path: rel_path.to_string(),
            line: code[k].line,
            reason: reason.clone(),
        }));
    }
    out
}

/// The line a directive governs: its own line when the comment trails code,
/// otherwise the next line holding a non-comment token.
fn directive_target(toks: &[Token], comment_idx: usize) -> u32 {
    let line = toks[comment_idx].line;
    if toks
        .iter()
        .any(|t| !t.is_comment() && t.line <= line && t.end_line >= line)
    {
        return line;
    }
    toks.iter()
        .filter(|t| !t.is_comment() && t.line > line)
        .map(|t| t.line)
        .min()
        .unwrap_or(line)
}

/// Parse the allow-directive body (rule list and justification) out of a
/// comment.
fn parse_directive(comment: &str) -> Result<(Vec<Rule>, String), String> {
    let after = comment
        .split("wr-check:")
        .nth(1)
        .ok_or_else(|| "internal: directive marker vanished".to_string())?
        .trim_start();
    let body = after.strip_prefix("allow(").ok_or_else(|| {
        "malformed directive: expected `wr-check: allow(<rule>) — <reason>`".to_string()
    })?;
    let close = body
        .find(')')
        .ok_or_else(|| "malformed directive: missing `)`".to_string())?;
    let mut rules = Vec::new();
    for name in body[..close].split(',') {
        match Rule::from_name(name) {
            Some(r) => rules.push(r),
            None => {
                return Err(format!(
                    "malformed directive: unknown rule {:?} (use R6, R8 or their slugs)",
                    name.trim()
                ))
            }
        }
    }
    if rules.is_empty() {
        return Err("malformed directive: empty rule list".to_string());
    }
    let reason: String = body[close + 1..]
        .trim_start_matches(|c: char| c.is_whitespace() || matches!(c, '—' | '–' | '-' | ':'))
        .trim()
        .to_string();
    if reason.len() < 5 {
        return Err(
            "directive needs a justification: `wr-check: allow(<rule>) — <reason>`".to_string()
        );
    }
    Ok((rules, reason))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn directives(src: &str) -> (Vec<Directive>, Vec<Violation>) {
        let mut bad = Vec::new();
        let ds = collect_directives("crates/serve/src/a.rs", &lex(src), &mut bad);
        (ds, bad)
    }

    fn finding(line: u32) -> Violation {
        Violation {
            rule: Rule::PanicReachability,
            path: "crates/serve/src/a.rs".to_string(),
            line,
            message: "test".to_string(),
            suppressed: None,
        }
    }

    #[test]
    fn directive_requires_a_known_rule_and_a_reason() {
        for src in [
            "// wr-check: allow(R6)\nfn f() {}",
            "// wr-check: allow(R1) — the line rules went to clippy\nfn f() {}",
            "// wr-check: deny(R6) — wrong verb\nfn f() {}",
        ] {
            let (ds, bad) = directives(src);
            assert!(ds.is_empty(), "{src}");
            assert_eq!(bad.len(), 1, "{src}");
            assert_eq!(bad[0].rule, Rule::Directive);
        }
    }

    #[test]
    fn directive_above_and_trailing_both_work() {
        let (ds, _) = directives("// wr-check: allow(R6) — bounded by construction\nfn f() { x[i] }");
        assert_eq!(ds[0].target_line, 2);
        let (ds, _) = directives("fn f() { x[i] } // wr-check: allow(R6) — bounded by construction");
        assert_eq!(ds[0].target_line, 1);
    }

    #[test]
    fn directive_covers_only_the_named_rule() {
        let (ds, _) = directives("// wr-check: allow(hot-loop-alloc) — not the right rule\nfn f() {}");
        let mut v = finding(2);
        apply_suppression(&mut v, &ds);
        assert!(v.suppressed.is_none());
        let (ds, _) = directives("// wr-check: allow(R8, panic-reachability) — both named\nfn f() {}");
        apply_suppression(&mut v, &ds);
        assert!(v.suppressed.is_some());
    }

    #[test]
    fn every_rule_has_explain_text_and_roundtrips_names() {
        for rule in [Rule::PanicReachability, Rule::HotLoopAlloc, Rule::Directive] {
            let text = rule.explain();
            assert!(text.contains(rule.id()), "{} explain text must name the rule id", rule.id());
            if rule != Rule::Directive {
                assert_eq!(Rule::from_name(rule.id()), Some(rule));
                assert_eq!(Rule::from_name(rule.slug()), Some(rule));
            }
        }
    }

    #[test]
    fn expectations_are_counted_per_clippy_lint() {
        let src = "#![expect(clippy::panic, reason = \"crate-wide\")]\n\
                   #[expect(clippy::expect_used, clippy::unwrap_used, reason = \"two at once\")]\n\
                   fn f() {}\n\
                   #[expect(dead_code)]\n\
                   // #[expect(clippy::todo, reason = \"a comment, not an attribute\")]\n\
                   fn g() {}";
        let es = collect_expectations("crates/tensor/src/a.rs", &lex(src));
        let got: Vec<(&str, u32, &str)> =
            es.iter().map(|e| (e.lint.as_str(), e.line, e.reason.as_str())).collect();
        assert_eq!(
            got,
            vec![
                ("clippy::panic", 1, "crate-wide"),
                ("clippy::expect_used", 2, "two at once"),
                ("clippy::unwrap_used", 2, "two at once"),
            ]
        );
    }
}
