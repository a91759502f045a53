//! Diagnostic rendering (`file:line` lines, `wr-check/v2` JSON) and the
//! suppression-ratchet baseline.
//!
//! The ratchet contract: `check_baseline.json` records the justified
//! suppression counts (total, per rule or clippy lint, per crate) the
//! workspace is allowed to carry — allow directives and
//! `#[expect(clippy::…)]` attributes against one budget. `wr-check
//! --ratchet` fails if any unsuppressed finding exists *or* if any
//! suppression count rises above the baseline — so suppressions can only
//! shrink over time. `--write-baseline` regenerates the file but refuses
//! loudly to raise any count.

use crate::rules::Violation;
use crate::symbols::crate_of;
use crate::Scan;
use std::collections::BTreeMap;
use wr_tensor::Json;

/// Render one violation as a compiler-style diagnostic line.
pub fn human_line(v: &Violation) -> String {
    format!("{}:{}: [{} {}] {}", v.path, v.line, v.rule.id(), v.rule.slug(), v.message)
}

/// Render the full report for the terminal. Active violations first, then a
/// one-line summary; suppressed findings are listed only with `verbose`.
pub fn human_report(scan: &Scan, verbose: bool) -> String {
    let mut out = String::new();
    let active: Vec<&Violation> =
        scan.violations.iter().filter(|v| v.suppressed.is_none()).collect();
    for v in &active {
        out.push_str(&human_line(v));
        out.push('\n');
    }
    if verbose {
        for (lint, path, line, reason) in suppressions(scan) {
            out.push_str(&format!("{path}:{line}: [{lint}] suppressed — {reason}\n"));
        }
    }
    out.push_str(&format!(
        "wr-check: {} file(s), {} violation(s), {} suppressed | graph: {} fn(s), {} edge(s), {} hot, {} unresolved call(s) ({} name(s))\n",
        scan.files_scanned,
        active.len(),
        suppressions(scan).count(),
        scan.stats.functions,
        scan.stats.edges,
        scan.stats.hot_functions,
        scan.stats.unresolved,
        scan.stats.unresolved_names,
    ));
    out
}

fn encode_violation(v: &Violation) -> Json {
    let mut fields = vec![
        ("rule".to_string(), Json::Str(v.rule.id().to_string())),
        ("name".to_string(), Json::Str(v.rule.slug().to_string())),
        ("path".to_string(), Json::Str(v.path.clone())),
        ("line".to_string(), Json::Num(v.line as f64)),
        ("message".to_string(), Json::Str(v.message.clone())),
    ];
    if let Some(reason) = &v.suppressed {
        fields.push(("suppressed".to_string(), Json::Str(reason.clone())));
    }
    Json::Obj(fields)
}

fn count_obj(counts: &Counts) -> Json {
    Json::Obj(
        counts
            .iter()
            .map(|(k, (active, suppressed))| {
                (
                    k.clone(),
                    Json::Obj(vec![
                        ("active".to_string(), Json::Num(*active as f64)),
                        ("suppressed".to_string(), Json::Num(*suppressed as f64)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Every suppression the ratchet counts, as `(rule or clippy lint, path,
/// line, reason)`: directives that covered a finding, then clippy's
/// expectations.
fn suppressions(scan: &Scan) -> impl Iterator<Item = (&str, &str, u32, &str)> {
    let directives = scan.violations.iter().filter_map(|v| {
        v.suppressed.as_deref().map(|r| (v.rule.id(), v.path.as_str(), v.line, r))
    });
    let expectations = scan
        .expectations
        .iter()
        .map(|e| (e.lint.as_str(), e.path.as_str(), e.line, e.reason.as_str()));
    directives.chain(expectations)
}

type Counts = BTreeMap<String, (usize, usize)>;

/// (active, suppressed) per rule or lint, and per crate.
fn tally(scan: &Scan) -> (Counts, Counts) {
    let mut per_rule = Counts::new();
    let mut per_crate = Counts::new();
    for v in scan.violations.iter().filter(|v| v.suppressed.is_none()) {
        per_rule.entry(v.rule.id().to_string()).or_default().0 += 1;
        per_crate.entry(crate_of(&v.path).to_string()).or_default().0 += 1;
    }
    for (lint, path, _, _) in suppressions(scan) {
        per_rule.entry(lint.to_string()).or_default().1 += 1;
        per_crate.entry(crate_of(path).to_string()).or_default().1 += 1;
    }
    (per_rule, per_crate)
}

/// Build the machine-readable report (`wr-check/v2` schema): violations and
/// suppressions, per-rule and per-crate counts, call-graph stats, and the
/// full suppression inventory the ratchet is computed from.
pub fn json_report(scan: &Scan) -> String {
    let active: Vec<Json> = scan
        .violations
        .iter()
        .filter(|v| v.suppressed.is_none())
        .map(encode_violation)
        .collect();
    let suppressed: Vec<Json> = scan
        .violations
        .iter()
        .filter(|v| v.suppressed.is_some())
        .map(encode_violation)
        .collect();
    let (per_rule, per_crate) = tally(scan);
    let graph = Json::Obj(vec![
        ("functions".to_string(), Json::Num(scan.stats.functions as f64)),
        ("edges".to_string(), Json::Num(scan.stats.edges as f64)),
        ("hot_functions".to_string(), Json::Num(scan.stats.hot_functions as f64)),
        ("unresolved_calls".to_string(), Json::Num(scan.stats.unresolved as f64)),
        ("unresolved_names".to_string(), Json::Num(scan.stats.unresolved_names as f64)),
    ]);
    let inventory: Vec<Json> = suppressions(scan)
        .map(|(lint, path, line, reason)| {
            Json::Obj(vec![
                ("rule".to_string(), Json::Str(lint.to_string())),
                ("path".to_string(), Json::Str(path.to_string())),
                ("line".to_string(), Json::Num(line as f64)),
                ("reason".to_string(), Json::Str(reason.to_string())),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("schema".to_string(), Json::Str("wr-check/v2".to_string())),
        ("files_scanned".to_string(), Json::Num(scan.files_scanned as f64)),
        ("violations".to_string(), Json::Arr(active)),
        ("suppressed".to_string(), Json::Arr(suppressed)),
        ("rules".to_string(), count_obj(&per_rule)),
        ("crates".to_string(), count_obj(&per_crate)),
        ("graph".to_string(), graph),
        ("suppressions".to_string(), Json::Arr(inventory)),
    ]);
    doc.to_string()
}

/// The committed suppression budget: total, per rule or clippy lint, per
/// crate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    pub total_suppressed: usize,
    pub rules: BTreeMap<String, usize>,
    pub crates: BTreeMap<String, usize>,
}

impl Baseline {
    /// Compute the current suppression counts from a scan.
    pub fn from_scan(scan: &Scan) -> Baseline {
        let (per_rule, per_crate) = tally(scan);
        Baseline {
            total_suppressed: suppressions(scan).count(),
            rules: per_rule.into_iter().filter(|(_, c)| c.1 > 0).map(|(k, c)| (k, c.1)).collect(),
            crates: per_crate.into_iter().filter(|(_, c)| c.1 > 0).map(|(k, c)| (k, c.1)).collect(),
        }
    }

    /// Serialize to the committed `check_baseline.json` form.
    pub fn to_json(&self) -> String {
        let counts = |m: &BTreeMap<String, usize>| {
            Json::Obj(m.iter().map(|(k, v)| (k.clone(), Json::Num(*v as f64))).collect())
        };
        Json::Obj(vec![
            ("schema".to_string(), Json::Str("wr-check-baseline/v1".to_string())),
            ("total_suppressed".to_string(), Json::Num(self.total_suppressed as f64)),
            ("rules".to_string(), counts(&self.rules)),
            ("crates".to_string(), counts(&self.crates)),
        ])
        .to_string()
    }

    /// Parse a committed baseline file.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = Json::parse(text).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
        if doc.get("schema").and_then(|s| s.as_str()) != Some("wr-check-baseline/v1") {
            return Err("baseline schema must be wr-check-baseline/v1".to_string());
        }
        let total = doc
            .get("total_suppressed")
            .and_then(|n| n.as_usize())
            .ok_or("baseline missing total_suppressed")?;
        let read_map = |key: &str| -> Result<BTreeMap<String, usize>, String> {
            let mut out = BTreeMap::new();
            if let Some(Json::Obj(fields)) = doc.get(key) {
                for (k, v) in fields {
                    out.insert(
                        k.clone(),
                        v.as_usize().ok_or_else(|| format!("baseline {key}.{k} not a count"))?,
                    );
                }
            }
            Ok(out)
        };
        Ok(Baseline { total_suppressed: total, rules: read_map("rules")?, crates: read_map("crates")? })
    }

    /// The ways `current` exceeds this baseline (empty = within budget).
    /// A key missing from the baseline has budget zero.
    pub fn exceeded_by(&self, current: &Baseline) -> Vec<String> {
        let mut out = Vec::new();
        if current.total_suppressed > self.total_suppressed {
            out.push(format!(
                "total suppressions rose: {} > baseline {}",
                current.total_suppressed, self.total_suppressed
            ));
        }
        for (k, &n) in &current.rules {
            let budget = self.rules.get(k).copied().unwrap_or(0);
            if n > budget {
                out.push(format!("rule {k} suppressions rose: {n} > baseline {budget}"));
            }
        }
        for (k, &n) in &current.crates {
            let budget = self.crates.get(k).copied().unwrap_or(0);
            if n > budget {
                out.push(format!("crate {k} suppressions rose: {n} > baseline {budget}"));
            }
        }
        out
    }
}

/// Evaluate the ratchet: active findings fail outright; suppression counts
/// above the committed baseline fail. Returns failure messages (empty =
/// gate passes).
pub fn ratchet_failures(scan: &Scan, baseline: &Baseline) -> Vec<String> {
    let mut out = Vec::new();
    let active = scan.active();
    if active > 0 {
        out.push(format!("{active} unsuppressed violation(s) — the ratchet admits zero"));
    }
    out.extend(baseline.exceeded_by(&Baseline::from_scan(scan)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan;

    const SUPPRESSED: &str = "impl ServeEngine {\n    \
        pub fn serve(&self) { x.unwrap(); } // wr-check: allow(R6) — test reason here\n}\n";
    const EXPECTED: &str = "#[expect(clippy::expect_used, reason = \"test reason\")]\nfn g() {}\n";
    const ACTIVE: &str = "impl ServeEngine {\n    pub fn serve(&self) { x.unwrap(); }\n}\n";

    #[test]
    fn json_report_parses_back_with_v2_fields() {
        let scan = scan(&[("crates/serve/src/a.rs", SUPPRESSED), ("crates/tensor/src/b.rs", EXPECTED)]);
        let text = json_report(&scan);
        let doc = Json::parse(&text).expect("report must be valid JSON");
        assert_eq!(doc.get("schema").and_then(|s| s.as_str()), Some("wr-check/v2"));
        let suppressed = doc.get("suppressed").and_then(|a| a.as_arr()).expect("suppressed array");
        assert_eq!(suppressed.len(), 1);
        assert_eq!(doc.get("violations").and_then(|a| a.as_arr()).map(|a| a.len()), Some(0));
        // Per-rule / per-lint counts, graph stats, suppression inventory.
        let count = |key: &str, name: &str| {
            doc.get(key).and_then(|r| r.get(name)).and_then(|r| r.get("suppressed")).and_then(|n| n.as_usize())
        };
        assert_eq!(count("rules", "R6"), Some(1));
        assert_eq!(count("rules", "clippy::expect_used"), Some(1));
        assert_eq!(count("crates", "serve"), Some(1));
        assert_eq!(count("crates", "tensor"), Some(1));
        assert!(doc.get("graph").and_then(|g| g.get("functions")).is_some());
        let inv = doc.get("suppressions").and_then(|a| a.as_arr()).expect("inventory");
        let rules: Vec<&str> = inv.iter().filter_map(|e| e.get("rule").and_then(|s| s.as_str())).collect();
        assert_eq!(rules, vec!["R6", "clippy::expect_used"]);
    }

    #[test]
    fn human_line_includes_rule_and_position() {
        let scan = scan(&[("crates/serve/src/a.rs", ACTIVE)]);
        assert_eq!(scan.violations.len(), 1);
        let line = human_line(&scan.violations[0]);
        assert!(line.starts_with("crates/serve/src/a.rs:2: [R6 panic-reachability]"), "{line}");
    }

    #[test]
    fn baseline_roundtrips_and_ratchets() {
        let scan = scan(&[("crates/serve/src/a.rs", SUPPRESSED), ("crates/tensor/src/b.rs", EXPECTED)]);
        let current = Baseline::from_scan(&scan);
        assert_eq!(current.total_suppressed, 2);
        assert_eq!(current.rules.get("R6"), Some(&1));
        assert_eq!(current.rules.get("clippy::expect_used"), Some(&1));
        let parsed = Baseline::parse(&current.to_json()).expect("roundtrip");
        assert_eq!(parsed, current);

        // Within budget: passes.
        assert!(ratchet_failures(&scan, &current).is_empty());
        // Tighter budget: fails on total, rule, lint, and crate axes.
        let failures = ratchet_failures(&scan, &Baseline::default());
        assert!(failures.iter().any(|f| f.contains("total suppressions rose")), "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("rule R6")), "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("rule clippy::expect_used")), "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("crate tensor")), "{failures:?}");
    }

    #[test]
    fn ratchet_rejects_active_findings_even_within_budget() {
        let scan = scan(&[("crates/serve/src/a.rs", ACTIVE)]);
        let loose = Baseline {
            total_suppressed: 99,
            rules: BTreeMap::new(),
            crates: BTreeMap::new(),
        };
        let failures = ratchet_failures(&scan, &loose);
        assert!(failures.iter().any(|f| f.contains("unsuppressed")), "{failures:?}");
    }
}
