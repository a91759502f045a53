//! What a run produces and how it is printed and checked against
//! BENCHMARK.json, the one place metric names, units and bounds are declared.

use std::fmt;

use wr_tensor::json::Json;

/// The contract file, compiled in: the benchmark cannot drift from it.
const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

#[derive(Debug)]
pub enum LedgerError {
    Usage(String),
    /// 1-CPU and 2-CPU numbers are never silently compared.
    TooFewCores {
        workload: &'static str,
        threads: usize,
        available: usize,
    },
    Io(String),
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::Usage(msg) => write!(f, "usage: {msg}"),
            LedgerError::TooFewCores {
                workload,
                threads,
                available,
            } => write!(
                f,
                "workload {workload} runs {threads} threads but available_parallelism is {available}"
            ),
            LedgerError::Io(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for LedgerError {}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

/// One pass of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness gates that failed; empty means `correct`.
    pub gates: Vec<String>,
    /// Values that must repeat exactly between runs of one seed.
    pub exact: Vec<(&'static str, String)>,
    /// Uncalibrated readings for the reader; not metrics.
    pub raw: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            n,
        });
    }

    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gates.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.gates.is_empty() && self.failed == 0
    }
}

/// A metric as BENCHMARK.json declares it; `bound` only for end-to-end.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: Option<f64>,
}

pub struct Contract {
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
    pub run_seconds: f64,
}

impl Contract {
    pub fn load() -> Contract {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is JSON");
        let text = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: entry without {key}"))
                .to_string()
        };
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json: no {key} list"))
        };
        let declared = |key: &str| {
            list(key)
                .iter()
                .map(|m| Declared {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    better: text(m, "better"),
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Contract {
            workloads: list("workloads")
                .iter()
                .map(|w| (text(w, "name"), text(w, "why")))
                .collect(),
            end_to_end: declared("end_to_end"),
            per_layer: declared("per_layer"),
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: run_seconds"),
        }
    }

    pub fn declared(&self, traced: bool) -> &[Declared] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The gate "every declared name printed, nothing undeclared printed,
    /// units as declared, every value finite".
    pub fn check(&self, traced: bool, outcome: &mut Outcome) {
        let declared = self.declared(traced);
        for d in declared {
            match outcome.metrics.iter().filter(|m| m.name == d.name).count() {
                1 => {}
                n => outcome
                    .gates
                    .push(format!("metric {} reported {n} times", d.name)),
            }
        }
        let mut problems = Vec::new();
        for m in &outcome.metrics {
            match declared.iter().find(|d| d.name == m.name) {
                None => problems.push(format!("metric {} is not in BENCHMARK.json", m.name)),
                Some(d) if d.unit != m.unit => problems.push(format!(
                    "metric {} has unit {}, declared {}",
                    m.name, m.unit, d.unit
                )),
                Some(_) => {}
            }
            if !m.value.is_finite() {
                problems.push(format!("metric {} is {}", m.name, m.value));
            }
        }
        outcome.gates.extend(problems);
    }
}

/// The human-readable block of one pass.
pub fn print_outcome(workload: &str, traced: bool, contract: &Contract, outcome: &Outcome) {
    let pass = if traced {
        "per-layer (traced)"
    } else {
        "end-to-end (untraced)"
    };
    println!("== {workload}: {pass}");
    println!(
        "{:<34} {:>16} {:<8} {:>6} {:>7}",
        "metric", "value", "unit", "n", "bound"
    );
    for m in &outcome.metrics {
        let bound = contract
            .declared(traced)
            .iter()
            .find(|d| d.name == m.name)
            .and_then(|d| d.bound)
            .map_or(String::new(), |b| format!("{b}"));
        println!(
            "{:<34} {:>16.6} {:<8} {:>6} {:>7}",
            m.name, m.value, m.unit, m.n, bound
        );
    }
    println!("attempted {} failed {}", outcome.attempted, outcome.failed);
    for (name, value) in &outcome.exact {
        println!("{name} {value}");
    }
    println!("raw (uncalibrated, not metrics):");
    for (name, value) in &outcome.raw {
        println!("  {name} {value:.6}");
    }
    for gate in &outcome.gates {
        println!("GATE FAILED: {gate}");
    }
}

/// The result object the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`. The prefix namespaces metrics when several passes
/// share one object.
pub fn result_json<'a>(passes: impl Iterator<Item = (&'a str, &'a Outcome)>) -> Json {
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for (prefix, outcome) in passes {
        correct &= outcome.correct();
        attempted += outcome.attempted;
        failed += outcome.failed;
        for m in &outcome.metrics {
            metrics.push((
                format!("{prefix}{}", m.name),
                Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            ));
        }
    }
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// The values that must repeat exactly for one seed; `agree` reads them.
pub fn exact_json<'a>(passes: impl Iterator<Item = (&'a str, &'a Outcome)>) -> Json {
    Json::Obj(
        passes
            .flat_map(|(prefix, outcome)| {
                outcome
                    .exact
                    .iter()
                    .map(move |(name, value)| (format!("{prefix}{name}"), Json::Str(value.clone())))
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_declares_what_the_driver_requires() {
        let c = Contract::load();
        assert_eq!(c.workloads.len(), crate::workloads::WORKLOADS.len());
        for (w, (name, why)) in crate::workloads::WORKLOADS.iter().zip(&c.workloads) {
            assert_eq!(w.name, name);
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
        let setup = c.end_to_end.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        for d in &c.end_to_end {
            let bound = d.bound.expect("every end-to-end metric has a bound");
            assert!((0.0..=0.25).contains(&bound), "{}", d.name);
            assert!(
                bound <= setup.bound.unwrap(),
                "setup_s has the largest bound"
            );
        }
        assert!(c.per_layer.iter().all(|d| d.bound.is_none()));
        assert!((1.0..=60.0).contains(&c.run_seconds));
    }

    #[test]
    fn check_flags_missing_undeclared_and_non_finite() {
        let c = Contract::load();
        let mut o = Outcome::default();
        for d in &c.end_to_end {
            // Leak: test-only way to get 'static names out of the contract.
            let name: &'static str = Box::leak(d.name.clone().into_boxed_str());
            let unit: &'static str = Box::leak(d.unit.clone().into_boxed_str());
            o.metric(name, 1.0, unit, 1);
        }
        c.check(false, &mut o);
        assert!(o.correct(), "{:?}", o.gates);
        o.metrics[0].value = f64::NAN;
        o.metrics.pop();
        o.metric("made_up", 1.0, "ms", 1);
        c.check(false, &mut o);
        assert_eq!(o.gates.len(), 3, "{:?}", o.gates);
    }
}
