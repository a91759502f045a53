//! Minimal wall-clock benchmark harness.
//!
//! The offline workspace carries no criterion; this keeps the same shape —
//! named benches, auto-calibrated iteration counts, mean/min reporting —
//! in ~100 lines, plus JSON export (`WR_BENCH_OUT`) so two runs can be
//! diffed.
//!
//! Timing methodology: one warm-up call sizes the iteration count so each
//! bench runs for roughly [`target_time`]; every iteration is timed
//! individually and the *minimum* is the headline number (least-noise
//! estimator on a shared machine), with the mean reported alongside.

use std::time::{Duration, Instant};

/// Re-export so benches can guard dead-code elimination without a dep.
pub use std::hint::black_box;

/// One measured bench.
#[derive(Debug, Clone)]
pub struct BenchResult {
    pub name: String,
    pub iters: u64,
    pub mean_ns: f64,
    pub min_ns: f64,
    /// Extra numeric fields appended to this bench's JSON object
    /// (utilization counters, configuration) — see [`Harness::annotate`].
    pub extra: Vec<(String, f64)>,
}

impl BenchResult {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        wr_tensor::Json::Str(self.name.clone()).write(out);
        out.push_str(",\"iters\":");
        wr_tensor::json::write_f64(out, self.iters as f64);
        out.push_str(",\"mean_ns\":");
        wr_tensor::json::write_f64(out, self.mean_ns);
        out.push_str(",\"min_ns\":");
        wr_tensor::json::write_f64(out, self.min_ns);
        for (key, val) in &self.extra {
            out.push_str(",");
            wr_tensor::Json::Str(key.clone()).write(out);
            out.push(':');
            wr_tensor::json::write_f64(out, *val);
        }
        out.push('}');
    }
}

/// Collects [`BenchResult`]s for one suite (one `benches/*.rs` binary).
pub struct Harness {
    suite: String,
    results: Vec<BenchResult>,
    meta: Vec<(String, f64)>,
}

/// Per-bench time budget: `WR_BENCH_MS` milliseconds (default 200).
fn target_time() -> Duration {
    let ms = std::env::var("WR_BENCH_MS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200u64);
    Duration::from_millis(ms.max(1))
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

impl Harness {
    pub fn new(suite: impl Into<String>) -> Self {
        let suite = suite.into();
        eprintln!("== {suite} ==");
        let mut h = Harness {
            suite,
            results: Vec::new(),
            meta: Vec::new(),
        };
        // Machine shape is recorded on every suite so checked-in reports
        // are self-describing: `single_cpu_caveat` flags runs where thread
        // sweeps and QPS numbers collapse to serial behaviour and should
        // not be compared against multi-core reports.
        let cores = wr_runtime::pool_stats().available_parallelism;
        h.meta("available_parallelism", cores as f64);
        h.meta("single_cpu_caveat", if cores <= 1 { 1.0 } else { 0.0 });
        h
    }

    /// Time `f`, auto-calibrating the iteration count from one warm-up call.
    #[expect(
        clippy::disallowed_methods,
        reason = "the harness timer: a bench measures wall time and produces no model result"
    )]
    pub fn bench(&mut self, name: impl Into<String>, mut f: impl FnMut()) -> &BenchResult {
        let name = name.into();
        let warmup = Instant::now();
        f();
        let est = warmup.elapsed().max(Duration::from_nanos(1));
        let budget = target_time();
        let iters = (budget.as_nanos() / est.as_nanos()).clamp(3, 10_000) as u64;

        let mut total_ns = 0f64;
        let mut min_ns = f64::INFINITY;
        for _ in 0..iters {
            let t = Instant::now();
            f();
            let ns = t.elapsed().as_nanos() as f64;
            total_ns += ns;
            min_ns = min_ns.min(ns);
        }
        let result = BenchResult {
            name,
            iters,
            mean_ns: total_ns / iters as f64,
            min_ns,
            extra: Vec::new(),
        };
        eprintln!(
            "  {:<44} min {:>12}  mean {:>12}  ({} iters)",
            result.name,
            fmt_ns(result.min_ns),
            fmt_ns(result.mean_ns),
            result.iters
        );
        self.results.push(result);
        self.results.last().unwrap()
    }

    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Attach an extra numeric field to the most recent bench's JSON
    /// object (e.g. pool-utilization counter deltas measured around it).
    /// No-op before the first bench.
    pub fn annotate(&mut self, key: impl Into<String>, value: f64) {
        if let Some(last) = self.results.last_mut() {
            last.extra.push((key.into(), value));
        }
    }

    /// Record a suite-level fact (machine shape, configuration), exported
    /// once under the report's `"meta"` object. Re-recording a key
    /// replaces its value, so suites can override the auto-recorded
    /// machine facts without emitting duplicate JSON keys.
    pub fn meta(&mut self, key: impl Into<String>, value: f64) {
        let key = key.into();
        if let Some(slot) = self.meta.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.meta.push((key, value));
        }
    }

    /// `{"suite": ..., "meta": {...}, "benches": [...]}`, compact. The
    /// `meta` object always carries at least the auto-recorded machine
    /// shape from [`Harness::new`].
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"suite\":");
        wr_tensor::Json::Str(self.suite.clone()).write(&mut out);
        if !self.meta.is_empty() {
            out.push_str(",\"meta\":{");
            for (i, (key, val)) in self.meta.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                wr_tensor::Json::Str(key.clone()).write(&mut out);
                out.push(':');
                wr_tensor::json::write_f64(&mut out, *val);
            }
            out.push('}');
        }
        out.push_str(",\"benches\":[");
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            r.write_json(&mut out);
        }
        out.push_str("]}");
        out
    }

    /// Write the JSON report to `WR_BENCH_OUT` if set.
    pub fn finish(self) {
        if let Ok(path) = std::env::var("WR_BENCH_OUT") {
            std::fs::write(&path, self.to_json() + "\n").expect("write bench report");
            eprintln!("  report -> {path}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_and_serializes() {
        // Tiny budget so the test stays fast.
        std::env::set_var("WR_BENCH_MS", "5");
        let mut h = Harness::new("selftest");
        let r = h.bench("spin", || {
            black_box((0..100).sum::<u64>());
        });
        assert!(r.iters >= 3);
        assert!(r.min_ns > 0.0 && r.min_ns <= r.mean_ns);
        let json = h.to_json();
        let parsed = wr_tensor::Json::parse(&json).unwrap();
        assert_eq!(parsed.get("suite").unwrap().as_str().unwrap(), "selftest");
        assert_eq!(parsed.get("benches").unwrap().as_arr().unwrap().len(), 1);
        std::env::remove_var("WR_BENCH_MS");
    }

    #[test]
    fn annotations_and_meta_reach_the_json() {
        std::env::set_var("WR_BENCH_MS", "2");
        let mut h = Harness::new("annotated");
        // meta() upserts: overriding the auto-recorded machine fact must
        // replace it, not emit a duplicate JSON key.
        h.meta("available_parallelism", 8.0);
        h.bench("spin", || {
            black_box((0..10).sum::<u64>());
        });
        h.annotate("jobs_by_workers", 12.0);
        h.annotate("threads", 4.0);
        let parsed = wr_tensor::Json::parse(&h.to_json()).unwrap();
        let meta = parsed.get("meta").unwrap();
        assert_eq!(meta.get("available_parallelism").unwrap().as_f64(), Some(8.0));
        let b = &parsed.get("benches").unwrap().as_arr().unwrap()[0];
        assert_eq!(b.get("jobs_by_workers").unwrap().as_f64(), Some(12.0));
        assert_eq!(b.get("threads").unwrap().as_f64(), Some(4.0));
        std::env::remove_var("WR_BENCH_MS");
    }

    #[test]
    fn machine_shape_is_auto_recorded() {
        let h = Harness::new("auto-meta");
        let parsed = wr_tensor::Json::parse(&h.to_json()).unwrap();
        let meta = parsed.get("meta").unwrap();
        let cores = meta.get("available_parallelism").unwrap().as_f64().unwrap();
        assert!(cores >= 1.0);
        let caveat = meta.get("single_cpu_caveat").unwrap().as_f64().unwrap();
        assert_eq!(caveat, if cores <= 1.0 { 1.0 } else { 0.0 });
    }
}
