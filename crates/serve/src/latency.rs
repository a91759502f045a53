//! Query-log replay with latency percentiles and throughput — one loop
//! and one report for every serving front end ([`ServeEngine`] here,
//! `wr_gateway::Gateway` through its own [`Replay`] impl).
//!
//! The report is one JSON document, `{"suite": ..., "benches": [...]}`
//! with a single `replay` entry carrying the percentile, throughput and
//! checksum fields ([`ReplayReport::to_json`]).
//!
//! Timing flows through `wr-obs`: [`replay`] reads the telemetry's
//! [`wr_obs::Clock`] (so tests can drive it with a
//! [`wr_obs::MockClock`]) and the percentile math is
//! [`wr_obs::nearest_rank`] — the single nearest-rank implementation
//! shared with the histogram type. This module contains no direct
//! `Instant::now` calls (clippy's `disallowed_methods` confines those to
//! `crates/obs`).

use wr_obs::{nearest_rank, Histogram, Telemetry};

use crate::{QueryLog, Request, Response, ScoredItem, ServeEngine};

/// Latency/throughput summary of one query-log replay.
///
/// Latency is *batch-attributed*: each query's latency is the wall time of
/// the micro-batch `serve` call that answered it, which is what a caller
/// awaiting that batch would observe. Timing numbers vary run to run (they
/// are measurements, not results); the served responses themselves are
/// deterministic, and `top1_checksum` digests them so a replay's output
/// can be asserted stable across thread counts and topologies.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Queries replayed.
    pub n_queries: usize,
    /// Micro-batches dispatched.
    pub n_batches: usize,
    /// Catalog windows fanned out to (1 for a bare engine).
    pub n_shards: usize,
    /// Responses flagged degraded — a shard rejected or isolated them
    /// (always 0 for a bare engine, which has no such flag).
    pub n_degraded: usize,
    /// End-to-end wall time of the replay loop, seconds.
    pub total_s: f64,
    /// Queries per second over the whole replay.
    pub qps: f64,
    /// Mean per-query latency, milliseconds.
    pub mean_ms: f64,
    /// Fastest per-query latency, milliseconds.
    pub min_ms: f64,
    /// Latency percentiles (nearest-rank), milliseconds.
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    /// [`top1_digest`] over `(id, top-1 item)` of every response;
    /// thread-count-, batch-composition- and shard-count-independent for
    /// a healthy deterministic system.
    pub top1_checksum: u64,
}

/// Order-sensitive FNV-style digest of `(request id, top-1 item)` pairs
/// (`None` = empty/degraded response, digested as `u64::MAX`). This is
/// THE `top1_checksum` formula: every replay and `scripts/check.sh`'s
/// cross-run comparisons share it, so a sharded replay can be asserted
/// equal to a single-engine replay by comparing two hex strings.
pub fn top1_digest(pairs: impl Iterator<Item = (u64, Option<usize>)>) -> u64 {
    let mut acc = 0xcbf29ce484222325u64; // FNV offset basis
    for (id, top) in pairs {
        let top = top.map_or(u64::MAX, |item| item as u64);
        acc = acc.wrapping_mul(0x100000001b3).wrapping_add(id ^ top);
    }
    acc
}

/// A serving front end [`replay`] can drive: it answers one packed
/// micro-batch per call, and names where its replay telemetry lands.
pub trait Replay {
    /// The answer to one request.
    type Answer;
    /// Histogram observing per-batch wall time, with exemplars.
    const LATENCY_HISTOGRAM: &'static str;
    /// Category of the `replay` span wrapping the whole run.
    const SPAN_CATEGORY: &'static str;
    /// Micro-batch row bound: the log is replayed in groups of this size.
    fn max_batch(&self) -> usize;
    /// Catalog windows each batch fans out to.
    fn n_shards(&self) -> usize;
    fn answer(&self, group: &[Request]) -> Vec<Self::Answer>;
    /// `(request id, items best first, degraded)` of one answer.
    fn view(answer: &Self::Answer) -> (u64, &[ScoredItem], bool);
}

impl Replay for ServeEngine {
    type Answer = Response;
    const LATENCY_HISTOGRAM: &'static str = "serve.latency_ms";
    const SPAN_CATEGORY: &'static str = "serve";

    fn max_batch(&self) -> usize {
        self.config().max_batch
    }

    fn n_shards(&self) -> usize {
        1
    }

    fn answer(&self, group: &[Request]) -> Vec<Response> {
        self.serve(group)
    }

    fn view(answer: &Response) -> (u64, &[ScoredItem], bool) {
        (answer.id, &answer.items, false)
    }
}

/// Replay `log` through `target` one micro-batch at a time and return
/// every answer plus the latency report. Batch wall times come from
/// `telemetry.clock` and are observed into `T::LATENCY_HISTOGRAM`, the
/// whole replay is wrapped in a `replay` span, and the report percentiles
/// are exact nearest-rank over the raw batch-attributed samples (the
/// histogram carries the same data at bucket resolution for snapshot
/// export). Pass `&Telemetry::new()` when nobody reads the telemetry.
///
/// The log is split into groups of the target's `max_batch` — the
/// grouping [`crate::MicroBatcher`] would make of the whole log — so each
/// timed call runs exactly one micro-batch.
pub fn replay<T: Replay>(
    target: &T,
    log: &QueryLog,
    telemetry: &Telemetry,
) -> (Vec<T::Answer>, ReplayReport) {
    let clock = &telemetry.clock;
    let latency_hist = telemetry
        .registry
        .histogram(T::LATENCY_HISTOGRAM, &Histogram::default_ms_bounds());
    let max_batch = target.max_batch().max(1);
    let mut responses: Vec<T::Answer> = Vec::with_capacity(log.len());
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(log.len());
    let mut n_batches = 0usize;

    let replay_start_ns = clock.now_ns();
    let mut start = 0;
    while start < log.len() {
        let end = (start + max_batch).min(log.len());
        let group: &[Request] = &log.queries[start..end];
        let t_ns = clock.now_ns();
        let answered = target.answer(group);
        let ms = clock.now_ns().saturating_sub(t_ns) as f64 / 1e6;
        // Exemplar: each call sees the group as its batch 0, so this is
        // exactly the trace id `serve` minted for the batch span — the
        // bucket joins back to the span tree.
        let trace_id = group
            .first()
            .map(|r| wr_obs::TraceContext::root(r.id, 0).trace_id)
            .unwrap_or(0);
        latency_hist.observe_exemplar(ms, trace_id);
        // Every query in the batch waited for the whole batch.
        latencies_ms.extend(std::iter::repeat(ms).take(group.len()));
        responses.extend(answered);
        n_batches += 1;
        start = end;
    }
    let end_ns = clock.now_ns();
    telemetry
        .tracer
        .record("replay", T::SPAN_CATEGORY, replay_start_ns, end_ns);
    let total_s = end_ns.saturating_sub(replay_start_ns) as f64 / 1e9;

    let mut sorted = latencies_ms;
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mean_ms = if sorted.is_empty() {
        0.0
    } else {
        sorted.iter().sum::<f64>() / sorted.len() as f64
    };
    let views = || responses.iter().map(T::view);
    let report = ReplayReport {
        n_queries: log.len(),
        n_batches,
        n_shards: target.n_shards(),
        n_degraded: views().filter(|v| v.2).count(),
        total_s,
        qps: if total_s > 0.0 {
            log.len() as f64 / total_s
        } else {
            0.0
        },
        mean_ms,
        min_ms: sorted.first().copied().unwrap_or(0.0),
        p50_ms: nearest_rank(&sorted, 50.0),
        p95_ms: nearest_rank(&sorted, 95.0),
        p99_ms: nearest_rank(&sorted, 99.0),
        top1_checksum: top1_digest(views().map(|(id, items, _)| (id, items.first().map(|s| s.item)))),
    };
    (responses, report)
}

impl ReplayReport {
    /// Compact JSON, `{"suite":"whitenrec-bench","benches":[{...}]}`, with
    /// one bench entry carrying the topology, percentile and throughput
    /// fields.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"suite\":\"whitenrec-bench\",\"benches\":[{\"name\":\"replay\",\"iters\":");
        wr_tensor::json::write_f64(&mut out, self.n_queries as f64);
        for (key, val) in [
            ("batches", self.n_batches as f64),
            ("shards", self.n_shards as f64),
            ("degraded", self.n_degraded as f64),
            ("total_s", self.total_s),
            ("qps", self.qps),
            ("mean_ms", self.mean_ms),
            ("min_ms", self.min_ms),
            ("p50_ms", self.p50_ms),
            ("p95_ms", self.p95_ms),
            ("p99_ms", self.p99_ms),
        ] {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":");
            wr_tensor::json::write_f64(&mut out, val);
        }
        out.push_str(",\"top1_checksum\":\"");
        out.push_str(&format!("{:016x}", self.top1_checksum));
        out.push_str("\"}]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixture::{id_model, model_config, serve_cfg};
    use crate::ServeEngine;
    use std::sync::Arc;
    use wr_models::ModelConfig;
    use wr_obs::MockClock;

    fn tiny_engine() -> ServeEngine {
        let config = ModelConfig {
            dim: 8,
            ..model_config(1, 6)
        };
        ServeEngine::new(id_model("replay-unit", 25, config, 23), serve_cfg(3, 8, 6))
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        // The shared implementation — sanity-check it at the call site.
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(nearest_rank(&xs, 50.0), 50.0);
        assert_eq!(nearest_rank(&xs, 95.0), 95.0);
        assert_eq!(nearest_rank(&xs, 99.0), 99.0);
        assert_eq!(nearest_rank(&[], 50.0), 0.0);
    }

    #[test]
    fn replay_answers_everything_and_reports() {
        let engine = tiny_engine();
        let log = QueryLog::synthetic(37, 25, 5, 2);
        let (responses, report) = replay(&engine, &log, &Telemetry::new());
        assert_eq!(responses.len(), 37);
        assert_eq!(report.n_queries, 37);
        assert_eq!(report.n_batches, 5); // ceil(37 / 8)
        assert!(report.total_s > 0.0);
        assert!(report.qps > 0.0);
        assert!(report.p50_ms <= report.p95_ms && report.p95_ms <= report.p99_ms);
        assert!(report.min_ms <= report.mean_ms);
        // Replay responses match a direct serve of the same queries.
        let direct = engine.serve(&log.queries);
        assert_eq!(responses, direct);
    }

    #[test]
    fn mock_clock_makes_the_report_deterministic() {
        let engine = tiny_engine();
        let log = QueryLog::synthetic(20, 25, 5, 3);
        // Each clock read advances 1 ms. Reads per replay: 1 start + 2 per
        // batch + 1 end. Batch wall time = exactly 1 ms each.
        let clock = Arc::new(MockClock::with_tick(1_000_000));
        let tel = Telemetry::with_clock(clock);
        let (_, report) = replay(&engine, &log, &tel);
        assert_eq!(report.n_batches, 3); // ceil(20 / 8)
        assert_eq!(report.p50_ms, 1.0);
        assert_eq!(report.p95_ms, 1.0);
        assert_eq!(report.p99_ms, 1.0);
        assert_eq!(report.mean_ms, 1.0);
        assert_eq!(report.min_ms, 1.0);
        // total = (1 + 2·3 + 1 − 1) ticks… exactly: reads happen at 0,
        // then start/end pairs; last read index = 7 → total 7 ms.
        assert!((report.total_s - 0.007).abs() < 1e-12, "{}", report.total_s);
        // The histogram saw one sample per batch.
        let snap = tel.registry.snapshot();
        let lat = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "serve.latency_ms")
            .map(|(_, h)| h.clone())
            .unwrap();
        assert_eq!(lat.count, 3);
        assert_eq!(lat.min, 1.0);
        // And the replay span covers the whole run.
        let events = tel.tracer.events();
        assert!(events.iter().any(|e| e.name == "replay"));
    }

    #[test]
    fn engine_telemetry_records_batches_without_changing_results() {
        let log = QueryLog::synthetic(21, 25, 5, 9);
        let plain = tiny_engine();
        let expected = plain.serve(&log.queries);

        let tel = Telemetry::new();
        let observed_engine = tiny_engine().with_telemetry(tel.clone());
        let got = observed_engine.serve(&log.queries);
        assert_eq!(expected, got, "telemetry must be write-only");

        let snap = tel.registry.snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing counter {name}"))
        };
        assert_eq!(counter("serve.requests"), 21);
        assert_eq!(counter("serve.batches"), 3); // ceil(21 / 8)
        assert_eq!(counter("serve.cache_scored_rows"), 21);
        let depth = snap
            .gauges
            .iter()
            .find(|(n, _)| n == "serve.queue_depth")
            .map(|(_, v)| *v)
            .unwrap();
        assert_eq!(depth, 0.0, "after the last batch the queue is empty");
        // One span per micro-batch.
        assert_eq!(tel.tracer.events().len(), 3);
    }

    #[test]
    fn checksum_is_thread_count_independent() {
        let engine = tiny_engine();
        let log = QueryLog::synthetic(24, 25, 5, 4);
        wr_runtime::set_threads(1);
        let (_, r1) = replay(&engine, &log, &Telemetry::new());
        wr_runtime::set_threads(8);
        let (_, r8) = replay(&engine, &log, &Telemetry::new());
        wr_runtime::set_threads(1);
        assert_eq!(r1.top1_checksum, r8.top1_checksum);
    }

    #[test]
    fn report_json_parses_with_every_field() {
        let engine = tiny_engine();
        let log = QueryLog::synthetic(9, 25, 4, 6);
        let (_, report) = replay(&engine, &log, &Telemetry::new());
        let parsed = wr_tensor::Json::parse(&report.to_json()).unwrap();
        assert_eq!(parsed.get("suite").unwrap().as_str().unwrap(), "whitenrec-bench");
        let benches = parsed.get("benches").unwrap().as_arr().unwrap();
        assert_eq!(benches.len(), 1);
        let b = &benches[0];
        assert_eq!(b.get("name").unwrap().as_str().unwrap(), "replay");
        assert_eq!(b.get("iters").unwrap().as_usize().unwrap(), 9);
        // A bare engine reports the gateway columns at their identity.
        assert_eq!(b.get("shards").unwrap().as_usize().unwrap(), 1);
        assert_eq!(b.get("degraded").unwrap().as_usize().unwrap(), 0);
        for key in ["qps", "mean_ms", "p50_ms", "p95_ms", "p99_ms"] {
            assert!(b.get(key).unwrap().as_f64().is_some(), "{key}");
        }
        assert!(b.get("top1_checksum").unwrap().as_str().is_some());
    }
}
