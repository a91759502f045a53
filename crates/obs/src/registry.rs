//! Global-free metric registry: counters, gauges, fixed-bucket histograms.
//!
//! A [`Registry`] is an explicit value (usually behind an `Arc` inside
//! [`crate::Telemetry`]) — there is no process-global state, so tests and
//! parallel experiments each own an isolated metric namespace. Lookup is
//! lock-sharded (FNV-1a of the metric name picks one of [`SHARDS`]
//! mutex-guarded maps) and handles are `Arc`s to lock-free atomics, so the
//! hot path — a worker thread bumping a counter or observing a histogram
//! sample — never contends on the registry locks and is safe to call from
//! inside `wr-runtime` pool jobs.
//!
//! Everything here is strictly write-only with respect to computation: no
//! metric value is ever read back into a result-producing path
//! (`wr-check` R4 enforces the absence of clock reads outside
//! `crates/obs`; the differential suites assert bit-identity with
//! telemetry attached).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::jsonw::{write_f64, write_str};

/// Monotonic event count. `u64`, relaxed atomics — ordering between
/// metric writes is irrelevant, only the totals are.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn new() -> Self {
        Counter::default()
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins scalar (f64 bits in an atomic).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    pub fn new() -> Self {
        Gauge::default()
    }

    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Fixed-bound histogram with explicit underflow/overflow buckets.
///
/// For ascending `bounds = [b0, …, bn]` there are `n + 2` buckets:
/// bucket 0 counts samples `< b0` (underflow), bucket `i` counts
/// `b(i-1) <= v < b(i)`, and the last bucket counts `v >= bn` (overflow).
/// `count`/`sum`/`min`/`max` are tracked exactly alongside the buckets.
/// Observation is lock-free (one `fetch_add` plus CAS loops for the
/// extrema), so pool workers can observe concurrently; totals are exact,
/// percentiles are bucket-resolution estimates.
///
/// Each bucket additionally retains the last [`EXEMPLARS_PER_BUCKET`]
/// trace ids observed into it ([`Histogram::observe_exemplar`]) in a
/// tiny lock-free ring — id 0 is the empty sentinel — so a latency
/// bucket links directly to the traces that landed there. Exemplars are
/// copied, never reset, by [`Histogram::snapshot`].
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    exemplars: Vec<BucketExemplars>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

/// Trace ids retained per bucket (last-k, lock-free overwrite).
pub const EXEMPLARS_PER_BUCKET: usize = 4;

/// One bucket's exemplar ring: a wrapping cursor picks the slot to
/// overwrite, so concurrent writers never block and the ring always
/// holds the most recent `EXEMPLARS_PER_BUCKET` distinct observations.
#[derive(Debug, Default)]
struct BucketExemplars {
    cursor: AtomicU64,
    slots: [AtomicU64; EXEMPLARS_PER_BUCKET],
}

impl BucketExemplars {
    fn store(&self, trace_id: u64) {
        let at = self.cursor.fetch_add(1, Ordering::Relaxed) as usize % EXEMPLARS_PER_BUCKET;
        if let Some(slot) = self.slots.get(at) {
            slot.store(trace_id, Ordering::Relaxed);
        }
    }

    /// Occupied slots in slot order (0 = empty sentinel, skipped).
    fn load(&self) -> Vec<u64> {
        self.slots
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .filter(|&id| id != 0)
            .collect()
    }
}

/// Point-in-time copy of one histogram, used for snapshots and JSON.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    pub bounds: Vec<f64>,
    pub buckets: Vec<u64>,
    /// Per-bucket retained trace ids (parallel to `buckets`; empty vec =
    /// no exemplars observed into that bucket yet).
    pub exemplars: Vec<Vec<u64>>,
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

impl Histogram {
    /// `bounds` must be finite and strictly ascending (checked).
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        for w in bounds.windows(2) {
            assert!(w[0] < w[1], "histogram bounds must be strictly ascending");
        }
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            exemplars: (0..bounds.len() + 1)
                .map(|_| BucketExemplars::default())
                .collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Log-spaced default bounds for durations in milliseconds:
    /// 0.001 ms … 100 s, three buckets per decade.
    pub fn default_ms_bounds() -> Vec<f64> {
        let mut bounds = Vec::new();
        let mut decade = 1e-3;
        for _ in 0..9 {
            for m in [1.0, 2.0, 5.0] {
                bounds.push(decade * m);
            }
            decade *= 10.0;
        }
        bounds
    }

    fn bucket_index(&self, v: f64) -> usize {
        for (i, b) in self.bounds.iter().enumerate() {
            if v < *b {
                return i;
            }
        }
        self.bounds.len() // overflow (NaN compares false against every bound)
    }

    /// Record one sample. NaN samples are counted in the overflow bucket
    /// (they compare false against every bound) and excluded from the
    /// extrema; this keeps observation panic-free on hostile inputs.
    pub fn observe(&self, v: f64) {
        self.observe_exemplar(v, 0);
    }

    /// [`Self::observe`] that also retains `trace_id` in the target
    /// bucket's exemplar ring (0 = no exemplar, plain observation).
    /// Lock-free like `observe` — safe from pool workers.
    pub fn observe_exemplar(&self, v: f64, trace_id: u64) {
        let idx = self.bucket_index(v);
        // `idx ≤ bounds.len()` and `buckets.len() == bounds.len() + 1` by
        // construction; the checked form keeps the hot path panic-free.
        if let Some(bucket) = self.buckets.get(idx) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        if trace_id != 0 {
            if let Some(ring) = self.exemplars.get(idx) {
                ring.store(trace_id);
            }
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.cas_f64(&self.sum_bits, |cur| cur + v);
        self.cas_f64(&self.min_bits, |cur| if v < cur { v } else { cur });
        self.cas_f64(&self.max_bits, |cur| if v > cur { v } else { cur });
    }

    fn cas_f64(&self, cell: &AtomicU64, f: impl Fn(f64) -> f64) {
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let next = f(f64::from_bits(cur)).to_bits();
            match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Smallest observed sample, or 0.0 when empty.
    pub fn min(&self) -> f64 {
        let v = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        if v.is_finite() {
            v
        } else {
            0.0
        }
    }

    /// Largest observed sample, or 0.0 when empty.
    pub fn max(&self) -> f64 {
        let v = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        if v.is_finite() {
            v
        } else {
            0.0
        }
    }

    /// Nearest-rank percentile estimated at bucket resolution: the value
    /// returned is the upper bound of the bucket holding the target rank,
    /// except that the unbounded edge buckets report the exact observed
    /// extremum (underflow → `min`, overflow → `max`). Empty histograms
    /// report 0.0.
    pub fn percentile(&self, p: f64) -> f64 {
        let snap = self.snapshot();
        snap.percentile(p)
    }

    /// Point-in-time copy. The snapshot's `count` is computed from the
    /// bucket loads themselves — not read from the separate `count`
    /// atomic — so `count == sum(buckets)` holds in every snapshot even
    /// while concurrent `observe` calls are mid-flight between their
    /// bucket and counter increments. Exemplar rings are copied, never
    /// reset: snapshotting is read-only on the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        // A racing first observation may have bumped its bucket before
        // its min/max CAS landed; an empty snapshot must still read as
        // all-zeros, so the extrema follow the bucket-derived count.
        let (min, max) = if count == 0 {
            (0.0, 0.0)
        } else {
            (self.min(), self.max())
        };
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            exemplars: self.exemplars.iter().map(|e| e.load()).collect(),
            buckets,
            count,
            sum: self.sum(),
            min,
            max,
        }
    }
}

impl HistogramSnapshot {
    /// See [`Histogram::percentile`].
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Upper edge of bucket i; the edge buckets are unbounded on
                // one side, so they report the exact observed extremum.
                if i == 0 {
                    return self.min;
                }
                return match self.bounds.get(i) {
                    Some(b) => b.min(self.max),
                    None => self.max,
                };
            }
        }
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// rank `ceil(p/100 · n)` (1-based, clamped). This is the single
/// percentile definition shared by [`Histogram`] (at bucket resolution)
/// and `wr-serve`'s exact latency percentiles.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

const SHARDS: usize = 8;

#[derive(Debug, Clone)]
enum Entry {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Lock-sharded, name-addressed metric store. See the module docs.
#[derive(Debug, Default)]
pub struct Registry {
    shards: [Mutex<BTreeMap<String, Entry>>; SHARDS],
}

/// Point-in-time, name-sorted copy of every metric in a [`Registry`].
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

fn shard_of(name: &str) -> usize {
    let mut h = 0xcbf29ce484222325u64; // FNV-1a
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    (h % SHARDS as u64) as usize
}

/// Names of the fault-tolerance counters every observed binary exports.
///
/// They are registered eagerly (at zero) by
/// [`Registry::register_fault_counters`] so a metrics export always shows
/// the full recovery surface — a clean run reads `fault.injected: 0`, not
/// a missing key. The incrementing sites live in their own crates: the
/// chaos bridge in the binaries (`fault.injected`), the serving engine
/// (`serve.*`), and the resumable trainer (`train.resumes`).
pub const FAULT_COUNTERS: [&str; 5] = [
    "fault.injected",
    "serve.rejected_overload",
    "serve.quarantined_rows",
    "serve.retries",
    "train.resumes",
];

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Eagerly create every [`FAULT_COUNTERS`] entry at zero, so metric
    /// exports carry the whole fault-tolerance surface even on runs where
    /// nothing went wrong.
    pub fn register_fault_counters(&self) {
        for name in FAULT_COUNTERS {
            self.counter(name);
        }
    }

    fn entry(&self, name: &str, make: impl FnOnce() -> Entry) -> Entry {
        // `shard_of` reduces modulo the shard count; the checked lookup
        // (falling back to shard 0) keeps this panic-free regardless.
        let slot = self.shards.get(shard_of(name)).unwrap_or(&self.shards[0]);
        let mut shard = slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        shard
            .entry(name.to_string())
            .or_insert_with(make)
            .clone()
    }

    /// Get or create the counter `name`.
    ///
    /// If `name` is already registered as a *different* metric kind, the
    /// kind collision is tallied in `obs.kind_collisions` and a detached
    /// instance is returned: its increments are not exported, but telemetry
    /// misuse must never take down the serving path that emitted it.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.entry(name, || Entry::Counter(Arc::new(Counter::new()))) {
            Entry::Counter(c) => c,
            _ => {
                self.note_kind_collision();
                Arc::new(Counter::new())
            }
        }
    }

    /// Get or create the gauge `name` (same kind rules as [`Self::counter`]).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.entry(name, || Entry::Gauge(Arc::new(Gauge::new()))) {
            Entry::Gauge(g) => g,
            _ => {
                self.note_kind_collision();
                Arc::new(Gauge::new())
            }
        }
    }

    /// Get or create the histogram `name`. `bounds` is used only on first
    /// creation; later callers receive the existing instance. Kind
    /// collisions degrade to a detached instance (see [`Self::counter`]).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        match self.entry(name, || Entry::Histogram(Arc::new(Histogram::new(bounds)))) {
            Entry::Histogram(h) => h,
            _ => {
                self.note_kind_collision();
                Arc::new(Histogram::new(bounds))
            }
        }
    }

    /// Count a metric registered under one kind and requested as another.
    /// The counter makes the misuse visible in every snapshot without
    /// making registration fallible on the hot path.
    fn note_kind_collision(&self) {
        if let Entry::Counter(c) =
            self.entry("obs.kind_collisions", || Entry::Counter(Arc::new(Counter::new())))
        {
            c.inc();
        }
    }

    /// Name-sorted copy of every metric. Deterministic given deterministic
    /// metric values: shards are walked in order and each shard's map is
    /// already sorted, so only the final merge-sort by name is needed.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            for (name, entry) in shard.iter() {
                match entry {
                    Entry::Counter(c) => snap.counters.push((name.clone(), c.get())),
                    Entry::Gauge(g) => snap.gauges.push((name.clone(), g.get())),
                    Entry::Histogram(h) => snap.histograms.push((name.clone(), h.snapshot())),
                }
            }
        }
        snap.counters.sort_by(|a, b| a.0.cmp(&b.0));
        snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        snap.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        snap
    }

    /// Serialize a fresh [`Snapshot`] — see [`Snapshot::to_json`].
    pub fn to_json(&self) -> String {
        self.snapshot().to_json()
    }
}

impl Snapshot {
    /// Compact JSON:
    /// `{"format":"wr-obs/v1","counters":{…},"gauges":{…},"histograms":{name:{count,sum,min,max,mean,p50,p95,p99,bounds,buckets}}}`.
    ///
    /// The dialect matches `wr_tensor::json` (shortest round-trip floats,
    /// `null` for non-finite) so downstream tooling parses it with the
    /// same parser as every other artifact in the repo.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"format\":\"wr-obs/v1\",\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, name);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, name);
            out.push(':');
            write_f64(&mut out, *v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, name);
            out.push_str(":{\"count\":");
            out.push_str(&h.count.to_string());
            for (key, val) in [
                ("sum", h.sum),
                ("min", h.min),
                ("max", h.max),
                ("mean", h.mean()),
                ("p50", h.percentile(50.0)),
                ("p95", h.percentile(95.0)),
                ("p99", h.percentile(99.0)),
            ] {
                out.push_str(",\"");
                out.push_str(key);
                out.push_str("\":");
                write_f64(&mut out, val);
            }
            out.push_str(",\"bounds\":[");
            for (j, b) in h.bounds.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_f64(&mut out, *b);
            }
            out.push_str("],\"buckets\":[");
            for (j, b) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&b.to_string());
            }
            // Exemplars: per-bucket retained trace ids, hex strings in
            // the same formatting as the trace exports so a bucket can
            // be joined to its span tree with a text match.
            out.push_str("],\"exemplars\":[");
            for (j, ids) in h.exemplars.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('[');
                for (m, id) in ids.iter().enumerate() {
                    if m > 0 {
                        out.push(',');
                    }
                    write_str(&mut out, &format!("{id:016x}"));
                }
                out.push(']');
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let reg = Registry::new();
        let c = reg.counter("jobs");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("jobs").get(), 5);
        let g = reg.gauge("depth");
        g.set(3.5);
        assert_eq!(reg.gauge("depth").get(), 3.5);
    }

    #[test]
    fn kind_conflict_degrades_to_detached_instance() {
        let reg = Registry::new();
        reg.counter("x").inc();
        // Requesting "x" as a gauge must not panic (telemetry misuse can
        // never take down a serving thread); the caller gets a detached
        // instance whose writes do not reach the exported snapshot…
        let g = reg.gauge("x");
        g.set(7.0);
        let snap = reg.snapshot();
        assert!(snap.gauges.iter().all(|(name, _)| name != "x"));
        assert!(snap.counters.iter().any(|(name, v)| name == "x" && *v == 1));
        // …and the collision itself is observable.
        assert!(snap
            .counters
            .iter()
            .any(|(name, v)| name == "obs.kind_collisions" && *v == 1));
    }

    #[test]
    fn histogram_buckets_split_at_bounds() {
        let h = Histogram::new(&[1.0, 10.0]);
        for v in [0.5, 1.0, 2.0, 9.9, 10.0, 50.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        // underflow (<1): 0.5 | [1,10): 1.0, 2.0, 9.9 | overflow (>=10): 10.0, 50.0
        assert_eq!(s.buckets, vec![1, 3, 2]);
        assert_eq!(s.count, 6);
        assert_eq!(s.min, 0.5);
        assert_eq!(s.max, 50.0);
        assert!((s.sum - 73.4).abs() < 1e-9);
    }

    #[test]
    fn histogram_underflow_and_overflow_extremes() {
        let h = Histogram::new(&[1.0]);
        h.observe(-100.0);
        h.observe(1e9);
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![1, 1]);
        assert_eq!(s.min, -100.0);
        assert_eq!(s.max, 1e9);
        // p99 lands in the overflow bucket → exact observed max.
        assert_eq!(s.percentile(99.0), 1e9);
        // p50 lands in the underflow bucket → clamped to observed min.
        assert_eq!(s.percentile(50.0), -100.0);
    }

    #[test]
    fn empty_histogram_snapshot_is_all_zeros() {
        let h = Histogram::new(&[1.0, 2.0]);
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.sum, 0.0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.percentile(50.0), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.buckets, vec![0, 0, 0]);
    }

    #[test]
    fn histogram_nan_goes_to_overflow_without_poisoning_extrema() {
        let h = Histogram::new(&[1.0]);
        h.observe(f64::NAN);
        h.observe(0.5);
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![1, 1]);
        assert_eq!(s.min, 0.5);
        assert_eq!(s.max, 0.5);
    }

    #[test]
    fn histogram_percentiles_track_bucket_edges() {
        let h = Histogram::new(&Histogram::default_ms_bounds());
        for i in 0..100 {
            h.observe(0.05 + (i as f64) * 0.001); // all in [0.05, 0.15)
        }
        let p50 = h.percentile(50.0);
        assert!(p50 >= 0.05 && p50 <= 0.2, "p50 = {p50}");
    }

    #[test]
    fn nearest_rank_matches_definition() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(nearest_rank(&xs, 50.0), 50.0);
        assert_eq!(nearest_rank(&xs, 95.0), 95.0);
        assert_eq!(nearest_rank(&xs, 99.0), 99.0);
        assert_eq!(nearest_rank(&xs, 100.0), 100.0);
        assert_eq!(nearest_rank(&[7.5], 50.0), 7.5);
        assert_eq!(nearest_rank(&[], 50.0), 0.0);
    }

    #[test]
    fn snapshot_is_name_sorted_and_json_shaped() {
        let reg = Registry::new();
        reg.counter("z.last").inc();
        reg.counter("a.first").add(2);
        reg.gauge("m.mid").set(1.25);
        reg.histogram("h.lat", &[1.0, 2.0]).observe(1.5);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.first", "z.last"]);
        let json = snap.to_json();
        assert!(json.starts_with("{\"format\":\"wr-obs/v1\""));
        assert!(json.contains("\"a.first\":2"));
        assert!(json.contains("\"m.mid\":1.25"));
        assert!(json.contains("\"h.lat\":{\"count\":1"));
    }

    #[test]
    fn exemplars_retain_last_k_per_bucket_and_survive_snapshots() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[1.0, 10.0]);
        // Six exemplars into the middle bucket: only the last 4 survive.
        for id in 1..=6u64 {
            h.observe_exemplar(5.0, id);
        }
        h.observe_exemplar(0.5, 77); // underflow bucket
        h.observe(20.0); // overflow, no exemplar
        let s1 = h.snapshot();
        assert_eq!(s1.exemplars.len(), s1.buckets.len());
        assert_eq!(s1.exemplars[0], vec![77]);
        let mut mid = s1.exemplars[1].clone();
        mid.sort_unstable();
        assert_eq!(mid, vec![3, 4, 5, 6], "ring keeps the last 4");
        assert!(s1.exemplars[2].is_empty(), "plain observe leaves no exemplar");
        // Snapshotting does not reset the rings.
        let s2 = h.snapshot();
        assert_eq!(s1.exemplars, s2.exemplars);
        // And the ids appear as hex strings in the JSON export.
        let json = reg.to_json();
        assert!(json.contains("\"exemplars\":[["), "{json}");
        assert!(json.contains(&format!("\"{:016x}\"", 77)), "{json}");
    }

    #[test]
    fn concurrent_observe_never_breaks_the_snapshot_count_invariant() {
        // Regression: `snapshot()` used to read the count atomic
        // separately from the bucket loads, so a snapshot taken between
        // an observer's bucket increment and its count increment violated
        // `count == sum(buckets)`. The count is now derived from the
        // loaded buckets themselves.
        let h = Arc::new(Histogram::new(&[1.0, 10.0, 100.0]));
        let stop = Arc::new(AtomicU64::new(0));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let h = h.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while stop.load(Ordering::Relaxed) == 0 {
                        let v = ((w * 1000 + i) % 200) as f64;
                        h.observe_exemplar(v, i + 1);
                        i += 1;
                    }
                })
            })
            .collect();
        for _ in 0..2000 {
            let s = h.snapshot();
            let bucket_sum: u64 = s.buckets.iter().sum();
            assert_eq!(
                s.count, bucket_sum,
                "snapshot count must equal the sum of its own bucket loads"
            );
        }
        stop.store(1, Ordering::Relaxed);
        for t in writers {
            t.join().unwrap();
        }
        // Quiesced: the exact atomics agree with the buckets again.
        let s = h.snapshot();
        assert_eq!(s.count, h.count());
    }

    #[test]
    fn registry_is_shareable_across_handles() {
        let reg = Arc::new(Registry::new());
        let c1 = reg.counter("shared");
        let c2 = reg.counter("shared");
        c1.inc();
        c2.inc();
        assert_eq!(reg.counter("shared").get(), 2);
    }
}
