//! Always-on flight recorder: a bounded ring of recent structured events.
//!
//! Metrics aggregate and spans sample durations, but neither answers the
//! post-mortem question "what exactly happened around the failure?". The
//! [`FlightRecorder`] keeps the last [`DEFAULT_FLIGHT_CAPACITY`]
//! structured [`FlightEvent`]s — span ends, fault injections, retries,
//! quarantines, degradations — each carrying the owning
//! [`TraceContext`] ids, and snapshots the ring to a **sealed** JSON
//! artifact when a serving layer declares an incident
//! ([`FlightRecorder::trigger`]): a request degrades, or a shard panics
//! permanently.
//!
//! Recording is write-only and panic-free: one short mutex push per
//! event, no clock reads (callers pass timestamps from their telemetry
//! clock), and dump I/O failures are swallowed, never raised — telemetry
//! must not take down the serving path it observes.
//!
//! **Determinism.** The dump body is a *sorted* projection of the ring
//! (stable total order over the event fields, sequence numbers assigned
//! after sorting), so two replays of the same seeded workload under a
//! [`crate::MockClock`] produce byte-identical dumps at any
//! `WR_THREADS` — the same contract the WRCK/WRIV artifacts obey. Dumps
//! are CRC-sealed via [`wr_fault::seal_lines`] and written with
//! [`wr_fault::write_atomic`]; [`read_dump`] rejects truncation and
//! bit-flips exactly like the checkpoint loaders.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::jsonw::write_str;
use crate::trace::TraceContext;

/// Default ring capacity. Sized so a degraded 2048-query replay keeps
/// every incident-relevant event (faults are injected at a few percent
/// per row) while bounding memory to tens of kilobytes.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1024;

/// Document format tag of a flight dump's header line.
pub const FLIGHT_FORMAT: &str = "wr-flight/v1";

/// One structured incident-context event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Event taxonomy: `"span"`, `"fault"`, `"retry"`, `"panic"`,
    /// `"quarantine"`, `"degraded"`.
    pub kind: &'static str,
    /// Emitting site (an injector site like `serve.row`, or a span name
    /// like `gateway.shard1`).
    pub site: String,
    /// Owning trace ids (0 = untraced).
    pub trace_id: u64,
    pub span_id: u64,
    /// Request id the event concerns (`u64::MAX` = not request-scoped).
    pub req: u64,
    /// Batch index the event concerns (`u64::MAX` = not batch-scoped).
    pub batch: u64,
    /// Timestamp on the caller's telemetry clock, nanoseconds.
    pub ts_ns: u64,
}

#[derive(Debug, Default)]
struct FlightInner {
    ring: VecDeque<FlightEvent>,
    /// Events ever recorded (including those evicted from the ring).
    total: u64,
}

/// Bounded ring of recent [`FlightEvent`]s with sealed-dump snapshots.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    inner: Mutex<FlightInner>,
    dump_path: Mutex<Option<PathBuf>>,
    dumps: AtomicU64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_FLIGHT_CAPACITY)
    }

    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            inner: Mutex::new(FlightInner::default()),
            dump_path: Mutex::new(None),
            dumps: AtomicU64::new(0),
        }
    }

    /// Record one event (write-only hot-path API). Oldest events are
    /// evicted once the ring is full; `total()` keeps counting them.
    pub fn note(
        &self,
        kind: &'static str,
        site: &str,
        ctx: TraceContext,
        req: u64,
        batch: u64,
        ts_ns: u64,
    ) {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if inner.ring.len() >= self.capacity {
            inner.ring.pop_front();
        }
        inner.ring.push_back(FlightEvent {
            kind,
            site: site.to_string(),
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            req,
            batch,
            ts_ns,
        });
        inner.total += 1;
    }

    /// Events currently retained in the ring.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .ring
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events ever recorded, including evicted ones.
    pub fn total(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .total
    }

    /// Copy of the retained events in recording order (read API, for the
    /// scrape endpoint, exporters and tests).
    pub fn events(&self) -> Vec<FlightEvent> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .ring
            .iter()
            .cloned()
            .collect()
    }

    /// Arm incident dumps: every [`Self::trigger`] snapshots the ring to
    /// `path` (sealed, atomic, last trigger wins).
    pub fn arm_dump(&self, path: impl Into<PathBuf>) {
        *self
            .dump_path
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(path.into());
    }

    /// Sealed dumps written so far.
    pub fn dumps(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Deterministic JSON-lines snapshot of the ring: a header line
    /// (`{"format":"wr-flight/v1",...}`) followed by one event object
    /// per line in a stable sorted order, sequence numbers assigned
    /// after sorting — byte-identical across thread counts for a
    /// deterministic workload on a mock clock.
    pub fn snapshot_json(&self, reason: &str) -> String {
        let mut events = self.events();
        let total = self.total();
        events.sort_by(|a, b| {
            (a.trace_id, a.span_id, a.kind, &a.site, a.req, a.batch, a.ts_ns).cmp(&(
                b.trace_id, b.span_id, b.kind, &b.site, b.req, b.batch, b.ts_ns,
            ))
        });
        let mut out = String::from("{\"format\":\"");
        out.push_str(FLIGHT_FORMAT);
        out.push_str("\",\"reason\":");
        write_str(&mut out, reason);
        out.push_str(",\"total\":");
        out.push_str(&total.to_string());
        out.push_str(",\"events\":");
        out.push_str(&events.len().to_string());
        out.push_str("}\n");
        for (seq, e) in events.iter().enumerate() {
            out.push_str("{\"seq\":");
            out.push_str(&seq.to_string());
            out.push_str(",\"kind\":");
            write_str(&mut out, e.kind);
            out.push_str(",\"site\":");
            write_str(&mut out, &e.site);
            out.push_str(",\"trace_id\":");
            write_str(&mut out, &format!("{:016x}", e.trace_id));
            out.push_str(",\"span_id\":");
            write_str(&mut out, &format!("{:016x}", e.span_id));
            out.push_str(",\"req\":");
            out.push_str(&e.req.to_string());
            out.push_str(",\"batch\":");
            out.push_str(&e.batch.to_string());
            out.push_str(",\"ts_ns\":");
            out.push_str(&e.ts_ns.to_string());
            out.push_str("}\n");
        }
        out
    }

    /// Declare an incident: snapshot the ring to the armed dump path,
    /// CRC-sealed and atomically replaced. A no-op when unarmed; I/O
    /// failures are swallowed (the dump count does not move) —
    /// the serving path that declared the incident must keep serving.
    pub fn trigger(&self, reason: &str) {
        let path = self
            .dump_path
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone();
        let Some(path) = path else { return };
        let sealed = wr_fault::seal_lines(self.snapshot_json(reason));
        if wr_fault::write_atomic(&path, sealed.as_bytes()).is_ok() {
            self.dumps.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Read a sealed flight dump back, verifying the CRC footer: truncation
/// or a flipped bit is an `InvalidData` error, exactly like the WRCK /
/// WRIV loaders. Returns the dump body (header + event lines).
pub fn read_dump(path: &Path) -> std::io::Result<String> {
    let text = std::fs::read_to_string(path)?;
    // Dumps are always written sealed, so a missing footer *is*
    // truncation (verify_lines alone passes footer-less text through).
    if !text.contains(wr_fault::CRC_LINE_PREFIX) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "flight dump is missing its CRC footer (truncated?)",
        ));
    }
    let body = wr_fault::verify_lines(&text)?;
    if !body.starts_with("{\"format\":\"wr-flight/v1\"") {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "not a wr-flight/v1 dump",
        ));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(req: u64) -> TraceContext {
        TraceContext::root(req, 0)
    }

    #[test]
    fn ring_retains_the_newest_capacity_events() {
        let fr = FlightRecorder::with_capacity(3);
        for i in 0..5u64 {
            fr.note("retry", "serve.row", ctx(i), i, 0, 0);
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.total(), 5);
        let reqs: Vec<u64> = fr.events().iter().map(|e| e.req).collect();
        assert_eq!(reqs, vec![2, 3, 4]);
    }

    #[test]
    fn snapshot_is_sorted_and_insertion_order_independent() {
        let a = FlightRecorder::new();
        let b = FlightRecorder::new();
        let events: [(u64, &'static str); 3] = [(3, "panic"), (1, "retry"), (2, "quarantine")];
        for &(req, kind) in &events {
            a.note(kind, "serve.row", ctx(req), req, 0, 0);
        }
        for &(req, kind) in events.iter().rev() {
            b.note(kind, "serve.row", ctx(req), req, 0, 0);
        }
        assert_eq!(a.snapshot_json("x"), b.snapshot_json("x"));
        assert!(a.snapshot_json("x").starts_with("{\"format\":\"wr-flight/v1\""));
    }

    #[test]
    fn trigger_writes_a_sealed_dump_that_read_dump_round_trips() {
        let dir = std::env::temp_dir().join(format!("wr-flight-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight.json");
        let fr = FlightRecorder::new();
        fr.note("degraded", "gateway.shard1", ctx(9), 9, 2, 0);
        fr.trigger("degraded"); // unarmed yet? no — arm first
        fr.arm_dump(&path);
        fr.trigger("degraded");
        assert_eq!(fr.dumps(), 1);
        let body = read_dump(&path).unwrap();
        assert!(body.contains("\"reason\":\"degraded\""));
        assert!(body.contains("\"site\":\"gateway.shard1\""));
        assert!(body.contains("\"batch\":2"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_dumps_are_rejected_like_wrck() {
        let dir = std::env::temp_dir().join(format!("wr-flight-tamper-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight.json");
        let fr = FlightRecorder::new();
        fr.note("panic", "serve.row", ctx(4), 4, 1, 0);
        fr.arm_dump(&path);
        fr.trigger("panic");
        let sealed = std::fs::read_to_string(&path).unwrap();

        // Truncation that drops the CRC footer entirely.
        let truncated: String = sealed.lines().take(1).map(|l| format!("{l}\n")).collect();
        std::fs::write(&path, truncated).unwrap();
        let err = read_dump(&path).expect_err("footer-less dump must be rejected");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // Truncation inside the body (footer intact, CRC mismatch).
        let cut = sealed.replace("\"site\":\"serve.row\"", "\"site\":\"serve.ro\"");
        std::fs::write(&path, cut).unwrap();
        let err = read_dump(&path).expect_err("truncated body must be detected");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // A single flipped bit.
        let mut flipped = sealed.clone().into_bytes();
        flipped[10] ^= 1;
        std::fs::write(&path, &flipped).unwrap();
        let err = read_dump(&path).expect_err("bit flip must be detected");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unarmed_trigger_is_a_counted_noop_and_failures_do_not_raise() {
        let fr = FlightRecorder::new();
        fr.note("degraded", "gateway", ctx(1), u64::MAX, u64::MAX, 0);
        fr.trigger("degraded"); // unarmed: nothing written, nothing raised
        assert_eq!(fr.dumps(), 0);
        // Arm an unwritable path: failure is counted, not raised.
        fr.arm_dump("/nonexistent-dir-zz/flight.json");
        fr.trigger("degraded");
        assert_eq!(fr.dumps(), 0);
    }
}
