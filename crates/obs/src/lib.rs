//! `wr-obs` — std-only observability for the WhitenRec reproduction.
//!
//! Five pieces, all global-free and pool-safe:
//!
//! * [`registry`] — a [`Registry`] of [`Counter`]s, [`Gauge`]s, and
//!   fixed-bucket [`Histogram`]s with per-bucket trace-id **exemplars**;
//!   lock-sharded lookup, lock-free observation, deterministic
//!   name-sorted [`Snapshot`] with compact JSON export (`wr-obs/v1`).
//! * [`clock`] + [`span`] — the [`Clock`] trait ([`MonotonicClock`] in
//!   production, [`MockClock`] in tests) and a [`Tracer`] of RAII
//!   [`Span`]s exporting Chrome `trace_event` JSON (Perfetto /
//!   `about:tracing`) and JSONL.
//! * [`trace`] — [`TraceContext`]: deterministic request-scoped
//!   trace/span ids (SplitMix64 of request id + batch index — no RNG,
//!   no wall clock) propagated through the serving stack.
//! * [`flight`] — [`FlightRecorder`]: an always-on bounded ring of
//!   recent structured events, snapshotted to CRC-sealed JSON artifacts
//!   on degradation/permanent-panic/overload incidents.
//! * [`http`] — [`serve_http`]: a read-only live telemetry endpoint
//!   (`/metrics`, `/traces/recent`, `/flight`, `/health`) on a blocking
//!   `TcpListener` thread, plus the [`http_get`] scrape client.
//!
//! **Layering.** This crate sits at the very bottom of the workspace —
//! its only dependency is `wr-fault` (itself dependency-free), for the
//! CRC-sealed atomic flight dumps — and `wr-runtime` (which everything
//! else builds on) depends on it to time pool jobs. That is why JSON is
//! written by local helpers instead of `wr_tensor::json` (same dialect;
//! parse-compatibility is asserted by root integration tests). The
//! registry holds gauges, not statistics: the paper's embedding-geometry
//! numbers are computed by `wr_eval` and recorded here by their caller.
//!
//! **Determinism contract.** Telemetry is strictly write-only with
//! respect to computation: nothing in this crate is ever read back into
//! a result-producing path. Clippy's `disallowed_methods` pins the only
//! production wall-clock read to this crate, and
//! `gateway_telemetry_is_write_only_and_nonzero`, its serve twin and the
//! serve/runtime differential suites assert bit-identical results with
//! instrumentation attached and across `WR_THREADS` settings.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod clock;
pub mod flight;
pub mod http;
mod jsonw;
pub mod registry;
pub mod span;
pub mod trace;

pub use clock::{Clock, MockClock, MonotonicClock};
pub use flight::{read_dump, FlightEvent, FlightRecorder, DEFAULT_FLIGHT_CAPACITY, FLIGHT_FORMAT};
pub use http::{http_get, serve_http, ObsServer};
pub use registry::{
    nearest_rank, Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot,
    EXEMPLARS_PER_BUCKET, FAULT_COUNTERS,
};
pub use span::{Span, TraceEvent, Tracer, DEFAULT_TRACE_CAPACITY};
pub use trace::TraceContext;

use std::sync::Arc;

/// One shared clock + registry + tracer + flight recorder, threaded
/// through an instrumented pipeline as a unit. Cheap to clone pieces out
/// of (everything is an `Arc`); construct one per experiment/benchmark
/// run.
#[derive(Clone)]
pub struct Telemetry {
    pub clock: Arc<dyn Clock>,
    pub registry: Arc<Registry>,
    pub tracer: Arc<Tracer>,
    pub flight: Arc<FlightRecorder>,
}

impl Telemetry {
    /// Production telemetry on a fresh [`MonotonicClock`].
    pub fn new() -> Self {
        Self::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// Telemetry on a caller-supplied clock (tests pass a [`MockClock`]).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        let tracer = Arc::new(Tracer::new(clock.clone()));
        Telemetry {
            clock,
            registry: Arc::new(Registry::new()),
            tracer,
            flight: Arc::new(FlightRecorder::new()),
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("tracer", &self.tracer)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_shares_one_clock_between_tracer_and_caller() {
        let clock = Arc::new(MockClock::new());
        let tel = Telemetry::with_clock(clock.clone());
        {
            let _s = tel.tracer.span("tick", "test");
            clock.advance(42);
        }
        assert_eq!(tel.tracer.events()[0].dur_ns, 42);
        assert_eq!(tel.clock.now_ns(), 42);
    }

    #[test]
    fn telemetry_clones_share_state() {
        let tel = Telemetry::new();
        let tel2 = tel.clone();
        tel.registry.counter("n").inc();
        assert_eq!(tel2.registry.counter("n").get(), 1);
    }
}
