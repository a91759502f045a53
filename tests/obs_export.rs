//! Cross-crate contract tests for `wr-obs` exports.
//!
//! `wr-obs` sits below `wr-tensor` and therefore writes JSON with its own
//! helpers; these tests pin the two dialects together (everything obs
//! emits must parse with `wr_tensor::Json`) and hold the Chrome trace
//! format to a committed golden fixture so the Perfetto-facing shape can't
//! drift silently.
//!
//! Regenerate the fixture after an intentional format change with:
//! `WR_UPDATE_GOLDEN=1 cargo test --test obs_export`, then commit the diff.
//! The run that rewrites the file still fails, so an update can never
//! pass a CI run unnoticed.

use std::sync::Arc;

use wr_obs::{Histogram, MockClock, Telemetry};
use wr_tensor::Json;

const GOLDEN_PATH: &str = "tests/golden/trace_events.json";

/// A fully deterministic trace: every timestamp comes from a manually
/// advanced [`MockClock`], so the exported document is byte-stable.
fn golden_telemetry() -> (Arc<MockClock>, Telemetry) {
    let clock = Arc::new(MockClock::new());
    let tel = Telemetry::with_clock(clock.clone());
    {
        // Nested spans: whiten.fit entirely inside epoch0.
        let epoch = tel.tracer.span("epoch0", "train");
        clock.advance(1_000);
        {
            let _fit = tel.tracer.span("whiten.fit", "whiten");
            clock.advance(2_500);
        }
        clock.advance(1_000);
        drop(epoch);
    }
    // A zero-duration span and an explicitly recorded interval.
    drop(tel.tracer.span("noop", "test"));
    tel.tracer.record("replay", "serve", 0, 7_250);
    (clock, tel)
}

#[test]
fn chrome_trace_matches_the_golden_fixture() {
    let (_clock, tel) = golden_telemetry();
    let doc = tel.tracer.to_chrome_json();

    let update = std::env::var("WR_UPDATE_GOLDEN").is_ok();
    if update {
        std::fs::write(GOLDEN_PATH, doc.clone() + "\n").unwrap();
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden fixture missing — run with WR_UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        doc,
        golden.trim_end(),
        "Chrome trace format drifted from tests/golden/trace_events.json"
    );
    assert!(
        !update,
        "WR_UPDATE_GOLDEN set: fixture rewritten; unset it, inspect the diff, and re-run"
    );
}

#[test]
fn chrome_trace_shape_is_valid_trace_event_json() {
    let (_clock, tel) = golden_telemetry();
    let parsed = Json::parse(&tel.tracer.to_chrome_json()).unwrap();
    assert_eq!(
        parsed.get("displayTimeUnit").unwrap().as_str().unwrap(),
        "ms"
    );
    let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
    assert_eq!(events.len(), 4);
    for ev in events {
        // The complete-event shape Perfetto requires.
        assert_eq!(ev.get("ph").unwrap().as_str().unwrap(), "X");
        assert_eq!(ev.get("pid").unwrap().as_usize().unwrap(), 1);
        assert!(ev.get("name").unwrap().as_str().is_some());
        assert!(ev.get("cat").unwrap().as_str().is_some());
        assert!(ev.get("ts").unwrap().as_f64().is_some());
        assert!(ev.get("dur").unwrap().as_f64().unwrap() >= 0.0);
        assert!(ev.get("tid").unwrap().as_usize().is_some());
    }
    // Spans close in end order: the nested fit precedes its parent epoch;
    // timestamps are microseconds.
    let names: Vec<&str> = events
        .iter()
        .map(|e| e.get("name").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(names, ["whiten.fit", "epoch0", "noop", "replay"]);
    let fit = &events[0];
    assert_eq!(fit.get("ts").unwrap().as_f64().unwrap(), 1.0);
    assert_eq!(fit.get("dur").unwrap().as_f64().unwrap(), 2.5);
    let epoch = &events[1];
    assert_eq!(epoch.get("ts").unwrap().as_f64().unwrap(), 0.0);
    assert_eq!(epoch.get("dur").unwrap().as_f64().unwrap(), 4.5);
}

#[test]
fn trace_jsonl_lines_parse_individually() {
    let (_clock, tel) = golden_telemetry();
    let jsonl = tel.tracer.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), 4);
    for line in lines {
        let parsed = Json::parse(line).unwrap();
        assert!(parsed.get("name").unwrap().as_str().is_some());
        assert!(parsed.get("ts_us").unwrap().as_f64().is_some());
        assert!(parsed.get("dur_us").unwrap().as_f64().is_some());
        assert!(parsed.get("tid").unwrap().as_usize().is_some());
    }
}

#[test]
fn registry_snapshot_parses_with_the_workspace_json_parser() {
    let tel = Telemetry::new();
    tel.registry.counter("serve.requests").add(42);
    tel.registry.gauge("whiten.post.condition_number").set(1.25);
    // Non-finite gauges must serialize as null, the wr_tensor convention.
    tel.registry.gauge("bad").set(f64::NAN);
    let h = tel
        .registry
        .histogram("lat_ms", &Histogram::default_ms_bounds());
    h.observe(0.5);
    h.observe(3.0);
    h.observe(250.0);

    let doc = tel.registry.to_json();
    let parsed = Json::parse(&doc).unwrap();
    assert_eq!(parsed.get("format").unwrap().as_str().unwrap(), "wr-obs/v1");
    let counters = parsed.get("counters").unwrap();
    assert_eq!(counters.get("serve.requests").unwrap().as_usize(), Some(42));
    let gauges = parsed.get("gauges").unwrap();
    assert_eq!(
        gauges.get("whiten.post.condition_number").unwrap().as_f64(),
        Some(1.25)
    );
    assert!(matches!(gauges.get("bad").unwrap(), Json::Null));
    let hist = parsed.get("histograms").unwrap().get("lat_ms").unwrap();
    assert_eq!(hist.get("count").unwrap().as_usize(), Some(3));
    assert_eq!(hist.get("min").unwrap().as_f64(), Some(0.5));
    assert_eq!(hist.get("max").unwrap().as_f64(), Some(250.0));
    let buckets = hist.get("buckets").unwrap().as_arr().unwrap();
    let bounds = hist.get("bounds").unwrap().as_arr().unwrap();
    assert_eq!(buckets.len(), bounds.len() + 1);
}

#[test]
fn float_dialects_agree_between_obs_and_tensor_json() {
    // Spot-check that numbers round-trip identically through both writers:
    // serialize a gauge with an awkward mantissa via obs, parse with
    // wr_tensor, compare bit patterns. (-0.0 is excluded: the integer
    // shortcut in both dialects normalizes it to 0, by design.)
    for v in [
        0.1,
        1.0 / 3.0,
        1e-12,
        123456789.123456,
        f64::MIN_POSITIVE,
    ] {
        let tel = Telemetry::new();
        tel.registry.gauge("x").set(v);
        let parsed = Json::parse(&tel.registry.to_json()).unwrap();
        let got = parsed
            .get("gauges")
            .unwrap()
            .get("x")
            .unwrap()
            .as_f64()
            .unwrap();
        assert_eq!(got.to_bits(), v.to_bits(), "{v} mangled in transit");
    }
}
