//! Writing a run's telemetry to disk: Chrome trace + metrics snapshot.
//!
//! Both experiment drivers (`whitenrec train`, `whitenrec bench`) accept
//! `--trace-out` / `--metrics-out`; this is the shared exit path. Every
//! export is self-validated before it is written — the JSON is parsed back
//! with `wr_tensor::Json` and shape-checked, so a malformed trace is a
//! binary failure, not a surprise in Perfetto.

use std::path::Path;

use wr_obs::Telemetry;
use wr_tensor::Json;

/// Write `telemetry`'s trace (Chrome `trace_event` JSON, load it in
/// Perfetto / `chrome://tracing`) and/or metrics snapshot (`wr-obs/v1`
/// JSON) to the given paths. `None` paths are skipped. Each document is
/// validated before writing; any I/O or shape problem is returned as a
/// message suitable for the binary's stderr.
pub fn export_telemetry(
    telemetry: &Telemetry,
    trace_out: Option<&Path>,
    metrics_out: Option<&Path>,
) -> Result<(), String> {
    if let Some(path) = trace_out {
        let doc = telemetry.tracer.to_chrome_json();
        validate_trace(&doc)?;
        std::fs::write(path, doc + "\n")
            .map_err(|e| format!("writing trace {}: {e}", path.display()))?;
    }
    if let Some(path) = metrics_out {
        let doc = telemetry.registry.to_json();
        validate_metrics(&doc)?;
        std::fs::write(path, doc + "\n")
            .map_err(|e| format!("writing metrics {}: {e}", path.display()))?;
    }
    Ok(())
}

/// The trace must parse and carry a `traceEvents` array whose entries have
/// the complete-event shape (`ph:"X"`, name, microsecond ts/dur).
fn validate_trace(doc: &str) -> Result<(), String> {
    let parsed = Json::parse(doc).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .ok_or("trace lacks a traceEvents array")?;
    for ev in events {
        let ok = ev.get("ph").and_then(|v| v.as_str()) == Some("X")
            && ev.get("name").and_then(|v| v.as_str()).is_some()
            && ev.get("ts").and_then(|v| v.as_f64()).is_some()
            && ev.get("dur").and_then(|v| v.as_f64()).is_some();
        if !ok {
            return Err("trace event missing ph/name/ts/dur".to_string());
        }
    }
    Ok(())
}

/// The metrics snapshot must parse and identify itself as `wr-obs/v1`
/// with the three metric sections present.
fn validate_metrics(doc: &str) -> Result<(), String> {
    let parsed = Json::parse(doc).map_err(|e| format!("metrics are not valid JSON: {e}"))?;
    if parsed.get("format").and_then(|v| v.as_str()) != Some("wr-obs/v1") {
        return Err("metrics snapshot is not wr-obs/v1".to_string());
    }
    for section in ["counters", "gauges", "histograms"] {
        if parsed.get(section).is_none() {
            return Err(format!("metrics snapshot lacks the {section} section"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wr_obs::MockClock;

    #[test]
    fn exports_parse_and_land_on_disk() {
        let tel = Telemetry::with_clock(Arc::new(MockClock::with_tick(1_000)));
        tel.registry.counter("n").inc();
        tel.registry.gauge("g").set(2.5);
        drop(tel.tracer.span("work", "test"));

        let dir = std::env::temp_dir().join(format!("wr-telemetry-export-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.json");
        let metrics = dir.join("metrics.json");
        export_telemetry(&tel, Some(&trace), Some(&metrics)).unwrap();

        let trace_doc = std::fs::read_to_string(&trace).unwrap();
        let parsed = Json::parse(&trace_doc).unwrap();
        assert_eq!(parsed.get("traceEvents").unwrap().as_arr().unwrap().len(), 1);
        let metrics_doc = std::fs::read_to_string(&metrics).unwrap();
        assert!(metrics_doc.contains("\"wr-obs/v1\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_tolerance_counters_appear_in_the_metrics_export() {
        // The binaries register the recovery surface eagerly, so a clean
        // run's export carries every fault counter at zero — the chaos
        // smoke in scripts/check.sh greps these names.
        let tel = Telemetry::new();
        tel.registry.register_fault_counters();

        let dir = std::env::temp_dir().join(format!("wr-telemetry-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("metrics.json");
        export_telemetry(&tel, None, Some(&metrics)).unwrap();

        let doc = std::fs::read_to_string(&metrics).unwrap();
        let parsed = Json::parse(&doc).unwrap();
        let counters = parsed.get("counters").expect("counters section");
        for name in wr_obs::FAULT_COUNTERS {
            assert!(
                counters.get(name).and_then(|v| v.as_f64()).is_some(),
                "metrics export must carry the {name} counter (found doc: {doc})"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_telemetry_still_exports_valid_documents() {
        let tel = Telemetry::new();
        let dir = std::env::temp_dir().join(format!("wr-telemetry-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.json");
        export_telemetry(&tel, Some(&trace), None).unwrap();
        assert!(Json::parse(&std::fs::read_to_string(&trace).unwrap()).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
