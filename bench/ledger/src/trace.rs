//! Spans recorded by the benchmark around its calls into each layer: kept
//! in memory, written as Chrome-trace JSON when the run ends.

use wr_tensor::json::Json;

use crate::cal::now_ns;

/// One timed call into a layer. `layer` is the crate name; spans of one
/// micro-batch share `trace_id`; `parent` indexes the recorder's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub layer: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub trace_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Where a new span hangs: under which span, in which micro-batch's trace.
#[derive(Debug, Clone, Copy)]
pub struct Under {
    pub parent: Option<usize>,
    pub trace_id: u64,
}

impl Under {
    /// A root span of trace `trace_id`.
    pub fn root(trace_id: u64) -> Under {
        Under {
            parent: None,
            trace_id,
        }
    }

    /// A child of span `parent` in the same trace.
    pub fn child(self, parent: usize) -> Under {
        Under {
            parent: Some(parent),
            ..self
        }
    }
}

#[derive(Default)]
pub struct Recorder {
    spans: Vec<Span>,
}

impl Recorder {
    /// Open a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, layer: &str, name: &str, under: Under) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            layer: layer.to_string(),
            start_ns: 0,
            end_ns: 0,
            parent: under.parent,
            trace_id: under.trace_id,
        });
        // Read the clock last: the span does not time its own bookkeeping.
        let now = now_ns();
        let id = self.spans.len() - 1;
        (self.spans[id].start_ns, self.spans[id].end_ns) = (now, now);
        id
    }

    /// Close span `id` and return its duration in milliseconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let now = now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.dur_ns() as f64 / 1e6
    }

    /// Run `op` inside a span; returns its value and the span's milliseconds.
    pub fn record<T>(
        &mut self,
        layer: &str,
        name: &str,
        under: Under,
        op: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(layer, name, under);
        let value = op();
        (value, self.end(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part of it its direct children cover.
    /// Children may overlap one another (parallel shards) and are clipped
    /// to the parent, so covered time is never counted twice.
    pub fn self_ms(&self, id: usize) -> f64 {
        self_ns(&self.spans, id) as f64 / 1e6
    }
}

pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let parent = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| {
            (
                s.start_ns.clamp(parent.start_ns, parent.end_ns),
                s.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.start_ns;
    for (start, end) in children {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    parent.dur_ns() - covered
}

/// Chrome `traceEvents` ("X" complete events, microsecond timestamps). The
/// span index, parent and trace id ride in `args`, and the nanosecond
/// bounds too, so the file reads back without rounding.
pub fn to_chrome_json(spans: &[Span]) -> String {
    let num = |v: u64| Json::Num(v as f64);
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Json::Obj(vec![
                ("name".into(), Json::Str(s.name.clone())),
                ("cat".into(), Json::Str(s.layer.clone())),
                ("ph".into(), Json::Str("X".into())),
                ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                ("dur".into(), Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid".into(), num(1)),
                ("tid".into(), num(1)),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("id".into(), num(i as u64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| num(p as u64)),
                        ),
                        // As text: a u64 does not fit a JSON double.
                        ("trace_id".into(), Json::Str(format!("{:016x}", s.trace_id))),
                        ("start_ns".into(), num(s.start_ns)),
                        ("end_ns".into(), num(s.end_ns)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![("traceEvents".into(), Json::Arr(events))]).to_string()
}

/// Read back what [`to_chrome_json`] wrote.
#[cfg(test)]
pub fn from_chrome_json(text: &str) -> Result<Vec<Span>, String> {
    let doc = Json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("no traceEvents array")?;
    events
        .iter()
        .map(|e| {
            let text = |key: &str| {
                e.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("event without {key}"))
            };
            let args = e.get("args").ok_or("event without args")?;
            let ns = |key: &str| {
                args.get(key)
                    .and_then(Json::as_f64)
                    .filter(|v| v.is_finite() && *v >= 0.0)
                    .map(|v| v as u64)
                    .ok_or(format!("args without {key}"))
            };
            let trace_id = args
                .get("trace_id")
                .and_then(Json::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or("args without trace_id")?;
            Ok(Span {
                name: text("name")?,
                layer: text("cat")?,
                start_ns: ns("start_ns")?,
                end_ns: ns("end_ns")?,
                parent: match args.get("parent") {
                    Some(Json::Num(p)) => Some(*p as usize),
                    _ => None,
                },
                trace_id,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s".into(),
            layer: "l".into(),
            start_ns,
            end_ns,
            parent,
            trace_id: 7,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),  // overlaps the first by 10
            span(90, 120, Some(0)), // runs 20 past the parent
            span(15, 20, Some(1)),  // a grandchild is its parent's business
        ];
        // Covered: [10, 60) and [90, 100) = 60; self = 40.
        assert_eq!(self_ns(&spans, 0), 40);
        assert_eq!(self_ns(&spans, 1), 25);
        assert_eq!(self_ns(&spans, 4), 5);
    }

    #[test]
    fn self_time_of_nested_identical_children() {
        let spans = vec![
            span(0, 50, None),
            span(0, 50, Some(0)),
            span(0, 50, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 0);
    }

    #[test]
    fn chrome_trace_round_trip() {
        let mut rec = Recorder::default();
        let trace = Under::root(u64::MAX - 3);
        let root = rec.begin("gateway", "serve \"q\"", trace);
        let (v, ms) = rec.record("models", "encode", trace.child(root), || 41 + 1);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
        rec.end(root);
        let text = to_chrome_json(rec.spans());
        assert_eq!(from_chrome_json(&text).unwrap(), rec.spans());
        // And it is the shape chrome://tracing loads.
        let doc = Json::parse(&text).unwrap();
        let first = &doc.get("traceEvents").unwrap().as_arr().unwrap()[0];
        assert_eq!(first.get("ph").unwrap().as_str(), Some("X"));
        assert!(first.get("ts").unwrap().as_f64().is_some());
        assert!(from_chrome_json("{\"traceEvents\": 3}").is_err());
    }
}
