//! Phase spans recorded from outside the simulator, around the calls the
//! benchmark makes into each layer.
//!
//! Spans stay in memory and are written once, at exit, as Chrome
//! trace-event JSON (`chrome://tracing`, Perfetto): one complete (`"X"`)
//! event per span, with the span's id, parent id and workload in `args`.

use std::time::Instant;
use tla::telemetry::json::JsonValue;

/// One timed phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Phase name, e.g. `core.access`.
    pub name: String,
    /// The workload the phase belongs to.
    pub workload: String,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A span recorder. A disabled recorder still times the phases it is
/// asked about (callers need the durations) but keeps nothing.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    workload: String,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that keeps spans for `workload`.
    pub fn new(workload: &str) -> Spans {
        Spans {
            origin: Instant::now(),
            workload: workload.to_string(),
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that keeps nothing: the untraced timed runs use it.
    pub fn off() -> Spans {
        Spans {
            enabled: false,
            ..Spans::new("")
        }
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the span's duration in seconds. Spans opened inside `f` become its
    /// children.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
        let id = self.enabled.then(|| {
            let id = self.spans.len();
            self.spans.push(Span {
                name: name.to_string(),
                workload: self.workload.clone(),
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied(),
            });
            self.open.push(id);
            id
        });
        let start = Instant::now();
        let r = f(self);
        let end = Instant::now();
        if let Some(id) = id {
            self.open.pop();
            let (start_ns, end_ns) = (self.nanos(start), self.nanos(end));
            let span = &mut self.spans[id];
            span.start_ns = start_ns;
            span.end_ns = end_ns;
        }
        (r, (end - start).as_secs_f64())
    }

    fn nanos(&self, t: Instant) -> u64 {
        u64::try_from((t - self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Total seconds of the recorded spans called `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |total, s| total + s.secs())
    }

    /// The spans as Chrome trace events, on process lane `pid`.
    pub fn trace_events(&self, pid: u64) -> Vec<JsonValue> {
        self.spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                JsonValue::object([
                    ("name", JsonValue::from(s.name.as_str())),
                    ("cat", JsonValue::from(s.workload.as_str())),
                    ("ph", JsonValue::from("X")),
                    ("ts", JsonValue::Num(s.start_ns as f64 / 1e3)),
                    ("dur", JsonValue::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", JsonValue::Int(pid)),
                    ("tid", JsonValue::Int(1)),
                    (
                        "args",
                        JsonValue::object([
                            ("id", JsonValue::Int(id as u64)),
                            (
                                "parent",
                                s.parent
                                    .map_or(JsonValue::Null, |p| JsonValue::Int(p as u64)),
                            ),
                            ("workload", JsonValue::from(s.workload.as_str())),
                            ("start_ns", JsonValue::Int(s.start_ns)),
                            ("end_ns", JsonValue::Int(s.end_ns)),
                        ]),
                    ),
                ])
            })
            .collect()
    }
}

/// Wraps trace events into a Chrome trace document.
pub fn chrome_trace(events: Vec<JsonValue>) -> JsonValue {
    JsonValue::object([
        ("traceEvents", JsonValue::Arr(events)),
        ("displayTimeUnit", JsonValue::from("ms")),
    ])
}
