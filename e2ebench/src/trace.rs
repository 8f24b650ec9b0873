//! Spans recorded by the harness around calls into each layer, kept in
//! memory and written out once as Chrome trace-event JSON, plus the
//! per-layer samples derived from them.

use crate::report::json_str;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One completed span.
#[derive(Clone, Debug)]
struct Event {
    name: String,
    cat: &'static str,
    start_ns: u64,
    dur_ns: u64,
    stmt: u64,
}

/// In-memory span recorder. Spans of one statement share its id; spans
/// nest by time (a statement span encloses its layer spans).
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    events: Vec<Event>,
    stmt: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            events: Vec::new(),
            stmt: 0,
        }
    }
}

impl Tracer {
    /// Starts the next statement and returns its id.
    pub fn next_stmt(&mut self) -> u64 {
        self.stmt += 1;
        self.stmt
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in nanoseconds.
    pub fn span<T>(&mut self, cat: &'static str, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let ns = self.record(cat, name, start);
        (out, ns)
    }

    /// Records a span from `start` until now; returns its nanoseconds.
    pub fn record(&mut self, cat: &'static str, name: &str, start: Instant) -> f64 {
        let dur = start.elapsed();
        self.events.push(Event {
            name: name.to_string(),
            cat,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
            stmt: self.stmt,
        });
        dur.as_nanos() as f64
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True before the first span.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Writes every span as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto), with `meta` under `otherData`.
    ///
    /// # Errors
    /// Returns the I/O error of the write.
    pub fn write_chrome(&self, path: &Path, meta: &[(&str, String)]) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, e) in self.events.iter().enumerate() {
            let sep = if i + 1 == self.events.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"stmt\":{}}}}}{sep}",
                json_str(&e.name),
                json_str(e.cat),
                e.start_ns as f64 / 1e3,
                e.dur_ns as f64 / 1e3,
                e.stmt,
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{");
        let fields: Vec<String> = meta
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
            .collect();
        out.push_str(&fields.join(","));
        out.push_str("}}\n");
        std::fs::write(path, out)
    }
}

/// Per-layer samples by metric name.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    samples: BTreeMap<String, Vec<f64>>,
}

impl Layers {
    /// Adds one sample.
    pub fn add(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: Layers) {
        for (name, samples) in other.samples {
            self.samples.entry(name).or_default().extend(samples);
        }
    }

    /// Samples of `name`, if any were taken.
    pub fn get(&self, name: &str) -> Option<&[f64]> {
        self.samples
            .get(name)
            .map(Vec::as_slice)
            .filter(|s| !s.is_empty())
    }
}
