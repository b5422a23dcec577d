//! In-memory span recorder for the traced run.
//!
//! The benchmark records a span around every public call it makes into
//! the program (`AuroraSimulator::run`, `SimSession::apply`, the
//! daemon's NDJSON verbs). Each span has a name, start and end (µs from
//! a shared epoch), the span that caused it, the operation it belongs
//! to, and optional numeric attributes (a run's host profile rides on
//! its span this way). Spans stay in memory and are written out once,
//! when the run ends.

use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one operation.
    pub op: u64,
    pub attrs: BTreeMap<String, f64>,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A span recorder. Disabled recorders keep nothing and cost one branch
/// per call; each thread owns its own recorder and [`Tracer::merge`]
/// joins them at the end.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &str, op: u64) {
        if !self.enabled {
            return;
        }
        let now = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
            op,
            attrs: BTreeMap::new(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Attaches a numeric attribute to the innermost open span.
    pub fn attr(&mut self, key: String, value: f64) {
        if let Some(&i) = self.open.last() {
            self.spans[i].attrs.insert(key, value);
        }
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_us = self.now_us();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, op: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, op);
        let out = f();
        self.exit();
        out
    }

    /// Appends `other`'s spans, re-basing their parent indices.
    pub fn merge(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "merging a tracer with open spans");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total duration and count of the spans named `name`.
    pub fn total_us(&self, name: &str) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| (t + s.dur_us(), n + 1))
    }

    /// Writes every span as one JSON document.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let doc = serde_json::to_string(&self.spans).expect("spans serialize");
        std::fs::write(path, doc)
    }
}
