//! In-memory spans around the benchmark's calls into each layer, and the
//! ledger that folds them into per-layer self-times.
//!
//! A span has a name (the layer, named after its module, e.g.
//! `core.build`), a request id shared by every span of one request, a
//! parent, and start/end offsets from the tracer's origin. Spans stay in
//! memory until the run ends and are then written out as NDJSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The span that groups one request's layer calls. It is not a layer:
/// its self-time is glue and counts towards the ledger's residual.
pub const REQUEST: &str = "request";

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub phase: &'static str,
    pub start: Duration,
    pub end: Duration,
}

/// A span recorder; a disabled tracer runs the closures and records
/// nothing, so traced and untraced passes execute the same code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    phase: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            phase: "redrive",
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_phase(&mut self, phase: &'static str) {
        self.phase = phase;
    }

    /// Opens a span that later spans nest under until [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, request: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().copied(),
            phase: self.phase,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(index);
        Some(index)
    }

    pub fn end(&mut self, span: Option<usize>) {
        if let Some(index) = span {
            self.spans[index].end = self.origin.elapsed();
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(index), "spans close innermost first");
        }
    }

    /// Times `f` as one leaf span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name, request);
        let out = f();
        self.end(span);
        out
    }

    /// Records an interval measured elsewhere (another thread, or an
    /// event timestamp) as a root span.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                request,
                parent: None,
                phase: self.phase,
                start: start.saturating_duration_since(self.origin),
                end: end.saturating_duration_since(self.origin),
            });
        }
    }

    /// Per-layer self-time (seconds) and call count over the spans of
    /// `phase`. Self-time is a span's duration minus its children's.
    pub fn ledger(&self, phase: &str) -> BTreeMap<&'static str, (f64, u64)> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.end.saturating_sub(span.start);
            }
        }
        let mut layers: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_time) {
            if span.phase != phase {
                continue;
            }
            let own = span.end.saturating_sub(span.start).saturating_sub(children);
            let entry = layers.entry(span.name).or_insert((0.0, 0));
            entry.0 += own.as_secs_f64();
            entry.1 += 1;
        }
        layers
    }

    /// Writes every span as one NDJSON line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\
                 \"phase\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.request,
                span.name,
                span.phase,
                span.start.as_nanos(),
                span.end.as_nanos()
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new(true);
        let root = tracer.begin(REQUEST, 1);
        tracer.span("core.build", 1, || {
            std::thread::sleep(Duration::from_millis(5))
        });
        tracer.end(root);
        let ledger = tracer.ledger("redrive");
        let build = ledger["core.build"];
        let glue = ledger[REQUEST];
        assert_eq!(build.1, 1);
        assert!(build.0 >= 0.005, "{build:?}");
        assert!(glue.0 < build.0, "{glue:?} vs {build:?}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        assert_eq!(tracer.span("core.build", 1, || 7), 7);
        assert!(tracer.ledger("redrive").is_empty());
    }
}
