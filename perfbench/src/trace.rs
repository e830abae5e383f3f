//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start and end (seconds since the recorder's origin),
//! the span that was open when it started, and the identifier of the unit of
//! work it belongs to (a round, a solve or a served job). Spans stay in memory and
//! are written out as JSON lines when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub unit: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Runs `f` inside a span nested under the currently open one.
    pub fn span<T>(&self, name: &'static str, unit: u64, f: impl FnOnce() -> T) -> T {
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start: self.at(Instant::now()),
                end: f64::NAN,
                parent: self.open.borrow().last().copied(),
                unit,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end = self.at(Instant::now());
        out
    }

    /// Records a finished top-level span from timestamps taken elsewhere
    /// (the server's event sink).
    pub fn record(&self, name: &'static str, unit: u64, start: Instant, end: Instant) {
        self.spans.borrow_mut().push(Span {
            name,
            start: self.at(start),
            end: self.at(end),
            parent: None,
            unit,
        });
    }

    /// Per-unit totals of the spans named `name`, in milliseconds.
    pub fn per_unit_ms(&self, name: &str) -> Vec<f64> {
        let mut totals: BTreeMap<u64, f64> = BTreeMap::new();
        for span in self.spans.borrow().iter().filter(|s| s.name == name) {
            *totals.entry(span.unit).or_default() += span.seconds() * 1e3;
        }
        totals.into_values().collect()
    }

    /// Per-unit self time of the spans named `name` (duration minus the
    /// time covered by their child spans), in milliseconds.
    pub fn self_per_unit_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.borrow();
        let mut child_seconds = vec![0.0; spans.len()];
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                child_seconds[parent] += span.seconds();
            }
        }
        let mut totals: BTreeMap<u64, f64> = BTreeMap::new();
        for (index, span) in spans.iter().enumerate() {
            if span.name == name {
                *totals.entry(span.unit).or_default() +=
                    (span.seconds() - child_seconds[index]) * 1e3;
            }
        }
        totals.into_values().collect()
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.borrow().iter().enumerate() {
            writeln!(
                out,
                "{{\"span\":{index},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"unit\":{}}}",
                span.name,
                span.start,
                span.end,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.unit
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span when a tracer is attached, bare otherwise.
pub fn span<T>(tracer: Option<&Tracer>, name: &'static str, unit: u64, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(tracer) => tracer.span(name, unit, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let tracer = Tracer::new();
        tracer.span("outer", 1, || {
            tracer.span("inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let outer = tracer.per_unit_ms("outer")[0];
        let inner = tracer.per_unit_ms("inner")[0];
        let outer_self = tracer.self_per_unit_ms("outer")[0];
        assert!(inner >= 5.0);
        assert!((outer_self - (outer - inner)).abs() < 1e-9);
    }
}
