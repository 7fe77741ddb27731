//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start and end, the span that caused it, and an
//! id shared by every span of one request or delta. Spans stay in memory
//! and are written out as JSON lines when the run ends. A disabled trace
//! records nothing, so the untraced run pays only the branch.

use crate::stats::json_str;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    id: u64,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

/// The span recorder of one run.
pub struct Trace {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// A recorder that keeps spans only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Records a finished span; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            id,
            parent,
            start,
            end,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span that ends at the matching [`Trace::end`]; its index
    /// can parent spans recorded in between.
    pub fn begin(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> Option<usize> {
        let now = Instant::now();
        self.record(name, id, parent, now, now)
    }

    /// Ends a span opened by [`Trace::begin`].
    pub fn end(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end = Instant::now();
        }
    }

    /// Runs `f` as span `name`, returning its result and duration in ms.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, id, parent, start, end);
        (out, (end - start).as_secs_f64() * 1e3)
    }

    /// Writes every span as one JSON line (times in µs since the run
    /// began); does nothing when tracing is off.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if !self.on {
            return Ok(());
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":{},\"id\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                json_str(s.name),
                s.id,
                us(s.start),
                us(s.end)
            )?;
        }
        out.flush()
    }
}
