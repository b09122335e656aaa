//! In-memory span recorder for the traced run. Spans wrap the
//! benchmark's own calls into the program (requests, drains, renders,
//! set-up steps, model evaluation); they are kept in memory and written
//! out once when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Shared by every span of one frame request (0 = not a request).
    pub request: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// The recorder. Disabled recorders drop every span, so the untraced
/// phases run the same code with nothing retained.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    next_request: u64,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            enabled: false,
            origin,
            spans: Vec::with_capacity(1 << 14),
            next_request: 0,
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// A fresh request id (ids are handed out whether or not tracing is
    /// on, so both phases number requests alike).
    pub fn request_id(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }

    /// Records a finished span; returns its index (`None` when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span that [`Tracer::close`] ends, so children recorded in
    /// between can name it as their parent.
    pub fn open(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        self.record(name, start, start, parent, request)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, span: Option<usize>, end: Instant) {
        if let Some(s) = span.and_then(|i| self.spans.get_mut(i)) {
            s.end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        }
    }

    /// Durations (seconds) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_s)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        f.flush()
    }
}
