//! In-memory spans around the benchmark's calls into the simulator, written
//! out as JSON lines when the benchmark ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Spans`] list.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: Option<u64>,
    notes: Vec<(&'static str, f64)>,
}

/// The spans of one benchmark process, timed from its creation.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    list: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans { origin: Instant::now(), list: Vec::new() }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a span.
    pub fn open(&mut self, name: impl Into<String>, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.list.push(Span {
            name: name.into(),
            parent,
            start_ns,
            end_ns: None,
            notes: Vec::new(),
        });
        self.list.len() - 1
    }

    /// Ends a span and returns its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let end = self.now_ns();
        let span = &mut self.list[id];
        span.end_ns = Some(end);
        end - span.start_ns
    }

    /// Ends `id` and every span opened after it that is still open (the
    /// children a panic left behind).
    pub fn close_all_from(&mut self, id: SpanId) {
        let end = self.now_ns();
        for span in &mut self.list[id..] {
            span.end_ns.get_or_insert(end);
        }
    }

    /// Attaches a named measurement to a span.
    pub fn note(&mut self, id: SpanId, key: &'static str, value: f64) {
        self.list[id].notes.push((key, value));
    }

    /// One JSON object per span, in opening order.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.list.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let end = span.end_ns.unwrap_or(span.start_ns);
            let _ = write!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{end}",
                span.name, span.start_ns
            );
            for (key, value) in &span.notes {
                let _ = write!(out, ",\"{key}\":{value}");
            }
            out.push_str("}\n");
        }
        out
    }
}
