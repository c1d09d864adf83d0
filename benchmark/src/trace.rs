//! Spans recorded by the benchmark around its calls into the program.
//!
//! Levels: `workload` → `setup` | `measure` | `calibrate` → `op` (one-client
//! workloads) or `wave` (fleet bursts) → `calibrate.<layer>`. Spans stay in
//! memory and are written as JSON lines when the run ends. With tracing off
//! every call is a no-op.

use amnesia_telemetry::json_string;
use std::fmt::Write as _;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug)]
struct Span {
    parent: SpanId,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under `parent` (0 = root). Ids start at 1.
    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len()
    }

    pub fn end(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        if let Some(span) = id.checked_sub(1).and_then(|i| self.spans.get_mut(i)) {
            span.end_ns = end_ns;
        }
    }

    /// One JSON object per line: `id`, `parent`, `name`, `start_us`, `end_us`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                i + 1,
                s.parent,
                json_string(s.name),
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_render_one_line_each() {
        let mut t = Tracer::new(true);
        let root = t.begin("workload", 0);
        let child = t.begin("op", root);
        t.end(child);
        t.end(root);
        let text = t.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].starts_with("{\"id\":2,\"parent\":1,\"name\":\"op\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("op", 0);
        t.end(id);
        assert!(t.to_jsonl().is_empty());
    }
}
