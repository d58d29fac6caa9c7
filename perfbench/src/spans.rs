//! The benchmark's own wall-clock spans around its calls into each crate.
//!
//! Spans are kept in memory while the traced run executes and written once
//! at the end. A layer's self time is the time its spans cover minus the
//! time their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    layer: &'static str,
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// An in-memory span recorder; disabled recorders cost one branch per call.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (nothing when recording is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, layer: &'static str, name: impl Into<String>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            name: name.into(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Self time per layer, in ms.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Spans as a JSON array: name, layer, start, end (µs) and parent index.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "  {{\"id\": {i}, \"layer\": \"{}\", \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}}}",
                span.layer,
                span.name,
                span.start_ns as f64 / 1e3,
                span.end_ns as f64 / 1e3
            );
            s.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push(']');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut sp = Spans::new(true);
        let outer = sp.open("core", "outer");
        let inner = sp.open("lp", "inner");
        std::thread::sleep(std::time::Duration::from_millis(5));
        sp.close(inner);
        sp.close(outer);
        let by = sp.self_ms_by_layer();
        assert!(by["lp"] >= 5.0);
        assert!(by["core"] < by["lp"]);
        assert!(sp.to_json().contains("\"parent\": 0"));
    }

    #[test]
    fn disabled_records_nothing() {
        let mut sp = Spans::new(false);
        let id = sp.open("core", "x");
        sp.close(id);
        assert!(sp.self_ms_by_layer().is_empty());
    }
}
