//! Spans recorded by the benchmark around each call it makes into a layer.
//!
//! A disabled tracer records nothing, so the untraced run pays one branch
//! per call. Spans stay in memory and are written out once, when the run
//! ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats;

/// One timed call: a name, its interval in nanoseconds since the tracer
/// started, the span that caused it, and the workload op it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// An open span, closed by [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Per-name totals derived from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Busy {
    pub calls: u64,
    /// Summed self time, in milliseconds.
    pub self_ms: f64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off; spans already recorded are kept.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let now = self.now();
            assert_eq!(
                self.stack.pop(),
                Some(id),
                "spans must close innermost first"
            );
            self.spans[id].end = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let s = self.enter(name, op);
        let r = f();
        self.exit(s);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Calls and summed self time per span name.
    pub fn busy(&self) -> BTreeMap<&'static str, Busy> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids[p].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, Busy> = BTreeMap::new();
        for (s, k) in self.spans.iter().zip(&kids) {
            let b = out.entry(s.name).or_default();
            b.calls += 1;
            b.self_ms += stats::self_time(s.start, s.end, k) as f64 / 1e6;
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{},"op":{}}}"#,
                s.name, s.start, s.end, parent, s.op
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("a", 0, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        assert!(t.busy().is_empty());
    }

    #[test]
    fn nested_spans_link_parents_and_split_self_time() {
        let mut t = Tracer::new(true);
        let outer = t.enter("op", 3);
        t.span("layer", 3, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert_eq!((s[0].op, s[1].op), (3, 3));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        let busy = t.busy();
        let (op, layer) = (busy["op"], busy["layer"]);
        assert_eq!((op.calls, layer.calls), (1, 1));
        assert!(layer.self_ms >= 5.0);
        let total = (s[0].end - s[0].start) as f64 / 1e6;
        assert!((op.self_ms + layer.self_ms - total).abs() < 1e-9);
        assert_eq!(t.to_jsonl().lines().count(), 2);
        assert!(t.to_jsonl().contains(r#""parent":0"#));
    }
}
