//! In-memory spans and counters for the traced run.
//!
//! Spans are recorded around calls into each layer's public functions —
//! from the benchmark's side of the boundary; nothing inside the crates is
//! instrumented. One span is `(id, parent, name, op, start_ns, end_ns)`;
//! `op` names the operation (workload/program/pass) every span of one
//! compile shares. Counts are recorded at the same boundaries. Everything
//! stays in memory until [`Tracer::to_json`] is written out at exit.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub op: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span self time: the span's duration minus the part of that interval
/// its direct children cover. The staged sequence is single-threaded, so
/// children never overlap each other.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::duration_ns)
        .sum();
    spans[id].duration_ns().saturating_sub(children)
}

/// The span and counter recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: String,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: String::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Name the operation the following spans belong to.
    pub fn set_op(&mut self, op: impl Into<String>) {
        self.op = op.into();
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a span around `f`. Spans opened inside `f` become children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            op: self.op.clone(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Add to a named count.
    pub fn count(&mut self, name: &'static str, amount: u64) {
        *self.counts.entry(name).or_insert(0) += amount;
    }

    /// A recorded count (0 when the boundary was never crossed).
    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Self times in seconds of every span with this name, in record order.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self_time_ns(&self.spans, s.id) as f64 / 1e9)
            .collect()
    }

    /// Summed self time in seconds of every span whose name starts with
    /// `prefix` (a layer's share of the pass).
    pub fn self_total(&self, prefix: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| self_time_ns(&self.spans, s.id))
            .sum::<u64>() as f64
            / 1e9
    }

    /// The trace file: every span and every count.
    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "id": s.id,
                    "parent": s.parent,
                    "name": s.name,
                    "op": s.op,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                })
            })
            .collect();
        let counts: BTreeMap<String, u64> = self
            .counts
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect();
        json!({ "spans": spans, "counts": counts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            op: String::new(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ b [15,25); root ⊃ c [50,90).
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25),
            span(3, Some(0), 50, 90),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 30 - 40);
        assert_eq!(self_time_ns(&spans, 1), 30 - 10);
        assert_eq!(self_time_ns(&spans, 2), 10);
        assert_eq!(self_time_ns(&spans, 3), 40);
        // Self times of a tree add up to the root's duration.
        let total: u64 = (0..spans.len()).map(|i| self_time_ns(&spans, i)).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn nested_spans_record_their_parent_and_operation() {
        let mut tr = Tracer::new();
        tr.set_op("w/p/0");
        let out = tr.span("outer", |tr| {
            tr.span("inner", |tr| tr.count("things", 2));
            tr.count("things", 3);
            7
        });
        assert_eq!(out, 7);
        assert_eq!(tr.counted("things"), 5);
        assert_eq!(tr.counted("absent"), 0);
        assert_eq!(tr.spans.len(), 2);
        assert_eq!(tr.spans[0].parent, None);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[1].op, "w/p/0");
        assert!(tr.spans[0].end_ns >= tr.spans[1].end_ns);
        assert_eq!(tr.self_times("inner").len(), 1);
        let whole = tr.spans[0].duration_ns() as f64 / 1e9;
        let parts = tr.self_total("outer") + tr.self_total("inner");
        assert!((whole - parts).abs() < 1e-9);
    }
}
