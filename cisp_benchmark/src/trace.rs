//! The benchmark's own span recorder.
//!
//! Spans are recorded from outside the library, around the public calls
//! into each layer; they stay in memory and are written out once, when the
//! run ends. A span's *self time* is its duration minus the part of it its
//! direct children cover. Counts (work done at a layer boundary) are
//! recorded next to the spans so ratios are taken where the work happens.

use std::time::Instant;

use crate::json::Json;

/// One recorded interval. `op` groups the spans of one traced op; `parent`
/// is the index of the span that was open when this one began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; spans close in LIFO order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

pub struct Tracer {
    epoch: Instant,
    op: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: Vec<(&'static str, u32, f64)>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start grouping spans under the next op identifier and return it.
    pub fn next_op(&mut self) -> u32 {
        assert!(self.open.is_empty(), "op changed inside an open span");
        self.op += 1;
        self.op
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let now = self.now_ns();
        self.begin_at(name, now)
    }

    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.end_at(id, now);
    }

    fn begin_at(&mut self, name: &'static str, start_ns: u64) -> SpanId {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        SpanId(index)
    }

    fn end_at(&mut self, id: SpanId, end_ns: u64) {
        assert_eq!(self.open.pop(), Some(id.0), "spans must close in order");
        self.spans[id.0].end_ns = end_ns;
    }

    /// Time `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Record a count at the current op.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push((name, self.op, value));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn duration_s(&self, id: SpanId) -> f64 {
        self.spans[id.0].duration_ns() as f64 / 1e9
    }

    /// Duration of span `index` minus what its direct children cover.
    pub fn self_time_ns(&self, index: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::duration_ns)
            .sum();
        self.spans[index].duration_ns() - children
    }

    fn named(&self, name: &'static str, op: u32) -> impl Iterator<Item = &Span> + '_ {
        self.spans
            .iter()
            .filter(move |s| s.op == op && s.name == name)
    }

    /// Summed duration of every span called `name` in `op`, seconds.
    pub fn total_s(&self, name: &'static str, op: u32) -> f64 {
        self.named(name, op).map(Span::duration_ns).sum::<u64>() as f64 / 1e9
    }

    /// Number of spans called `name` in `op`.
    pub fn calls(&self, name: &'static str, op: u32) -> usize {
        self.named(name, op).count()
    }

    /// Mean duration of the spans called `name` in `op`, seconds (0 when
    /// there are none).
    pub fn mean_s(&self, name: &'static str, op: u32) -> f64 {
        match self.calls(name, op) {
            0 => 0.0,
            n => self.total_s(name, op) / n as f64,
        }
    }

    /// The whole trace: every span with its self time, and every count.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("op", Json::Int(s.op as u64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                    ),
                    ("start_ns", Json::Int(s.start_ns)),
                    ("end_ns", Json::Int(s.end_ns)),
                    ("self_ns", Json::Int(self.self_time_ns(i))),
                ])
            })
            .collect();
        let counts = self
            .counts
            .iter()
            .map(|&(name, op, value)| {
                Json::obj([
                    ("name", Json::str(name)),
                    ("op", Json::Int(op as u64)),
                    ("value", Json::Num(value)),
                ])
            })
            .collect();
        Json::obj([("spans", Json::Arr(spans)), ("counts", Json::Arr(counts))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root 0..100 ─ a 10..40 ─ a1 15..25
    ///             └ b 50..90      (siblings a and b, a1 nested in a)
    fn sample() -> Tracer {
        let mut t = Tracer::new();
        t.next_op();
        let root = t.begin_at("root", 0);
        let a = t.begin_at("layer", 10);
        let a1 = t.begin_at("inner", 15);
        t.end_at(a1, 25);
        t.end_at(a, 40);
        let b = t.begin_at("layer", 50);
        t.end_at(b, 90);
        t.end_at(root, 100);
        t
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = sample();
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.spans()[3].parent, Some(0));
        // root: 100 − (30 + 40); the grandchild is not subtracted twice.
        assert_eq!(t.self_time_ns(0), 30);
        assert_eq!(t.self_time_ns(1), 20);
        assert_eq!(t.self_time_ns(2), 10);
        assert_eq!(t.self_time_ns(3), 40);
        // Self times of a tree add up to the root's duration.
        let total: u64 = (0..4).map(|i| t.self_time_ns(i)).sum();
        assert_eq!(total, t.spans()[0].duration_ns());
    }

    #[test]
    fn totals_means_and_ops() {
        let mut t = sample();
        assert_eq!(t.calls("layer", 1), 2);
        assert_eq!(t.total_s("layer", 1), 70e-9);
        assert_eq!(t.mean_s("layer", 1), 35e-9);
        assert_eq!(t.mean_s("absent", 1), 0.0);
        assert_eq!(t.next_op(), 2);
        let id = t.begin_at("layer", 200);
        t.end_at(id, 205);
        assert_eq!(t.calls("layer", 1), 2);
        assert_eq!(t.total_s("layer", 2), 5e-9);
        assert_eq!(t.spans()[4].parent, None);
    }

    #[test]
    #[should_panic(expected = "close in order")]
    fn out_of_order_close_is_a_bug() {
        let mut t = Tracer::new();
        let a = t.begin("a");
        let _b = t.begin("b");
        t.end(a);
    }

    #[test]
    fn json_lists_spans_and_counts() {
        let mut t = sample();
        t.count("core.hops.pairs", 12.0);
        let text = t.to_json().render();
        assert!(text.contains(
            r#""name": "inner", "op": 1, "parent": 1, "start_ns": 15, "end_ns": 25, "self_ns": 10"#
        ));
        assert!(text.contains(r#""parent": null"#));
        assert!(text.contains(r#""name": "core.hops.pairs", "op": 1, "value": 12"#));
    }
}
