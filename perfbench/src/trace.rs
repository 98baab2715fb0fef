//! In-memory span recorder for the traced run.
//!
//! A span is a named interval at a layer boundary with its parent span
//! and the op it belongs to. Boundaries crossed once per op or per
//! layer call get one span each. Boundaries crossed per simulated cycle
//! or per explored edge would be millions of spans, so they are folded
//! into one *aggregate* span per parent and name: its `count` says how
//! many intervals it sums and its duration is their total. Self time is
//! derived from the spans alone: a span's duration minus the durations
//! of its children, which never overlap one another.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in the recorder; 0 is the implicit root.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: SpanId,
    op: u64,
    start_ns: u64,
    dur_ns: u64,
    count: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        let root = Span {
            name: "run",
            parent: 0,
            op: 0,
            start_ns: 0,
            dur_ns: 0,
            count: 1,
        };
        Tracer {
            epoch: Instant::now(),
            spans: vec![root],
            open: vec![0],
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the spans of op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        let parent = *self.open.last().expect("root span is always open");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            op: self.op,
            start_ns,
            dur_ns: 0,
            count: 1,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: SpanId) {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close in LIFO order");
        let s = &mut self.spans[id];
        s.dur_ns = end - s.start_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_id(name, f).1
    }

    /// Runs `f` inside a span and returns the span with the result.
    pub fn span_id<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (SpanId, R) {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        (id, r)
    }

    /// Adds a closed span directly: `count` intervals of a hot
    /// boundary folded into one, or an interval measured elsewhere
    /// (another op's overlapping latency, a server-side duration).
    pub fn record(
        &mut self,
        parent: SpanId,
        name: &'static str,
        start: Instant,
        count: u64,
        dur_ns: u64,
    ) -> SpanId {
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            op: self.op,
            start_ns,
            dur_ns,
            count,
        });
        self.spans.len() - 1
    }

    /// Duration of a closed span, in ms.
    pub fn dur_ms(&self, id: SpanId) -> f64 {
        self.spans[id].dur_ns as f64 / 1e6
    }

    /// Per span name: (intervals, total ns, self ns).
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans[1..] {
            child_ns[s.parent] += s.dur_ns;
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().skip(1) {
            let e = out.entry(s.name).or_default();
            e.0 += s.count;
            e.1 += s.dur_ns;
            e.2 += s.dur_ns.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Self time per interval of `name`, in ns (0 when never recorded).
    pub fn self_ns_per(totals: &BTreeMap<&'static str, (u64, u64, u64)>, name: &str) -> f64 {
        totals.get(name).map_or(
            0.0,
            |&(n, _, s)| if n == 0 { 0.0 } else { s as f64 / n as f64 },
        )
    }

    /// Tab-separated dump: one span per line.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\top\tname\tstart_ns\tdur_ns\tcount\n");
        for (i, s) in self.spans.iter().enumerate().skip(1) {
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.parent, s.op, s.name, s.start_ns, s.dur_ns, s.count
            );
        }
        out
    }
}
