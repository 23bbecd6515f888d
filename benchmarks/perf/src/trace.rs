//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! No crate of the repository is instrumented for this: a span wraps a
//! call into a layer's public function. Spans stay in memory during the
//! run and are written out once at the end. A tracer that is off records
//! nothing, so the end-to-end runs pay one predictable branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Handle of an open span.
#[derive(Clone, Copy)]
pub struct SpanId(u32);

const OFF: SpanId = SpanId(u32::MAX);

/// One finished (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary, e.g. `router.query`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Identifier shared by the spans of one request.
    pub request: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times: duration minus the children's durations.
    pub self_ns: u64,
}

/// A single-threaded span recorder; each load thread owns one.
pub struct Tracer {
    /// Whether `begin` records. Flipped per block by the traced run.
    pub on: bool,
    epoch: Instant,
    thread: usize,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer for load thread `thread`, measuring from `epoch`.
    pub fn new(on: bool, epoch: Instant, thread: usize) -> Self {
        Tracer { on, epoch, thread, spans: Vec::new(), open: Vec::new() }
    }

    /// A tracer that never records.
    pub fn off() -> Self {
        Tracer::new(false, Instant::now(), 0)
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.on {
            return OFF;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id` (and anything left open inside it).
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if id.0 == OFF.0 {
            return;
        }
        let end_ns = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = end_ns;
            if top == id.0 {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// Duration of a finished span, nanoseconds (0 for a span that was
    /// not recorded).
    pub fn duration_ns(&self, id: SpanId) -> u64 {
        self.spans.get(id.0 as usize).map_or(0, Span::duration_ns)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name: a span's duration minus the part of it its
/// direct children cover. Children of one parent run one after another on
/// the parent's thread, so their durations add without overlap.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(covered);
    }
    out
}

/// Renders the tracers of one run as the `trace.json` document: every span
/// plus the per-name self-time table.
pub fn render_json(workload: &str, seed: u64, tracers: &[Tracer]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
    let mut first = true;
    let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for t in tracers {
        for s in &t.spans {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name, t.thread, s.start_ns, s.end_ns, parent, s.request
            );
        }
        for (name, add) in self_times(&t.spans) {
            let slot = totals.entry(name).or_default();
            slot.count += add.count;
            slot.total_ns += add.total_ns;
            slot.self_ns += add.self_ns;
        }
    }
    out.push_str("],\"self_time\":{");
    for (i, (name, t)) in totals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{name}\":{{\"count\":{},\"total_us\":{:.3},\"self_us\":{:.3}}}",
            t.count,
            t.total_ns as f64 / 1e3,
            t.self_ns as f64 / 1e3
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, request: 1 }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("replay", 0, 1000, None),
            span("shard.search", 100, 400, Some(0)),
            span("shard.search", 400, 600, Some(0)),
            span("merge", 600, 650, Some(0)),
            span("inner", 120, 200, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["replay"], NameTotals { count: 1, total_ns: 1000, self_ns: 450 });
        // grandchildren are charged to their own parent only
        assert_eq!(t["shard.search"], NameTotals { count: 2, total_ns: 500, self_ns: 420 });
        assert_eq!(t["merge"], NameTotals { count: 1, total_ns: 50, self_ns: 50 });
        assert_eq!(t["inner"].self_ns, 80);
        // self times of a tree add up to the root's duration
        assert_eq!(t.values().map(|x| x.self_ns).sum::<u64>(), 1000);
    }

    #[test]
    fn tracer_nests_by_call_order_and_records_nothing_when_off() {
        let mut t = Tracer::new(true, Instant::now(), 3);
        let outer = t.begin("outer", 9);
        let got = t.span("inner", 9, || 5);
        t.end(outer);
        let after = t.begin("after", 10);
        t.end(after);
        assert_eq!(got, 5);
        let s = t.spans();
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (None, Some(0), None));
        assert!(s[0].end_ns >= s[1].end_ns && s[1].end_ns >= s[1].start_ns);
        assert_eq!(t.duration_ns(outer), s[0].end_ns - s[0].start_ns);

        let mut off = Tracer::off();
        let id = off.begin("x", 1);
        off.end(id);
        assert!(off.spans().is_empty());
        assert_eq!(off.duration_ns(id), 0);
    }

    #[test]
    fn json_lists_every_span_and_the_self_time_table() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        t.span("a", 1, || ());
        let doc = render_json("w", 7, &[t]);
        assert!(doc.starts_with("{\"workload\":\"w\",\"seed\":7,\"spans\":[{\"name\":\"a\""));
        assert!(doc.contains("\"parent\":null"));
        assert!(doc.contains("\"self_time\":{\"a\":{\"count\":1"));
    }
}
