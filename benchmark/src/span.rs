//! In-memory spans recorded by the benchmark around its calls into each
//! product layer, and the self-time arithmetic over them.
//!
//! A span is `{name, start_ns, end_ns, parent, request}`; spans of one
//! composed request share the request index. Nothing is written until the
//! run ends, and a disabled tracer records nothing, so the same composed
//! code path yields the untraced reference for `trace.overhead_pct`.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `model.prefill`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The composed request the span belongs to.
    pub request: usize,
}

impl Span {
    /// Wall duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Span and count recorder. Single-threaded by design: every traced call
/// is made from the thread that owns the tracer.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A recording tracer (`enabled`) or a no-op one.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn enter(&mut self, name: &'static str, request: usize) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(index);
        SpanId(Some(index))
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, id: SpanId) {
        let Some(index) = id.0 else {
            return;
        };
        self.spans[index].end_ns = self.now_ns();
        // Spans close innermost-first; tolerate an out-of-order exit by
        // dropping the handle wherever it sits.
        if let Some(pos) = self.stack.iter().rposition(|&open| open == index) {
            self.stack.remove(pos);
        }
    }

    /// Adds to a named count, taken at the same boundary as the spans.
    pub fn count(&mut self, name: &'static str, amount: u64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0) += amount;
        }
    }

    /// The recorded spans, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded counts.
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent and
/// overlapping children are counted once (interval union), so the self
/// times of a request's spans sum to its root's duration.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(cursor);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Self time summed by span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(span.name).or_insert(0) += self_ns;
    }
    out
}

/// Number of spans by name.
pub fn span_count_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for span in spans {
        *out.entry(span.name).or_insert(0) += 1;
    }
    out
}

/// Total duration of the root spans (those without a parent).
pub fn root_time_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 20, 30, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            // Entirely inside `a`: adds nothing to the union.
            span("c", 20, 30, Some(0)),
        ];
        // Children cover 10..80 = 70.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("root", 10, 50, None), span("late", 40, 90, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![30, 50]);
    }

    #[test]
    fn self_times_attribute_the_whole_root() {
        let spans = vec![
            span("request", 0, 1000, None),
            span("tokenize", 0, 50, Some(0)),
            span("prefill", 50, 600, Some(0)),
            span("prefill.attention", 100, 500, Some(2)),
            span("decode", 620, 990, Some(0)),
        ];
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, root_time_ns(&spans));
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["request"], 1000 - 50 - 550 - 370);
        assert_eq!(by_name["prefill"], 150);
        assert_eq!(span_count_by_name(&spans)["decode"], 1);
    }

    #[test]
    fn tracer_nests_by_open_order_and_disabled_records_nothing() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.enter("outer", 3);
        let inner = tracer.enter("inner", 3);
        tracer.exit(inner);
        tracer.count("tokens", 5);
        tracer.count("tokens", 2);
        tracer.exit(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 3);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(tracer.counts()["tokens"], 7);

        let mut off = Tracer::new(false);
        let id = off.enter("outer", 0);
        off.count("tokens", 1);
        off.exit(id);
        assert!(off.spans().is_empty() && off.counts().is_empty());
    }
}
