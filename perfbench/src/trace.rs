//! In-memory spans for the traced pass.
//!
//! A span records a name, start and end (nanoseconds since the tracer's
//! base instant), its parent span and a request id. Spans are appended to
//! a vector while the pass runs and written out only when the run ends,
//! so recording costs two clock reads and a push. A layer's self time is
//! its span's duration minus the part of that interval its children
//! cover; children may overlap one another (spans recorded from several
//! threads), so coverage is the length of the union of their intervals.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `lab.lower`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's base.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's base.
    pub end_ns: u64,
    /// The span this one was called from.
    pub parent: Option<SpanId>,
    /// Request (scenario, query or job-stream) id the span belongs to.
    pub request: u64,
}

/// Appends spans; nesting follows the call stack of [`Tracer::span`].
pub struct Tracer {
    base: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    /// An empty tracer timing from `base`.
    pub fn new(base: Instant) -> Tracer {
        Tracer {
            base,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let start = self.ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Record an already finished interval (timed on another thread).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(self.ns(start)),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every span recorded so far, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the length of the union
/// of its children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for (a, b) in kids {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if b <= a {
                    continue;
                }
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per-layer aggregate over a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans with this name.
    pub calls: u64,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self times, nanoseconds.
    pub self_ns: u64,
}

impl LayerTotals {
    /// Mean duration per call, nanoseconds (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// Aggregate spans by name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += own;
    }
    out
}

/// Write spans as tab-separated lines: id, parent (-1 for roots),
/// request, name, start_ns, end_ns.
pub fn write_tsv(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}",
            s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("root", 0, 100, None),
            // Two children overlapping on 20..30: together they cover
            // 10..40, i.e. 30 ns, not the 40 ns their durations sum to.
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            // A disjoint child covering 60..70, and a grandchild that
            // must not count against the root.
            span("c", 60, 70, Some(0)),
            span("d", 62, 68, Some(3)),
            // A child running past its parent's end is clipped.
            span("e", 95, 120, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - 30 - 10 - 5);
        assert_eq!(own[1], 20);
        assert_eq!(own[2], 20);
        assert_eq!(own[3], 10 - 6);
        assert_eq!(own[4], 6);
        assert_eq!(own[5], 25);
    }

    #[test]
    fn nested_spans_record_parents_and_totals() {
        let mut tr = Tracer::new(Instant::now());
        tr.span("outer", 7, |tr| {
            tr.span("inner", 7, |_| std::hint::black_box(3 + 4));
            tr.span("inner", 8, |_| ());
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].request, 8);
        let t = totals(spans);
        assert_eq!(t["inner"].calls, 2);
        assert_eq!(t["outer"].calls, 1);
        assert!(t["outer"].total_ns >= t["inner"].total_ns);
        assert_eq!(
            t["outer"].self_ns,
            t["outer"].total_ns
                - spans[1..]
                    .iter()
                    .map(|s| s.end_ns - s.start_ns)
                    .sum::<u64>()
        );
    }
}
