//! In-memory spans and counts recorded around calls into each layer.
//!
//! A span is `(id, parent, name, start, end)` on one monotonic timeline.
//! Spans open and close in stack order, so the parent of a new span is the
//! innermost open one. Nothing is written until the run ends, when
//! [`Tracer::write_jsonl`] dumps every span (with its self time) and every
//! count. A disabled tracer records nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span, times in nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans and counts for one benchmark process.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Pauses or resumes recording (used to interleave traced and untraced
    /// cycles when measuring the tracer's own overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        result
    }

    /// Adds `delta` to the count `name`.
    pub fn count(&mut self, name: &'static str, delta: f64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0.0) += delta;
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Per span name: (spans, total ns, self ns), sorted by name.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, u64, u64)> {
        let self_times = self_times_ns(&self.spans);
        let mut out: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times) {
            let entry = out.entry(span.name).or_insert((0, 0, 0));
            entry.0 += 1;
            entry.1 += span.duration_ns();
            entry.2 += self_ns;
        }
        out
    }

    /// Writes one JSON line per span, then one per count.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (span, self_ns) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                span.id, parent, span.name, span.start_ns, span.end_ns, self_ns
            )?;
        }
        for (name, value) in &self.counts {
            writeln!(out, "{{\"count\":\"{name}\",\"value\":{value}}}")?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its direct children's intervals.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            let covered = covered_ns(kids, span.start_ns, span.end_ns);
            span.duration_ns() - covered
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        // root [0,100) has children [10,30) and [20,50) (overlapping, union
        // 40) and [90,120) (clipped to 10); the grandchild [12,18) belongs to
        // the first child only.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),
            span(3, Some(0), 90, 120),
            span(4, Some(1), 12, 18),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 14, 30, 30, 6]);
    }

    #[test]
    fn a_leaf_span_is_all_self_time() {
        assert_eq!(self_times_ns(&[span(0, None, 5, 9)]), vec![4]);
    }

    #[test]
    fn nested_spans_record_their_parent_and_a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(true);
        tracer.span("outer", |t| {
            t.span("inner", |_| ());
            t.count("things", 2.0);
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false);
        off.span("outer", |t| t.count("things", 1.0));
        assert!(off.spans().is_empty() && off.counts.is_empty());
    }
}
