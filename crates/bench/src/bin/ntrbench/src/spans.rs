//! Spans recorded by the benchmark around its calls into each layer: name,
//! start, end, the span that caused it, and the request it belongs to. Kept
//! in memory and written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Wire id, table number or step number; spans of one request share it.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Trace {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(on: bool) -> Self {
        Trace {
            epoch: Instant::now(),
            on,
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; `None` while tracing is off.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request,
        });
        Some((self.spans.len() - 1) as SpanId)
    }

    /// Ends at `end` a span recorded earlier with a provisional end: a
    /// request's span opens when it is sent, before its children exist.
    pub fn close(&mut self, id: Option<SpanId>, end: Instant) {
        if let Some(id) = id {
            let end_ns = self.ns(end);
            let s = &mut self.spans[id as usize];
            s.end_ns = end_ns.max(s.start_ns);
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, request);
        out
    }

    /// Durations in µs of every span called `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span from number `first` on: its duration minus
    /// the part of its interval that its child spans cover (overlapping
    /// children count once). A child is always recorded after its parent.
    pub fn self_times_ns(&self, first: usize) -> Vec<u64> {
        let spans = &self.spans[first..];
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| p as usize >= first) {
                children[p as usize - first].push((s.start_ns, s.end_ns));
            }
        }
        spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
            .collect()
    }

    /// One JSON object per line: `name`, `start_ns`, `end_ns`, `self_ns`,
    /// `parent` (a line number, or null) and `request`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self.self_times_ns(0);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, own) in self.spans.iter().zip(self_ns) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}, \
                 \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn trace_with(spans: &[(u64, u64, Option<SpanId>)]) -> Trace {
        let mut t = Trace::new(true);
        let epoch = t.epoch;
        for &(a, b, parent) in spans {
            t.record(
                "s",
                epoch + Duration::from_nanos(a),
                epoch + Duration::from_nanos(b),
                parent,
                0,
            );
        }
        t
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // Parent 0..100; children 10..30 and 50..60; a grandchild 12..20.
        let t = trace_with(&[
            (0, 100, None),
            (10, 30, Some(0)),
            (50, 60, Some(0)),
            (12, 20, Some(1)),
        ]);
        assert_eq!(t.self_times_ns(0), vec![70, 12, 10, 8]);
        assert_eq!(t.self_times_ns(1), vec![12, 10, 8]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children 10..40 and 30..60 overlap; 90..120 hangs over the end.
        let t = trace_with(&[
            (0, 100, None),
            (10, 40, Some(0)),
            (30, 60, Some(0)),
            (90, 120, Some(0)),
        ]);
        assert_eq!(t.self_times_ns(0)[0], 100 - 50 - 10);
    }

    #[test]
    fn nothing_is_recorded_while_off() {
        let mut t = Trace::new(false);
        assert_eq!(t.time("x", None, 1, || 5), 5);
        assert_eq!(t.len(), 0);
        t.set_on(true);
        t.time("x", None, 1, || ());
        assert_eq!(t.durations_us("x").len(), 1);
    }
}
