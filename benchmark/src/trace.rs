//! In-memory spans recorded around calls into each layer.
//!
//! The tracer lives in the benchmark, not in the program: a span brackets
//! one call into a layer's public entry point. Spans stay in memory and are
//! written as JSON lines only when the run ends. A layer's *self time* is
//! its span's duration minus the part of that interval its children cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the tracer (also its id in the output).
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one request (iteration,
    /// observation or served campaign).
    pub request: u64,
    /// `layer.operation`, matching the per-layer metric it feeds.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans and counts for one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Ns since the tracer was created: the clock every span is on.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn enter(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            request,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id` (and anything left open inside it).
    pub fn exit(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(open) = self.stack.pop() {
            self.spans[open].end_ns = now;
            if open == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span and adds one to the count of the same name.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, request);
        let out = std::hint::black_box(f());
        self.exit(id);
        self.count(name, 1);
        out
    }

    /// Records a span from timestamps taken elsewhere (frame arrival
    /// times of the serve workload), as a child of `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.count(name, 1);
        id
    }

    /// Adds `n` to the count kept beside the spans of `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// The count recorded under `name`.
    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every closed span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Median duration of the spans called `name`, in µs (0 when none).
    pub fn median_us(&self, name: &str) -> f64 {
        crate::stats::median(&self.durations_ns(name)) / 1e3
    }

    /// Sum of the durations of the spans called `name`, in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Sum of the durations, in ns, of the spans recorded from index
    /// `from_span` on whose name is one of `names`.
    pub fn total_ns_since(&self, from_span: usize, names: &[&str]) -> u64 {
        self.spans[from_span..]
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(Span::duration_ns)
            .sum()
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals clipped to it.
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Writes every span as one JSON object per line, then one line with
    /// the counts.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        let selfs = self.self_times_ns();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id, parent, s.request, s.name, s.start_ns, s.end_ns, self_ns
            )?;
        }
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        writeln!(out, "{{\"counts\":{{{}}}}}", counts.join(","))
    }
}

/// See [`Tracer::self_times_ns`]. Children may be adjacent, nested inside
/// one another's siblings, overlap (spans recorded from frame timestamps
/// can), or stick out of the parent; only the part of the parent's
/// interval that some child covers is subtracted, once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_adjacent_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 30, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn self_time_counts_nested_grandchildren_once() {
        // The grandchild shortens its parent's self time, not the root's.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 20, 80),
            span(2, Some(1), 30, 50),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 40, 20]);
    }

    #[test]
    fn self_time_merges_overlapping_and_clips_overhanging_children() {
        let spans = vec![
            span(0, None, 100, 200),
            span(1, Some(0), 110, 150),
            span(2, Some(0), 140, 170), // overlaps span 1 by 10
            span(3, Some(0), 190, 260), // sticks out by 60
            span(4, Some(0), 10, 20),   // entirely outside
        ];
        // Covered: 110..170 (60) + 190..200 (10) = 70.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_by_call_order_and_counts() {
        let mut t = Tracer::new();
        let outer = t.enter("outer", 7);
        t.span("inner", 7, || ());
        t.span("inner", 7, || ());
        t.exit(outer);
        t.span("sibling", 8, || ());
        assert_eq!(t.spans()[1].parent, Some(outer));
        assert_eq!(t.spans()[2].parent, Some(outer));
        assert_eq!(t.spans()[3].parent, None);
        assert_eq!(t.counted("inner"), 2);
        assert_eq!(t.counted("outer"), 0);
        assert!(t.spans()[0].end_ns >= t.spans()[2].end_ns);

        let mut out = Vec::new();
        t.write_jsonl(&mut out).expect("in-memory write");
        let text = String::from_utf8(out).expect("utf8");
        assert_eq!(text.lines().count(), 5);
        assert!(text
            .lines()
            .next()
            .expect("line")
            .contains("\"name\":\"outer\""));
        assert!(text.lines().last().expect("line").contains("\"inner\":2"));
    }
}
