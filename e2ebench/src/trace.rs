//! The benchmark's own span recorder. Spans are taken around the
//! benchmark's calls into each layer, kept in memory, and written once at
//! the end of a traced run. A span's self time is its duration minus the
//! part covered by its child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer or step name.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder. A disabled tracer records nothing and
/// reads no clock, so the same code runs traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if self.enabled {
            let start_ns = self.now_ns();
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if self.enabled {
            let end_ns = self.now_ns();
            let index = self.open.pop().expect("end() matches a begin()");
            self.spans[index].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let result = f();
        self.end();
        result
    }

    /// Records an already-timed span nested in the innermost open one.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            let parent = self.open.last().copied();
            self.spans.push(Span {
                name,
                start_ns: ns(start),
                end_ns: ns(end),
                parent,
            });
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (same epoch), keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset),
            ..s
        }));
    }

    /// Durations (ns) of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Per-name self time and span count, over all spans.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.ns();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(span.name).or_default();
            entry.self_ns += span.ns().saturating_sub(children);
            entry.count += 1;
        }
        out
    }

    /// The spans as a JSON document (`name`, `start_ns`, `end_ns`,
    /// `parent` per span).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"snoop-e2ebench-trace-v1\",\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}{sep}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Aggregated self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Sum of self times, ns.
    pub self_ns: u64,
    /// Number of spans.
    pub count: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children_and_sums_to_the_root() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        // root [0, 100] ⊃ a [10, 40] ⊃ b [20, 30]; c [50, 60] under root.
        t.spans.push(Span {
            name: "root",
            start_ns: 0,
            end_ns: 100_000_000,
            parent: None,
        });
        t.open.push(0);
        t.record("a", at(10), at(40));
        t.open.push(1);
        t.record("b", at(20), at(30));
        t.open.pop();
        t.record("c", at(50), at(60));
        let st = t.self_times();
        assert_eq!(st["root"].self_ns, 60_000_000);
        assert_eq!(st["a"].self_ns, 20_000_000);
        assert_eq!(st["b"].self_ns, 10_000_000);
        assert_eq!(st["c"].self_ns, 10_000_000);
        let total: u64 = st.values().map(|s| s.self_ns).sum();
        assert_eq!(total, 100_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        t.span("x", || ());
        t.record("y", Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        a.span("one", || ());
        let mut b = Tracer::new(true, epoch);
        b.begin("outer");
        b.span("inner", || ());
        b.end();
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[1].parent, None);
    }
}
