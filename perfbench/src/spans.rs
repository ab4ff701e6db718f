//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around each public call
//! into a library layer; nothing inside the library is instrumented. A
//! span's *self time* is its duration minus the part of its interval that
//! its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `sim.seq`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (equal to `start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The grid point the call worked for (`None` for workload-wide calls).
    pub point: Option<usize>,
    /// Units of work the call did (simulated ops for `sim.*`), 0 if none.
    pub work: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans in memory; [`Tracer::to_jsonl`] writes them out once.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        point: Option<usize>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            point,
            work: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Like [`Tracer::span`], recording `work` units done by the call.
    pub fn span_work<T>(
        &mut self,
        name: &'static str,
        point: Option<usize>,
        work: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let id = self.spans.len();
        let out = self.span(name, point, f);
        self.spans[id].work = work;
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: name, start, end, parent, point, work.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"point\":{},\"work\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.point),
                s.work
            );
        }
        out
    }
}

/// Self time of every span, in ns: its duration minus the union of its
/// children's intervals clipped to it.
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
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            point: None,
            work: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root [0,100) holds a [10,30) and b [20,50) (overlapping), and c
        // [90,120) that runs past its end; a holds grandchild [12,18).
        let spans = vec![
            span("sched.profile", 0, 100, None),
            span("sim.seq", 10, 30, Some(0)),
            span("sim.seq", 20, 50, Some(0)),
            span("trace.analyze", 90, 120, Some(0)),
            span("faults.plan", 12, 18, Some(1)),
        ];
        // Children cover [10,50) and [90,100): 50 ns.
        assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6]);
    }

    #[test]
    fn tracer_nests_and_layers() {
        let mut t = Tracer::new();
        let v = t.span("sched.profile", Some(3), |t| {
            t.span_work("sim.par", Some(3), 42, |_| 7)
        });
        assert_eq!(v, 7);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].work, 42);
        assert_eq!(s[1].layer(), "sim");
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let total: u64 = self_times(s).iter().sum();
        assert_eq!(total, s[0].duration_ns());
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }
}
