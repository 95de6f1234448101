//! An in-memory span recorder for the traced run, and the self-time
//! and coverage arithmetic over its spans. Spans are recorded only by
//! the benchmark's own code, around its calls into each layer's
//! public functions.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `tuner.screen`.
    pub name: &'static str,
    /// Start, in seconds since the recorder's origin.
    pub start: f64,
    /// End, in seconds since the recorder's origin.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (query) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Spans of one traced run, kept in memory until the run ends.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, request: u64) -> usize {
        let now = self.origin.elapsed().as_secs_f64();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            request,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close span `id` (the innermost open span).
    pub fn exit(&mut self, id: usize) {
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(id), "spans close innermost first");
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
    }

    /// Record a span measured elsewhere (e.g. on another thread).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn covered(lo: f64, hi: f64, intervals: &[(f64, f64)]) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    v.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in v {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0.0, |(a, b)| b - a)
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| s.dur() - covered(s.start, s.end, kids))
        .collect()
}

/// Total self time per span name, in seconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += t;
    }
    out
}

/// The share of span `root`'s interval covered by its direct children.
pub fn child_coverage(spans: &[Span], root: usize) -> f64 {
    let r = &spans[root];
    let kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(root))
        .map(|s| (s.start, s.end))
        .collect();
    if r.dur() > 0.0 {
        covered(r.start, r.end, &kids) / r.dur()
    } else {
        0.0
    }
}

/// Render the spans as JSON lines (one object per span).
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start, s.end, s.request
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(
            covered(0.0, 10.0, &[(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]),
            4.0
        );
        assert_eq!(covered(0.0, 5.0, &[(4.0, 9.0), (-2.0, 1.0)]), 2.0);
        assert_eq!(covered(0.0, 5.0, &[]), 0.0);
        assert_eq!(covered(0.0, 5.0, &[(6.0, 8.0)]), 0.0);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("api", 0.0, 10.0, None),
            span("evaluate", 1.0, 7.0, Some(0)),
            span("tuner", 2.0, 5.0, Some(1)),
            span("oracle", 8.0, 9.0, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t, vec![3.0, 3.0, 3.0, 1.0]);
        let by = self_time_by_name(&spans);
        assert_eq!(by["api"], 3.0);
        assert_eq!(
            by.values().sum::<f64>(),
            10.0,
            "self times partition the root"
        );
        assert!((child_coverage(&spans, 0) - 0.7).abs() < 1e-12);
        assert!((child_coverage(&spans, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_closes() {
        let mut r = Recorder::default();
        let root = r.enter("root", 7);
        let x = r.span("child", 7, || 41 + 1);
        r.exit(root);
        assert_eq!(x, 42);
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].parent, None);
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        assert!(to_json_lines(s).lines().count() == 2);
    }
}
