//! Spans around the calls the benchmark makes into each layer's public
//! functions.
//!
//! A span records its name, start, end, parent, and op id. Spans stay in
//! memory and are summarised when the run ends; with tracing off, opening
//! a span is one branch and records nothing. Self time is a span's
//! duration minus the part of it its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// Name of an op's root span. Other parentless spans (a traced reload of
/// fixed programs, say) are not ops and stay out of the reconciliation.
pub const OP: &str = "op";

/// Index of an open or closed span. [`SpanId::NONE`] is what a disabled
/// trace hands out, and what a root span names as its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// No span: the parent of a root, or a span a disabled trace skipped.
    pub const NONE: SpanId = SpanId(usize::MAX);
}

/// One recorded span. Times are nanoseconds since the trace started.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer call, e.g. `"Vm::call"` or `"read_all"`.
    pub name: &'static str,
    /// Start, in ns since the trace's origin.
    pub start: u64,
    /// End, in ns since the trace's origin (`u64::MAX` while open).
    pub end: u64,
    /// The enclosing span, or [`SpanId::NONE`] for an op root.
    pub parent: SpanId,
    /// The op this span belongs to.
    pub op: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Trace {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Self {
        Trace { on, origin: Instant::now(), spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now.
    pub fn open(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        self.open_at(name, parent, op, Instant::now())
    }

    /// Opens a span that started at `start` (an op root whose start was
    /// stamped before its first child call).
    pub fn open_at(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        start: Instant,
    ) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let start = self.ns(start);
        self.spans.push(Span { name, start, end: u64::MAX, parent, op });
        SpanId(self.spans.len() - 1)
    }

    /// Closes `id` now.
    pub fn close(&mut self, id: SpanId) {
        if id != SpanId::NONE {
            self.close_at(id, Instant::now());
        }
    }

    /// Closes `id` at `end` (an op that completed on another thread, which
    /// stamped its completion time).
    pub fn close_at(&mut self, id: SpanId, end: Instant) {
        if id != SpanId::NONE {
            let end = self.ns(end);
            let span = &mut self.spans[id.0];
            span.end = end.max(span.start);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, op);
        let r = f();
        self.close(id);
        r
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summarises the closed spans: per-name self time, and the
    /// reconciliation of op roots against their children.
    pub fn summary(&self) -> Summary {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent != SpanId::NONE {
                children[s.parent.0].push(i);
            }
        }
        let mut by_name: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        let mut roots = 0u64;
        let mut root_wall_ns = 0u64;
        let mut root_self_ns = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            if s.end == u64::MAX {
                continue;
            }
            let own = self_time(s, children[i].iter().map(|&c| &self.spans[c]));
            let e = by_name.entry(s.name).or_default();
            e.count += 1;
            e.self_ns += own;
            e.wall_ns += s.end - s.start;
            if s.parent == SpanId::NONE && s.name == OP {
                roots += 1;
                root_wall_ns += s.end - s.start;
                root_self_ns += own;
            }
        }
        Summary { by_name, roots, root_wall_ns, root_self_ns }
    }
}

/// `span`'s duration minus the union of its children's intervals (clipped
/// to the span).
fn self_time<'a>(span: &Span, children: impl Iterator<Item = &'a Span>) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .filter(|c| c.end != u64::MAX)
        .map(|c| (c.start.max(span.start), c.end.min(span.end)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    (span.end - span.start) - covered
}

/// Totals for every span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameStats {
    /// Closed spans of this name.
    pub count: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Summed duration, ns.
    pub wall_ns: u64,
}

impl NameStats {
    /// Mean self time per span, in microseconds (0 when none ran).
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// What a finished trace adds up to.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Per span name.
    pub by_name: BTreeMap<&'static str, NameStats>,
    /// Op roots ([`OP`] spans) closed.
    pub roots: u64,
    /// Summed op-root wall time, ns.
    pub root_wall_ns: u64,
    /// Summed op-root self time, ns: op wall time minus the self times of
    /// every span below it, the part of an op no layer span accounts for.
    pub root_self_ns: u64,
}

impl Summary {
    /// Totals for `name` (zeros when no such span ran).
    pub fn get(&self, name: &str) -> NameStats {
        self.by_name.get(name).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_merged_children() {
        let p = Span { name: "p", start: 0, end: 100, parent: SpanId::NONE, op: 0 };
        let kids = [
            Span { name: "a", start: 10, end: 30, parent: SpanId(0), op: 0 },
            Span { name: "b", start: 20, end: 40, parent: SpanId(0), op: 0 },
            Span { name: "c", start: 90, end: 120, parent: SpanId(0), op: 0 },
        ];
        // Covered: [10,40) + [90,100) = 40.
        assert_eq!(self_time(&p, kids.iter()), 60);
    }

    #[test]
    fn summary_reconciles_roots_with_children() {
        let mut t = Trace::new(true);
        let t0 = Instant::now();
        let root = t.open_at(OP, SpanId::NONE, 7, t0);
        let child = t.open_at("read_all", root, 7, t0 + Duration::from_micros(10));
        t.close_at(child, t0 + Duration::from_micros(30));
        t.close_at(root, t0 + Duration::from_micros(50));
        let s = t.summary();
        assert_eq!(s.roots, 1);
        assert_eq!(s.get("read_all").count, 1);
        assert_eq!(s.get("read_all").self_ns, 20_000);
        assert_eq!(s.root_wall_ns, 50_000);
        assert_eq!(s.root_self_ns, 30_000);
        assert_eq!(t.spans()[child.0].op, 7);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        let id = t.open("x", SpanId::NONE, 0);
        assert_eq!(id, SpanId::NONE);
        assert_eq!(t.span("y", id, 0, || 3), 3);
        t.close(id);
        assert!(t.spans().is_empty());
    }
}
