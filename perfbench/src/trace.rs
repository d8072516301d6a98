//! Spans recorded by the benchmark around each call it makes into a
//! crate. Tracing is off for the runs that give end-to-end metrics; a
//! separate traced run of the same seed keeps every span in memory,
//! derives the per-layer table from them, and writes them out at the
//! end. Nothing here touches a node's simulated clock, so a traced run
//! must reproduce the untraced run's simulated metrics exactly.

use rack_sim::{CostClass, NodeCtx};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Request id of spans recorded outside the timed phase (set-up and
/// output checks).
pub const UNTIMED_REQUEST: u64 = u64::MAX;

/// Handle to an open span (`NONE` when tracing is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    const NONE: SpanId = SpanId(usize::MAX);
}

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `redis-mini.server.poll`.
    pub name: &'static str,
    /// Node whose clock and charges the span reads.
    pub node: usize,
    /// Host ns since the tracer started.
    pub host_start: u64,
    /// Host ns since the tracer started.
    pub host_end: u64,
    /// Simulated ns on `node` at entry.
    pub sim_start: u64,
    /// Simulated ns on `node` at exit.
    pub sim_end: u64,
    /// Simulated ns charged to `node` during the call (busy time; the
    /// rest of `sim_end - sim_start` is waiting).
    pub charged: u64,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to: a pipelined batch, a container
    /// start or a crash.
    pub request: u64,
}

/// Span recorder; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    charged_at_start: Vec<u64>,
    open: Vec<usize>,
    request: u64,
}

/// Total simulated ns charged to `node` so far, over every cost class.
pub fn charged_ns(node: &NodeCtx) -> u64 {
    CostClass::ALL
        .iter()
        .map(|&c| node.stats().histogram(c).total_ns)
        .sum()
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            charged_at_start: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Tag spans opened from now on with request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn host_now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span on `node`, nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str, node: &NodeCtx) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            node: node.id().0,
            host_start: 0,
            host_end: 0,
            sim_start: node.clock().now(),
            sim_end: 0,
            charged: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.charged_at_start.push(charged_ns(node));
        self.open.push(id);
        self.spans[id].host_start = self.host_now();
        SpanId(id)
    }

    /// Close span `id` (read on the same `node` it was opened on).
    pub fn end(&mut self, id: SpanId, node: &NodeCtx) {
        self.end_as(id, node, None);
    }

    /// Close span `id`, renaming it — for calls whose kind is known only
    /// from their result (a container start's path).
    pub fn end_as(&mut self, id: SpanId, node: &NodeCtx, name: Option<&'static str>) {
        if id == SpanId::NONE {
            return;
        }
        let host_end = self.host_now();
        let span = &mut self.spans[id.0];
        span.host_end = host_end;
        span.sim_end = node.clock().now();
        span.charged = charged_ns(node) - self.charged_at_start[id.0];
        if let Some(n) = name {
            span.name = n;
        }
        if self.open.last() == Some(&id.0) {
            self.open.pop();
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as tab-separated lines (header first).
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(
            out,
            "id\tparent\trequest\tname\tnode\thost_start\thost_end\tsim_start\tsim_end\tcharged"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.request,
                s.name,
                s.node,
                s.host_start,
                s.host_end,
                s.sim_start,
                s.sim_end,
                s.charged
            )?;
        }
        Ok(())
    }
}

/// Duration of `[start, end)` not covered by any of `children` (each
/// clipped to the parent; overlapping children count once).
pub fn self_time(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start).saturating_sub(covered)
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans with this name.
    pub calls: u64,
    /// Simulated ns elapsed on the calling node.
    pub sim_ns: u64,
    /// Simulated ns charged to the calling node.
    pub charged_ns: u64,
    /// Host ns.
    pub host_ns: u64,
    /// Host ns not covered by child spans.
    pub self_host_ns: u64,
}

/// Aggregate spans by name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.host_start, s.host_end));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.sim_ns += s.sim_end - s.sim_start;
        t.charged_ns += s.charged;
        t.host_ns += s.host_end - s.host_start;
        t.self_host_ns += self_time(s.host_start, s.host_end, kids);
    }
    out
}

/// Simulated ns charged to each of `nodes` nodes by the timed spans
/// that no enclosing span on the same node already covers. A span
/// reads its own node's charges, so these spans partition every charge
/// made inside a span; a node's total over the timed phase must equal
/// its entry here, or some charge happened outside every span.
pub fn top_level_charged(spans: &[Span], nodes: usize) -> Vec<u64> {
    let mut out = vec![0; nodes];
    for s in spans.iter().filter(|s| s.request != UNTIMED_REQUEST) {
        let mut up = s.parent;
        while let Some(p) = up {
            if spans[p].node == s.node {
                break;
            }
            up = spans[p].parent;
        }
        if up.is_none() {
            out[s.node] += s.charged;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // Parent [0, 100); child [10, 40) with a grandchild inside it
        // that is listed as another child interval [20, 30): the
        // overlap is covered once.
        let mut kids = vec![(10, 40), (20, 30)];
        assert_eq!(self_time(0, 100, &mut kids), 70);
        // A child spilling past the parent is clipped.
        let mut kids = vec![(90, 150)];
        assert_eq!(self_time(0, 100, &mut kids), 90);
    }

    #[test]
    fn self_time_subtracts_back_to_back_children() {
        let mut kids = vec![(40, 70), (10, 40), (70, 80)];
        assert_eq!(self_time(0, 100, &mut kids), 30);
        let mut none = vec![];
        assert_eq!(self_time(5, 25, &mut none), 20);
    }

    #[test]
    fn totals_attribute_self_time_through_the_tree() {
        let span = |name, parent, host_start, host_end| Span {
            name,
            node: 0,
            host_start,
            host_end,
            sim_start: host_start,
            sim_end: host_end,
            charged: 1,
            parent,
            request: 7,
        };
        // run [0,100) ⊃ access [10,30), access [30,60) ⊃ inner [35,45).
        let spans = vec![
            span("run", None, 0, 100),
            span("access", Some(0), 10, 30),
            span("access", Some(0), 30, 60),
            span("inner", Some(2), 35, 45),
        ];
        let t = totals(&spans);
        assert_eq!(t["run"].self_host_ns, 50);
        assert_eq!(t["access"].calls, 2);
        assert_eq!(t["access"].host_ns, 50);
        assert_eq!(t["access"].self_host_ns, 40);
        assert_eq!(t["inner"].self_host_ns, 10);
    }

    #[test]
    fn top_level_charges_skip_spans_covered_on_their_node() {
        let span = |node, charged, parent, request| Span {
            name: "s",
            node,
            host_start: 0,
            host_end: 0,
            sim_start: 0,
            sim_end: 0,
            charged,
            parent,
            request,
        };
        let spans = vec![
            // A crash on node 0 whose child runs on node 1, with a
            // grandchild back on node 0 (already in the root's charge).
            span(0, 100, None, 1),
            span(1, 30, Some(0), 1),
            span(0, 20, Some(1), 1),
            span(1, 5, Some(1), 1),
            // A second top-level span on node 1, and an untimed one.
            span(1, 7, None, 2),
            span(1, 1000, None, UNTIMED_REQUEST),
        ];
        assert_eq!(top_level_charged(&spans, 3), vec![100, 37, 0]);
    }
}
