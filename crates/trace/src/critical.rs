//! Span-tree reconstruction and commit critical-path decomposition.
//!
//! Causal tracing ([`TraceCtx`](crate::event::TraceCtx)) gives every
//! span a `trace / span / parent` identity; this module turns the flat
//! ring back into per-request trees and decomposes each traced request's
//! send→durable(→replicated) window into named, exactly-summing
//! segments — the paper's "where does commit latency go" question,
//! answered per request instead of per class.
//!
//! Attribution is *deepest-covering-span*: the request window is
//! partitioned at every span boundary, and each slice is charged to the
//! segment of the deepest span covering it. Because the slices partition
//! the window, the per-segment nanoseconds sum to the request's total
//! latency exactly — no double counting across nested spans.

use std::collections::{BTreeSet, HashMap, HashSet};

use crate::event::{EventClass, SpanEvent};
use crate::hist::Histogram;
use crate::sink::{SpanLink, TraceSink};
use nob_sim::json::Json;
use nob_sim::Nanos;

/// Number of critical-path segments.
pub(crate) const N_SEGMENTS: usize = 10;

/// Segment names, in reporting order. `admission` is the request's own
/// self-time (queueing before the group picked it up, reply resolution),
/// `other` is any slice no span covers (e.g. a gap between grafted
/// subtrees).
pub const SEGMENTS: [&str; N_SEGMENTS] = [
    "admission",
    "group_wait",
    "wal_write",
    "stall",
    "journal_wait",
    "flush",
    "ship",
    "apply",
    "ack",
    "other",
];

const SEG_ADMISSION: usize = 0;
const SEG_GROUP_WAIT: usize = 1;
const SEG_WAL_WRITE: usize = 2;
const SEG_STALL: usize = 3;
const SEG_JOURNAL_WAIT: usize = 4;
const SEG_FLUSH: usize = 5;
const SEG_SHIP: usize = 6;
const SEG_APPLY: usize = 7;
const SEG_ACK: usize = 8;
const SEG_OTHER: usize = 9;

/// The segment a class is charged to, or `None` for classes that
/// inherit their enclosing span's segment (raw device commands and
/// write-back, which mean different things under the WAL than under the
/// journal).
fn segment_of(class: EventClass) -> Option<usize> {
    match class {
        EventClass::ServerRead
        | EventClass::ServerWrite
        | EventClass::ServerControl
        | EventClass::ServerScan => Some(SEG_ADMISSION),
        EventClass::GroupCommit => Some(SEG_GROUP_WAIT),
        EventClass::EnginePut => Some(SEG_WAL_WRITE),
        EventClass::WriteStall => Some(SEG_STALL),
        EventClass::JournalCommit | EventClass::Checkpoint | EventClass::FastCommit => {
            Some(SEG_JOURNAL_WAIT)
        }
        EventClass::SsdFlush | EventClass::SsdBgFlush => Some(SEG_FLUSH),
        EventClass::ReplShip => Some(SEG_SHIP),
        EventClass::ReplApply => Some(SEG_APPLY),
        EventClass::ReplAck => Some(SEG_ACK),
        EventClass::EngineGet => Some(SEG_OTHER),
        _ => None,
    }
}

/// One node of a reconstructed span tree.
#[derive(Debug, Clone)]
pub struct TraceNode {
    /// The span itself.
    pub event: SpanEvent,
    /// Whether this subtree was grafted in via a cross-trace link (the
    /// group-commit span a follower request waited on, owned by the
    /// leader's trace).
    pub(crate) grafted: bool,
    /// Child spans, by start instant then emission order.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// Latest completion instant anywhere in the subtree (a replication
    /// ack ends after the root's durable instant).
    pub fn max_end(&self) -> Nanos {
        self.children.iter().map(TraceNode::max_end).fold(self.event.end, Nanos::max)
    }

    /// Indented one-line-per-span rendering of the subtree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(0, &mut out);
        out
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        let e = &self.event;
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!("{} #{} [t={}, {}]", e.class.name(), e.span, e.start, e.duration()));
        if e.bytes > 0 {
            out.push_str(&format!(" {}B", e.bytes));
        }
        if self.grafted {
            out.push_str(" (via link)");
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(depth + 1, out);
        }
    }
}

/// An indexed snapshot of a sink's retained spans and links, ready to
/// answer tree queries.
#[derive(Debug)]
pub struct TraceForest {
    events: Vec<SpanEvent>,
    /// span id → index into `events`.
    by_span: HashMap<u64, usize>,
    /// parent span id → child indexes (emission order).
    children: HashMap<u64, Vec<usize>>,
    /// from span id → grafted target span ids (link order).
    links: HashMap<u64, Vec<u64>>,
}

impl TraceForest {
    /// Indexes a snapshot (see [`TraceSink::snapshot`]).
    pub(crate) fn new(events: Vec<SpanEvent>, links: Vec<SpanLink>) -> Self {
        let mut by_span = HashMap::new();
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, e) in events.iter().enumerate() {
            if e.span == 0 {
                continue;
            }
            by_span.insert(e.span, i);
            if e.parent != 0 {
                children.entry(e.parent).or_default().push(i);
            }
        }
        let mut link_map: HashMap<u64, Vec<u64>> = HashMap::new();
        for l in links {
            link_map.entry(l.from).or_default().push(l.to);
        }
        TraceForest { events, by_span, children, links: link_map }
    }

    /// Root spans (spans that started their own trace) still retained in
    /// the ring, oldest first.
    pub fn roots(&self) -> Vec<SpanEvent> {
        let mut roots: Vec<SpanEvent> =
            self.events.iter().filter(|e| e.is_root()).copied().collect();
        roots.sort_by_key(|e| (e.start, e.seq));
        roots
    }

    /// Reconstructs the tree of `trace`, if its root span is still in
    /// the ring. Grafted subtrees (group fan-in links) are included; a
    /// span reachable twice (or a link cycle) is expanded only once.
    pub fn tree(&self, trace: u64) -> Option<TraceNode> {
        let root = *self.by_span.get(&trace)?;
        if !self.events[root].is_root() {
            return None;
        }
        let mut visited = HashSet::new();
        self.build(root, false, &mut visited)
    }

    fn build(&self, idx: usize, grafted: bool, visited: &mut HashSet<u64>) -> Option<TraceNode> {
        let event = self.events[idx];
        if !visited.insert(event.span) {
            return None;
        }
        let mut kids: Vec<(bool, usize)> = Vec::new();
        if let Some(direct) = self.children.get(&event.span) {
            kids.extend(direct.iter().map(|&i| (false, i)));
        }
        if let Some(linked) = self.links.get(&event.span) {
            kids.extend(linked.iter().filter_map(|to| self.by_span.get(to)).map(|&i| (true, i)));
        }
        let mut children: Vec<TraceNode> =
            kids.into_iter().filter_map(|(g, i)| self.build(i, g, visited)).collect();
        children.sort_by_key(|n| (n.event.start, n.event.seq));
        Some(TraceNode { event, grafted, children })
    }
}

/// One traced request's critical-path decomposition: its full window
/// `[start, start + total_ns]` partitioned into the named segments.
/// The segments sum to `total_ns` exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CriticalPath {
    /// The request's trace id.
    pub(crate) trace: u64,
    /// Class of the root span (usually `server_write`).
    pub(crate) root_class: EventClass,
    /// Request receipt instant.
    pub(crate) start: Nanos,
    /// Receipt → latest completion anywhere in the tree (the replicated
    /// ack when replication is traced, the durable instant otherwise).
    pub total_ns: u64,
    /// Nanoseconds charged to each segment, indexed like [`SEGMENTS`].
    pub segments: [u64; N_SEGMENTS],
}

impl CriticalPath {
    /// Decomposes one reconstructed tree.
    pub fn from_tree(root: &TraceNode) -> CriticalPath {
        let lo = root.event.start;
        let hi = root.max_end().max(lo);
        // Every span flattened to (depth, segment, clamped window).
        let mut covers: Vec<(usize, usize, Nanos, Nanos)> = Vec::new();
        let root_seg = segment_of(root.event.class).unwrap_or(SEG_OTHER);
        flatten(root, 0, root_seg, lo, hi, &mut covers);
        let mut cuts: BTreeSet<Nanos> = BTreeSet::new();
        cuts.insert(lo);
        cuts.insert(hi);
        for &(_, _, s, e) in &covers {
            cuts.insert(s);
            cuts.insert(e);
        }
        let mut segments = [0u64; N_SEGMENTS];
        let cuts: Vec<Nanos> = cuts.into_iter().collect();
        for w in cuts.windows(2) {
            let (a, b) = (w[0], w[1]);
            // Deepest span covering the slice; ties (overlapping spans
            // at one depth — a repl ack round-trip overlapping the ship
            // span beside it, or the sibling groups a multi-shard write
            // waits on, which commit side by side) go to the first in DFS
            // order, so a slice is charged once and the enclosing span
            // keeps only what nothing else claims.
            let mut seg = SEG_OTHER;
            let mut best = None;
            for &(depth, s_seg, s, e) in &covers {
                if s <= a && e >= b && best.is_none_or(|d| depth > d) {
                    best = Some(depth);
                    seg = s_seg;
                }
            }
            segments[seg] += (b - a).as_nanos();
        }
        CriticalPath {
            trace: root.event.trace,
            root_class: root.event.class,
            start: lo,
            total_ns: (hi - lo).as_nanos(),
            segments,
        }
    }

    /// Nanoseconds charged to a segment, by name (0 for unknown names).
    pub fn segment(&self, name: &str) -> u64 {
        SEGMENTS.iter().position(|&s| s == name).map_or(0, |i| self.segments[i])
    }
}

fn flatten(
    node: &TraceNode,
    depth: usize,
    inherited: usize,
    lo: Nanos,
    hi: Nanos,
    out: &mut Vec<(usize, usize, Nanos, Nanos)>,
) {
    // Inside a replication stage, non-repl work is that stage's work:
    // the follower's engine put (and the journal/FLUSH under it) is how
    // an apply spends its time, not a second `wal_write` on this
    // request's path. Nested repl stages keep their own segment (the
    // apply under its ship).
    let own = segment_of(node.event.class);
    let repl_stage = matches!(own, Some(SEG_SHIP | SEG_APPLY | SEG_ACK));
    let seg = if matches!(inherited, SEG_SHIP | SEG_APPLY) && !repl_stage {
        inherited
    } else {
        own.unwrap_or(inherited)
    };
    let s = node.event.start.max(lo).min(hi);
    let e = node.event.end.max(lo).min(hi);
    if e > s {
        out.push((depth, seg, s, e));
    }
    for c in &node.children {
        flatten(c, depth + 1, seg, lo, hi, out);
    }
}

/// Aggregate stats for one segment across many critical paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentStats {
    /// Segment name (one of [`SEGMENTS`]).
    pub(crate) name: &'static str,
    /// Paths in which the segment is non-zero.
    pub(crate) count: u64,
    /// Total nanoseconds across all paths.
    pub total_ns: u64,
    /// Median of the non-zero per-path values.
    pub(crate) p50_ns: u64,
    /// 99th percentile of the non-zero per-path values.
    pub(crate) p99_ns: u64,
}

/// The critical-path decomposition of every traced request a sink still
/// retains: per-segment aggregates plus the slowest requests with their
/// full trees.
#[derive(Debug, Clone)]
pub struct CriticalSummary {
    /// Traced requests decomposed.
    pub paths: u64,
    /// Total request nanoseconds across all paths.
    pub total_ns: u64,
    /// Per-segment aggregates, in [`SEGMENTS`] order, empty segments
    /// omitted.
    pub segments: Vec<SegmentStats>,
    /// Slowest requests, slowest first, each with its rendered tree.
    pub slowest: Vec<(CriticalPath, String)>,
}

impl CriticalSummary {
    /// Decomposes every root in the forest, keeping the `top_n` slowest
    /// trees for display.
    pub(crate) fn collect(forest: &TraceForest, top_n: usize) -> CriticalSummary {
        let mut paths: Vec<CriticalPath> = Vec::new();
        let mut trees: HashMap<u64, TraceNode> = HashMap::new();
        for root in forest.roots() {
            let Some(tree) = forest.tree(root.trace) else { continue };
            let path = CriticalPath::from_tree(&tree);
            trees.insert(path.trace, tree);
            paths.push(path);
        }
        let mut hists: Vec<Histogram> = (0..N_SEGMENTS).map(|_| Histogram::new()).collect();
        let mut totals = [0u64; N_SEGMENTS];
        let mut counts = [0u64; N_SEGMENTS];
        let mut total_ns = 0u64;
        for p in &paths {
            total_ns += p.total_ns;
            for (i, &v) in p.segments.iter().enumerate() {
                if v > 0 {
                    hists[i].record(v);
                    totals[i] += v;
                    counts[i] += 1;
                }
            }
        }
        let segments = (0..N_SEGMENTS)
            .filter(|&i| counts[i] > 0)
            .map(|i| {
                let (p50, _, p99, _) = hists[i].percentiles();
                SegmentStats {
                    name: SEGMENTS[i],
                    count: counts[i],
                    total_ns: totals[i],
                    p50_ns: p50,
                    p99_ns: p99,
                }
            })
            .collect();
        let mut by_latency = paths;
        by_latency.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.trace.cmp(&b.trace)));
        let slowest =
            by_latency.iter().take(top_n).map(|p| (*p, trees[&p.trace].render())).collect();
        CriticalSummary { paths: by_latency.len() as u64, total_ns, segments, slowest }
    }

    /// Aggregate stats for one segment, if any path recorded it.
    pub fn segment(&self, name: &str) -> Option<&SegmentStats> {
        self.segments.iter().find(|s| s.name == name)
    }

    /// Deterministic, integer-only JSON (the form `fig_breakdown` pins).
    pub fn to_json(&self) -> Json {
        let segment = |s: &SegmentStats| {
            Json::object([
                ("count", s.count.into()),
                ("total_ns", s.total_ns.into()),
                ("p50_ns", s.p50_ns.into()),
                ("p99_ns", s.p99_ns.into()),
            ])
        };
        let slowest = |(path, _): &(CriticalPath, String)| {
            let segments = SEGMENTS.iter().zip(path.segments).filter(|&(_, v)| v > 0);
            Json::object([
                ("trace", path.trace.into()),
                ("root", path.root_class.name().into()),
                ("start_ns", path.start.as_nanos().into()),
                ("total_ns", path.total_ns.into()),
                ("segments", Json::object(segments.map(|(&s, v)| (s, v.into())))),
            ])
        };
        Json::object([
            ("paths", self.paths.into()),
            ("total_ns", self.total_ns.into()),
            ("segments", Json::object(self.segments.iter().map(|s| (s.name, segment(s))))),
            ("slowest", Json::Array(self.slowest.iter().map(slowest).collect())),
        ])
    }

    /// Human-readable report: segment shares, then the slowest requests
    /// with their trees.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "critical path: {} traced requests totalling {}\n\n",
            self.paths,
            Nanos::from_nanos(self.total_ns)
        ));
        if self.segments.is_empty() {
            out.push_str("no traced requests recorded\n");
            return out;
        }
        out.push_str(&format!(
            "| {:<13} | {:>6} | {:>12} | {:>6} | {:>10} | {:>10} |\n",
            "segment", "count", "total", "share", "p50", "p99"
        ));
        out.push_str(&format!(
            "|{:-<15}|{:-<8}|{:-<14}|{:-<8}|{:-<12}|{:-<12}|\n",
            "", "", "", "", "", ""
        ));
        for s in &self.segments {
            let share = if self.total_ns > 0 {
                s.total_ns as f64 * 100.0 / self.total_ns as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "| {:<13} | {:>6} | {:>12} | {:>5.1}% | {:>10} | {:>10} |\n",
                s.name,
                s.count,
                format!("{}", Nanos::from_nanos(s.total_ns)),
                share,
                format!("{}", Nanos::from_nanos(s.p50_ns)),
                format!("{}", Nanos::from_nanos(s.p99_ns)),
            ));
        }
        if !self.slowest.is_empty() {
            out.push_str(&format!("\nslowest {} requests:\n", self.slowest.len()));
            for (i, (p, tree)) in self.slowest.iter().enumerate() {
                out.push_str(&format!(
                    "\n{:>3}. trace {} ({}) at t={}: {}\n",
                    i + 1,
                    p.trace,
                    p.root_class.name(),
                    p.start,
                    Nanos::from_nanos(p.total_ns)
                ));
                for line in tree.lines() {
                    out.push_str("     ");
                    out.push_str(line);
                    out.push('\n');
                }
            }
        }
        out
    }
}

impl TraceSink {
    /// Indexes the currently retained spans and links into a queryable
    /// forest.
    pub fn forest(&self) -> TraceForest {
        let (events, links) = self.snapshot();
        TraceForest::new(events, links)
    }

    /// Root spans still retained, oldest first.
    pub fn trace_roots(&self) -> Vec<SpanEvent> {
        self.forest().roots()
    }

    /// Reconstructs one trace's span tree, if its root is retained.
    pub fn tree(&self, trace: u64) -> Option<TraceNode> {
        self.forest().tree(trace)
    }

    /// Critical-path decomposition of every retained traced request.
    pub fn critical_summary(&self, top_n: usize) -> CriticalSummary {
        CriticalSummary::collect(&self.forest(), top_n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceCtx;

    fn ns(v: u64) -> Nanos {
        Nanos::from_nanos(v)
    }

    /// One synthetic traced commit: server_write [0,100] → group [10,80]
    /// → engine_put [20,70] → journal [30,60] → flush [40,55].
    fn commit_chain(sink: &TraceSink) -> TraceCtx {
        let request = sink.open(Some(TraceCtx::NONE));
        let group = sink.open(None);
        let put = sink.open(None);
        let jc = sink.open(None);
        sink.emit(EventClass::SsdFlush, ns(40), ns(55), 0);
        jc.close(EventClass::JournalCommit, ns(30), ns(60), 4096);
        put.close(EventClass::EnginePut, ns(20), ns(70), 512);
        group.close(EventClass::GroupCommit, ns(10), ns(80), 512);
        let root = request.ctx();
        drop(request);
        sink.emit_ctx(EventClass::ServerWrite, ns(0), ns(100), 64, root);
        root
    }

    #[test]
    fn tree_reconstructs_the_commit_chain() {
        let sink = TraceSink::new();
        let root = commit_chain(&sink);
        let tree = sink.tree(root.trace).expect("root retained");
        assert_eq!(tree.event.class, EventClass::ServerWrite);
        assert_eq!(tree.render().lines().count(), 5);
        let mut classes = Vec::new();
        fn walk(n: &TraceNode, out: &mut Vec<EventClass>) {
            out.push(n.event.class);
            for c in &n.children {
                walk(c, out);
            }
        }
        walk(&tree, &mut classes);
        assert_eq!(
            classes,
            vec![
                EventClass::ServerWrite,
                EventClass::GroupCommit,
                EventClass::EnginePut,
                EventClass::JournalCommit,
                EventClass::SsdFlush,
            ]
        );
        let text = tree.render();
        assert!(text.contains("server_write"));
        assert!(text.contains("  group_commit"));
        assert!(text.contains("      journal_commit"));
    }

    #[test]
    fn critical_path_partitions_exactly() {
        let sink = TraceSink::new();
        let root = commit_chain(&sink);
        let tree = sink.tree(root.trace).unwrap();
        let p = CriticalPath::from_tree(&tree);
        assert_eq!(p.total_ns, 100);
        assert_eq!(p.segments.iter().sum::<u64>(), 100, "segments must partition the window");
        // server self-time: [0,10) + [80,100] = 30.
        assert_eq!(p.segment("admission"), 30);
        assert_eq!(p.segment("group_wait"), 20);
        assert_eq!(p.segment("wal_write"), 20);
        assert_eq!(p.segment("journal_wait"), 15);
        assert_eq!(p.segment("flush"), 15);
    }

    #[test]
    fn links_graft_the_group_into_follower_trees() {
        let sink = TraceSink::new();
        // Leader request owns the group span; a follower request links it.
        let leader = sink.child_ctx(TraceCtx::NONE);
        let follower = sink.child_ctx(TraceCtx::NONE);
        let group = sink.open(Some(leader));
        sink.link(follower, group.ctx());
        group.close(EventClass::GroupCommit, ns(10), ns(50), 1024);
        sink.emit_ctx(EventClass::ServerWrite, ns(0), ns(60), 32, leader);
        sink.emit_ctx(EventClass::ServerWrite, ns(5), ns(58), 32, follower);
        let ftree = sink.tree(follower.trace).expect("follower tree");
        assert_eq!(ftree.render().lines().count(), 2);
        assert!(ftree.children[0].grafted);
        assert_eq!(ftree.children[0].event.class, EventClass::GroupCommit);
        assert!(ftree.render().contains("(via link)"));
        // The leader still owns it directly.
        let ltree = sink.tree(leader.trace).expect("leader tree");
        assert!(!ltree.children[0].grafted);
        // Follower decomposition: 40ns group wait, 20ns self.
        let p = CriticalPath::from_tree(&ftree);
        assert_eq!(p.total_ns, 53);
        assert_eq!(p.segment("group_wait"), 40);
        assert_eq!(p.segment("admission"), 13);
    }

    #[test]
    fn sibling_groups_that_overlap_are_charged_once() {
        // A two-shard write: both shards' groups start with the round at
        // t=10 and run side by side, shard 0 to t=60, shard 1 to t=80.
        let sink = TraceSink::new();
        let root = sink.child_ctx(TraceCtx::NONE);
        for (end, put_end) in [(60, 50), (80, 75)] {
            let group = sink.open(Some(root));
            sink.open(None).close(EventClass::EnginePut, ns(10), ns(put_end), 512);
            group.close(EventClass::GroupCommit, ns(10), ns(end), 512);
        }
        sink.emit_ctx(EventClass::ServerWrite, ns(0), ns(100), 64, root);
        let p = CriticalPath::from_tree(&sink.tree(root.trace).unwrap());
        assert_eq!(p.total_ns, 100);
        assert_eq!(p.segments.iter().sum::<u64>(), 100, "overlap must not be counted twice");
        // The union of the two puts is [10,75); the groups' own tails are
        // [75,80) — shard 0's [50,60) lies under shard 1's deeper put.
        assert_eq!(p.segment("wal_write"), 65);
        assert_eq!(p.segment("group_wait"), 5);
        assert_eq!(p.segment("admission"), 30, "queueing ends when the round begins");
    }

    #[test]
    fn ambient_emit_outside_any_scope_stays_untraced() {
        let sink = TraceSink::new();
        sink.emit(EventClass::SsdRead, ns(0), ns(5), 512);
        let (events, _) = sink.snapshot();
        assert_eq!(events[0].trace, 0);
        assert_eq!(events[0].span, 0);
        assert!(sink.trace_roots().is_empty());
    }

    #[test]
    fn repl_spans_extend_the_window_past_durable() {
        let sink = TraceSink::new();
        let root = sink.child_ctx(TraceCtx::NONE);
        let group = sink.child_ctx(root);
        sink.emit_ctx(EventClass::GroupCommit, ns(10), ns(40), 256, group);
        let ship = sink.child_ctx(group);
        sink.emit_ctx(EventClass::ReplShip, ns(40), ns(45), 256, ship);
        sink.emit_ctx(EventClass::ReplApply, ns(45), ns(70), 256, sink.child_ctx(ship));
        // The ack round-trip is the ship span's *sibling* (both under the
        // group), so ship/apply claim their own windows and ack keeps the
        // wire-wait remainder.
        sink.emit_ctx(EventClass::ReplAck, ns(40), ns(90), 256, sink.child_ctx(group));
        sink.emit_ctx(EventClass::ServerWrite, ns(0), ns(50), 16, root);
        let tree = sink.tree(root.trace).unwrap();
        let p = CriticalPath::from_tree(&tree);
        assert_eq!(p.total_ns, 90, "window runs to the ack, past durable");
        assert_eq!(p.segments.iter().sum::<u64>(), 90);
        assert_eq!(p.segment("ship"), 5);
        assert_eq!(p.segment("apply"), 25);
        assert_eq!(p.segment("ack"), 20);
        assert_eq!(p.segment("group_wait"), 30);
        assert_eq!(p.segment("admission"), 10);
    }

    #[test]
    fn critical_summary_aggregates_and_ranks() {
        let sink = TraceSink::new();
        let a = commit_chain(&sink);
        // A second, slower request.
        let b = sink.child_ctx(TraceCtx::NONE);
        sink.emit_ctx(EventClass::ServerWrite, ns(200), ns(500), 64, b);
        let s = sink.critical_summary(1);
        assert_eq!(s.paths, 2);
        assert_eq!(s.total_ns, 400);
        assert_eq!(s.slowest.len(), 1);
        assert_eq!(s.slowest[0].0.trace, b.trace);
        assert!(s.segment("admission").unwrap().count == 2);
        let json = s.to_json();
        assert_eq!(json.num("paths"), Some(2.0));
        let json = json.to_string();
        assert!(!json.contains('.'), "critical JSON must be integer-only:\n{json}");
        let text = s.render();
        assert!(text.contains("admission"));
        assert!(text.contains("slowest 1 requests"));
        let _ = a;
    }

    #[test]
    fn exemplar_trace_reaches_the_summary() {
        let sink = TraceSink::new();
        let root = sink.child_ctx(TraceCtx::NONE);
        sink.emit_ctx(EventClass::EnginePut, ns(0), ns(500), 64, root);
        sink.emit(EventClass::EnginePut, ns(0), ns(900), 64); // untraced, slower
        let s = sink.summary();
        let c = s.class(EventClass::EnginePut).unwrap();
        assert_eq!(c.exemplar_trace, root.trace, "exemplar ignores untraced spans");
    }

    #[test]
    fn link_capacity_is_bounded() {
        let sink = TraceSink::new();
        let a = sink.child_ctx(TraceCtx::NONE);
        let b = sink.child_ctx(TraceCtx::NONE);
        sink.link(TraceCtx::NONE, a);
        sink.link(a, TraceCtx::NONE);
        let (_, links) = sink.snapshot();
        assert!(links.is_empty(), "untraced endpoints record no link");
        sink.link(a, b);
        let (_, links) = sink.snapshot();
        assert_eq!(links.len(), 1);
    }
}
