//! The shared trace sink: a cheaply cloneable handle every layer emits
//! spans into.

use std::sync::{Arc, Mutex, MutexGuard};

use crate::event::{EventClass, SpanEvent, StallKind, StallRecord, TraceCtx, N_CLASSES};
use crate::hist::Histogram;
use crate::ring::TraceRing;
use crate::summary::{ClassStats, TraceSummary};
use nob_sim::json::Json;
use nob_sim::Nanos;

/// Default ring capacity (spans retained for export).
const DEFAULT_RING: usize = 4096;

/// Stalls kept before pruning to the longest.
const STALL_KEEP: usize = 64;

/// Cross-trace links kept before counting further ones as dropped.
const LINK_KEEP: usize = 8192;

/// One cross-trace graft: the span `from` (in one request's tree) also
/// waited on the subtree rooted at `to` (in another request's tree) —
/// how a group-commit leader span fans in many follower requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanLink {
    /// Span that waited (e.g. a follower request's root).
    pub from: u64,
    /// Span it waited on (e.g. the leader's group-commit span).
    pub to: u64,
}

struct TraceState {
    seq: u64,
    hists: [Histogram; N_CLASSES],
    bytes: [u64; N_CLASSES],
    ring: TraceRing,
    stalls: Vec<StallRecord>,
    stall_count: u64,
    stall_total_ns: u64,
    last_commit: Option<SpanEvent>,
    last_flush: Option<SpanEvent>,
    /// Next causal span id (0 is reserved for "untraced").
    next_span: u64,
    /// Ambient causal-context stack, one entry per open [`SpanScope`]:
    /// `emit` parents new spans under the top entry, which is how the
    /// synchronous commit chain (server → store → engine → ext4 → ssd)
    /// nests without threading a context through every call.
    stack: Vec<TraceCtx>,
    /// Cross-trace grafts (group-commit fan-in), bounded by `LINK_KEEP`.
    links: Vec<SpanLink>,
    links_dropped: u64,
    /// Per-class exemplar: `(duration_ns, trace_id)` of the slowest
    /// *traced* span, linking a histogram tail to a concrete tree.
    exemplar: [(u64, u64); N_CLASSES],
}

impl TraceState {
    fn new(ring_capacity: usize) -> Self {
        TraceState {
            seq: 0,
            hists: std::array::from_fn(|_| Histogram::new()),
            bytes: [0; N_CLASSES],
            ring: TraceRing::new(ring_capacity),
            stalls: Vec::new(),
            stall_count: 0,
            stall_total_ns: 0,
            last_commit: None,
            last_flush: None,
            next_span: 1,
            stack: Vec::new(),
            links: Vec::new(),
            links_dropped: 0,
            exemplar: [(0, 0); N_CLASSES],
        }
    }

    fn alloc_span(&mut self) -> u64 {
        let id = self.next_span;
        self.next_span += 1;
        id
    }

    /// A fresh context: child of `parent` when given, root otherwise.
    fn mint(&mut self, parent: Option<TraceCtx>) -> TraceCtx {
        let span = self.alloc_span();
        match parent {
            Some(p) if !p.is_none() => TraceCtx { trace: p.trace, span, parent: p.span },
            _ => TraceCtx { trace: span, span, parent: 0 },
        }
    }

    /// The context a plain `emit` carries: a fresh child of the stack
    /// top, or untraced when no request scope is active.
    fn ambient(&mut self) -> TraceCtx {
        match self.stack.last().copied() {
            Some(top) => self.mint(Some(top)),
            None => TraceCtx::NONE,
        }
    }

    fn record(
        &mut self,
        class: EventClass,
        start: Nanos,
        end: Nanos,
        bytes: u64,
        ctx: TraceCtx,
    ) -> SpanEvent {
        let ev = SpanEvent {
            seq: self.seq,
            class,
            start,
            end,
            bytes,
            trace: ctx.trace,
            span: ctx.span,
            parent: ctx.parent,
        };
        self.seq += 1;
        let idx = class as usize;
        self.hists[idx].record(ev.duration().as_nanos());
        self.bytes[idx] += bytes;
        if ctx.trace != 0 && ev.duration().as_nanos() > self.exemplar[idx].0 {
            self.exemplar[idx] = (ev.duration().as_nanos(), ctx.trace);
        }
        self.ring.push(ev);
        match class {
            EventClass::JournalCommit | EventClass::Checkpoint | EventClass::FastCommit => {
                self.last_commit = Some(ev);
            }
            EventClass::SsdFlush | EventClass::SsdBgFlush => self.last_flush = Some(ev),
            _ => {}
        }
        ev
    }
}

/// A handle onto shared trace state. Clone it freely: the SSD, Ext4 and
/// engine layers each hold a clone of the same sink, so summaries and
/// exports see the whole stack. All methods take `&self`; the state sits
/// behind a mutex.
///
/// The instrumented layers store an `Option<TraceSink>` — with `None`
/// the emit path is a single branch and allocates nothing.
#[derive(Clone)]
pub struct TraceSink {
    inner: Arc<Mutex<TraceState>>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TraceSink")
    }
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::new()
    }
}

impl TraceSink {
    /// A sink retaining the default number of spans.
    pub fn new() -> Self {
        TraceSink::with_ring_capacity(DEFAULT_RING)
    }

    /// A sink whose ring retains up to `capacity` spans.
    pub fn with_ring_capacity(capacity: usize) -> Self {
        TraceSink { inner: Arc::new(Mutex::new(TraceState::new(capacity))) }
    }

    fn lock(&self) -> MutexGuard<'_, TraceState> {
        // A panic while holding the lock poisons it; the data (plain
        // counters) is still fine to read.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records one completed span. The span is parented under the
    /// ambient context (the innermost open [`SpanScope`]); with no open
    /// scope it is untraced (all-zero causal ids), exactly as before
    /// causal tracing existed.
    pub fn emit(&self, class: EventClass, start: Nanos, end: Nanos, bytes: u64) {
        let mut st = self.lock();
        let ctx = st.ambient();
        st.record(class, start, end, bytes, ctx);
    }

    /// Records one completed span under an explicitly minted context
    /// (from [`TraceSink::child_ctx`] or [`SpanScope::ctx`]) instead of
    /// the ambient one.
    pub fn emit_ctx(&self, class: EventClass, start: Nanos, end: Nanos, bytes: u64, ctx: TraceCtx) {
        self.lock().record(class, start, end, bytes, ctx);
    }

    /// Mints a fresh child of `parent` (a fresh root, a new trace, if
    /// `parent` is [`TraceCtx::NONE`]) without opening a scope. Callers
    /// thread it through asynchronous hand-offs (reply queues,
    /// group-commit tickets) and later emit with [`TraceSink::emit_ctx`].
    pub fn child_ctx(&self, parent: TraceCtx) -> TraceCtx {
        self.lock().mint(Some(parent))
    }

    /// Opens a span scope and makes it the ambient context, so spans
    /// emitted until it ends become its children. With `None` the scope
    /// is a child of the innermost open scope, or a fresh root when none
    /// is open; with `Some(p)` it is a child of `p` — for work picked off
    /// a queue, where the ambient context is no longer the request that
    /// caused it — or a fresh root when `p` is [`TraceCtx::NONE`].
    /// [`SpanScope::close`] records the span; dropping the scope cancels
    /// it, so an error path needs no trace code of its own. Scopes end
    /// in LIFO order.
    pub fn open(&self, parent: Option<TraceCtx>) -> SpanScope {
        let mut st = self.lock();
        let parent = parent.or_else(|| st.stack.last().copied());
        let ctx = st.mint(parent);
        st.stack.push(ctx);
        SpanScope { sink: self.clone(), ctx }
    }

    /// Records that span `from` (one request's tree) also waited on the
    /// subtree rooted at span `to` (another request's tree): the
    /// group-commit fan-in. Tree reconstruction grafts `to`'s subtree
    /// under `from`. Links are bounded; excess links are counted dropped.
    pub fn link(&self, from: TraceCtx, to: TraceCtx) {
        if from.is_none() || to.is_none() {
            return;
        }
        let mut st = self.lock();
        if st.links.len() >= LINK_KEEP {
            st.links_dropped += 1;
            return;
        }
        st.links.push(SpanLink { from: from.span, to: to.span });
    }

    /// Records a foreground write stall, capturing its causal chain: the
    /// last commit-family span and last device FLUSH observed before the
    /// stall resolved. Returns the stall span's context so callers can
    /// attach children (e.g. the compaction stages that ran during the
    /// stall) via [`TraceSink::child_ctx`] / [`TraceSink::emit_ctx`];
    /// it is [`TraceCtx::NONE`] outside any request scope.
    pub fn emit_stall(&self, kind: StallKind, start: Nanos, end: Nanos) -> TraceCtx {
        let mut st = self.lock();
        let ctx = st.ambient();
        st.record(EventClass::WriteStall, start, end, 0, ctx);
        let rec = StallRecord {
            kind,
            start,
            end,
            cause_commit: st.last_commit,
            cause_flush: st.last_flush,
        };
        st.stall_count += 1;
        st.stall_total_ns = st.stall_total_ns.saturating_add(rec.duration().as_nanos());
        st.stalls.push(rec);
        if st.stalls.len() > STALL_KEEP {
            // Prune to the longest half, preserving discovery order for
            // equal durations so summaries stay deterministic.
            let mut keep: Vec<StallRecord> = std::mem::take(&mut st.stalls);
            keep.sort_by(|a, b| {
                b.duration().as_nanos().cmp(&a.duration().as_nanos()).then(a.start.cmp(&b.start))
            });
            keep.truncate(STALL_KEEP / 2);
            st.stalls = keep;
        }
        ctx
    }

    /// Total spans emitted so far.
    pub fn events(&self) -> u64 {
        self.lock().ring.pushed()
    }

    /// Spans evicted from the ring so far (histograms still count them,
    /// but span trees and exports lose them) — cheap enough for stats
    /// lines polled per request.
    pub fn dropped(&self) -> u64 {
        self.lock().ring.overwritten()
    }

    /// A snapshot of one class's histogram (for external merging, e.g.
    /// chaos campaigns grouping clean vs faulted runs).
    pub fn histogram(&self, class: EventClass) -> Histogram {
        self.lock().hists[class as usize].clone()
    }

    /// Summarises everything recorded so far.
    pub fn summary(&self) -> TraceSummary {
        let st = self.lock();
        let mut classes = Vec::new();
        for class in EventClass::ALL {
            let h = &st.hists[class as usize];
            if h.is_empty() {
                continue;
            }
            let (p50, p95, p99, p999) = h.percentiles();
            classes.push(ClassStats {
                class,
                count: h.count(),
                bytes: st.bytes[class as usize],
                total_ns: h.total(),
                min_ns: h.min(),
                max_ns: h.max(),
                p50_ns: p50,
                p95_ns: p95,
                p99_ns: p99,
                p999_ns: p999,
                exemplar_trace: st.exemplar[class as usize].1,
            });
        }
        let mut top = st.stalls.clone();
        top.sort_by(|a, b| {
            b.duration().as_nanos().cmp(&a.duration().as_nanos()).then(a.start.cmp(&b.start))
        });
        top.truncate(TraceSummary::TOP_STALLS);
        TraceSummary {
            events: st.ring.pushed(),
            dropped: st.ring.overwritten(),
            classes,
            stall_count: st.stall_count,
            stall_total_ns: st.stall_total_ns,
            top_stalls: top,
        }
    }

    /// A snapshot of the retained spans (oldest first) plus the recorded
    /// cross-trace links — the raw material for span-tree reconstruction
    /// ([`crate::critical`]).
    pub fn snapshot(&self) -> (Vec<SpanEvent>, Vec<SpanLink>) {
        let st = self.lock();
        (st.ring.iter().copied().collect(), st.links.clone())
    }

    /// The retained spans as a JSON document, oldest first:
    /// `{"dropped": n, "events": [{"seq": .., "class": .., ..}, ..]}`.
    pub fn events_json(&self) -> Json {
        let st = self.lock();
        let event = |ev: &SpanEvent| {
            Json::object([
                ("seq", ev.seq.into()),
                ("class", ev.class.name().into()),
                ("layer", ev.class.layer().into()),
                ("start_ns", ev.start.as_nanos().into()),
                ("end_ns", ev.end.as_nanos().into()),
                ("bytes", ev.bytes.into()),
                ("trace", ev.trace.into()),
                ("span", ev.span.into()),
                ("parent", ev.parent.into()),
            ])
        };
        Json::object([
            ("dropped", st.ring.overwritten().into()),
            ("events", Json::Array(st.ring.iter().map(event).collect())),
        ])
    }

    /// The retained spans as a Chrome-trace (`chrome://tracing` /
    /// Perfetto) document. Each layer renders as its own thread;
    /// timestamps are virtual-time microseconds.
    pub fn chrome_trace(&self) -> Json {
        let st = self.lock();
        let micros = |t: Nanos| Json::fixed(t.as_nanos() as f64 / 1e3, 3);
        let layers = ["engine", "ext4", "ssd", "server", "repl"];
        let threads = (0u32..).zip(layers).map(|(tid, layer)| {
            Json::object([
                ("name", "thread_name".into()),
                ("ph", "M".into()),
                ("pid", 0u32.into()),
                ("tid", tid.into()),
                ("args", Json::object([("name", layer.into())])),
            ])
        });
        let slices = st.ring.iter().map(|ev| {
            Json::object([
                ("name", ev.class.name().into()),
                ("cat", ev.class.layer().into()),
                ("ph", "X".into()),
                ("ts", micros(ev.start)),
                ("dur", micros(ev.duration())),
                ("pid", 0u32.into()),
                ("tid", ev.class.tid().into()),
                (
                    "args",
                    Json::object([
                        ("seq", ev.seq.into()),
                        ("bytes", ev.bytes.into()),
                        ("trace", ev.trace.into()),
                        ("span", ev.span.into()),
                        ("parent", ev.parent.into()),
                    ]),
                ),
            ])
        });
        // Flow arrows bind each traced child slice to its parent slice,
        // so chrome://tracing / Perfetto draws the causal tree across the
        // layer threads (slices alone only nest within one tid).
        let by_span: std::collections::HashMap<u64, &SpanEvent> =
            st.ring.iter().filter(|e| e.span != 0).map(|e| (e.span, e)).collect();
        let linked = st.ring.iter().filter_map(|ev| Some((ev, *by_span.get(&ev.parent)?)));
        let flows = linked.flat_map(|(ev, parent)| {
            // The arrow leaves the parent slice and binds to the child's.
            [("s", parent, None), ("f", ev, Some(("bp", "e".into())))].map(|(ph, anchor, bp)| {
                let fields = [
                    ("name", "causal".into()),
                    ("cat", "causal".into()),
                    ("ph", ph.into()),
                    ("id", ev.span.into()),
                    ("pid", 0u32.into()),
                    ("tid", anchor.class.tid().into()),
                    ("ts", micros(anchor.start)),
                ];
                Json::object(fields.into_iter().chain(bp))
            })
        });
        Json::object([
            ("displayTimeUnit", "ms".into()),
            ("traceEvents", Json::Array(threads.chain(slices).chain(flows).collect())),
        ])
    }
}

/// One open causal span, from [`TraceSink::open`] until
/// [`SpanScope::close`] records it or a drop cancels it. Either way the
/// scope leaves the ambient stack as it found it.
#[derive(Debug)]
#[must_use = "a scope dropped at once cancels its span"]
pub struct SpanScope {
    sink: TraceSink,
    ctx: TraceCtx,
}

impl SpanScope {
    /// The span's causal identity: the parent of every span emitted
    /// while the scope is open.
    pub fn ctx(&self) -> TraceCtx {
        self.ctx
    }

    /// Records the scope's span, with the identity its children already
    /// point at, and ends the scope.
    pub fn close(self, class: EventClass, start: Nanos, end: Nanos, bytes: u64) {
        self.sink.lock().record(class, start, end, bytes, self.ctx);
    }
}

impl Drop for SpanScope {
    fn drop(&mut self) {
        let top = self.sink.lock().stack.pop();
        debug_assert_eq!(top, Some(self.ctx), "span scopes end in LIFO order");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> Nanos {
        Nanos::from_nanos(v)
    }

    #[test]
    fn clones_share_state() {
        let sink = TraceSink::new();
        let other = sink.clone();
        sink.emit(EventClass::SsdWrite, ns(0), ns(100), 4096);
        other.emit(EventClass::SsdWrite, ns(200), ns(350), 4096);
        let s = sink.summary();
        assert_eq!(s.events, 2);
        let c = s.class(EventClass::SsdWrite).unwrap();
        assert_eq!(c.count, 2);
        assert_eq!(c.bytes, 8192);
        assert_eq!(c.max_ns, 150);
    }

    /// `(trace, span, parent)` of every retained span, oldest first.
    fn triples(sink: &TraceSink) -> Vec<(u64, u64, u64)> {
        sink.snapshot().0.iter().map(|e| (e.trace, e.span, e.parent)).collect()
    }

    #[test]
    fn dropped_scope_records_nothing_and_restores_the_parent() {
        let sink = TraceSink::new();
        let outer = sink.open(None);
        drop(sink.open(None));
        let failed = || -> Result<(), ()> {
            let _scope = sink.open(None);
            Err(())
        };
        assert!(failed().is_err(), "an early return drops the scope the same way");
        sink.emit(EventClass::SsdWrite, ns(0), ns(1), 0);
        outer.close(EventClass::EnginePut, ns(0), ns(2), 0);
        sink.emit(EventClass::SsdRead, ns(2), ns(3), 0);
        // The cancelled scopes took ids 2 and 3; no span carries them.
        assert_eq!(triples(&sink), [(1, 4, 1), (1, 1, 0), (0, 0, 0)]);
    }

    #[test]
    fn nested_scopes_close_innermost_first() {
        let sink = TraceSink::new();
        let group = sink.open(None);
        let put = sink.open(None);
        let commit = sink.open(None);
        sink.emit(EventClass::SsdFlush, ns(3), ns(4), 0);
        commit.close(EventClass::JournalCommit, ns(2), ns(5), 0);
        put.close(EventClass::EnginePut, ns(1), ns(6), 0);
        group.close(EventClass::GroupCommit, ns(0), ns(7), 0);
        // Innermost first, each under the scope it opened in.
        assert_eq!(triples(&sink), [(1, 4, 3), (1, 3, 2), (1, 2, 1), (1, 1, 0)]);
    }

    #[test]
    fn one_call_sequence_mints_pinned_ids() {
        // The ids the context-stack calls this API replaced minted for
        // the same sequence: the scope changes no span's identity.
        let sink = TraceSink::new();
        let root = sink.open(Some(TraceCtx::NONE));
        let put = sink.open(None);
        sink.emit(EventClass::SsdWrite, ns(1), ns(2), 0);
        let fresh = sink.open(Some(TraceCtx::NONE));
        sink.emit(EventClass::SsdFlush, ns(2), ns(3), 0);
        fresh.close(EventClass::JournalCommit, ns(2), ns(4), 0);
        let cancelled = sink.open(None);
        sink.emit(EventClass::SsdRead, ns(4), ns(5), 0);
        drop(cancelled);
        sink.open(Some(root.ctx())).close(EventClass::ReplApply, ns(5), ns(6), 0);
        let put_ctx = put.ctx();
        put.close(EventClass::EnginePut, ns(1), ns(7), 0);
        drop(root);
        sink.emit_ctx(EventClass::ServerWrite, ns(0), ns(8), 0, sink.child_ctx(put_ctx));
        sink.emit_ctx(EventClass::ServerRead, ns(8), ns(9), 0, sink.child_ctx(TraceCtx::NONE));
        sink.emit(EventClass::Writeback, ns(9), ns(10), 0);
        let pinned = [(1, 3, 2), (4, 5, 4), (4, 4, 0), (1, 7, 6), (1, 8, 1), (1, 2, 1)];
        assert_eq!(triples(&sink)[..6], pinned);
        assert_eq!(triples(&sink)[6..], [(1, 9, 2), (10, 10, 0), (0, 0, 0)]);
    }

    #[test]
    fn stall_captures_causal_chain() {
        let sink = TraceSink::new();
        sink.emit(EventClass::SsdFlush, ns(10), ns(60), 0);
        sink.emit(EventClass::Checkpoint, ns(5), ns(80), 0);
        sink.emit_stall(StallKind::Memtable, ns(20), ns(120));
        let s = sink.summary();
        assert_eq!(s.stall_count, 1);
        assert_eq!(s.stall_total_ns, 100);
        let stall = &s.top_stalls[0];
        assert_eq!(stall.cause_commit.unwrap().class, EventClass::Checkpoint);
        assert_eq!(stall.cause_flush.unwrap().class, EventClass::SsdFlush);
        // The stall also shows up as a span class.
        assert_eq!(s.class(EventClass::WriteStall).unwrap().count, 1);
    }

    #[test]
    fn stall_without_prior_io_has_no_cause() {
        let sink = TraceSink::new();
        sink.emit_stall(StallKind::Slowdown, ns(0), ns(1_000_000));
        let stall = &sink.summary().top_stalls[0];
        assert!(stall.cause_commit.is_none());
        assert!(stall.cause_flush.is_none());
    }

    #[test]
    fn top_stalls_are_longest_first_and_capped() {
        let sink = TraceSink::new();
        for i in 0..200u64 {
            let start = i * 1000;
            sink.emit_stall(StallKind::L0Stop, ns(start), ns(start + 10 + i));
        }
        let s = sink.summary();
        assert_eq!(s.stall_count, 200);
        assert_eq!(s.top_stalls.len(), TraceSummary::TOP_STALLS);
        // The longest stalls (durations 200..209 ns) survive pruning.
        assert_eq!(s.top_stalls[0].duration().as_nanos(), 209);
        for w in s.top_stalls.windows(2) {
            assert!(w[0].duration() >= w[1].duration());
        }
    }

    #[test]
    fn summary_counts_survive_ring_eviction() {
        let sink = TraceSink::with_ring_capacity(8);
        for i in 0..100u64 {
            sink.emit(EventClass::EnginePut, ns(i * 10), ns(i * 10 + 3), 16);
        }
        let s = sink.summary();
        assert_eq!(s.events, 100);
        assert_eq!(s.dropped, 92);
        assert_eq!(s.class(EventClass::EnginePut).unwrap().count, 100);
    }

    #[test]
    fn exports_are_valid_shapes() {
        let sink = TraceSink::with_ring_capacity(4);
        for i in 0..3 {
            sink.emit(EventClass::SsdRead, ns(i), ns(i + 1), 512);
        }
        let root = sink.child_ctx(TraceCtx::NONE);
        sink.emit_ctx(EventClass::JournalCommit, ns(1000), ns(3500), 8192, sink.child_ctx(root));
        sink.emit_ctx(EventClass::ServerWrite, ns(900), ns(4000), 64, root);
        let retained = sink.snapshot().0.len();
        let parsed = |doc: Json| Json::parse(&doc.to_string()).expect("the export parses");
        let events = parsed(sink.events_json());
        assert_eq!(events.num("dropped"), Some(1.0));
        let spans = events.get("events").and_then(Json::as_array).expect("an events array");
        assert_eq!(spans.len(), retained, "one entry per retained span");
        assert_eq!(spans[2].text("class"), Some("journal_commit"));
        assert_eq!(spans[2].num("start_ns"), Some(1000.0));
        let chrome = parsed(sink.chrome_trace());
        let trace = chrome.get("traceEvents").and_then(Json::as_array).expect("traceEvents");
        let slices: Vec<&Json> = trace.iter().filter(|e| e.text("ph") == Some("X")).collect();
        assert_eq!(slices.len(), retained);
        assert!(slices.iter().all(|e| e.num("ts").is_some() && e.num("dur").is_some()));
        assert_eq!(slices[2].get("ts"), Some(&Json::fixed(1.0, 3)));
        assert_eq!(slices[2].get("dur"), Some(&Json::fixed(2.5, 3)));
        assert_eq!(trace.iter().filter(|e| e.text("name") == Some("causal")).count(), 2);
    }
}
