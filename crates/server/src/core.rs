//! Transport-independent serving core: connection registry, request
//! execution against the sharded store, admission control and in-order
//! reply queues.
//!
//! [`ServerCore`] is single-threaded and owns the [`Store`]. Both
//! transports drive the same three entry points:
//!
//! 1. [`feed`](ServerCore::feed) — raw bytes from a connection are
//!    decoded, admitted and executed. Reads are answered immediately;
//!    writes become group-commit tickets and their replies are parked
//!    in the connection's ordered queue.
//! 2. [`flush`](ServerCore::flush) — drains the store's group-commit
//!    queue and resolves every parked write reply with its durable
//!    outcome.
//! 3. `take_output` — hands out the resolved
//!    prefix of a connection's reply queue, whose ready replies are held
//!    as the bytes that go on the wire. Replies never overtake each
//!    other: a BUSY rejection or read reply queued behind a parked write
//!    stays behind it until the write resolves.
//!
//! Admission control is two-level: a global budget on unresolved write
//! tickets (`max_inflight`) and a per-connection cap on queued replies
//! (`pipeline_per_conn`). Either limit exhausted yields an explicit
//! `-BUSY` reply — never a hang, never a dropped request.

mod cursor;
mod stats;

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use nob_metrics::MetricsHub;
use nob_sim::{Nanos, SharedClock};
use nob_store::{Store, StoreOptions, Ticket};
use nob_trace::{EventClass, SpanScope, TraceCtx, TraceSink};
use noblsm::{ReadOptions, Result, WriteBatch, WriteOptions};

use crate::proto::{
    put_array_header, put_bulk, BatchOp, Decoder, Frame, Request, RequestClass, NIL_WIRE,
    NUMBER_LINE_MAX, OK_WIRE,
};

use cursor::Cursor;
use stats::Counters;
pub use stats::{Stat, STATS};

/// Configuration for [`ServerCore::open`] and [`ServerCore::new`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// The sharded store the server fronts.
    pub store: StoreOptions,
    /// Durability discipline applied to client writes (the Sync/Async
    /// axis of the paper's figures).
    pub write: WriteOptions,
    /// Global budget: unresolved write tickets across all connections.
    /// At the limit, further requests get `-BUSY` pushback.
    pub max_inflight: usize,
    /// Per-connection cap on queued (unsent) replies — the pipelining
    /// window a single client may keep open.
    pub pipeline_per_conn: usize,
    /// Hard cap on rows per SCAN page; client-requested limits are
    /// clamped down to it so one reply frame stays bounded.
    pub max_scan_page: usize,
    /// Cap on concurrently open scan cursors (each pins one snapshot per
    /// shard). At the limit, SCAN answers `-BUSY`.
    pub max_cursors: usize,
    /// Lease duration of a scan cursor on the virtual clock; a cursor not
    /// resumed within this window expires and releases its snapshots.
    /// Every resume renews the lease.
    pub cursor_ttl: Nanos,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            store: StoreOptions::default(),
            write: WriteOptions::default(),
            max_inflight: 1024,
            pipeline_per_conn: 128,
            max_scan_page: 1024,
            max_cursors: 1024,
            cursor_ttl: Nanos::from_secs(60),
        }
    }
}

/// Opaque connection handle issued by [`ServerCore::connect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId(u64);

/// What a parked write replies with once its ticket resolves.
#[derive(Debug, Clone, Copy)]
enum WriteReply {
    /// `+OK` (SET / DEL).
    Ok,
    /// `:n` (BATCH operation count).
    Count(i64),
}

/// One slot in a connection's ordered reply queue.
#[derive(Debug)]
enum PendingReply {
    /// Fully formed — the reply's wire bytes; may leave as soon as it
    /// reaches the front.
    Ready(Vec<u8>),
    /// Waiting on a group-commit ticket.
    Await { ticket: Ticket, start: Nanos, bytes: u64, reply: WriteReply, ctx: TraceCtx },
}

#[derive(Debug, Default)]
struct Conn {
    decoder: Decoder,
    replies: VecDeque<PendingReply>,
    /// Unresolved write tickets this connection holds.
    inflight: usize,
    /// Set after a frame-level protocol error: the error reply is queued,
    /// then the transport should close once output drains.
    poisoned: bool,
}

/// Appends a GET result: the value as a bulk, or the nil bulk.
fn put_value(out: &mut Vec<u8>, value: Option<&[u8]>) {
    match value {
        Some(v) => {
            out.reserve(v.len() + NUMBER_LINE_MAX + 2);
            put_bulk(out, v);
        }
        None => out.extend_from_slice(NIL_WIRE),
    }
}

/// The transport-independent serving core. See the module docs.
pub struct ServerCore {
    store: Store,
    wopts: WriteOptions,
    max_inflight: usize,
    pipeline_per_conn: usize,
    conns: BTreeMap<ConnId, Conn>,
    next_conn: u64,
    /// Unresolved write tickets across all connections.
    inflight: usize,
    /// Tickets of writes whose connection left before they resolved. The
    /// writes still commit; nobody waits for the reply, so the next
    /// [`flush`](ServerCore::flush) redeems them only for the store to
    /// forget them.
    orphans: Vec<Ticket>,
    max_scan_page: usize,
    max_cursors: usize,
    cursor_ttl: Nanos,
    /// Open scan cursors; ids start at 1 (0 on the wire = exhausted).
    cursors: BTreeMap<u64, Cursor>,
    next_cursor: u64,
    /// Length of the last scan page encoded: the capacity the next one
    /// starts with.
    scan_reply_hint: usize,
    trace: Option<TraceSink>,
    counters: Counters,
}

impl ServerCore {
    /// Opens the underlying store and an empty connection registry.
    ///
    /// # Errors
    ///
    /// Propagates [`Store::open`] failures; rejects zero budgets as
    /// [`noblsm::Error::Usage`].
    pub fn open(opts: ServerOptions) -> Result<ServerCore> {
        ServerCore::new(Store::open(opts.store.clone())?, opts)
    }

    /// Serves an already opened `store` with an empty connection
    /// registry; `opts.store` is not read.
    ///
    /// # Errors
    ///
    /// Rejects zero budgets as [`noblsm::Error::Usage`].
    pub fn new(store: Store, opts: ServerOptions) -> Result<ServerCore> {
        if [opts.max_inflight, opts.pipeline_per_conn, opts.max_scan_page, opts.max_cursors]
            .contains(&0)
        {
            return Err(noblsm::Error::Usage(
                "max_inflight, pipeline_per_conn, max_scan_page and max_cursors must be at least 1"
                    .into(),
            ));
        }
        Ok(ServerCore {
            store,
            wopts: opts.write,
            max_inflight: opts.max_inflight,
            pipeline_per_conn: opts.pipeline_per_conn,
            conns: BTreeMap::new(),
            next_conn: 0,
            inflight: 0,
            orphans: Vec::new(),
            max_scan_page: opts.max_scan_page,
            max_cursors: opts.max_cursors,
            cursor_ttl: opts.cursor_ttl,
            cursors: BTreeMap::new(),
            next_cursor: 1,
            scan_reply_hint: 0,
            trace: None,
            counters: Counters::default(),
        })
    }

    /// The deployment's shared virtual clock.
    pub fn clock(&self) -> &SharedClock {
        self.store.clock()
    }

    /// Read access to the underlying store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Mutable access to the underlying store (benches, tests).
    pub fn store_mut(&mut self) -> &mut Store {
        &mut self.store
    }

    /// Registers a new connection and returns its handle.
    pub fn connect(&mut self) -> ConnId {
        let id = ConnId(self.next_conn);
        self.next_conn += 1;
        self.conns.insert(id, Conn::default());
        self.counters.set(Stat::Conns, self.conns.len());
        id
    }

    /// Removes a connection. Its enqueued writes still commit (they are
    /// already in the group-commit queue) but their replies are dropped.
    pub(crate) fn disconnect(&mut self, id: ConnId) {
        if let Some(conn) = self.conns.remove(&id) {
            self.inflight -= conn.inflight;
            self.counters.set(Stat::Inflight, self.inflight);
            self.orphans.extend(conn.replies.iter().filter_map(|slot| match slot {
                PendingReply::Await { ticket, .. } => Some(*ticket),
                PendingReply::Ready(_) => None,
            }));
        }
        self.counters.set(Stat::Conns, self.conns.len());
    }

    /// Replies queued (resolved or not) on `id`.
    pub fn pending_replies(&self, id: ConnId) -> usize {
        self.conns.get(&id).map_or(0, |c| c.replies.len())
    }

    /// Whether `id` hit a frame-level protocol error and should be closed
    /// once its output drains.
    pub(crate) fn is_poisoned(&self, id: ConnId) -> bool {
        self.conns.get(&id).is_some_and(|c| c.poisoned)
    }

    /// Attaches a trace sink for `server_*` spans and forwards it to the
    /// store (group-commit and engine spans land in the same sink).
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.store.set_trace_sink(sink.clone());
        self.trace = Some(sink);
    }

    /// Registers a `server.*` series per [`STATS`] row and a `store.*`
    /// series per [`nob_store::METRICS`] row (as of the last flush) on
    /// `hub`, and wires the store's per-shard instruments beneath it.
    pub fn set_metrics_hub(&mut self, hub: &MetricsHub) {
        self.store.set_metrics_hub(hub);
        let scoped = hub.scoped("server.");
        for (stat, kind, name, help) in STATS {
            let cells = Arc::clone(&self.counters.cells);
            scoped.register(kind, name, help, move |_| {
                cells[stat as usize].load(Ordering::Relaxed) as f64
            });
        }
        let scoped = hub.scoped("store.");
        for (i, (kind, name, help, _)) in nob_store::METRICS.into_iter().enumerate() {
            let cells = Arc::clone(&self.counters.store);
            scoped.register(kind, name, help, move |_| cells[i].load(Ordering::Relaxed) as f64);
        }
    }

    /// Feeds raw transport bytes into `id`'s decoder and executes every
    /// complete request, in arrival order.
    ///
    /// # Errors
    ///
    /// Store/engine failures only. Protocol and request errors become
    /// in-band `-ERR` replies (frame-level ones additionally poison the
    /// connection).
    pub fn feed(&mut self, id: ConnId, bytes: &[u8]) -> Result<()> {
        self.counters.add(Stat::BytesIn, bytes.len() as u64);
        let Some(conn) = self.conns.get_mut(&id) else {
            return Err(noblsm::Error::Usage("feed on unknown connection".into()));
        };
        if conn.poisoned {
            return Ok(());
        }
        conn.decoder.push(bytes);
        while let Some(conn) = self.conns.get_mut(&id) {
            match conn.decoder.next_frame() {
                Ok(Some(frame)) => match Request::parse(&frame) {
                    Ok(req) => self.execute(id, req)?,
                    // A malformed *request* in a well-formed frame is
                    // recoverable: the stream stays in sync.
                    Err(e) => self.push_frame(id, &Frame::Error(format!("ERR {e}"))),
                },
                Ok(None) => break,
                Err(e) => {
                    self.counters.add(Stat::ProtocolErrors, 1);
                    conn.poisoned = true;
                    self.push_frame(id, &Frame::Error(format!("ERR {e}")));
                    break;
                }
            }
        }
        Ok(())
    }

    /// Drains the store's group-commit queue and resolves every parked
    /// write reply, emitting one `server_write` span per resolved ticket.
    ///
    /// # Errors
    ///
    /// Propagates engine failures from the drain.
    pub fn flush(&mut self) -> Result<()> {
        self.sweep_cursors();
        if self.store.pending() > 0 {
            self.store.drain()?;
        }
        for conn in self.conns.values_mut() {
            for slot in conn.replies.iter_mut() {
                let PendingReply::Await { ticket, start, bytes, reply, ctx } = *slot else {
                    continue;
                };
                let Some(durable) = self.store.take_outcome(ticket) else { continue };
                if let Some(t) = &self.trace {
                    t.emit_ctx(EventClass::ServerWrite, start, durable, bytes, ctx);
                }
                let wire = match reply {
                    WriteReply::Ok => OK_WIRE.to_vec(),
                    WriteReply::Count(n) => Frame::Integer(n).to_bytes(),
                };
                *slot = PendingReply::Ready(wire);
                conn.inflight -= 1;
                self.inflight -= 1;
            }
        }
        self.counters.set(Stat::Inflight, self.inflight);
        let store = &mut self.store;
        self.orphans.retain(|ticket| store.take_outcome(*ticket).is_none());
        self.counters.refresh_store(&store.stats());
        Ok(())
    }

    /// Removes the resolved prefix of `id`'s reply queue and returns its
    /// wire bytes: a lone reply's own buffer, several replies joined.
    /// Returns an empty buffer when the front reply is still awaiting its
    /// ticket (call [`flush`](ServerCore::flush) first).
    pub(crate) fn take_output(&mut self, id: ConnId) -> Vec<u8> {
        let Some(conn) = self.conns.get_mut(&id) else { return Vec::new() };
        let mut out = Vec::new();
        while let Some(PendingReply::Ready(_)) = conn.replies.front() {
            let Some(PendingReply::Ready(wire)) = conn.replies.pop_front() else {
                unreachable!("front() was Ready")
            };
            if out.is_empty() {
                out = wire;
            } else {
                out.extend_from_slice(&wire);
            }
        }
        self.counters.add(Stat::BytesOut, out.len() as u64);
        out
    }

    /// Whether `id` has replies queued that cannot be handed out yet (the
    /// front of the queue awaits a group-commit ticket).
    pub fn output_blocked(&self, id: ConnId) -> bool {
        self.conns
            .get(&id)
            .and_then(|c| c.replies.front())
            .is_some_and(|r| matches!(r, PendingReply::Await { .. }))
    }

    /// The INFO payload: a `# server` field per [`STATS`] row, a
    /// `# store` field per [`nob_store::METRICS`] row, and per shard the
    /// engine stats (compaction lanes included) via
    /// [`Db::property`](noblsm::Db::property) and a `name=value` field per
    /// [`nob_ext4::METRICS`] row on its `fs:` line.
    pub fn info_text(&self) -> String {
        let mut out = String::from("# server\n");
        for (stat, _, name, _) in STATS {
            out.push_str(&format!("{name}:{}\n", self.counters.get(stat)));
        }
        let stats = self.store.stats();
        out.push_str("# store\n");
        out.push_str(&format!("shards:{}\n", self.store.shards()));
        let seqs: Vec<String> = self.store.shard_seqs().iter().map(|s| s.to_string()).collect();
        out.push_str(&format!("seqs:{}\n", seqs.join(",")));
        out.push_str(&format!("pending:{}\n", self.store.pending()));
        for (_, name, _, read) in nob_store::METRICS {
            out.push_str(&format!("{name}:{}\n", read(&stats)));
        }
        let now = self.clock().now();
        for i in 0..self.store.shards() {
            let db = self.store.shard_db(i);
            let engine = db.property("noblsm.stats").unwrap_or_default();
            let fs: Vec<String> = nob_ext4::METRICS
                .iter()
                .map(|(_, name, _, read)| format!("{name}={}", read(db.fs(), now)))
                .collect();
            out.push_str(&format!("# shard{i}\nnoblsm.stats:{engine}\nfs:{}\n", fs.join(" ")));
        }
        out
    }

    /// Queues a reply's wire bytes behind whatever `id` is already owed.
    fn push_ready(&mut self, id: ConnId, wire: Vec<u8>) {
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.replies.push_back(PendingReply::Ready(wire));
        }
    }

    /// Queues a reply that exists as a frame (errors, pushback, PONG).
    fn push_frame(&mut self, id: ConnId, frame: &Frame) {
        self.push_ready(id, frame.to_bytes());
    }

    /// Admission + execution of one parsed request.
    fn execute(&mut self, id: ConnId, req: Request) -> Result<()> {
        let class = req.class();
        let queued = self.pending_replies(id);
        let over_pipeline = queued >= self.pipeline_per_conn;
        let over_budget = class == RequestClass::Write && self.inflight >= self.max_inflight;
        if over_pipeline || over_budget {
            self.counters.add(Stat::BusyRejections, 1);
            self.push_frame(id, &Frame::busy());
            return Ok(());
        }
        self.counters.bump(class);
        let bytes = req.payload_bytes();
        match req {
            Request::Get(key) => {
                let start = self.read_barrier()?;
                let scope = self.open_request();
                let got = self.store.get(&ReadOptions::default(), &key)?;
                let mut reply = Vec::new();
                put_value(&mut reply, got.as_deref());
                self.close_request(scope, EventClass::ServerRead, start, bytes);
                self.push_ready(id, reply);
            }
            Request::MGet(keys) => {
                let start = self.read_barrier()?;
                let scope = self.open_request();
                let mut reply = Vec::new();
                put_array_header(&mut reply, keys.len());
                for key in &keys {
                    put_value(&mut reply, self.store.get(&ReadOptions::default(), key)?.as_deref());
                }
                self.close_request(scope, EventClass::ServerRead, start, bytes);
                self.push_ready(id, reply);
            }
            Request::Set(key, value) => {
                let mut batch = WriteBatch::new();
                batch.put(&key, &value);
                self.enqueue_write(id, batch, bytes, WriteReply::Ok);
            }
            Request::Del(key) => {
                let mut batch = WriteBatch::new();
                batch.delete(&key);
                self.enqueue_write(id, batch, bytes, WriteReply::Ok);
            }
            Request::Batch(ops) => {
                let count = ops.len() as i64;
                let mut batch = WriteBatch::new();
                for op in &ops {
                    match op {
                        BatchOp::Put(k, v) => batch.put(k, v),
                        BatchOp::Del(k) => batch.delete(k),
                    }
                }
                self.enqueue_write(id, batch, bytes, WriteReply::Count(count));
            }
            Request::Ping => {
                let scope = self.open_request();
                self.close_request(scope, EventClass::ServerControl, self.clock().now(), 0);
                self.push_frame(id, &Frame::Simple("PONG".into()));
            }
            Request::Info => {
                let start = self.read_barrier()?;
                let scope = self.open_request();
                let text = self.info_text();
                self.close_request(scope, EventClass::ServerControl, start, text.len() as u64);
                let mut reply = Vec::with_capacity(text.len() + NUMBER_LINE_MAX + 2);
                put_bulk(&mut reply, text.as_bytes());
                self.push_ready(id, reply);
            }
            Request::Scan { start, end, limit, prefix, count_only } => {
                self.open_scan(id, start, end, limit, prefix, count_only)?
            }
            Request::ScanNext(cursor) => self.resume_scan(id, cursor)?,
        }
        Ok(())
    }

    /// Read-your-writes: settle the group-commit queue before serving a
    /// read or INFO, so a pipelined `SET k; GET k` observes its write.
    /// Returns the instant the read began (before any drain it forced).
    fn read_barrier(&mut self) -> Result<Nanos> {
        let start = self.clock().now();
        if self.store.pending() > 0 {
            self.flush()?;
        }
        Ok(start)
    }

    fn enqueue_write(&mut self, id: ConnId, batch: WriteBatch, bytes: u64, reply: WriteReply) {
        let start = self.clock().now();
        // Mint the request's trace root here — the `server_write` span
        // emitted at ticket resolution carries it, and the group commit
        // that eventually lands the batch parents under it (leader) or
        // links to it (coalesced follower).
        let ctx = self.trace.as_ref().map_or(TraceCtx::NONE, |t| t.child_ctx(TraceCtx::NONE));
        let ticket = self.store.enqueue_ctx(&self.wopts, &batch, ctx);
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.replies.push_back(PendingReply::Await { ticket, start, bytes, reply, ctx });
            conn.inflight += 1;
            self.inflight += 1;
            self.counters.set(Stat::Inflight, self.inflight);
        }
    }

    /// Opens a request's trace root as the ambient scope, so every span
    /// the request's synchronous work provokes nests under it (`None`
    /// when tracing is off). A request that fails drops it unrecorded.
    fn open_request(&self) -> Option<SpanScope> {
        self.trace.as_ref().map(|t| t.open(Some(TraceCtx::NONE)))
    }

    /// Records the request's `class` span, from `start` to now, under the
    /// root [`ServerCore::open_request`] minted.
    fn close_request(&self, scope: Option<SpanScope>, class: EventClass, start: Nanos, bytes: u64) {
        if let Some(scope) = scope {
            scope.close(class, start, self.clock().now(), bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use nob_ext4::Ext4Config;
    use noblsm::Options;
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    use super::*;

    fn small_core(max_inflight: usize, pipeline: usize) -> ServerCore {
        let opts = ServerOptions {
            store: StoreOptions {
                shards: 2,
                fs: Ext4Config::default(),
                db: Options::default(),
                ..StoreOptions::default()
            },
            max_inflight,
            pipeline_per_conn: pipeline,
            ..ServerOptions::default()
        };
        ServerCore::open(opts).unwrap()
    }

    fn feed_req(core: &mut ServerCore, id: ConnId, req: &Request) {
        core.feed(id, &req.to_frame().to_bytes()).unwrap();
    }

    fn decode_all(bytes: &[u8]) -> Vec<Frame> {
        let mut d = Decoder::new();
        d.push(bytes);
        let mut out = Vec::new();
        while let Some(f) = d.next_frame().unwrap() {
            out.push(f);
        }
        out
    }

    #[test]
    fn set_then_get_sees_the_write() {
        let mut core = small_core(64, 64);
        let c = core.connect();
        feed_req(&mut core, c, &Request::Set(b"k".to_vec(), b"v".to_vec()));
        feed_req(&mut core, c, &Request::Get(b"k".to_vec()));
        core.flush().unwrap();
        let replies = decode_all(&core.take_output(c));
        assert_eq!(replies, vec![Frame::ok(), Frame::Bulk(b"v".to_vec())]);
    }

    #[test]
    fn replies_stay_in_request_order_across_flush() {
        let mut core = small_core(64, 64);
        let c = core.connect();
        // Write, read, write — the read's Ready reply must not overtake
        // the first write's parked reply.
        feed_req(&mut core, c, &Request::Set(b"a".to_vec(), b"1".to_vec()));
        feed_req(&mut core, c, &Request::Get(b"missing".to_vec()));
        feed_req(&mut core, c, &Request::Del(b"a".to_vec()));
        assert!(!core.output_blocked(c), "read barrier already settled the queue");
        core.flush().unwrap();
        let replies = decode_all(&core.take_output(c));
        assert_eq!(replies, vec![Frame::ok(), Frame::Nil, Frame::ok()]);
    }

    #[test]
    fn global_budget_yields_busy_in_order() {
        let mut core = small_core(2, 64);
        let c = core.connect();
        for i in 0..4u8 {
            feed_req(&mut core, c, &Request::Set(vec![i], b"v".to_vec()));
        }
        core.flush().unwrap();
        let replies = decode_all(&core.take_output(c));
        assert_eq!(replies.len(), 4);
        assert_eq!(&replies[..2], &[Frame::ok(), Frame::ok()]);
        assert!(replies[2].is_busy() && replies[3].is_busy(), "{replies:?}");
    }

    #[test]
    fn pipeline_cap_applies_to_reads_too() {
        let mut core = small_core(64, 2);
        let c = core.connect();
        feed_req(&mut core, c, &Request::Set(b"a".to_vec(), b"1".to_vec()));
        feed_req(&mut core, c, &Request::Set(b"b".to_vec(), b"2".to_vec()));
        feed_req(&mut core, c, &Request::Get(b"a".to_vec()));
        core.flush().unwrap();
        let replies = decode_all(&core.take_output(c));
        assert_eq!(&replies[..2], &[Frame::ok(), Frame::ok()]);
        assert!(replies[2].is_busy());
    }

    #[test]
    fn budget_frees_as_tickets_resolve() {
        let mut core = small_core(2, 64);
        let c = core.connect();
        feed_req(&mut core, c, &Request::Set(b"a".to_vec(), b"1".to_vec()));
        feed_req(&mut core, c, &Request::Set(b"b".to_vec(), b"2".to_vec()));
        core.flush().unwrap();
        assert_eq!(core.inflight, 0);
        feed_req(&mut core, c, &Request::Set(b"c".to_vec(), b"3".to_vec()));
        core.flush().unwrap();
        let replies = decode_all(&core.take_output(c));
        assert_eq!(replies, vec![Frame::ok(); 3]);
    }

    #[test]
    fn protocol_error_poisons_but_replies_first() {
        let mut core = small_core(64, 64);
        let c = core.connect();
        core.feed(c, b"?bogus\r\n").unwrap();
        assert!(core.is_poisoned(c));
        let replies = decode_all(&core.take_output(c));
        assert_eq!(replies.len(), 1);
        assert!(replies[0].is_error());
        // Later bytes are ignored — the stream is untrustworthy.
        feed_req(&mut core, c, &Request::Ping);
        assert_eq!(core.pending_replies(c), 0);
    }

    #[test]
    fn bad_request_in_good_frame_is_recoverable() {
        let mut core = small_core(64, 64);
        let c = core.connect();
        let bogus = Frame::Array(vec![Frame::Bulk(b"NOPE".to_vec())]);
        core.feed(c, &bogus.to_bytes()).unwrap();
        feed_req(&mut core, c, &Request::Ping);
        let replies = decode_all(&core.take_output(c));
        assert_eq!(replies.len(), 2);
        assert!(replies[0].is_error() && !replies[0].is_busy());
        assert_eq!(replies[1], Frame::Simple("PONG".into()));
        assert!(!core.is_poisoned(c));
    }

    #[test]
    fn batch_is_atomic_and_counts_ops() {
        let mut core = small_core(64, 64);
        let c = core.connect();
        feed_req(
            &mut core,
            c,
            &Request::Batch(vec![
                BatchOp::Put(b"x".to_vec(), b"1".to_vec()),
                BatchOp::Put(b"y".to_vec(), b"2".to_vec()),
                BatchOp::Del(b"x".to_vec()),
            ]),
        );
        feed_req(&mut core, c, &Request::MGet(vec![b"x".to_vec(), b"y".to_vec()]));
        core.flush().unwrap();
        let replies = decode_all(&core.take_output(c));
        assert_eq!(
            replies,
            vec![Frame::Integer(3), Frame::Array(vec![Frame::Nil, Frame::Bulk(b"2".to_vec())]),]
        );
    }

    #[test]
    fn info_reports_server_and_shard_stats() {
        let mut core = small_core(64, 64);
        let c = core.connect();
        feed_req(&mut core, c, &Request::Set(b"k".to_vec(), b"v".to_vec()));
        feed_req(&mut core, c, &Request::Info);
        core.flush().unwrap();
        let replies = decode_all(&core.take_output(c));
        let Frame::Bulk(text) = &replies[1] else { panic!("INFO must reply bulk") };
        let text = String::from_utf8_lossy(text);
        assert!(text.contains("# server"), "{text}");
        assert!(text.contains("requests_write:1"), "{text}");
        assert!(text.contains("shards:2"), "{text}");
        assert!(text.contains("noblsm.stats:engine.writes="), "{text}");
        assert!(text.contains("seqs:"), "{text}");
        assert!(text.contains("shipped_records:0"), "{text}");
    }

    #[test]
    fn every_stat_row_sits_at_its_discriminant() {
        for (i, (stat, ..)) in STATS.iter().enumerate() {
            assert_eq!(*stat as usize, i, "{stat:?}");
        }
    }

    #[test]
    fn scan_cursor_serves_a_frozen_snapshot() {
        let mut core = small_core(64, 64);
        let c = core.connect();
        for i in 0..30u32 {
            feed_req(&mut core, c, &Request::Set(format!("k{i:02}").into_bytes(), b"old".to_vec()));
        }
        core.flush().unwrap();
        core.take_output(c);
        // Open a scan, then overwrite and extend the keyspace.
        feed_req(&mut core, c, &Request::scan(Vec::new(), Vec::new(), 10));
        for i in 0..40u32 {
            feed_req(&mut core, c, &Request::Set(format!("k{i:02}").into_bytes(), b"new".to_vec()));
        }
        core.flush().unwrap();
        assert_eq!(info_counter(&core, "cursors_open"), 1);
        let replies = decode_all(&core.take_output(c));
        let Frame::Array(first) = &replies[0] else { panic!("scan reply: {replies:?}") };
        let Frame::Integer(cursor) = first[0] else { panic!("no cursor: {first:?}") };
        assert!(cursor > 0);
        // Resume pages: every row still carries the pre-scan value, and
        // keys 30..39 (inserted after the pin) never appear.
        let mut rows = 0;
        let mut cur = cursor as u64;
        while cur != 0 {
            feed_req(&mut core, c, &Request::ScanNext(cur));
            let replies = decode_all(&core.take_output(c));
            let Frame::Array(page) = &replies[0] else { panic!("{replies:?}") };
            let Frame::Integer(next) = page[0] else { panic!("{page:?}") };
            let Frame::Array(flat) = &page[1] else { panic!("{page:?}") };
            for pair in flat.chunks_exact(2) {
                let Frame::Bulk(v) = &pair[1] else { panic!("{pair:?}") };
                assert_eq!(v, b"old", "post-pin write leaked into the cursor");
                rows += 1;
            }
            cur = next as u64;
        }
        assert_eq!(rows + 10, 30, "exactly the pinned keyspace, once");
        assert_eq!(info_counter(&core, "cursors_open"), 0, "exhausted cursor released its lease");
    }

    #[test]
    fn idle_cursors_expire_and_release_their_snapshots() {
        let mut core = small_core(64, 64);
        let c = core.connect();
        for i in 0..20u32 {
            feed_req(&mut core, c, &Request::Set(vec![i as u8], b"v".to_vec()));
        }
        core.flush().unwrap();
        feed_req(&mut core, c, &Request::scan(Vec::new(), Vec::new(), 5));
        assert_eq!(info_counter(&core, "cursors_open"), 1);
        // Let the lease lapse on the virtual clock; the next flush sweeps.
        let deadline = core.clock().now() + Nanos::from_secs(61);
        core.clock().advance_to(deadline);
        core.flush().unwrap();
        assert_eq!(info_counter(&core, "cursors_open"), 0);
        core.take_output(c);
        feed_req(&mut core, c, &Request::ScanNext(1));
        let replies = decode_all(&core.take_output(c));
        assert!(replies[0].is_error(), "expired cursor must error: {replies:?}");
        let info = core.info_text();
        assert!(info.contains("cursors_expired:1"), "{info}");
        assert!(info.contains("cursors_opened:1"), "{info}");
    }

    #[test]
    fn cursor_table_full_pushes_back_busy() {
        let opts = ServerOptions {
            store: StoreOptions { shards: 2, ..StoreOptions::default() },
            max_cursors: 1,
            ..ServerOptions::default()
        };
        let mut core = ServerCore::open(opts).unwrap();
        let c = core.connect();
        for i in 0..20u32 {
            feed_req(&mut core, c, &Request::Set(vec![i as u8], b"v".to_vec()));
        }
        core.flush().unwrap();
        core.take_output(c);
        feed_req(&mut core, c, &Request::scan(Vec::new(), Vec::new(), 5));
        feed_req(&mut core, c, &Request::scan(Vec::new(), Vec::new(), 5));
        let replies = decode_all(&core.take_output(c));
        assert!(matches!(replies[0], Frame::Array(_)), "{replies:?}");
        assert!(replies[1].is_busy(), "second cursor must hit the cap: {replies:?}");
    }

    #[test]
    fn server_scans_do_not_disturb_the_block_cache_hit_ratio() {
        let mut core = small_core(64, 4096);
        let c = core.connect();
        // Build a table-resident keyspace, then a hot set that the block
        // cache serves.
        for i in 0..400u32 {
            feed_req(&mut core, c, &Request::Set(format!("k{i:03}").into_bytes(), vec![7u8; 1024]));
        }
        core.flush().unwrap();
        for i in 0..core.store().shards() {
            core.store_mut().shard_db_mut(i).flush().unwrap();
        }
        core.take_output(c);
        let hot: Vec<Vec<u8>> = (0..40u32).map(|i| format!("k{i:03}").into_bytes()).collect();
        for k in &hot {
            feed_req(&mut core, c, &Request::Get(k.clone()));
            feed_req(&mut core, c, &Request::Get(k.clone()));
        }
        core.take_output(c);
        let snap = |core: &ServerCore| -> Vec<(u64, u64)> {
            (0..core.store().shards()).map(|i| core.store().shard_db(i).cache_hit_stats()).collect()
        };
        let stats0 = snap(&core);
        // Server scans run with fill_cache=false, so a full-range scan must
        // not populate the cache: a second identical scan misses exactly as
        // much as the first (nothing was inserted the first time around).
        feed_req(&mut core, c, &Request::scan(Vec::new(), Vec::new(), 1_000_000));
        core.take_output(c);
        let stats1 = snap(&core);
        feed_req(&mut core, c, &Request::scan(Vec::new(), Vec::new(), 1_000_000));
        core.take_output(c);
        let stats2 = snap(&core);
        let miss1: u64 = stats1.iter().zip(&stats0).map(|(a, b)| a.1 - b.1).sum();
        let miss2: u64 = stats2.iter().zip(&stats1).map(|(a, b)| a.1 - b.1).sum();
        assert!(miss1 > 0, "the scan should have read uncached blocks: {stats0:?} {stats1:?}");
        assert_eq!(
            miss2, miss1,
            "second scan missed differently — the first scan filled the cache"
        );
        // And it must not evict: the hot set still hits without a single miss.
        for k in &hot {
            feed_req(&mut core, c, &Request::Get(k.clone()));
        }
        core.take_output(c);
        let stats3 = snap(&core);
        for (i, (replay, after)) in stats3.iter().zip(&stats2).enumerate() {
            assert_eq!(
                replay.1, after.1,
                "shard {i}: hot keys missed after the scan — the scan disturbed the hot set"
            );
            assert!(replay.0 > after.0, "shard {i}: hot replay must hit the cache");
        }
    }

    #[test]
    fn disconnect_releases_inflight_budget() {
        let mut core = small_core(2, 64);
        let c1 = core.connect();
        feed_req(&mut core, c1, &Request::Set(b"a".to_vec(), b"1".to_vec()));
        feed_req(&mut core, c1, &Request::Set(b"b".to_vec(), b"2".to_vec()));
        assert_eq!(core.inflight, 2);
        core.disconnect(c1);
        assert_eq!(core.inflight, 0);
        let c2 = core.connect();
        feed_req(&mut core, c2, &Request::Set(b"c".to_vec(), b"3".to_vec()));
        core.flush().unwrap();
        let replies = decode_all(&core.take_output(c2));
        assert_eq!(replies, vec![Frame::ok()]);
        // The orphaned writes still committed.
        feed_req(&mut core, c2, &Request::Get(b"a".to_vec()));
        core.flush().unwrap();
        assert_eq!(decode_all(&core.take_output(c2)), vec![Frame::Bulk(b"1".to_vec())]);
    }

    #[test]
    fn tickets_orphaned_by_a_disconnect_are_redeemed_and_forgotten() {
        let mut core = small_core(4096, 64);
        let key = |conn: u32, i: u32| format!("c{conn:04}-{i}").into_bytes();
        for conn in 0..1000 {
            let c = core.connect();
            for i in 0..3 {
                feed_req(&mut core, c, &Request::Set(key(conn, i), b"v".to_vec()));
            }
            core.disconnect(c);
        }
        assert_eq!(core.inflight, 0, "a disconnect hands its budget back at once");
        core.flush().unwrap();
        assert_eq!(core.store().stats().unredeemed, 0, "one entry leaked per orphaned write");
        assert_eq!(info_counter(&core, "unredeemed"), 0);
        assert!(core.orphans.is_empty());
        // The writes nobody waited for still committed.
        let c = core.connect();
        let keys: Vec<Vec<u8>> =
            (0..1000).flat_map(|conn| (0..3).map(move |i| key(conn, i))).collect();
        for chunk in keys.chunks(50) {
            feed_req(&mut core, c, &Request::MGet(chunk.to_vec()));
            let replies = decode_all(&core.take_output(c));
            assert_eq!(replies, vec![Frame::Array(vec![Frame::Bulk(b"v".to_vec()); chunk.len()])]);
        }
    }

    /// A monotone counter of the `# server` or `# store` INFO section.
    fn info_counter(core: &ServerCore, name: &str) -> u64 {
        let info = core.info_text();
        let value = info.lines().find_map(|l| l.strip_prefix(name)?.strip_prefix(':'));
        value.and_then(|v| v.parse().ok()).unwrap_or_else(|| panic!("INFO has no `{name}`: {info}"))
    }

    /// The frame a scan page was before pages were encoded row by row:
    /// `*2 [:cursor, *2n k/v bulks]`, or `*2 [:cursor, :count]`.
    fn page_frame(cursor: u64, rows: &[(Vec<u8>, Vec<u8>)], count_only: bool) -> Frame {
        let body = if count_only {
            Frame::Integer(rows.len() as i64)
        } else {
            let flat =
                rows.iter().flat_map(|(k, v)| [Frame::Bulk(k.clone()), Frame::Bulk(v.clone())]);
            Frame::Array(flat.collect())
        };
        Frame::Array(vec![Frame::Integer(cursor as i64), body])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every page of a scan — rows or a count, a live cursor or the
        /// final 0, no rows at all — leaves the server as exactly the
        /// bytes `Frame::encode` gives the frame tree it used to build.
        #[test]
        fn scan_pages_are_the_bytes_of_their_frame_tree(
            rows in pvec((pvec(any::<u8>(), 1..24), pvec(any::<u8>(), 0..200)), 0..40),
            limit in 1u64..50,
            count_only in any::<bool>(),
            from in pvec(any::<u8>(), 0..3),
        ) {
            let mut core = small_core(4096, 4096);
            let c = core.connect();
            let mut model = std::collections::BTreeMap::new();
            for (k, v) in rows {
                feed_req(&mut core, c, &Request::Set(k.clone(), v.clone()));
                model.insert(k, v);
            }
            core.flush().unwrap();
            core.take_output(c);
            let mut expected: Vec<(Vec<u8>, Vec<u8>)> =
                model.range(from.clone()..).map(|(k, v)| (k.clone(), v.clone())).collect();

            let (start, end) = (from, Vec::new());
            feed_req(&mut core, c, &Request::Scan { start, end, limit, prefix: None, count_only });
            loop {
                let wire = core.take_output(c);
                let page: Vec<_> = expected.drain(..expected.len().min(limit as usize)).collect();
                // A page that filled up leaves a cursor behind exactly when
                // a row is left for it; cursor ids count up from 1.
                let cursor = u64::from(!expected.is_empty());
                prop_assert_eq!(&wire, &page_frame(cursor, &page, count_only).to_bytes());
                prop_assert_eq!(info_counter(&core, "cursors_open"), cursor);
                if cursor == 0 {
                    break;
                }
                feed_req(&mut core, c, &Request::ScanNext(cursor));
            }
        }

        /// Every `SCAN NEXT` page is counted once: `held` when both shards
        /// continued the iterators the last page left them, `rebuilt` when
        /// a shard moved to a new version in between — and the pages are
        /// the pinned rows either way.
        #[test]
        fn every_resumed_page_is_counted_held_or_rebuilt(
            limit in 1u64..24,
            churn in pvec(any::<bool>(), 1..8),
        ) {
            let mut core = small_core(4096, 4096);
            let c = core.connect();
            let key = |i: u32| format!("key{i:03}").into_bytes();
            for i in 0..120 {
                feed_req(&mut core, c, &Request::Set(key(i), vec![7u8; 100]));
            }
            core.flush().unwrap();
            core.store_mut().shard_db_mut(0).flush().unwrap();
            core.store_mut().shard_db_mut(1).flush().unwrap();
            core.take_output(c);

            feed_req(&mut core, c, &Request::scan(Vec::new(), Vec::new(), limit));
            let (mut rows, mut held, mut rebuilt) = (Vec::new(), 0, 0);
            for page in 0.. {
                let replies = decode_all(&core.take_output(c));
                let [Frame::Array(reply)] = replies.as_slice() else { panic!("{replies:?}") };
                let [Frame::Integer(cursor), Frame::Array(flat)] = reply.as_slice() else {
                    panic!("{reply:?}")
                };
                rows.extend(flat.chunks_exact(2).map(|kv| kv[0].clone()));
                if *cursor == 0 {
                    break;
                }
                // An overwrite after the pin reaches L0 on its shard: that
                // shard's version is no longer the one the cursor read.
                // (120 rows are at least six pages: both kinds occur.)
                let churned = match page {
                    0 => true,
                    1 => false,
                    _ => churn[page % churn.len()],
                };
                if churned {
                    feed_req(&mut core, c, &Request::Set(key(page as u32), b"late".to_vec()));
                    core.flush().unwrap();
                    core.take_output(c);
                    let shard = core.store().shard_of(&key(page as u32));
                    core.store_mut().shard_db_mut(shard).flush().unwrap();
                    rebuilt += 1;
                } else {
                    held += 1;
                }
                feed_req(&mut core, c, &Request::ScanNext(*cursor as u64));
            }
            let pinned: Vec<Frame> = (0..120).map(|i| Frame::Bulk(key(i))).collect();
            prop_assert_eq!(rows, pinned);
            prop_assert!(held > 0 && rebuilt > 0);
            prop_assert_eq!(info_counter(&core, "scan_resumes_held"), held);
            prop_assert_eq!(info_counter(&core, "scan_resumes_rebuilt"), rebuilt);
        }
    }
}
