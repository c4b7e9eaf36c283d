//! One repetition of one workload: *setup* (open, preload, settle,
//! warm-up) → *timed phase* (closed loop) → *settle* → *checks*, and the
//! four workloads' drivers at their entry points.
//!
//! Two clocks run side by side. The **virtual** clock is the stack's
//! own (`SharedClock`): every latency sample is `clock.now()` after the
//! reply minus `clock.now()` before the send, as an exact `u64`.
//! The **host** clock is `std::time::Instant` around the same loop.

use std::collections::{BTreeSet, VecDeque};
use std::time::Instant;

use nob_baselines::Variant;
use nob_metrics::MetricsHub;
use nob_server::{Client, Frame, LoopbackTransport, Request, SharedCore};
use nob_sim::{Nanos, SharedClock};
use nob_trace::TraceSink;
use noblsm::{Db, ReadOptions, ScanOptions, WriteBatch, WriteOptions};

use crate::alloc;
use crate::checks::{self, Checks};
use crate::input::{
    self, FillInput, ReadInput, Reference, ScanInput, ScanOp, ServeInput, FILL_VALUE_LEN, KEY_LEN,
    VALUE_LEN,
};
use crate::measure::Latency;
use crate::stack::{delta, Counters, Stack};

/// Loopback clients of the serving workloads (all virtual: one OS
/// thread drives them, so the load generator never outruns the cores).
const CLIENTS: usize = 2;
/// Requests each `serve` client pipelines per round.
const DEPTH: usize = 8;
/// Rows per SCAN page in `scan`.
const PAGE: u64 = 32;

/// Where a replay enters the stack (the layered drive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `Store::enqueue` / `pump` / `get` / `scan_at`.
    Store,
    /// `shard_of` + the shard engines' `write` / `get` / `scan`.
    Db,
}

/// How one repetition is instrumented.
#[derive(Clone, Copy)]
pub struct Plan<'a> {
    /// Engine discipline (`NobLsm` except for the baseline rep).
    pub variant: Variant,
    /// Attach this sink over the trace window at the end of the timed
    /// phase.
    pub sink: Option<&'a TraceSink>,
    /// Attach this hub for the whole repetition.
    pub hub: Option<&'a MetricsHub>,
    /// Run the correctness and durability checks after settling.
    pub checks: bool,
}

impl Plan<'_> {
    /// An uninstrumented NobLSM repetition.
    pub const PLAIN: Plan<'static> =
        Plan { variant: Variant::NobLsm, sink: None, hub: None, checks: false };
}

/// The host clock and the allocation counter around a timed loop.
struct Meter {
    started: Instant,
    allocs: (u64, u64),
}

impl Meter {
    fn start() -> Meter {
        Meter { allocs: alloc::snapshot(), started: Instant::now() }
    }

    /// `(host seconds, (allocations, bytes requested))` since `start`.
    fn stop(self) -> (f64, (u64, u64)) {
        let (s, now) = (self.started.elapsed().as_secs_f64(), alloc::snapshot());
        (s, (now.0 - self.allocs.0, now.1 - self.allocs.1))
    }
}

/// What a timed phase hands back.
pub struct Timed {
    /// Host seconds and allocations of the timed loop alone: its inputs
    /// are built before, its replies compared after.
    pub host: (f64, (u64, u64)),
    /// Virtual latencies of the workload's primary operation class, ns.
    pub primary: Vec<u64>,
    /// Virtual latencies of the other class of a mixed workload, ns.
    pub other: Vec<u64>,
    /// Replies that were errors, `-BUSY`, or differed from the reference.
    pub failed: u64,
    /// User bytes (key + value) written.
    pub user_bytes: u64,
    /// Host seconds spent inside the trace window.
    pub window_s: f64,
    /// A sizing fact worth printing beside the results.
    pub detail: Option<String>,
}

/// The virtual-clock results of a repetition: a pure function of the
/// seed, so every repetition of a run must produce the same value.
#[derive(Debug, Clone, PartialEq)]
pub struct Virt {
    /// Virtual ns from the first send to the last reply.
    pub elapsed_ns: u64,
    /// Timed operations per virtual second (foreground only).
    pub ops_per_s: f64,
    /// Primary operation class.
    pub primary: Latency,
    /// Other class of a mixed workload.
    pub other: Option<Latency>,
    /// Device bytes written per user byte over the write window.
    pub write_amp: f64,
    /// Bytes stored per live user byte after settling.
    pub space_amp: f64,
}

/// One repetition's measurements.
pub struct Rep {
    /// Host seconds of setup.
    pub setup_s: f64,
    /// Host seconds of the timed phase.
    pub timed_s: f64,
    /// Host seconds inside the trace window.
    pub window_s: f64,
    /// Timed operations.
    pub ops: u64,
    /// Allocations and bytes requested during the timed phase.
    pub allocs: (u64, u64),
    /// Virtual-clock results.
    pub virt: Virt,
    /// Counter deltas from the start of the timed phase to settled.
    pub counts: Counters,
    /// Failed timed operations.
    pub failed: u64,
    /// User bytes (key + value) written in the timed phase.
    pub user_bytes: u64,
    /// Check results, when the plan asked for them.
    pub checks: Option<Checks>,
    /// The timed phase's sizing fact, if it has one.
    pub detail: Option<String>,
}

/// A workload: its generated inputs plus how to drive them.
pub trait Scenario {
    /// State built during setup and consumed by the timed phase.
    type Work;
    /// Enters above the engine, so the layered drive applies.
    const LAYERED: bool = false;
    /// Also measured under `Variant::LevelDb`, beside the paper's figure.
    const BASELINE: bool = false;
    /// `write_amp` covers the timed phase through settle — the steady
    /// state. `false` where the timed phase writes too little for a
    /// ratio to mean anything (`read` writes nothing, `scan` 115 KB):
    /// there it covers the whole repetition, load included.
    const STEADY_WRITES: bool = true;

    /// Expected final contents.
    fn reference(&self) -> &Reference;
    /// Timed operations.
    fn ops(&self) -> u64;
    /// Operations at the end of the timed phase the trace window covers.
    fn window(&self) -> usize;
    /// Range scans among the timed operations.
    fn scans(&self) -> u64 {
        0
    }
    /// Whether a reply means the write is durable (`serve`): then a
    /// crash at the last reply, with no settle, is checked too.
    fn acks_durable(&self) -> bool {
        false
    }
    /// Opens, preloads, settles and warms a fresh stack.
    fn setup(&self, plan: &Plan) -> (Stack, Self::Work);
    /// The closed-loop timed phase.
    fn timed(&self, stack: &mut Stack, work: Self::Work, plan: &Plan) -> Timed;
    /// The timed phase's inputs replayed at a lower entry point; virtual
    /// results are not taken. Workloads that enter at the engine have
    /// no lower entry.
    fn replay(&self, _stack: &mut Stack, _entry: Entry) {
        unreachable!("workload has a single entry point")
    }
}

/// Runs one repetition of `sc` under `plan`.
pub fn rep<S: Scenario>(sc: &S, plan: &Plan) -> Rep {
    let t = Instant::now();
    let (mut stack, work) = sc.setup(plan);
    if let Some(hub) = plan.hub {
        stack.sample(hub);
    }
    let setup_s = t.elapsed().as_secs_f64();
    let clock = stack.clock();
    let before = stack.counters();

    let v0 = clock.now();
    let mut timed = sc.timed(&mut stack, work, plan);
    let v1 = clock.now();

    let at_ack = (plan.checks && sc.acks_durable()).then(|| stack.crashed(v1));
    stack.settle();
    let after = stack.counters();

    let reference = sc.reference();
    let row_bytes = KEY_LEN + reference.value_len as u64;
    let counts = delta(&before, &after);
    let (device, user) = if S::STEADY_WRITES {
        (counts["ssd.bytes_written"], timed.user_bytes)
    } else {
        let loaded = reference.rounds.len() as u64 * row_bytes;
        (after["ssd.bytes_written"], loaded + timed.user_bytes)
    };
    let elapsed_ns = (v1 - v0).as_nanos();
    let virt = Virt {
        elapsed_ns,
        ops_per_s: sc.ops() as f64 * 1e9 / elapsed_ns as f64,
        primary: Latency::of(&mut timed.primary),
        other: (!timed.other.is_empty()).then(|| Latency::of(&mut timed.other)),
        write_amp: device as f64 / user as f64,
        space_amp: stack.stored_bytes() as f64 / (reference.live() * row_bytes) as f64,
    };
    let checks = plan.checks.then(|| checks::run(&mut stack, reference, at_ack));
    Rep {
        setup_s,
        timed_s: timed.host.0,
        window_s: timed.window_s,
        ops: sc.ops(),
        allocs: timed.host.1,
        virt,
        counts,
        failed: timed.failed,
        user_bytes: timed.user_bytes,
        checks,
        detail: timed.detail,
    }
}

/// Host cost per operation of a timed loop.
#[derive(Debug, Clone, Copy)]
pub struct PerOp {
    /// Host ns.
    pub ns: f64,
    /// Allocations.
    pub allocs: f64,
    /// Bytes requested from the allocator.
    pub alloc_bytes: f64,
}

impl PerOp {
    /// A meter reading `host` spread over `ops` operations.
    pub fn of(host: (f64, (u64, u64)), ops: u64) -> PerOp {
        let ops = ops as f64;
        let (s, (allocs, bytes)) = host;
        PerOp { ns: s * 1e9 / ops, allocs: allocs as f64 / ops, alloc_bytes: bytes as f64 / ops }
    }
}

/// Host cost per operation of `sc`'s inputs replayed at `entry` on a
/// fresh stack.
pub fn replay<S: Scenario>(sc: &S, entry: Entry) -> PerOp {
    let (mut stack, _) = sc.setup(&Plan::PLAIN);
    let meter = Meter::start();
    sc.replay(&mut stack, entry);
    PerOp::of(meter.stop(), sc.ops())
}

/// The trace window: the last `window` of `total` operations. The sink
/// goes in when the window opens, so its ring only ever holds spans the
/// analysis uses; untraced repetitions time the same stretch so the two
/// can be compared.
struct Window {
    opens_at: usize,
    opened: Option<Instant>,
}

impl Window {
    fn new(total: usize, window: usize) -> Window {
        Window { opens_at: total.saturating_sub(window), opened: None }
    }

    /// True exactly once, on the operation that opens the window.
    fn opens(&mut self, op: usize) -> bool {
        let now = op == self.opens_at;
        if now {
            self.opened = Some(Instant::now());
        }
        now
    }

    fn seconds(&self) -> f64 {
        self.opened.map_or(0.0, |t| t.elapsed().as_secs_f64())
    }
}

/// Records per write while loading: the load is not measured, and 64
/// per WAL record build the same tree in a fraction of the host time.
const LOAD_BATCH: usize = 64;

/// The load as write batches of `LOAD_BATCH` records, in `order`.
fn load_batches(order: &[u64], value_len: usize) -> impl Iterator<Item = WriteBatch> + '_ {
    order.chunks(LOAD_BATCH).map(move |chunk| {
        let mut batch = WriteBatch::new();
        for &rec in chunk {
            let kid = input::record(rec);
            batch.put(&input::key(kid), &input::value(kid, 0, value_len));
        }
        batch
    })
}

fn preload(db: &mut Db, order: &[u64], value_len: usize) {
    let wopts = WriteOptions::buffered();
    for batch in load_batches(order, value_len) {
        db.write(&wopts, batch).expect("preload write");
    }
}

impl Scenario for FillInput {
    type Work = Vec<WriteBatch>;
    const BASELINE: bool = true;

    fn reference(&self) -> &Reference {
        &self.reference
    }

    fn ops(&self) -> u64 {
        self.batches.len() as u64
    }

    fn window(&self) -> usize {
        self.batches.len() / 2
    }

    fn setup(&self, plan: &Plan) -> (Stack, Vec<WriteBatch>) {
        let mut stack = Stack::engine(plan.variant);
        preload(stack.db(), &self.preload, FILL_VALUE_LEN);
        stack.settle();
        (stack, self.batches.clone())
    }

    fn timed(&self, stack: &mut Stack, batches: Vec<WriteBatch>, plan: &Plan) -> Timed {
        let db = stack.db();
        let clock = db.clock().clone();
        let wopts = WriteOptions::buffered();
        let mut window = Window::new(batches.len(), self.window());
        let mut lat = Vec::with_capacity(batches.len());
        let mut user_bytes = 0;
        // Device and user bytes at the thirds of the phase, to show
        // write amplification has levelled off inside the window.
        let third = batches.len() / 3;
        let mut marks = Vec::with_capacity(4);
        let meter = Meter::start();
        for (i, batch) in batches.into_iter().enumerate() {
            if window.opens(i) {
                if let Some(sink) = plan.sink {
                    db.set_trace_sink(sink.clone());
                }
            }
            if i % third == 0 && marks.len() < 3 {
                marks.push((db.fs().io_stats().bytes_written, user_bytes));
            }
            user_bytes += batch.byte_size();
            let start = clock.now();
            let end = db.write(&wopts, batch).expect("timed write");
            lat.push((end - start).as_nanos());
        }
        let host = meter.stop();
        marks.push((db.fs().io_stats().bytes_written, user_bytes));
        let thirds: Vec<String> = marks
            .windows(2)
            .map(|w| format!("{:.2}", (w[1].0 - w[0].0) as f64 / (w[1].1 - w[0].1) as f64))
            .collect();
        Timed {
            host,
            primary: lat,
            other: Vec::new(),
            failed: 0,
            user_bytes,
            window_s: window.seconds(),
            detail: Some(format!("write_amp by thirds of the timed phase: {}", thirds.join(", "))),
        }
    }
}

impl Scenario for ReadInput {
    type Work = ();
    const STEADY_WRITES: bool = false;

    fn reference(&self) -> &Reference {
        &self.reference
    }

    fn ops(&self) -> u64 {
        self.gets.len() as u64
    }

    fn window(&self) -> usize {
        20_000.min(self.gets.len())
    }

    fn setup(&self, plan: &Plan) -> (Stack, ()) {
        let mut stack = Stack::engine(plan.variant);
        preload(stack.db(), &self.preload, VALUE_LEN);
        // One level: a GET probes one table, so no seek budget is spent
        // and no seek compaction rewrites the tree under the reads (left
        // in two levels, whether that happened depended on the seed).
        let now = stack.clock().now();
        stack.db().compact_range(now, None, None).expect("compact the load");
        stack.settle();
        // Every block miss below pays a device read, not a page-cache hit.
        stack.db().fs().drop_caches();
        (stack, ())
    }

    fn timed(&self, stack: &mut Stack, (): (), plan: &Plan) -> Timed {
        let db = stack.db();
        let clock = db.clock().clone();
        let ropts = ReadOptions::default();
        let mut window = Window::new(self.gets.len(), self.window());
        let mut lat = Vec::with_capacity(self.gets.len());
        // Replies are kept and compared after the clocks stop, so the
        // comparison costs the timed phase nothing.
        let mut replies = Vec::with_capacity(self.gets.len());
        let meter = Meter::start();
        for (i, &kid) in self.gets.iter().enumerate() {
            if window.opens(i) {
                if let Some(sink) = plan.sink {
                    db.set_trace_sink(sink.clone());
                }
            }
            let key = input::key(kid);
            let start = clock.now();
            let got = db.get(&ropts, &key).expect("timed get");
            lat.push((clock.now() - start).as_nanos());
            replies.push(got);
        }
        let (host, window_s) = (meter.stop(), window.seconds());
        let wrong = self
            .gets
            .iter()
            .zip(&replies)
            .filter(|&(&kid, got)| *got != self.reference.expected(kid));
        Timed {
            host,
            primary: lat,
            other: Vec::new(),
            failed: wrong.count() as u64,
            user_bytes: 0,
            window_s,
            detail: None,
        }
    }
}

/// Opens the serving stack, loads `order` through the store (buffered)
/// and connects the loopback clients.
fn serving(
    write: WriteOptions,
    cache_bytes: u64,
    order: &[u64],
) -> (Stack, Vec<Client<LoopbackTransport>>) {
    let stack = Stack::server(write, cache_bytes);
    {
        let mut core = stack.core().borrow_mut();
        let wopts = WriteOptions::buffered();
        for batch in load_batches(order, VALUE_LEN) {
            core.store_mut().write(&wopts, batch).expect("load write");
        }
    }
    let clients =
        (0..CLIENTS).map(|_| Client::new(LoopbackTransport::connect(stack.core()))).collect();
    (stack, clients)
}

/// Receives, for every client, the replies the server has already
/// resolved — without forcing a flush, so group commit is undisturbed —
/// and hands each to `done` with the client's index. The first
/// `recv_reply` moves the whole resolved prefix into the client's
/// decoder; the queue-length difference says how many frames that was.
fn drain_resolved(
    core: &SharedCore,
    clients: &mut [Client<LoopbackTransport>],
    mut done: impl FnMut(usize, Frame),
) {
    for (c, client) in clients.iter_mut().enumerate() {
        let conn = client.transport().conn_id();
        let (queued, blocked) = {
            let core = core.borrow();
            (core.pending_replies(conn), core.output_blocked(conn))
        };
        if queued == 0 || blocked {
            continue;
        }
        done(c, client.recv_reply().expect("resolved reply"));
        let taken = queued - core.borrow().pending_replies(conn);
        for _ in 1..taken {
            done(c, client.recv_reply().expect("buffered reply"));
        }
    }
}

/// Reply bookkeeping of `serve`'s timed phase.
struct ServeRun<'a> {
    input: &'a ServeInput,
    clock: SharedClock,
    /// Per client: (operation index, send instant) in send order.
    inflight: Vec<VecDeque<(usize, Nanos)>>,
    sets: Vec<u64>,
    gets: Vec<u64>,
    /// (operation index, reply), compared after the clocks stop so the
    /// comparison costs the timed phase nothing.
    replies: Vec<(usize, Frame)>,
}

impl ServeRun<'_> {
    fn done(&mut self, client: usize, reply: Frame) {
        let (op, sent) = self.inflight[client].pop_front().expect("reply without a request");
        let ns = (self.clock.now() - sent).as_nanos();
        if self.input.ops[op].is_set {
            self.sets.push(ns);
        } else {
            self.gets.push(ns);
        }
        self.replies.push((op, reply));
    }

    /// Replies that are not what the reference says they must be.
    fn wrong(&self) -> u64 {
        let wrong = self.replies.iter().filter(|(op, reply)| {
            let op = &self.input.ops[*op];
            if op.is_set {
                *reply != Frame::ok()
            } else {
                let kid = input::record(u64::from(op.rec));
                *reply != Frame::Bulk(input::value(kid, op.round, VALUE_LEN))
            }
        });
        wrong.count() as u64
    }
}

impl Scenario for ServeInput {
    type Work = Vec<Client<LoopbackTransport>>;
    const LAYERED: bool = true;

    fn reference(&self) -> &Reference {
        &self.reference
    }

    fn ops(&self) -> u64 {
        self.ops.len() as u64
    }

    fn window(&self) -> usize {
        20_000.min(self.ops.len())
    }

    fn acks_durable(&self) -> bool {
        true
    }

    fn setup(&self, _plan: &Plan) -> (Stack, Self::Work) {
        // The block cache holds each shard's whole ≈ 14 MB of records,
        // stale versions awaiting compaction included.
        let (mut stack, clients) = serving(WriteOptions::synced(), 64 << 20, &self.load);
        stack.settle();
        for &rec in &self.warm {
            stack.get(&input::key(input::record(rec)));
        }
        (stack, clients)
    }

    fn timed(&self, stack: &mut Stack, mut clients: Self::Work, plan: &Plan) -> Timed {
        let core = stack.core().clone();
        let mut run = ServeRun {
            input: self,
            clock: stack.clock(),
            inflight: vec![VecDeque::with_capacity(DEPTH); CLIENTS],
            sets: Vec::with_capacity(self.ops.len()),
            gets: Vec::with_capacity(self.ops.len()),
            replies: Vec::with_capacity(self.ops.len()),
        };
        let mut window = Window::new(self.ops.len(), self.window());
        let mut user_bytes = 0;
        let meter = Meter::start();
        for (round, ops) in self.ops.chunks(CLIENTS * DEPTH).enumerate() {
            for (j, op) in ops.iter().enumerate() {
                let i = round * CLIENTS * DEPTH + j;
                if window.opens(i) {
                    if let Some(sink) = plan.sink {
                        core.borrow_mut().set_trace_sink(sink.clone());
                    }
                }
                let c = j % CLIENTS;
                if op.is_set {
                    user_bytes += KEY_LEN + VALUE_LEN as u64;
                }
                run.inflight[c].push_back((i, run.clock.now()));
                clients[c].send(&op.req).expect("send");
                drain_resolved(&core, &mut clients, |c, reply| run.done(c, reply));
            }
            // Every client now waits for the rest of its replies; the
            // first pull flushes the round's trailing SETs as one drain.
            for (c, client) in clients.iter_mut().enumerate() {
                while client.outstanding() > 0 {
                    run.done(c, client.recv_reply().expect("reply"));
                }
            }
        }
        let (host, window_s) = (meter.stop(), window.seconds());
        Timed {
            host,
            failed: run.wrong(),
            primary: run.sets,
            other: run.gets,
            user_bytes,
            window_s,
            detail: None,
        }
    }

    fn replay(&self, stack: &mut Stack, entry: Entry) {
        let mut core = stack.core().borrow_mut();
        let store = core.store_mut();
        let (wopts, ropts) = (WriteOptions::synced(), ReadOptions::default());
        for round in self.ops.chunks(CLIENTS * DEPTH) {
            for op in round {
                match (&op.req, entry) {
                    (Request::Set(key, value), Entry::Store) => {
                        let mut batch = WriteBatch::new();
                        batch.put(key, value);
                        store.enqueue(&wopts, &batch);
                    }
                    (Request::Set(key, value), Entry::Db) => {
                        let mut batch = WriteBatch::new();
                        batch.put(key, value);
                        let shard = store.shard_of(key);
                        store.shard_db_mut(shard).write(&wopts, batch).expect("write");
                    }
                    (Request::Get(key), Entry::Store) => {
                        // The server's read barrier: settle the queue.
                        if store.pending() > 0 {
                            store.drain().expect("drain");
                        }
                        store.get(&ropts, key).expect("get");
                    }
                    (Request::Get(key), Entry::Db) => {
                        let shard = store.shard_of(key);
                        store.shard_db_mut(shard).get(&ropts, key).expect("get");
                    }
                    _ => unreachable!("serve issues GET and SET"),
                }
            }
            if entry == Entry::Store {
                store.drain().expect("drain");
            }
        }
    }
}

/// One client's operation in flight in `scan`'s timed phase.
enum Flight {
    Idle,
    Set { sent: Nanos },
    Scan { sent: Nanos, rows: u64, expect: u64, cursor: u64 },
}

fn scan_range(first: u64, len: u64) -> (Vec<u8>, Vec<u8>) {
    (input::key(input::record(first)), input::key(input::record(first + len)))
}

/// Splits a scan page reply into `(cursor, rows)`; `None` if malformed.
fn scan_page(reply: &Frame) -> Option<(u64, u64)> {
    let Frame::Array(items) = reply else { return None };
    let [Frame::Integer(cursor), Frame::Array(flat)] = items.as_slice() else { return None };
    Some((u64::try_from(*cursor).ok()?, flat.len() as u64 / 2))
}

impl Scenario for ScanInput {
    type Work = Vec<Client<LoopbackTransport>>;
    const LAYERED: bool = true;
    const STEADY_WRITES: bool = false;

    fn reference(&self) -> &Reference {
        &self.reference
    }

    fn scans(&self) -> u64 {
        self.scans
    }

    fn ops(&self) -> u64 {
        self.ops.len() as u64
    }

    fn window(&self) -> usize {
        5_000.min(self.ops.len())
    }

    fn setup(&self, _plan: &Plan) -> (Stack, Self::Work) {
        let (mut stack, clients) = serving(WriteOptions::buffered(), 1 << 20, &self.load);
        // Compact the load into one level per shard: scans pay block
        // reads, and the tree they merge has the same shape for every
        // seed (left to itself the load settles into 2 or 3 levels,
        // which alone moves scan latency by 15 %).
        stack.each_db(|db| {
            let now = db.clock().now();
            db.compact_range(now, None, None).expect("compact the load");
        });
        stack.settle();
        (stack, clients)
    }

    fn timed(&self, stack: &mut Stack, mut clients: Self::Work, plan: &Plan) -> Timed {
        let core = stack.core().clone();
        let clock = stack.clock();
        let records = self.reference.rounds.len() as u64;
        let mut inserted = BTreeSet::new();
        let mut flights: Vec<Flight> = (0..CLIENTS).map(|_| Flight::Idle).collect();
        let mut window = Window::new(self.ops.len(), self.window());
        let (mut scans, mut sets) = (Vec::with_capacity(self.ops.len()), Vec::new());
        let (mut failed, mut user_bytes, mut next) = (0, 0, 0);
        let meter = Meter::start();
        loop {
            // Each client sends one request: its next operation, or the
            // next page of the scan it has open.
            for (c, flight) in flights.iter_mut().enumerate() {
                match flight {
                    Flight::Scan { cursor, .. } => {
                        clients[c].send(&Request::ScanNext(*cursor)).expect("send");
                    }
                    Flight::Idle if next < self.ops.len() => {
                        if window.opens(next) {
                            if let Some(sink) = plan.sink {
                                core.borrow_mut().set_trace_sink(sink.clone());
                            }
                        }
                        let sent = clock.now();
                        match &self.ops[next] {
                            ScanOp::Insert { req, kid } => {
                                inserted.insert(*kid);
                                user_bytes += KEY_LEN + VALUE_LEN as u64;
                                clients[c].send(req).expect("send");
                                *flight = Flight::Set { sent };
                            }
                            &ScanOp::Scan { first, len } => {
                                let (lo, hi) = (input::record(first), input::record(first + len));
                                let expect = len.min(records - first)
                                    + inserted.range(lo..hi).count() as u64;
                                let (start, end) = scan_range(first, len);
                                clients[c].send(&Request::scan(start, end, PAGE)).expect("send");
                                *flight = Flight::Scan { sent, rows: 0, expect, cursor: 0 };
                            }
                        }
                        next += 1;
                    }
                    _ => {}
                }
            }
            if clients.iter().all(|c| c.outstanding() == 0) {
                break;
            }
            for (c, flight) in flights.iter_mut().enumerate() {
                if clients[c].outstanding() == 0 {
                    continue;
                }
                let reply = clients[c].recv_reply().expect("reply");
                let now = clock.now();
                match flight {
                    Flight::Set { sent } => {
                        sets.push((now - *sent).as_nanos());
                        failed += u64::from(reply != Frame::ok());
                        *flight = Flight::Idle;
                    }
                    Flight::Scan { sent, rows, expect, cursor } => {
                        let page = scan_page(&reply);
                        let (next_cursor, n) = page.unwrap_or((0, 0));
                        *rows += n;
                        *cursor = next_cursor;
                        if next_cursor == 0 {
                            scans.push((now - *sent).as_nanos());
                            failed += u64::from(page.is_none() || *rows != *expect);
                            *flight = Flight::Idle;
                        }
                    }
                    Flight::Idle => unreachable!("reply without a request"),
                }
            }
        }
        Timed {
            host: meter.stop(),
            primary: scans,
            other: sets,
            failed,
            user_bytes,
            window_s: window.seconds(),
            detail: None,
        }
    }

    fn replay(&self, stack: &mut Stack, entry: Entry) {
        let mut core = stack.core().borrow_mut();
        let store = core.store_mut();
        let (wopts, ropts) = (WriteOptions::buffered(), ReadOptions::default());
        for op in &self.ops {
            match op {
                ScanOp::Insert { req, .. } => {
                    let Request::Set(key, value) = req else { unreachable!("inserts are SETs") };
                    let mut batch = WriteBatch::new();
                    batch.put(key, value);
                    match entry {
                        Entry::Store => {
                            store.enqueue(&wopts, &batch);
                        }
                        Entry::Db => {
                            let shard = store.shard_of(key);
                            store.shard_db_mut(shard).write(&wopts, batch).expect("write");
                        }
                    }
                }
                &ScanOp::Scan { first, len } => {
                    let (mut start, end) = scan_range(first, len);
                    match entry {
                        Entry::Store => {
                            if store.pending() > 0 {
                                store.drain().expect("drain");
                            }
                            let snaps = store.pin_snapshots();
                            loop {
                                let sopts = ScanOptions::range(&start, &end)
                                    .with_limit(PAGE as usize)
                                    .without_fill_cache();
                                match store.scan_at(&snaps, &sopts).expect("scan").resume {
                                    Some(resume) => start = resume,
                                    None => break,
                                }
                            }
                            store.release_snapshots(snaps);
                        }
                        Entry::Db => {
                            let sopts = ScanOptions::range(&start, &end).without_fill_cache();
                            for shard in 0..store.shards() {
                                store.shard_db_mut(shard).scan(&ropts, &sopts).expect("scan");
                            }
                        }
                    }
                }
            }
        }
        store.drain().expect("drain");
    }
}
