//! `nob-store` — a sharded front-end over N independent [`Db`] engines.
//!
//! The store partitions the keyspace by a stable hash of the key across
//! `N` shards. Each shard owns a complete, independent stack — its own
//! simulated SSD and Ext4 filesystem under its own engine — but every
//! shard is opened on **one** [`SharedClock`], so the whole deployment
//! advances on a single virtual timeline and every run is deterministic.
//!
//! # Group commit
//!
//! Writes go through a LevelDB-style group-commit queue. Logical writers
//! [`enqueue`](Store::enqueue) their [`WriteBatch`]es and receive a
//! [`Ticket`]; nothing touches the engine yet. The scheduler
//! ([`pump`](Store::pump) / [`drain`](Store::drain)) visits shards in
//! deterministic round-robin order. On each visit the batch at the head
//! of the shard's queue becomes the *leader*: it coalesces the batches
//! queued behind it — up to a byte and a count budget — into one merged
//! batch, issues a **single** engine write (one WAL record, one journal
//! interaction), and every coalesced *follower* inherits the leader's
//! durability outcome. This is where the throughput win comes from: the
//! per-write CPU charge and the WAL append/sync are paid once per group
//! instead of once per writer, so `Sync`-mode throughput rises
//! monotonically with the number of writers sharing a shard.
//!
//! A shard is an actor: its own writer, engine, file system and device.
//! The shared clock orders actors, it does not serialise them — one
//! scheduler round starts every shard's group at the round's start
//! instant ([`Db::write_at`]) and leaves the clock at the latest group
//! end, so a round costs its slowest shard, not the sum of them (the rule
//! [`Store::scan_at`] applies to reads). Only instants depend on this:
//! per-shard order, group membership, sequence numbers, WAL bytes and
//! shipped payloads are those of committing the shards one by one. A
//! ticket with parts on several shards completes at the latest of its
//! parts' group ends.
//!
//! A synced follower never rides a buffered leader (that would silently
//! downgrade its durability); buffered followers ride a synced leader for
//! free.
//!
//! Because the merged group is a single atomic [`WriteBatch`], a crash
//! mid-group-commit can never surface a follower's write without its
//! leader's: either the whole group's WAL record survives or none of it
//! does.
//!
//! # Example
//!
//! ```
//! use nob_store::{Store, StoreOptions};
//! use noblsm::{ReadOptions, WriteBatch, WriteOptions};
//!
//! # fn main() -> noblsm::Result<()> {
//! let mut store = Store::open(StoreOptions { shards: 2, ..StoreOptions::default() })?;
//! let mut batch = WriteBatch::new();
//! batch.put(b"k1", b"v1");
//! batch.put(b"k2", b"v2");
//! store.write(&WriteOptions::default(), batch)?;
//! assert_eq!(store.get(&ReadOptions::default(), b"k1")?.as_deref(), Some(&b"v1"[..]));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

mod stats;

use std::collections::{BTreeMap, VecDeque};

use nob_ext4::{Ext4Config, Ext4Fs};
use nob_metrics::MetricsHub;
use nob_sim::{fnv1a, Nanos, SharedClock};
use nob_trace::{EventClass, SpanScope, TraceCtx, TraceSink};
use noblsm::{
    Db, DbIterator, IterState, Options, ReadOptions, ScanCollector, ScanOptions, ScanResult,
    Snapshot, ValueType, WriteBatch, WriteOptions,
};

pub use noblsm::{Error, Result};
pub use stats::{StoreStats, METRICS};

/// Byte budget per coalesced group: a follower joins only while the
/// merged payload stays within this budget. The leader always commits,
/// even if it alone exceeds the budget.
const GROUP_BUDGET_BYTES: u64 = 1 << 20;

/// Configuration for [`Store::open`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Number of shards (≥ 1). Each shard gets its own SSD + Ext4 stack.
    pub shards: usize,
    /// Count budget per coalesced group (leader included, ≥ 1).
    pub group_budget_count: usize,
    /// Filesystem/device configuration, cloned per shard.
    pub fs: Ext4Config,
    /// Engine options, cloned per shard.
    pub db: Options,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            shards: 4,
            group_budget_count: 32,
            fs: Ext4Config::default(),
            db: Options::default(),
        }
    }
}

/// Handle for an enqueued write; redeem it — once — with
/// [`Store::take_outcome`] after the queue has been pumped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(u64);

/// One committed group captured for WAL shipping: the exact batch payload
/// the shard's engine logged, tagged with the contiguous sequence range
/// the engine assigned it. Records per shard form a gap-free chain —
/// `first_seq` of each record is the previous record's `last_seq + 1` —
/// which is the invariant replication consumers key on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShippedRecord {
    /// The shard the group committed on.
    pub shard: usize,
    /// Sequence of the group's first entry.
    pub first_seq: u64,
    /// Sequence of the group's last entry.
    pub last_seq: u64,
    /// The group's [`WriteBatch::payload`] as the engine logged it
    /// ([`WriteBatch::from_payload`] takes it back).
    pub payload: Vec<u8>,
    /// The group's durable instant on the deployment clock.
    pub committed_at: Nanos,
    /// Causal identity of the group-commit span that produced this
    /// record ([`TraceCtx::NONE`] when tracing is off). Replication
    /// layers parent their ship/apply/ack spans under it so a traced
    /// request's tree extends past durability.
    pub ctx: TraceCtx,
}

struct Pending {
    ticket: u64,
    wopts: WriteOptions,
    batch: WriteBatch,
    /// Causal context of the request that enqueued this part
    /// ([`TraceCtx::NONE`] for untraced writers).
    ctx: TraceCtx,
}

struct Shard {
    db: Db,
    queue: VecDeque<Pending>,
}

/// A sharded store: hash-of-key routing over N engines with a group-commit
/// queue per shard, all on one virtual clock. See the crate docs.
pub struct Store {
    clock: SharedClock,
    shards: Vec<Shard>,
    trace: Option<TraceSink>,
    budget_count: usize,
    next_ticket: u64,
    /// Remaining per-shard parts of each still-incomplete ticket.
    parts: BTreeMap<u64, usize>,
    /// Latest durable instant observed per unredeemed ticket (final once
    /// the ticket leaves `parts`; removed by `take_outcome`).
    outcomes: BTreeMap<u64, Nanos>,
    stats: StoreStats,
    /// When set, every committed group is also captured as a
    /// [`ShippedRecord`] for a replication leader to drain.
    shipping: bool,
    shipped: Vec<ShippedRecord>,
}

impl Store {
    /// Opens (creating or recovering) `opts.shards` shard engines, each on
    /// a fresh filesystem stack, all on one shared clock.
    ///
    /// # Errors
    ///
    /// [`Error::Usage`] when `shards` or `group_budget_count` is zero;
    /// otherwise propagates engine open errors.
    pub fn open(opts: StoreOptions) -> Result<Store> {
        Store::open_with_clock(opts, SharedClock::new())
    }

    /// Like [`open`](Store::open) but on a caller-supplied clock, so two
    /// stores (a replication leader and its follower) can share one
    /// virtual timeline and stay deterministic as a pair.
    ///
    /// # Errors
    ///
    /// As for [`open`](Store::open).
    pub fn open_with_clock(opts: StoreOptions, clock: SharedClock) -> Result<Store> {
        if opts.shards == 0 {
            return Err(Error::Usage("store needs at least one shard".into()));
        }
        if opts.group_budget_count == 0 {
            return Err(Error::Usage("group_budget_count must be at least 1".into()));
        }
        let mut shards = Vec::with_capacity(opts.shards);
        for i in 0..opts.shards {
            let fs = Ext4Fs::new(opts.fs.clone());
            let db = Db::open_with_clock(fs, &format!("shard{i}"), opts.db.clone(), clock.clone())?;
            shards.push(Shard { db, queue: VecDeque::new() });
        }
        Ok(Store::assemble(clock, shards, opts.group_budget_count))
    }

    /// The store a power cut at `at` leaves behind, recovered: every shard
    /// reopens on its filesystem's [`Ext4Fs::crashed_view`] at that one
    /// instant, with its own engine options and this store's group budget,
    /// on a fresh clock starting at `at`. Queued batches, counters,
    /// shipping and the trace sink are not carried over; `self` is left
    /// as it was.
    ///
    /// # Panics
    ///
    /// Panics if `at` is below a shard filesystem's crash horizon: a
    /// driver that cuts power in its past pins every shard's horizon
    /// ([`Ext4Fs::pin_crash_horizon`]) first.
    ///
    /// # Errors
    ///
    /// Propagates engine recovery errors.
    pub fn crashed_view(&self, at: Nanos) -> Result<Store> {
        let clock = SharedClock::at(at);
        let mut shards = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter().enumerate() {
            let fs = shard.db.fs().crashed_view(at);
            let opts = shard.db.options().clone();
            let db = Db::open_with_clock(fs, &format!("shard{i}"), opts, clock.clone())?;
            shards.push(Shard { db, queue: VecDeque::new() });
        }
        Ok(Store::assemble(clock, shards, self.budget_count))
    }

    fn assemble(clock: SharedClock, shards: Vec<Shard>, budget_count: usize) -> Store {
        Store {
            clock,
            shards,
            trace: None,
            budget_count,
            next_ticket: 0,
            parts: BTreeMap::new(),
            outcomes: BTreeMap::new(),
            stats: StoreStats::default(),
            shipping: false,
            shipped: Vec::new(),
        }
    }

    /// The shard index `key` routes to.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        (fnv1a(key) % self.shards.len() as u64) as usize
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The store's (and every shard's) shared virtual clock.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Aggregate group-commit counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats { unredeemed: self.outcomes.len() as u64, ..self.stats }
    }

    /// Borrow shard `i`'s engine (stats, filesystem, crash injection).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn shard_db(&self, i: usize) -> &Db {
        &self.shards[i].db
    }

    /// Mutably borrow shard `i`'s engine.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn shard_db_mut(&mut self, i: usize) -> &mut Db {
        &mut self.shards[i].db
    }

    /// Batches still queued across all shards.
    pub fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    /// The last committed sequence number of every shard, in shard order
    /// (each shard's engine numbers its entries independently). A
    /// replication subscriber resumes shard `i` at `shard_seqs()[i] + 1`.
    pub fn shard_seqs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.db.last_sequence()).collect()
    }

    /// Starts capturing every committed group as a [`ShippedRecord`].
    /// Groups committed before this call are not retroactively captured —
    /// a leader enables shipping at open, before accepting writes.
    pub fn enable_shipping(&mut self) {
        self.shipping = true;
    }

    /// Drains the shipped records captured since the last call, in commit
    /// order (per shard the order is the sequence order).
    pub fn take_shipped(&mut self) -> Vec<ShippedRecord> {
        std::mem::take(&mut self.shipped)
    }

    /// Enqueues `batch` for group commit and returns its [`Ticket`].
    ///
    /// The batch is split by key hash into per-shard sub-batches (each
    /// sub-batch stays atomic and in order on its shard); the ticket
    /// completes when every sub-batch has committed. Nothing reaches the
    /// engines until [`pump`](Store::pump)/[`drain`](Store::drain) runs.
    pub fn enqueue(&mut self, wopts: &WriteOptions, batch: &WriteBatch) -> Ticket {
        self.enqueue_ctx(wopts, batch, TraceCtx::NONE)
    }

    /// [`enqueue`](Store::enqueue) carrying a causal context: the group
    /// that eventually commits each per-shard part parents its
    /// [`EventClass::GroupCommit`] span under the leader's `ctx` and
    /// links coalesced followers' contexts in, so span trees cross the
    /// asynchronous ticket hand-off. Pass [`TraceCtx::NONE`] (or call
    /// `enqueue`) for untraced writers.
    pub fn enqueue_ctx(
        &mut self,
        wopts: &WriteOptions,
        batch: &WriteBatch,
        ctx: TraceCtx,
    ) -> Ticket {
        let id = self.next_ticket;
        self.next_ticket += 1;
        let mut split: Vec<WriteBatch> = vec![WriteBatch::new(); self.shards.len()];
        for (vt, k, v) in batch.ops() {
            let s = self.shard_of(k);
            match vt {
                ValueType::Deletion => split[s].delete(k),
                _ => split[s].put(k, v),
            }
        }
        let mut n_parts = 0;
        for (s, part) in split.into_iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            n_parts += 1;
            self.shards[s].queue.push_back(Pending { ticket: id, wopts: *wopts, batch: part, ctx });
        }
        if n_parts == 0 {
            // Empty batch: durable by definition, right now.
            self.outcomes.insert(id, self.clock.now());
        } else {
            self.parts.insert(id, n_parts);
        }
        Ticket(id)
    }

    /// Redeems `ticket`: the instant its write became durable — the latest
    /// of its per-shard parts' group ends — once every part has committed;
    /// `None` while any part is still queued. Redemption consumes: the
    /// store forgets the ticket when it returns `Some`, so a second call
    /// for it returns `None`.
    pub fn take_outcome(&mut self, ticket: Ticket) -> Option<Nanos> {
        if self.parts.contains_key(&ticket.0) {
            return None;
        }
        self.outcomes.remove(&ticket.0)
    }

    /// One deterministic scheduler round: commits at most one coalesced
    /// group per shard, visiting shards in index order. Every group starts
    /// at the round's start instant and the clock is left at the latest
    /// group end — shards are actors (see the crate docs), so the round
    /// costs its slowest shard, not the sum of them. Returns the number of
    /// groups committed (0 when every queue is empty).
    ///
    /// # Errors
    ///
    /// Propagates engine errors; the failing group's tickets stay
    /// incomplete.
    pub fn pump(&mut self) -> Result<usize> {
        let start = self.clock.now();
        let mut committed = 0;
        for i in 0..self.shards.len() {
            if self.commit_group(i, start)? {
                committed += 1;
            }
        }
        Ok(committed)
    }

    /// Pumps until every shard queue is empty; returns the clock's instant
    /// after the last commit.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn drain(&mut self) -> Result<Nanos> {
        while self.pump()? > 0 {}
        Ok(self.clock.now())
    }

    /// Commits one group on shard `idx`: pops the leader, folds queued
    /// followers into it within the byte/count budgets (never pairing a
    /// synced follower with a buffered leader), issues one engine write
    /// at `start` — the round's instant, which the shared clock may
    /// already have left behind on a sibling shard's commit — and
    /// completes every carried ticket with the group's durable instant.
    fn commit_group(&mut self, idx: usize, start: Nanos) -> Result<bool> {
        let budget_count = self.budget_count;
        let shard = &mut self.shards[idx];
        let Some(leader) = shard.queue.pop_front() else {
            return Ok(false);
        };
        let wopts = leader.wopts;
        let leader_ctx = leader.ctx;
        let mut merged = leader.batch;
        let mut tickets = vec![leader.ticket];
        let mut follower_ctxs: Vec<TraceCtx> = Vec::new();
        let mut bytes = merged.byte_size();
        while tickets.len() < budget_count {
            let Some(next) = shard.queue.front() else { break };
            if next.wopts.sync && !wopts.sync {
                break;
            }
            if bytes.saturating_add(next.batch.byte_size()) > GROUP_BUDGET_BYTES {
                break;
            }
            let next = shard.queue.pop_front().expect("front() was Some");
            bytes = bytes.saturating_add(next.batch.byte_size());
            merged.extend(&next.batch);
            tickets.push(next.ticket);
            if !next.ctx.is_none() {
                follower_ctxs.push(next.ctx);
            }
        }
        // The engine assigns the group the next contiguous sequence range.
        // Stamp it here as the engine is about to and copy the payload
        // before the write consumes the batch: the shipped bytes are the
        // logged bytes, and the record's seq tags are exact.
        let first_seq = shard.db.last_sequence() + 1;
        let payload = if self.shipping {
            merged.set_sequence(first_seq);
            merged.payload().to_vec()
        } else {
            Vec::new()
        };
        // Open the group span before the engine write so the engine /
        // ext4 / SSD spans it provokes nest under it. The leader's
        // request context (if any) parents the group; coalesced
        // followers' contexts are grafted in as links.
        let scope = self.trace.as_ref().map(|sink| sink.open(Some(leader_ctx)));
        let group_ctx = scope.as_ref().map_or(TraceCtx::NONE, SpanScope::ctx);
        let end = shard.db.write_at(start, &wopts, merged)?;
        if self.shipping {
            let last_seq = self.shards[idx].db.last_sequence();
            self.shipped.push(ShippedRecord {
                shard: idx,
                first_seq,
                last_seq,
                payload,
                committed_at: end,
                ctx: group_ctx,
            });
            self.stats.shipped_records += 1;
        }
        if let (Some(sink), Some(scope)) = (&self.trace, scope) {
            scope.close(EventClass::GroupCommit, start, end, bytes);
            for fctx in &follower_ctxs {
                sink.link(*fctx, group_ctx);
            }
        }
        self.stats.groups += 1;
        self.stats.batches += tickets.len() as u64;
        self.stats.merged_bytes += bytes;
        for t in tickets {
            let slot = self.outcomes.entry(t).or_insert(end);
            if end > *slot {
                *slot = end;
            }
            if let Some(remaining) = self.parts.get_mut(&t) {
                *remaining -= 1;
                if *remaining == 0 {
                    self.parts.remove(&t);
                }
            }
        }
        Ok(true)
    }

    /// Enqueues `batch`, drains the whole queue and returns the instant
    /// the batch became durable — the synchronous convenience wrapper
    /// around [`enqueue`](Store::enqueue) + [`drain`](Store::drain).
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn write(&mut self, wopts: &WriteOptions, batch: WriteBatch) -> Result<Nanos> {
        let t = self.enqueue(wopts, &batch);
        self.drain()?;
        Ok(self.take_outcome(t).expect("drained store completed the ticket"))
    }

    /// Point read, routed to the owning shard.
    ///
    /// # Errors
    ///
    /// [`Error::Usage`] when `ropts` carries a snapshot (snapshots are
    /// per-shard; take them on [`Store::shard_db_mut`] directly);
    /// otherwise propagates engine errors.
    pub fn get(&mut self, ropts: &ReadOptions<'_>, key: &[u8]) -> Result<Option<Vec<u8>>> {
        if ropts.snapshot.is_some() {
            return Err(Error::Usage(
                "store reads cannot carry a Db snapshot (snapshots are per-shard)".into(),
            ));
        }
        let idx = self.shard_of(key);
        self.shards[idx].db.get(ropts, key)
    }

    /// Pins one [`Snapshot`] per shard, in shard order, all at the same
    /// clock instant. The store is single-threaded, so the batch of pins
    /// is atomic: no write can land between two shards' pins, and the
    /// vector captures one consistent cross-shard cut. Release with
    /// [`release_snapshots`](Store::release_snapshots) so compactions can
    /// drop superseded entries again.
    pub fn pin_snapshots(&mut self) -> Vec<Snapshot> {
        self.shards.iter_mut().map(|s| s.db.snapshot()).collect()
    }

    /// Releases a cross-shard snapshot vector taken by
    /// [`pin_snapshots`](Store::pin_snapshots) (shard `i`'s snapshot is
    /// handed back to shard `i`'s engine).
    pub fn release_snapshots(&mut self, snaps: Vec<Snapshot>) {
        for (shard, snap) in self.shards.iter_mut().zip(snaps) {
            shard.db.release_snapshot(snap);
        }
    }

    /// Range scan across every shard: a k-way merge over one engine
    /// iterator per shard, each pinned at the corresponding snapshot in
    /// `snaps`. Tombstones are suppressed by the per-shard iterators; at
    /// shard boundaries (and on the impossible-by-routing equal-key tie)
    /// the lowest shard index wins, so row order is fully deterministic.
    /// Shards are read in parallel on the virtual timeline: the scan
    /// completes at the latest per-shard iterator instant, which is why
    /// short-range scan throughput rises with shard count.
    ///
    /// # Errors
    ///
    /// [`Error::Usage`] when `snaps` was not pinned on this store (length
    /// mismatch); otherwise propagates engine errors.
    pub fn scan_at(&mut self, snaps: &[Snapshot], sopts: &ScanOptions<'_>) -> Result<ScanResult> {
        let mut rows = Vec::new();
        let page = self.scan_at_with(snaps, sopts, &mut Vec::new(), |k, v| {
            rows.push((k.to_vec(), v.to_vec()));
        })?;
        Ok(ScanResult { rows, ..page })
    }

    /// [`scan_at`](Store::scan_at) handing each merged row to `sink` as it
    /// is found, borrowed from the shard iterator that holds it — the
    /// server encodes rows straight into its reply this way. The returned
    /// [`ScanResult`] carries `count` and `resume`; its `rows` stay empty.
    ///
    /// `held` lets a paged scan keep its place. When a page stops at its
    /// limit, every shard's iterator is [detached] into it, in shard order;
    /// handed back with the next page — the same snapshots and options,
    /// `start` the `resume` key — each shard [continues] its own instead of
    /// building and seeking a new one. It is left empty when the range was
    /// exhausted; a first page passes it empty.
    ///
    /// [detached]: noblsm::DbIterator::detach
    /// [continues]: Db::iter_resume
    ///
    /// # Errors
    ///
    /// As for [`scan_at`](Store::scan_at).
    pub fn scan_at_with(
        &mut self,
        snaps: &[Snapshot],
        sopts: &ScanOptions<'_>,
        held: &mut Vec<IterState>,
        sink: impl FnMut(&[u8], &[u8]),
    ) -> Result<ScanResult> {
        if snaps.len() != self.shards.len() {
            return Err(Error::Usage(
                "snapshot vector does not match the store's shard count".into(),
            ));
        }
        let start = sopts.effective_start();
        let end = sopts.effective_end();
        let fallback = self.clock.now();
        let mut collector = ScanCollector::new(sopts, sink);
        // States continue a scan from its resume key, one per shard.
        if held.len() != self.shards.len() {
            held.clear();
        }
        let mut states = held.drain(..);
        let mut iters = Vec::with_capacity(self.shards.len());
        for (shard, snap) in self.shards.iter_mut().zip(snaps) {
            let ropts = if sopts.fill_cache {
                ReadOptions::at(snap)
            } else {
                ReadOptions::at(snap).without_fill_cache()
            };
            if let Some((state, resume_key)) = states.next().zip(start) {
                iters.push(shard.db.iter_resume(&ropts, state, resume_key)?);
                continue;
            }
            let mut it = shard.db.iter(&ropts)?;
            match start {
                Some(s) => it.seek(s)?,
                None => it.seek_to_first()?,
            }
            iters.push(it);
        }
        drop(states);
        loop {
            let mut best: Option<usize> = None;
            for (i, it) in iters.iter().enumerate() {
                // An iterator past `end` is exhausted for this scan: moving
                // on only takes it further past.
                if !it.valid() || end.as_deref().is_some_and(|e| it.key() >= e) {
                    continue;
                }
                // Strict comparison keeps the lowest shard on ties.
                if best.is_none_or(|b| it.key() < iters[b].key()) {
                    best = Some(i);
                }
            }
            let Some(b) = best else { break };
            if !collector.offer(iters[b].key(), iters[b].value()) {
                break;
            }
            iters[b].next()?;
        }
        let end_t = iters.iter().map(|it| it.now()).max().unwrap_or(fallback);
        let result = collector.finish();
        if result.resume.is_some() {
            held.extend(iters.into_iter().map(DbIterator::detach));
        }
        self.clock.advance_to(end_t);
        Ok(result)
    }

    /// Range scan at the latest state: pins a cross-shard snapshot,
    /// merges ([`scan_at`](Store::scan_at)) and releases the pins — the
    /// synchronous convenience the server's cursor machinery decomposes.
    ///
    /// # Errors
    ///
    /// [`Error::Usage`] when `ropts` carries a snapshot (cross-shard scans
    /// pin their own, one per shard); otherwise propagates engine errors.
    pub fn scan(&mut self, ropts: &ReadOptions<'_>, sopts: &ScanOptions<'_>) -> Result<ScanResult> {
        if ropts.snapshot.is_some() {
            return Err(Error::Usage(
                "store scans cannot carry a Db snapshot (the store pins one per shard)".into(),
            ));
        }
        let mut sopts = *sopts;
        sopts.fill_cache = sopts.fill_cache && ropts.fill_cache;
        let snaps = self.pin_snapshots();
        let result = self.scan_at(&snaps, &sopts);
        self.release_snapshots(snaps);
        result
    }

    /// Processes due background completions on every shard at the current
    /// instant, in shard order.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn tick(&mut self) -> Result<()> {
        // Waits on no commit, so there is nothing here for shards to overlap.
        for shard in &mut self.shards {
            shard.db.tick()?;
        }
        Ok(())
    }

    /// Drains the queue, then waits for every shard's background work to
    /// settle. Shards share one clock, so one shard's compactions can
    /// push the instant other shards settle at; loop until a full pass
    /// moves the clock no further.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn wait_idle(&mut self) -> Result<Nanos> {
        self.drain()?;
        // Waits on no commit either, and already iterates to a fixpoint.
        loop {
            let before = self.clock.now();
            for shard in &mut self.shards {
                let now = self.clock.now();
                shard.db.wait_idle(now)?;
            }
            if self.clock.now() == before {
                break;
            }
        }
        Ok(self.clock.now())
    }

    /// Installs one trace sink across every shard's full stack; the store
    /// itself emits a [`EventClass::GroupCommit`] span per coalesced
    /// group into the same sink.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        for shard in &mut self.shards {
            shard.db.set_trace_sink(sink.clone());
        }
        self.trace = Some(sink);
    }

    /// Removes the trace sink from the store and every shard stack.
    pub fn clear_trace_sink(&mut self) {
        for shard in &mut self.shards {
            shard.db.clear_trace_sink();
        }
        self.trace = None;
    }

    /// Installs `hub` on every shard under a `shard<i>.` scope, so one hub
    /// carries the whole deployment's gauges as `shard0.ext4.dirty_bytes`,
    /// `shard1.engine.mem_bytes`, …
    pub fn set_metrics_hub(&mut self, hub: &MetricsHub) {
        for (i, shard) in self.shards.iter_mut().enumerate() {
            shard.db.set_metrics_hub(hub.scoped(&format!("shard{i}.")));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nob_sim::Nanos;
    use noblsm::SyncMode;

    fn small_opts(shards: usize) -> StoreOptions {
        let mut db = Options::default().with_sync_mode(SyncMode::Always).with_table_size(64 << 10);
        db.level1_max_bytes = 256 << 10;
        StoreOptions { shards, db, ..StoreOptions::default() }
    }

    #[test]
    fn zero_shards_is_a_usage_error() {
        let Err(err) = Store::open(StoreOptions { shards: 0, ..StoreOptions::default() }) else {
            panic!("0 shards must be rejected");
        };
        assert!(matches!(err, Error::Usage(_)), "{err}");
    }

    #[test]
    fn bad_engine_options_are_usage_errors_before_any_file_exists() {
        let base = Options::default();
        let triggers = |compaction, slowdown, stop| Options {
            l0_compaction_trigger: compaction,
            l0_slowdown_trigger: slowdown,
            l0_stop_trigger: stop,
            ..base.clone()
        };
        let cases = [
            ("zero lanes", Options { compaction_lanes: 0, ..base.clone() }),
            ("slowdown < compaction", triggers(4, 3, 12)),
            ("stop <= compaction", triggers(4, 4, 4)),
        ];
        for (what, db) in cases {
            let fs = Ext4Fs::new(Ext4Config::default());
            let err = Db::open(fs.clone(), "db", db.clone(), Nanos::ZERO).err();
            assert!(matches!(err, Some(Error::Usage(_))), "{what}: {err:?}");
            assert_eq!(fs.list("db/"), Vec::<String>::new(), "{what}: files left behind");
            let err = Store::open(StoreOptions { shards: 2, db, ..StoreOptions::default() }).err();
            assert!(matches!(err, Some(Error::Usage(_))), "{what} through the store: {err:?}");
        }
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let store = Store::open(small_opts(3)).unwrap();
        for i in 0..100u64 {
            let k = i.to_be_bytes();
            let s = store.shard_of(&k);
            assert!(s < 3);
            assert_eq!(s, store.shard_of(&k), "routing must be deterministic");
        }
        // The hash must actually spread keys around.
        let hit: std::collections::BTreeSet<usize> =
            (0..100u64).map(|i| store.shard_of(&i.to_be_bytes())).collect();
        assert!(hit.len() > 1, "all keys landed on one shard");
    }

    #[test]
    fn writes_round_trip_across_shards() {
        let mut store = Store::open(small_opts(4)).unwrap();
        for i in 0..200u64 {
            let mut b = WriteBatch::new();
            b.put(format!("key{i:04}").as_bytes(), format!("val{i}").as_bytes());
            store.write(&WriteOptions::default(), b).unwrap();
        }
        for i in 0..200u64 {
            let got = store.get(&ReadOptions::default(), format!("key{i:04}").as_bytes()).unwrap();
            assert_eq!(got.as_deref(), Some(format!("val{i}").as_bytes()), "key{i:04}");
        }
    }

    #[test]
    fn leader_coalesces_followers_into_one_group() {
        let mut store = Store::open(small_opts(1)).unwrap();
        let mut tickets = Vec::new();
        for i in 0..8u64 {
            let mut b = WriteBatch::new();
            b.put(format!("k{i}").as_bytes(), b"v");
            tickets.push(store.enqueue(&WriteOptions::default(), &b));
        }
        assert_eq!(store.pending(), 8);
        for t in &tickets {
            assert!(store.take_outcome(*t).is_none(), "nothing committed before pump");
        }
        let groups = store.pump().unwrap();
        assert_eq!(groups, 1, "one leader carries all 8 batches");
        assert_eq!(store.pending(), 0);
        let end = store.take_outcome(tickets[0]).unwrap();
        for t in &tickets[1..] {
            assert_eq!(store.take_outcome(*t), Some(end), "followers inherit the leader's outcome");
        }
        assert_eq!(store.take_outcome(tickets[0]), None, "a ticket redeems once");
        assert_eq!(store.stats().groups, 1);
        assert_eq!(store.stats().batches, 8);
    }

    #[test]
    fn count_budget_splits_groups() {
        let mut store =
            Store::open(StoreOptions { group_budget_count: 3, ..small_opts(1) }).unwrap();
        for i in 0..7u64 {
            let mut b = WriteBatch::new();
            b.put(format!("k{i}").as_bytes(), b"v");
            store.enqueue(&WriteOptions::default(), &b);
        }
        store.drain().unwrap();
        // 7 batches under a count budget of 3 → groups of 3, 3, 1.
        assert_eq!(store.stats().groups, 3);
        assert_eq!(store.stats().batches, 7);
    }

    #[test]
    fn byte_budget_splits_groups() {
        let mut store = Store::open(small_opts(1)).unwrap();
        for i in 0..4u64 {
            let mut b = WriteBatch::new();
            b.put(format!("k{i}").as_bytes(), &[0u8; 600 << 10]);
            store.enqueue(&WriteOptions::default(), &b);
        }
        store.drain().unwrap();
        // ~600 KiB each under the 1 MiB budget → no coalescing.
        assert_eq!(store.stats().groups, 4);
    }

    #[test]
    fn synced_follower_never_rides_buffered_leader() {
        let mut store = Store::open(small_opts(1)).unwrap();
        let mut b1 = WriteBatch::new();
        b1.put(b"a", b"1");
        let mut b2 = WriteBatch::new();
        b2.put(b"b", b"2");
        store.enqueue(&WriteOptions::buffered(), &b1);
        let t2 = store.enqueue(&WriteOptions::synced(), &b2);
        let groups = store.pump().unwrap();
        assert_eq!(groups, 1, "the synced batch must not join the buffered leader");
        assert!(store.take_outcome(t2).is_none());
        store.drain().unwrap();
        assert!(store.take_outcome(t2).is_some());
        assert_eq!(store.stats().groups, 2);
    }

    #[test]
    fn buffered_follower_rides_synced_leader() {
        let mut store = Store::open(small_opts(1)).unwrap();
        let mut b1 = WriteBatch::new();
        b1.put(b"a", b"1");
        let mut b2 = WriteBatch::new();
        b2.put(b"b", b"2");
        store.enqueue(&WriteOptions::synced(), &b1);
        store.enqueue(&WriteOptions::buffered(), &b2);
        assert_eq!(store.pump().unwrap(), 1);
        assert_eq!(store.stats().batches, 2, "buffered follower upgraded for free");
    }

    #[test]
    fn multi_shard_batch_completes_when_every_part_lands() {
        let mut store = Store::open(small_opts(4)).unwrap();
        let mut b = WriteBatch::new();
        for i in 0..64u64 {
            b.put(format!("key{i}").as_bytes(), b"v");
        }
        let t = store.enqueue(&WriteOptions::default(), &b);
        // One pump commits one group per shard — with 64 keys over 4
        // shards every shard holds exactly one part, so the ticket lands.
        store.pump().unwrap();
        let end = store.take_outcome(t).expect("every shard committed its part");
        assert!(end > Nanos::ZERO);
        for i in 0..64u64 {
            let got = store.get(&ReadOptions::default(), format!("key{i}").as_bytes()).unwrap();
            assert_eq!(got.as_deref(), Some(&b"v"[..]));
        }
    }

    #[test]
    fn redeemed_tickets_are_forgotten() {
        let mut store = Store::open(small_opts(2)).unwrap();
        let empty = WriteBatch::new();
        for i in 0..10_000u64 {
            // Single-shard, two-shard and (every 100th) empty batches: the
            // three ways a ticket's entries are created.
            let mut b = WriteBatch::new();
            b.put(format!("key{:03}", i % 500).as_bytes(), b"v");
            if i % 3 == 0 {
                b.put(format!("also{:03}", i % 499).as_bytes(), b"w");
            }
            let batch = if i % 100 == 99 { &empty } else { &b };
            let t = store.enqueue(&WriteOptions::buffered(), batch);
            store.drain().unwrap();
            assert!(store.take_outcome(t).is_some(), "ticket {i} completed");
            assert!(store.take_outcome(t).is_none(), "ticket {i} redeems once");
        }
        assert!(store.outcomes.is_empty(), "{} outcomes kept", store.outcomes.len());
        assert!(store.parts.is_empty(), "{} part counts kept", store.parts.len());
    }

    #[test]
    fn per_shard_order_is_arrival_order() {
        let mut store = Store::open(small_opts(2)).unwrap();
        // Three writers overwrite the same key; the last enqueued value
        // must win on its shard.
        for (i, v) in [b"first", b"secnd", b"third"].iter().enumerate() {
            let mut b = WriteBatch::new();
            b.put(b"contended", *v);
            let _ = i;
            store.enqueue(&WriteOptions::default(), &b);
        }
        store.drain().unwrap();
        let got = store.get(&ReadOptions::default(), b"contended").unwrap();
        assert_eq!(got.as_deref(), Some(&b"third"[..]));
    }

    #[test]
    fn empty_batch_is_durable_immediately() {
        let mut store = Store::open(small_opts(2)).unwrap();
        let t = store.enqueue(&WriteOptions::default(), &WriteBatch::new());
        assert!(store.take_outcome(t).is_some());
        assert_eq!(store.pending(), 0);
    }

    #[test]
    fn snapshot_read_options_are_rejected() {
        let mut store = Store::open(small_opts(2)).unwrap();
        let mut b = WriteBatch::new();
        b.put(b"k", b"v");
        store.write(&WriteOptions::default(), b).unwrap();
        let snap = store.shard_db_mut(0).snapshot();
        let err = store.get(&ReadOptions::at(&snap), b"k").unwrap_err();
        assert!(matches!(err, Error::Usage(_)), "{err}");
    }

    #[test]
    fn scan_merges_shards_in_sorted_order_and_hides_tombstones() {
        let mut store = Store::open(small_opts(4)).unwrap();
        for i in 0..300u64 {
            let mut b = WriteBatch::new();
            b.put(format!("key{i:03}").as_bytes(), format!("val{i}").as_bytes());
            store.enqueue(&WriteOptions::default(), &b);
        }
        store.drain().unwrap();
        let mut dels = WriteBatch::new();
        for i in (0..300u64).step_by(7) {
            dels.delete(format!("key{i:03}").as_bytes());
        }
        store.write(&WriteOptions::default(), dels).unwrap();
        let before = store.clock().now();
        let r = store.scan(&ReadOptions::default(), &ScanOptions::all()).unwrap();
        let expected: Vec<Vec<u8>> =
            (0..300u64).filter(|i| i % 7 != 0).map(|i| format!("key{i:03}").into_bytes()).collect();
        let got: Vec<Vec<u8>> = r.rows.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(got, expected, "merge must be globally sorted with tombstones hidden");
        assert_eq!(r.count, expected.len() as u64);
        assert!(r.resume.is_none(), "unbounded scan must not truncate");
        assert!(store.clock().now() > before, "scans cost virtual time");
    }

    #[test]
    fn scan_supports_limit_prefix_and_resume() {
        let mut store = Store::open(small_opts(3)).unwrap();
        for i in 0..100u64 {
            let mut b = WriteBatch::new();
            b.put(format!("key{i:02}").as_bytes(), b"v");
            store.enqueue(&WriteOptions::default(), &b);
        }
        store.drain().unwrap();
        // Forward pages of 30, chained through resume keys, cover the
        // keyspace exactly once in order.
        let mut seen = Vec::new();
        let mut cursor: Option<Vec<u8>> = Some(b"key".to_vec());
        while let Some(start) = cursor {
            let sopts = ScanOptions::starting_at(&start).with_limit(30);
            let page = store.scan(&ReadOptions::default(), &sopts).unwrap();
            assert!(page.rows.len() <= 30);
            seen.extend(page.rows.iter().map(|(k, _)| k.clone()));
            cursor = page.resume;
        }
        assert_eq!(seen.len(), 100);
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "strictly ascending, no repeats");
        // Prefix narrows the range; count_only suppresses rows.
        let p = store
            .scan(&ReadOptions::default(), &ScanOptions::all().with_prefix(b"key1").counting())
            .unwrap();
        assert!(p.rows.is_empty(), "count_only materialises nothing");
        assert_eq!(p.count, 10, "key10..key19");
    }

    #[test]
    fn pinned_scan_matches_brute_force_merge_despite_concurrent_writes() {
        let mut store = Store::open(small_opts(3)).unwrap();
        let mut state = 0x9e37_79b9_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        for round in 0..4 {
            // Mutate: a pseudo-random mix of puts and deletes over a
            // keyspace that straddles every shard boundary.
            for _ in 0..120 {
                let r = next();
                let k = format!("key{:03}", r % 150);
                let mut b = WriteBatch::new();
                if r % 5 == 0 {
                    b.delete(k.as_bytes());
                } else {
                    b.put(k.as_bytes(), format!("r{round}-{r}").as_bytes());
                }
                store.enqueue(&WriteOptions::default(), &b);
            }
            store.drain().unwrap();
            let snaps = store.pin_snapshots();
            // Brute-force oracle: walk each shard's own iterator at its
            // pin and merge by sorting (keys are unique across shards).
            let mut expected = Vec::new();
            for (i, snap) in snaps.iter().enumerate() {
                let mut it = store.shard_db_mut(i).iter(&ReadOptions::at(snap)).unwrap();
                it.seek_to_first().unwrap();
                while it.valid() {
                    expected.push((it.key().to_vec(), it.value().to_vec()));
                    it.next().unwrap();
                }
            }
            expected.sort();
            // Writes and deletes after the pin must be invisible. The
            // sentinel is round-tagged: earlier rounds' sentinels are
            // legitimate pre-pin state by now.
            let sentinel = format!("AFTER-PIN-{round}").into_bytes();
            for j in 0..150u64 {
                let mut b = WriteBatch::new();
                if j % 3 == 0 {
                    b.delete(format!("key{j:03}").as_bytes());
                } else {
                    b.put(format!("key{j:03}").as_bytes(), &sentinel);
                }
                store.enqueue(&WriteOptions::default(), &b);
            }
            store.drain().unwrap();
            let got = store.scan_at(&snaps, &ScanOptions::all()).unwrap();
            assert_eq!(got.rows, expected, "round {round}: torn cross-shard scan");
            assert!(got.rows.iter().all(|(_, v)| *v != sentinel));
            store.release_snapshots(snaps);
        }
    }

    #[test]
    fn scan_rejects_foreign_snapshots_and_mismatched_pins() {
        let mut store = Store::open(small_opts(2)).unwrap();
        let snap = store.shard_db_mut(0).snapshot();
        let err = store.scan(&ReadOptions::at(&snap), &ScanOptions::all()).unwrap_err();
        assert!(matches!(err, Error::Usage(_)), "{err}");
        let err = store.scan_at(&[], &ScanOptions::all()).unwrap_err();
        assert!(matches!(err, Error::Usage(_)), "{err}");
        store.shard_db_mut(0).release_snapshot(snap);
    }

    #[test]
    fn identical_runs_are_deterministic() {
        let run = || {
            let mut store = Store::open(small_opts(3)).unwrap();
            for i in 0..100u64 {
                let mut b = WriteBatch::new();
                b.put(format!("key{i:03}").as_bytes(), &[i as u8; 100]);
                store.enqueue(&WriteOptions::default(), &b);
                if i % 5 == 4 {
                    store.pump().unwrap();
                }
            }
            store.drain().unwrap();
            (store.clock().now(), store.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn group_commit_emits_trace_spans() {
        let sink = TraceSink::new();
        let mut store = Store::open(small_opts(1)).unwrap();
        store.set_trace_sink(sink.clone());
        for i in 0..4u64 {
            let mut b = WriteBatch::new();
            b.put(format!("k{i}").as_bytes(), b"v");
            store.enqueue(&WriteOptions::default(), &b);
        }
        store.drain().unwrap();
        let h = sink.histogram(EventClass::GroupCommit);
        assert_eq!(h.count(), 1, "one coalesced group, one span");
        assert!(sink.events() > 1, "shard engines share the sink");
    }

    #[test]
    fn group_commit_span_parents_under_leader_and_links_followers() {
        let sink = TraceSink::new();
        let mut store = Store::open(small_opts(1)).unwrap();
        store.set_trace_sink(sink.clone());
        let leader_root = sink.child_ctx(TraceCtx::NONE);
        let follower_root = sink.child_ctx(TraceCtx::NONE);
        let mut b1 = WriteBatch::new();
        b1.put(b"a", b"1");
        let mut b2 = WriteBatch::new();
        b2.put(b"b", b"2");
        store.enqueue_ctx(&WriteOptions::default(), &b1, leader_root);
        store.enqueue_ctx(&WriteOptions::default(), &b2, follower_root);
        store.drain().unwrap();
        let (events, links) = sink.snapshot();
        let group =
            events.iter().find(|e| e.class == EventClass::GroupCommit).expect("one group span");
        assert_eq!(group.trace, leader_root.trace, "group joins the leader's trace");
        assert_eq!(group.parent, leader_root.span);
        // The engine write it issued nests underneath.
        let put = events.iter().find(|e| e.class == EventClass::EnginePut).unwrap();
        assert_eq!(put.parent, group.span);
        assert_eq!(put.trace, leader_root.trace);
        // The coalesced follower's root grafts onto the group span.
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].from, follower_root.span);
        assert_eq!(links[0].to, group.span);
        // Shipping off: nothing captured, but the record ctx plumbing is
        // covered by shipped_records_carry_group_ctx below.
    }

    #[test]
    fn shipped_records_carry_group_ctx() {
        let sink = TraceSink::new();
        let mut store = Store::open(small_opts(1)).unwrap();
        store.set_trace_sink(sink.clone());
        store.enable_shipping();
        let root = sink.child_ctx(TraceCtx::NONE);
        let mut b = WriteBatch::new();
        b.put(b"k", b"v");
        store.enqueue_ctx(&WriteOptions::default(), &b, root);
        store.drain().unwrap();
        let shipped = store.take_shipped();
        assert_eq!(shipped.len(), 1);
        let rec = &shipped[0];
        assert!(!rec.ctx.is_none());
        assert_eq!(rec.ctx.trace, root.trace, "record carries the group span's identity");
        let (events, _) = sink.snapshot();
        let group = events.iter().find(|e| e.class == EventClass::GroupCommit).unwrap();
        assert_eq!(rec.ctx.span, group.span);
    }

    #[test]
    fn scoped_metrics_namespace_per_shard() {
        let hub = MetricsHub::new().with_period(Nanos::from_millis(1));
        let mut store = Store::open(small_opts(2)).unwrap();
        store.set_metrics_hub(&hub);
        for i in 0..50u64 {
            let mut b = WriteBatch::new();
            b.put(format!("key{i}").as_bytes(), &[0u8; 200]);
            store.enqueue(&WriteOptions::default(), &b);
        }
        store.drain().unwrap();
        store.wait_idle().unwrap();
        let tl = hub.timeline();
        assert!(
            tl.series.iter().any(|s| s.name.starts_with("shard0.")),
            "expected shard0.* series"
        );
        assert!(
            tl.series.iter().any(|s| s.name.starts_with("shard1.")),
            "expected shard1.* series"
        );
    }

    #[test]
    fn shipping_is_off_by_default() {
        let mut store = Store::open(small_opts(2)).unwrap();
        let mut b = WriteBatch::new();
        b.put(b"k", b"v");
        store.write(&WriteOptions::default(), b).unwrap();
        assert!(store.take_shipped().is_empty());
        assert_eq!(store.stats().shipped_records, 0);
    }

    #[test]
    fn shipped_records_chain_per_shard_and_decode() {
        let mut store = Store::open(small_opts(2)).unwrap();
        store.enable_shipping();
        for i in 0..40u64 {
            let mut b = WriteBatch::new();
            b.put(format!("key{i:02}").as_bytes(), format!("val{i}").as_bytes());
            store.enqueue(&WriteOptions::default(), &b);
            if i % 8 == 7 {
                store.pump().unwrap();
            }
        }
        store.drain().unwrap();
        let shipped = store.take_shipped();
        assert_eq!(store.stats().shipped_records, shipped.len() as u64);
        assert_eq!(shipped.len() as u64, store.stats().groups);
        // Per shard the records form a gap-free sequence chain, and each
        // payload decodes back to a batch tagged with the record's range.
        let mut next: Vec<u64> = vec![1; store.shards()];
        let mut applied = 0u64;
        for rec in &shipped {
            assert_eq!(rec.first_seq, next[rec.shard], "gap on shard {}", rec.shard);
            let batch = WriteBatch::from_payload(rec.payload.clone()).unwrap();
            assert_eq!(batch.sequence(), rec.first_seq);
            assert_eq!(rec.last_seq, rec.first_seq + batch.len() as u64 - 1);
            next[rec.shard] = rec.last_seq + 1;
            applied += batch.len() as u64;
        }
        assert_eq!(applied, 40, "every write shipped exactly once");
        // shard_seqs reports exactly where each chain stopped.
        let seqs = store.shard_seqs();
        for (i, seq) in seqs.iter().enumerate() {
            assert_eq!(*seq, next[i] - 1, "shard {i}");
        }
        // Drained; a second take returns nothing until new commits land.
        assert!(store.take_shipped().is_empty());
    }
}
