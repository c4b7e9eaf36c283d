//! The replication follower: applies shipped records to its own store,
//! serves bounded-staleness reads, and can be promoted to leader.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nob_sim::Nanos;
use nob_store::Store;
use nob_trace::{EventClass, TraceSink};
use noblsm::{Error, ReadOptions, Result, WriteBatch, WriteOptions};

use crate::changelog::{ChangeLog, LogRecord};
use crate::leader::Leader;

/// A follower owns a complete store (same shard count as its leader) and
/// applies the leader's shipped records in sequence order. Because the
/// records are the leader's exact WAL batch payloads and both engines
/// assign sequence numbers contiguously, the follower's per-shard
/// `last_sequence` converges on the leader's — the apply path *checks*
/// this on every record rather than trusting it.
///
/// The follower also retains every applied record in its own
/// [`ChangeLog`], so a changefeed subscriber can resume against a
/// promoted follower exactly where it left off with the old leader.
pub struct Follower {
    store: Store,
    log: ChangeLog,
    epoch: u64,
    /// The leader-clock instant of the last applied record, per shard.
    freshness: Vec<Nanos>,
    /// The leader clock's instant as of the last heartbeat.
    leader_now: Nanos,
    /// Records applied from the leader's stream (shared with the metrics
    /// counter).
    applied_total: Arc<AtomicU64>,
    /// Payload bytes applied (shared with the metrics counter).
    applied_bytes: Arc<AtomicU64>,
    trace: Option<TraceSink>,
}

impl Follower {
    /// Wraps `store` as a follower of an epoch-`epoch` leader.
    pub fn new(store: Store, epoch: u64) -> Follower {
        let shards = store.shards();
        Follower {
            store,
            log: ChangeLog::new(shards),
            epoch,
            freshness: vec![Nanos::ZERO; shards],
            leader_now: Nanos::ZERO,
            applied_total: Arc::new(AtomicU64::new(0)),
            applied_bytes: Arc::new(AtomicU64::new(0)),
            trace: None,
        }
    }

    /// The epoch this follower believes is current.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The wrapped store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The next sequence this follower needs on `shard` — what it
    /// subscribes from.
    pub(crate) fn next_seq(&self, shard: usize) -> u64 {
        self.store.shard_db(shard).last_sequence() + 1
    }

    /// Last applied sequence per shard, in shard order.
    pub fn shard_seqs(&self) -> Vec<u64> {
        self.store.shard_seqs()
    }

    /// Applies one shipped record. Returns `Ok(false)` when the record is
    /// a duplicate of something already applied (harmless redelivery
    /// after a reconnect), `Ok(true)` when it advanced the shard.
    ///
    /// # Errors
    ///
    /// [`noblsm::Error::Replication`] when the record carries a stale
    /// epoch, leaves a sequence gap, fails to decode, or the engine's
    /// sequence assignment diverges from the record's tags; engine write
    /// errors pass through.
    pub(crate) fn apply(&mut self, rec: &LogRecord) -> Result<bool> {
        if rec.epoch < self.epoch {
            return Err(Error::Replication(format!(
                "record from stale epoch {} (follower is at epoch {})",
                rec.epoch, self.epoch
            )));
        }
        // A higher epoch means a new leader was promoted upstream; the
        // follower adopts it and keeps applying.
        self.epoch = rec.epoch;
        if rec.shard >= self.store.shards() {
            return Err(Error::Replication(format!(
                "record for shard {} but the follower has {} shards",
                rec.shard,
                self.store.shards()
            )));
        }
        let applied = self.store.shard_db(rec.shard).last_sequence();
        if rec.last_seq <= applied {
            return Ok(false);
        }
        if rec.first_seq != applied + 1 {
            return Err(Error::Replication(format!(
                "sequence gap on shard {}: applied through {applied}, record starts at {}",
                rec.shard, rec.first_seq
            )));
        }
        // The shipped payload is the batch: checked once, then written as
        // it stands, so the follower's WAL record is the leader's.
        let batch = WriteBatch::from_payload(rec.payload.clone())
            .map_err(|e| Error::Replication(format!("undecodable shipped payload: {e}")))?;
        if batch.sequence() != rec.first_seq {
            return Err(Error::Replication(format!(
                "payload seq {} disagrees with record tag {}",
                batch.sequence(),
                rec.first_seq
            )));
        }
        let start = self.store.clock().now();
        // The apply span parents under the record's ship span (the wire
        // carries its identity), so the engine write it provokes — and
        // its journal/FLUSH children — extend the originating request's
        // tree across the replica boundary.
        let scope = self.trace.as_ref().map(|sink| sink.open(Some(rec.ctx)));
        self.store.shard_db_mut(rec.shard).write(&WriteOptions::default(), batch)?;
        if let Some(scope) = scope {
            let end = self.store.clock().now();
            scope.close(EventClass::ReplApply, start, end, rec.payload.len() as u64);
        }
        let landed = self.store.shard_db(rec.shard).last_sequence();
        if landed != rec.last_seq {
            return Err(Error::Replication(format!(
                "divergence on shard {}: engine landed at seq {landed}, record ends at {}",
                rec.shard, rec.last_seq
            )));
        }
        self.log.append(rec.clone())?;
        self.freshness[rec.shard] = rec.committed_at;
        self.leader_now = self.leader_now.max(rec.committed_at);
        self.applied_total.fetch_add(1, Ordering::Relaxed);
        self.applied_bytes.fetch_add(rec.payload.len() as u64, Ordering::Relaxed);
        Ok(true)
    }

    /// Observes a leader heartbeat: adopts a higher epoch and advances
    /// the staleness clock.
    ///
    /// # Errors
    ///
    /// [`noblsm::Error::Replication`] when the heartbeat carries a stale
    /// epoch — a fenced ex-leader is still talking and must be ignored.
    pub(crate) fn observe_heartbeat(&mut self, epoch: u64, leader_now: Nanos) -> Result<()> {
        if epoch < self.epoch {
            return Err(Error::Replication(format!(
                "heartbeat from stale epoch {epoch} (follower is at epoch {})",
                self.epoch
            )));
        }
        self.epoch = epoch;
        self.leader_now = self.leader_now.max(leader_now);
        Ok(())
    }

    /// How far behind the leader clock `shard`'s applied state is: the
    /// last heartbeat instant minus the commit instant of the last
    /// applied record. Zero until the first heartbeat arrives.
    pub fn staleness(&self, shard: usize) -> Nanos {
        self.leader_now.saturating_sub(self.freshness[shard])
    }

    /// Follower read: a point lookup against the follower's own store,
    /// served only while the owning shard lags the leader by at most
    /// `max_staleness` (`None` accepts any lag).
    ///
    /// # Errors
    ///
    /// [`noblsm::Error::Replication`] when the owning shard's staleness
    /// exceeds the requested bound; store/engine errors pass through.
    pub(crate) fn get(
        &mut self,
        key: &[u8],
        max_staleness: Option<Nanos>,
    ) -> Result<Option<Vec<u8>>> {
        if let Some(bound) = max_staleness {
            let shard = self.store.shard_of(key);
            let lag = self.staleness(shard);
            if lag > bound {
                return Err(Error::Replication(format!(
                    "shard {shard} is {lag} behind the leader (bound {bound})"
                )));
            }
        }
        self.store.get(&ReadOptions::default(), key)
    }

    /// Promotes this follower to leader at `epoch() + 1`, carrying its
    /// store and retained change log. The caller is responsible for
    /// delivering the fence (the new epoch) to the old leader — until
    /// then, safety rests on the old leader being dead.
    pub fn promote(self) -> Leader {
        let epoch = self.epoch + 1;
        let mut leader = Leader::with_log(self.store, self.log, epoch);
        if let Some(sink) = self.trace {
            leader.set_trace_sink(sink);
        }
        leader
    }

    /// Installs `sink` on the store stack and the follower's own
    /// `repl_apply` spans.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.store.set_trace_sink(sink.clone());
        self.trace = Some(sink);
    }
}
