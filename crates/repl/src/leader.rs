//! The replication leader: a [`Store`] whose committed groups are
//! absorbed into a [`ChangeLog`] and served to subscribers, under an
//! epoch that fences it out after failover.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nob_sim::Nanos;
use nob_store::{ShippedRecord, Store};
use nob_trace::{EventClass, TraceCtx, TraceSink};
use noblsm::{Error, Result, WriteBatch, WriteOptions};

use crate::changelog::{ChangeLog, LogRecord};

/// A leader wraps a store with shipping enabled. Every committed group is
/// absorbed into the change log under the leader's
/// current epoch; [`fence`](Leader::fence)d leaders refuse writes, which
/// is the safety half of failover (the liveness half is
/// [`Follower::promote`](crate::Follower::promote)).
pub struct Leader {
    store: Store,
    log: ChangeLog,
    epoch: u64,
    fenced: bool,
    /// Highest acknowledged sequence per shard.
    acked: Vec<u64>,
    /// Most recent per-record replication lag, in nanos (shared with the
    /// metrics gauge).
    lag_nanos: Arc<AtomicU64>,
    /// Records absorbed into the change log (shared with the metrics
    /// counter).
    shipped_total: Arc<AtomicU64>,
    /// Highest acknowledged sequence across shards (shared with the
    /// metrics gauge).
    acked_seq_max: Arc<AtomicU64>,
    trace: Option<TraceSink>,
}

impl Leader {
    /// Wraps `store` as the epoch-`epoch` leader, enabling group shipping.
    /// Groups committed before this call are not in the change log.
    pub fn new(store: Store, epoch: u64) -> Leader {
        let log = ChangeLog::new(store.shards());
        Leader::with_log(store, log, epoch)
    }

    /// Re-wraps a promoted follower's store and log under `epoch`
    /// (internal to [`Follower::promote`](crate::Follower::promote)).
    pub(crate) fn with_log(mut store: Store, log: ChangeLog, epoch: u64) -> Leader {
        store.enable_shipping();
        let shards = store.shards();
        Leader {
            store,
            log,
            epoch,
            fenced: false,
            acked: vec![0; shards],
            lag_nanos: Arc::new(AtomicU64::new(0)),
            shipped_total: Arc::new(AtomicU64::new(0)),
            acked_seq_max: Arc::new(AtomicU64::new(0)),
            trace: None,
        }
    }

    /// The current leadership epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether this leader has been fenced by a higher epoch.
    pub fn fenced(&self) -> bool {
        self.fenced
    }

    /// The wrapped store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Mutable access to the wrapped store, for reads, ticking and crash
    /// injection. Writes issued directly are still captured — the next
    /// `absorb` folds them into the change log — but
    /// they bypass the fencing check, so route writes through
    /// [`write`](Leader::write) whenever the epoch matters.
    pub fn store_mut(&mut self) -> &mut Store {
        &mut self.store
    }

    /// The retained change log.
    pub fn log(&self) -> &ChangeLog {
        &self.log
    }

    /// Highest acknowledged sequence per shard.
    pub fn acked_seqs(&self) -> &[u64] {
        &self.acked
    }

    /// The most recently measured per-record replication lag.
    pub fn replication_lag(&self) -> Nanos {
        Nanos::from_nanos(self.lag_nanos.load(Ordering::Relaxed))
    }

    fn check_fenced(&self) -> Result<()> {
        if self.fenced {
            return Err(Error::Replication(format!(
                "leader fenced: epoch {} is no longer current",
                self.epoch
            )));
        }
        Ok(())
    }

    /// Writes `batch` through the store's group commit and absorbs the
    /// shipped records into the change log.
    ///
    /// # Errors
    ///
    /// [`noblsm::Error::Replication`] when fenced; engine errors pass
    /// through.
    pub fn write(&mut self, wopts: &WriteOptions, batch: WriteBatch) -> Result<Nanos> {
        self.check_fenced()?;
        let end = self.store.write(wopts, batch)?;
        self.absorb()?;
        Ok(end)
    }

    /// Enqueues without committing; [`drain`](Leader::drain) commits
    /// what is queued.
    ///
    /// # Errors
    ///
    /// [`noblsm::Error::Replication`] when fenced.
    pub fn enqueue(
        &mut self,
        wopts: &WriteOptions,
        batch: &WriteBatch,
    ) -> Result<nob_store::Ticket> {
        self.check_fenced()?;
        Ok(self.store.enqueue(wopts, batch))
    }

    /// Drains the store queue entirely, absorbing every committed group.
    ///
    /// # Errors
    ///
    /// [`noblsm::Error::Replication`] when fenced; store errors pass
    /// through.
    pub fn drain(&mut self) -> Result<Nanos> {
        self.check_fenced()?;
        let end = self.store.drain()?;
        self.absorb()?;
        Ok(end)
    }

    /// Folds the store's shipped records into the change log under the
    /// current epoch, emitting one `repl_ship` span per record.
    ///
    /// # Errors
    ///
    /// [`noblsm::Error::Replication`] if a shipped record does not extend
    /// its shard's chain (cannot happen unless the store was mutated
    /// behind the leader's back between absorbs after a promotion).
    pub(crate) fn absorb(&mut self) -> Result<()> {
        let records = self.store.take_shipped();
        self.absorb_shipped(records)
    }

    /// Folds externally produced shipped records into the change log —
    /// the bridge for deployments where commits flow through a
    /// server-fronted store rather than the leader's own (the embedding
    /// layer drains that store's [`Store::take_shipped`] and hands the
    /// records here). The records must extend each shard's chain and the
    /// producing store must share this leader's clock for the lag and
    /// span timestamps to be meaningful.
    ///
    /// # Errors
    ///
    /// [`noblsm::Error::Replication`] if a record does not extend its
    /// shard's chain.
    pub fn absorb_shipped(&mut self, records: Vec<ShippedRecord>) -> Result<()> {
        let now = self.store.clock().now();
        for rec in records {
            let committed_at = rec.committed_at;
            let bytes = rec.payload.len() as u64;
            let mut lr = LogRecord::from_shipped(rec, self.epoch);
            if let Some(sink) = &self.trace {
                // The ship span is a child of the group-commit span that
                // produced the record; the log (and the wire) carry its
                // identity so the follower's apply span extends the same
                // tree.
                let ship = sink.child_ctx(lr.ctx);
                sink.emit_ctx(EventClass::ReplShip, committed_at, now, bytes, ship);
                lr.ctx = ship;
            }
            self.log.append(lr)?;
            self.shipped_total.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Observes `observed_epoch` from a peer; an epoch above the leader's
    /// own fences it permanently. Returns whether the leader is fenced
    /// after the observation.
    pub fn fence(&mut self, observed_epoch: u64) -> bool {
        if observed_epoch > self.epoch {
            self.fenced = true;
        }
        self.fenced
    }

    /// Records a subscriber acknowledgement up to `last_seq` on `shard`
    /// and measures the acked record's replication lag (commit → ack on
    /// the leader clock), emitting a `repl_ack` span. A stale ack (at or
    /// below a previous one) changes nothing.
    ///
    /// # Errors
    ///
    /// [`noblsm::Error::Replication`] when `shard` does not exist or
    /// `last_seq` does not end a record in the log: a peer acking what
    /// was never shipped must not move the bookkeeping.
    pub(crate) fn ack(&mut self, shard: usize, last_seq: u64) -> Result<()> {
        let rec = (shard < self.acked.len())
            .then(|| self.log.records_from(shard, last_seq).first())
            .flatten()
            .filter(|r| r.last_seq == last_seq);
        let Some(rec) = rec else {
            return Err(Error::Replication(format!(
                "ack of seq {last_seq} on shard {shard} ends no shipped record"
            )));
        };
        if last_seq <= self.acked[shard] {
            return Ok(());
        }
        self.acked[shard] = last_seq;
        self.acked_seq_max.fetch_max(last_seq, Ordering::Relaxed);
        let now = self.store.clock().now();
        let lag = now.saturating_sub(rec.committed_at);
        self.lag_nanos.store(lag.as_nanos(), Ordering::Relaxed);
        if let Some(sink) = &self.trace {
            // The ack window (commit → ack) covers the ship and apply
            // spans entirely, so it must be their *sibling* — a child of
            // the group-commit span — or it would swallow their
            // critical-path attribution. The log holds the ship span's
            // identity; its parent is the group span.
            let anchor = TraceCtx { trace: rec.ctx.trace, span: rec.ctx.parent, parent: 0 };
            let ack =
                if anchor.is_none() { sink.child_ctx(rec.ctx) } else { sink.child_ctx(anchor) };
            sink.emit_ctx(
                EventClass::ReplAck,
                rec.committed_at,
                now,
                rec.payload.len() as u64,
                ack,
            );
        }
        Ok(())
    }

    /// Installs `sink` on the store stack and the leader's own
    /// `repl_ship` / `repl_ack` spans.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.store.set_trace_sink(sink.clone());
        self.trace = Some(sink);
    }
}
