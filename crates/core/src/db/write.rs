//! The foreground write path: batches into the WAL and memtable, LevelDB's
//! write throttling, memtable rotation, and snapshots.

use nob_sim::Nanos;
use nob_trace::{EventClass, StallKind};

use crate::options::WriteOptions;
use crate::version::{file_path, FileKind};
use crate::wal::LogWriter;
use crate::{DbError, Result, SequenceNumber};

use super::{Db, Snapshot, WriteBatch};

/// LevelDB's foreground delay, once per write, while `L0` is at the
/// slowdown trigger.
const SLOWDOWN_DELAY: Nanos = Nanos::from_millis(1);

impl Db {
    /// Applies `batch` atomically — the canonical write entry point.
    ///
    /// The write is timed on the engine's [`SharedClock`](nob_sim::SharedClock)
    /// (see [`Db::clock`]): it starts at the clock's current instant and the
    /// clock ends up at the instant the write returned control. The whole
    /// batch becomes one WAL record with consecutive sequence numbers, so
    /// after a crash either every operation is recovered or none is.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors, and returns the recorded error of a
    /// failed background job (see [`Db::wait_idle`]).
    pub fn write(&mut self, wopts: &WriteOptions, batch: WriteBatch) -> Result<Nanos> {
        self.write_at(self.clock.now(), wopts, batch)
    }

    /// [`Db::write`] started at the caller's instant `now`, not the shared
    /// clock's; the write begins once this engine's writer is free
    /// (`max(now, writer_free)`) and the shared clock is moved up to its end.
    ///
    /// With [`Db::get_at_time`] and [`Db::iter_at`] this is the third — and
    /// last — "an actor's instant behind the shared clock" entry: an actor
    /// with a timeline of its own issues work at *its* instant even when
    /// another actor has already pushed the shared clock past it. Each
    /// `nob-store` shard is such an actor (one scheduler round starts every
    /// shard's group at the round's start), and so is each client thread
    /// of the `nob-workloads` drivers.
    ///
    /// # Errors
    ///
    /// Same as [`Db::write`].
    pub fn write_at(
        &mut self,
        now: Nanos,
        wopts: &WriteOptions,
        batch: WriteBatch,
    ) -> Result<Nanos> {
        if batch.is_empty() {
            return Ok(now);
        }
        let bytes = batch.byte_size();
        // Stalls, WAL appends and journal commits nest under the
        // engine_put span.
        self.traced(
            EventClass::EnginePut,
            now,
            |db| db.write_batch_inner(now, batch, *wopts),
            |end| (*end, bytes),
        )
    }

    fn write_batch_inner(
        &mut self,
        now: Nanos,
        mut batch: WriteBatch,
        wopts: WriteOptions,
    ) -> Result<Nanos> {
        // LevelDB serializes writers on a mutex.
        let mut now = now.max(self.writer_free);
        now = self.make_room(now)?;
        batch.set_sequence(self.versions.last_sequence + 1);
        self.versions.last_sequence += batch.len() as u64;
        // The batch is the record's payload: framed, never re-encoded.
        let record = self.wal_writer.encode_record(batch.payload());
        now = self.fs.append(self.wal_handle, &record, now)?;
        if wopts.sync {
            now = self.fs.fsync(self.wal_handle, now)?;
        }
        batch.insert_into(&mut self.mem);
        if let Some(hot) = &mut self.hot {
            for (_, key, _) in batch.ops() {
                hot.record(key);
            }
        }
        now = now + self.opts.cpu.put + self.opts.extra_op_cpu;
        self.stats.writes += batch.len() as u64;
        self.writer_free = now;
        self.clock.advance_to(now);
        Ok(now)
    }

    /// Pins the current state as a [`Snapshot`].
    pub fn snapshot(&mut self) -> Snapshot {
        let id = self.next_snapshot_id;
        self.next_snapshot_id += 1;
        let seq = self.versions.last_sequence;
        self.snapshots.insert(id, seq);
        Snapshot { id, seq }
    }

    /// Releases a snapshot, allowing compactions to drop the old entry
    /// versions it pinned.
    pub fn release_snapshot(&mut self, s: Snapshot) {
        self.snapshots.remove(&s.id);
    }

    /// The oldest sequence number any reader may still need.
    pub(super) fn smallest_snapshot(&self) -> SequenceNumber {
        self.snapshots.values().copied().min().unwrap_or(self.versions.last_sequence)
    }

    /// Blocks the writer, in virtual time, until the memtable has room:
    /// LevelDB's `MakeRoomForWrite`.
    fn make_room(&mut self, now: Nanos) -> Result<Nanos> {
        self.pump(now)?;
        let mut now = now;
        let mut slowed = false;
        loop {
            self.check_background()?;
            let l0 = self.versions.current().num_files(0);
            if !slowed && l0 >= self.opts.l0_slowdown_trigger {
                slowed = true;
                self.stats.slowdowns += 1;
                let until = now + SLOWDOWN_DELAY;
                self.trace_stall(StallKind::Slowdown, now, until);
                now = until;
                self.pump(now)?;
                continue;
            }
            if self.mem.approximate_bytes() < self.opts.write_buffer_size {
                return Ok(now);
            }
            // What the writer waits for, and the event that ends the wait.
            let (kind, until) = if self.imm.is_some() {
                // The in-flight minor compaction.
                (StallKind::Memtable, self.imm_done_at.or_else(|| self.events.next_at()))
            } else if l0 >= self.opts.l0_stop_trigger {
                self.maybe_schedule(now);
                (StallKind::L0Stop, self.events.next_at())
            } else {
                self.switch_memtable(now);
                continue;
            };
            let Some(until) = until else {
                return Err(DbError::InvalidDb(format!(
                    "stalled on {} with no background work",
                    kind.name()
                )));
            };
            if until > now {
                self.stats.stalls += 1;
                self.stats.stall_time += until - now;
                self.trace_stall(kind, now, until);
                now = until;
            }
            self.pump(now)?;
        }
    }

    /// Emits the stall span over `[from, until]` with the in-flight
    /// compaction stage activity overlapping the window as its children,
    /// so the critical-path analyzer shows *what the background was doing*
    /// while the foreground waited (children only inside request scope).
    fn trace_stall(&self, kind: StallKind, from: Nanos, until: Nanos) {
        let Some(sink) = &self.trace else { return };
        let ctx = sink.emit_stall(kind, from, until);
        if ctx.is_none() {
            return;
        }
        for iv in self.sched.stall_activity(from, until) {
            sink.emit_ctx(iv.class, iv.start, iv.end, iv.bytes, sink.child_ctx(ctx));
        }
    }

    /// Seals the current memtable, opens a fresh WAL, and schedules the
    /// minor compaction.
    pub(super) fn switch_memtable(&mut self, now: Nanos) {
        debug_assert!(self.imm.is_none());
        let old_wal_number = self.wal_number;
        let old_wal_path = file_path(&self.dir, FileKind::Wal, old_wal_number);
        let new_number = self.versions.new_file_number();
        let new_path = file_path(&self.dir, FileKind::Wal, new_number);
        let handle = self.fs.create(&new_path, now).expect("fresh WAL name is unique");
        self.wal_handle = handle;
        self.wal_number = new_number;
        self.wal_writer = LogWriter::new();
        self.imm = Some(std::mem::take(&mut self.mem));
        self.schedule_minor(now, (old_wal_number, old_wal_path), new_number);
    }
}
