//! The JBD2 journal in `data=ordered` mode: the running transaction, the
//! commit timer, and the one commit routine behind both the full commit
//! and the fast commit.

use nob_sim::Nanos;
use nob_ssd::{FlushFault, WriteClass, WriteFault};
use nob_trace::EventClass;

use super::{CommitWindow, Ext4Fs, Inner};
use crate::inode::CommitEvent;
use crate::InodeId;

/// Size of one journal metadata block.
const JOURNAL_BLOCK: u64 = 4096;

/// Capacity of the circular JBD2 journal area in bytes (mkfs default for
/// large filesystems: 128 MiB). The simulation does not model journal
/// wrap-checkpointing; the metrics layer uses this to report free journal
/// space modulo the wrap.
const JOURNAL_CAPACITY: u64 = 128 << 20;

impl Ext4Fs {
    /// Sizes of the NobLSM kernel tables: `(pending, committed)` entry
    /// counts (`check_commit` registrations awaiting a commit, and inodes
    /// whose registered epoch has committed).
    pub(crate) fn kernel_table_sizes(&self) -> (usize, usize) {
        let g = self.lock();
        (g.pending.len(), g.committed.len())
    }

    /// Free space in the circular journal area, modulo wrap: the
    /// simulation does not model wrap-checkpoint stalls, so this reports
    /// `capacity - (journal_bytes mod capacity)` — the headroom an
    /// implicit checkpoint-on-wrap would leave.
    pub(crate) fn journal_free_bytes(&self) -> u64 {
        let g = self.lock();
        JOURNAL_CAPACITY - g.stats.journal_bytes % JOURNAL_CAPACITY
    }
}

impl Inner {
    pub(super) fn join_txn(&mut self, id: InodeId) {
        if !self.running.contains(&id) {
            self.running.push(id);
        }
    }

    pub(super) fn tick(&mut self, now: Nanos) {
        while self.next_commit_at <= now {
            let at = self.next_commit_at;
            self.next_commit_at += self.cfg.commit_interval;
            if !self.running.is_empty() {
                self.commit(at, false);
            }
        }
    }

    /// The fast-commit path: durably commits *one* inode without touching
    /// the rest of the running transaction, with one fast-commit journal
    /// block. The inode leaves the running transaction; other inodes keep
    /// waiting for the normal timer commit.
    pub(super) fn fast_commit_inode(&mut self, id: InodeId, at: Nanos) -> Nanos {
        self.running.retain(|&r| r != id);
        self.commit_inodes(&[id], at, true, true)
    }

    /// Commits the running transaction, starting at `at`. Returns the
    /// commit's completion instant (FLUSH end).
    pub(super) fn commit(&mut self, at: Nanos, sync: bool) -> Nanos {
        let txn = std::mem::take(&mut self.running);
        if txn.is_empty() {
            return at;
        }
        self.commit_inodes(&txn, at, sync, false)
    }

    /// Commits `txn` starting at `at`: a synchronous (fsync-driven) commit
    /// runs in the device's foreground class, a timer or threshold commit
    /// in the background class, and a `fast` one (always synchronous)
    /// writes one fast-commit block instead of the main journal's
    /// descriptor, metadata and commit blocks. Returns the FLUSH's end.
    fn commit_inodes(&mut self, txn: &[InodeId], at: Nanos, sync: bool, fast: bool) -> Nanos {
        // Open the commit's causal scope: ordered write-back, journal
        // blocks and the FLUSH barrier all become children of this span.
        let scope = self.trace.as_ref().map(|sink| sink.open(None));
        if sync {
            self.stats.sync_commits += 1;
        } else {
            self.stats.async_commits += 1;
        }
        // Phase 1 — data=ordered: write back all dirty data of the
        // transaction's inodes before any journal block, in the commit's
        // own class. The ordered contract also covers write-back issued
        // by *earlier* commits or the flusher that may still be in flight.
        let mut data_done = at;
        for &id in txn {
            let Some(inode) = self.inodes.get(&id).filter(|i| !i.deleted) else { continue };
            let written_back = inode.written_back;
            if sync && !fast {
                // A full synchronous commit does not wait behind the
                // flusher's queue: it promotes the inode's in-flight pages
                // and submits them itself in the foreground class,
                // crediting the background queue for the moved work.
                let p_now = inode.persisted_len_at(at).min(written_back);
                if p_now < written_back {
                    let end = self.data_write(id, p_now, written_back, at, true, true);
                    data_done = data_done.max(end);
                }
            } else if let Some(last) = inode.persisted.last_at() {
                data_done = data_done.max(last);
            }
            if let Some(end) = self.write_back(id, at, sync) {
                data_done = data_done.max(end);
            }
        }
        // Phase 2 — journal blocks, strictly after the ordered data: one
        // fast-commit record, or a descriptor, one metadata block per
        // inode and a commit record.
        let (class, blocks) =
            if fast { (WriteClass::FastCommit, 1) } else { (WriteClass::Journal, txn.len() + 2) };
        let jbytes = blocks as u64 * JOURNAL_BLOCK;
        let (jres, jfault) = self.ssd.write(data_done, jbytes, class, !sync);
        self.stats.journal_bytes += jbytes;
        // Phase 3 — FLUSH: the commit record's barrier.
        let (flush, ffault) = self.ssd.flush(jres.end, !sync);
        let t_commit = flush.end;
        let record_lost = jfault != WriteFault::None;
        let flush_dropped = ffault == FlushFault::DroppedAcked;
        if record_lost {
            self.stats.commits_lost_torn_journal += 1;
            // A torn main-journal record stops replay here, so this commit
            // and every later one is unrecoverable. A fast-commit record
            // lives in a separate self-checksummed area replay skips over.
            if !fast {
                let broken = self.journal_broken_at.map_or(t_commit, |b| b.min(t_commit));
                self.journal_broken_at = Some(broken);
            }
        } else if flush_dropped {
            self.stats.commits_unsettled_flush += 1;
        }
        let durable_at = if record_lost || flush_dropped { None } else { Some(t_commit) };
        // Finalize: record per-inode commit events and serve the NobLSM
        // Pending Table. The kernel believes the acknowledgements, so the
        // tables advance even when the record never landed — exactly the
        // lie the chaos harness probes NobLSM's shadow scheme against.
        for &id in txn {
            let Some(inode) = self.inodes.get_mut(&id) else { continue };
            let deleted = inode.deleted;
            let len = if deleted { 0 } else { inode.content.len() as u64 };
            let path = inode.path.clone();
            inode.commit_events.push(CommitEvent { at: t_commit, durable_at, len, path });
            if !record_lost && flush_dropped {
                self.unsettled.push((id, inode.commit_events.len() - 1));
            }
            inode.committed_epoch = inode.epoch;
            inode.committed_at = Some(t_commit);
            let committed_epoch = inode.committed_epoch;
            if let Some(durable) = durable_at.filter(|_| deleted) {
                self.deletion_durable(id, durable);
            }
            if self.pending.get(&id).is_some_and(|&reg_epoch| committed_epoch >= reg_epoch) {
                self.pending.remove(&id);
                if !deleted {
                    self.committed.insert(id, t_commit);
                }
            }
        }
        if !flush_dropped {
            self.settle_unsettled(t_commit);
        }
        self.commit_log.push(CommitWindow {
            start: at,
            data_done,
            journal_done: jres.end,
            end: t_commit,
            sync,
            faulted: record_lost || flush_dropped,
        });
        if let Some(scope) = scope {
            // Fast commits, synchronous (fsync-driven) commits and
            // asynchronous timer/threshold commits are distinct
            // tail-latency stories.
            let class = match (fast, sync) {
                (true, _) => EventClass::FastCommit,
                (false, true) => EventClass::JournalCommit,
                (false, false) => EventClass::Checkpoint,
            };
            scope.close(class, at, t_commit, jbytes);
        }
        t_commit
    }

    /// A real FLUSH completed at `at`: every commit record that was
    /// acknowledged behind a dropped FLUSH is now actually on media.
    pub(super) fn settle_unsettled(&mut self, at: Nanos) {
        for (id, idx) in std::mem::take(&mut self.unsettled) {
            let Some(inode) = self.inodes.get_mut(&id) else { continue };
            let Some(ev) = inode.commit_events.get_mut(idx) else { continue };
            if ev.durable_at.is_none() {
                ev.durable_at = Some(at);
                if ev.path.is_none() {
                    self.deletion_durable(id, at);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Ext4Config, Ext4Fs};
    use nob_sim::Nanos;

    fn fs() -> Ext4Fs {
        Ext4Fs::new(Ext4Config::default())
    }

    #[test]
    fn async_commit_fires_on_timer() {
        let fs = fs();
        let h = fs.create("a", Nanos::ZERO).unwrap();
        fs.append(h, b"payload", Nanos::ZERO).unwrap();
        // Just before the 5 s timer: nothing durable.
        let before = Nanos::from_secs(5) - Nanos::from_nanos(1);
        assert!(!fs.crashed_view(before).exists("a"));
        // Tick past the timer; the async commit persists the file without
        // any fsync.
        let after = Nanos::from_secs(6);
        fs.tick(after);
        assert_eq!(fs.stats().sync_calls, 0);
        assert_eq!(fs.stats().async_commits, 1);
        let view = fs.crashed_view(after);
        assert!(view.exists("a"));
        assert_eq!(view.file_size("a").unwrap(), 7);
    }

    #[test]
    fn commit_completion_lags_trigger_under_device_load() {
        let fs = fs();
        let h = fs.create("a", Nanos::ZERO).unwrap();
        let now = fs.append(h, vec![1u8; 64 << 20].as_slice(), Nanos::ZERO).unwrap();
        fs.tick(Nanos::from_secs(5));
        // 64 MiB of write-back takes ≈0.12 s; immediately "after" the
        // trigger the commit has not completed yet.
        assert!(!fs.crashed_view(Nanos::from_secs(5)).exists("a"));
        assert!(fs.crashed_view(Nanos::from_secs(6)).exists("a"));
        let _ = now;
    }

    #[test]
    fn ordered_mode_contract_committed_implies_durable_data() {
        let fs = fs();
        let h = fs.create("a", Nanos::ZERO).unwrap();
        let now = fs.append(h, vec![9u8; 123_456].as_slice(), Nanos::ZERO).unwrap();
        fs.tick(Nanos::from_secs(5));
        let ino = fs.inode_of("a").unwrap();
        fs.check_commit(&[ino], Nanos::from_secs(5));
        // Find the first instant where is_committed turns true; the full
        // data must be readable in the crash view at that same instant.
        let mut t = Nanos::from_secs(5);
        while !fs.is_committed(ino, t) {
            t += Nanos::from_micros(100);
            assert!(t < Nanos::from_secs(7), "commit never completed");
        }
        let view = fs.crashed_view(t);
        assert_eq!(view.file_size("a").unwrap(), 123_456);
        let _ = now;
    }
}
