//! Crash reconstruction: the commit windows crash points are aimed at,
//! [`Ext4Fs::crashed_view`], and the crash horizon that lets the simulated
//! disk forget a deleted inode no view can still claim.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::Arc;

use nob_sim::Nanos;

use super::{Ext4Fs, Inner};
use crate::inode::{CommitEvent, Inode, PersistEvent};
use crate::InodeId;

/// XOR mask applied to media bytes damaged by injected faults, so that a
/// crash view returns detectably wrong data instead of zeroes (which a
/// checksum of an all-zero page might accidentally accept).
pub(crate) const DAMAGE_MASK: u8 = 0x5A;

/// One journal commit's timing, recorded for the chaos harness: the
/// interesting crash instants are precisely the phase boundaries of these
/// windows (mid write-back, between data and journal, mid journal, right
/// at the FLUSH).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitWindow {
    /// Instant the commit started (ordered data write-back begins).
    pub start: Nanos,
    /// All ordered data handed to the device (journal write may begin).
    pub data_done: Nanos,
    /// Journal blocks written (the commit record's FLUSH may begin).
    pub journal_done: Nanos,
    /// FLUSH acknowledged — the kernel marks the transaction committed.
    pub end: Nanos,
    /// Synchronous (fsync/fast-commit) rather than timer/threshold commit.
    pub sync: bool,
    /// Whether an injected fault hit this commit's journal write or FLUSH.
    pub faulted: bool,
}

impl Ext4Fs {
    /// Instant of the first torn/corrupted journal commit record, if any.
    /// Recovery cannot see past this point in the journal.
    pub fn journal_broken(&self) -> Option<Nanos> {
        self.lock().journal_broken_at
    }

    /// Timing of every journal commit so far, in completion order. The
    /// chaos harness derives its crash instants from these windows.
    pub fn commit_windows(&self) -> Vec<CommitWindow> {
        self.lock().commit_log.clone()
    }

    /// Raises the crash horizon — the earliest instant
    /// [`crashed_view`](Ext4Fs::crashed_view) may still be asked for — to
    /// `to`, and forgets every deleted inode whose deletion record is
    /// durable by then. A no-op once the horizon is pinned.
    ///
    /// The engine advances it, each time it has applied every completion
    /// due by an instant, to that instant or its shared clock's present,
    /// whichever is earlier; its drains move that clock as they go and
    /// step through pending completions in time order: a power cut cannot
    /// happen in the past. The filesystem's own tick instant is not a safe
    /// horizon, because compaction lanes issue I/O ahead of the clock.
    /// Advancing also promises that no commit issued later completes
    /// before `to`: a torn commit record there would cut the journal ahead
    /// of a deletion already forgotten. So a caller raises it only after
    /// issuing every commit it has due at or before `to`.
    pub fn advance_crash_horizon(&self, to: Nanos) {
        let mut g = self.lock();
        if !g.horizon_pinned && to > g.horizon {
            g.horizon = to;
            g.forget_durable_deletions();
        }
    }

    /// Freezes the crash horizon where it stands, so later
    /// [`advance_crash_horizon`](Ext4Fs::advance_crash_horizon) calls are
    /// no-ops and every instant from here on stays reconstructible. A
    /// driver that rewinds — cuts power at an instant it has already
    /// passed — pins before its run.
    pub fn pin_crash_horizon(&self) {
        self.lock().horizon_pinned = true;
    }

    /// Content bytes of every inode the filesystem still holds: the live
    /// files plus the deleted ones not yet forgotten. Without a crash
    /// horizon this grows with every byte ever written.
    ///
    /// A [`crashed_view`](Ext4Fs::crashed_view) counts the files it keeps
    /// whole here too, but their bytes are shared with the filesystem it
    /// was cut from until either side appends: the sum over a filesystem
    /// and its views can exceed the memory they hold.
    pub fn retained_bytes(&self) -> u64 {
        self.lock().inodes.values().map(|i| i.content.len() as u64).sum()
    }

    /// Reconstructs the filesystem a power failure at `at` would leave,
    /// without disturbing this one.
    ///
    /// The returned filesystem contains, for every inode whose metadata was
    /// committed by `at` (and whose committed state is not "deleted"), a
    /// file at its committed path, with nothing dirty, holding as much of
    /// its committed length of data as was durable. The NobLSM kernel
    /// tables are empty — they live in kernel DRAM and do not survive a
    /// reboot.
    ///
    /// A file that survives whole and undamaged shares its bytes with this
    /// filesystem, as an [`Extent`](crate::Extent) does: an append on
    /// either side afterwards copies the file first, so neither sees the
    /// other's writes. A file cut to a shorter prefix, or with a damaged
    /// range to mask, is a copy. Cutting a view costs what its number of
    /// files costs, not what their bytes do.
    ///
    /// Injected device faults shape the reconstruction:
    ///
    /// * Commit records that never reached media (torn journal write, or
    ///   acked behind a dropped FLUSH that was never settled) do not
    ///   count, and nothing journalled after a torn commit record counts
    ///   (JBD2 replay stops at the first bad record).
    /// * Byte ranges damaged on media (torn or corrupt data write-back)
    ///   come back XOR-masked, so the layer above's checksums can catch
    ///   them; the view's `ordered_violations` counter records committed
    ///   inodes whose full data was not durable.
    ///
    /// The view itself runs on a perfect device — power is back on and
    /// the fault schedule belonged to the crashed run.
    ///
    /// # Panics
    ///
    /// Panics if `at` is below the crash horizon: the inodes forgotten
    /// since may have been on that disk.
    pub fn crashed_view(&self, at: Nanos) -> Ext4Fs {
        let g = self.lock();
        assert!(
            at >= g.horizon,
            "crashed_view({at:?}) is below the crash horizon {:?}: a driver that rewinds must \
             pin_crash_horizon() before its run",
            g.horizon
        );
        let fresh = Ext4Fs::new(g.cfg.clone());
        {
            let mut n = fresh.lock();
            n.next_commit_at = at + n.cfg.commit_interval;
            n.next_ino = g.next_ino;
            let broken = g.journal_broken_at;
            let faulted = g.ssd.stats().faults_injected() > 0;
            let mut violations = 0u64;
            // Latest committed claim per path wins (defensive; with atomic
            // same-transaction rename/delete pairs, conflicts cannot arise).
            let mut claims: HashMap<String, (Nanos, InodeId)> = HashMap::new();
            for inode in g.inodes.values() {
                let Some(ev) = inode.commit_at(at, broken) else { continue };
                let Some(path) = ev.path.clone() else { continue };
                let claim = (ev.at, inode.id);
                match claims.get(&path) {
                    Some(&existing) if existing >= claim => {}
                    _ => {
                        claims.insert(path, claim);
                    }
                }
            }
            for (path, (_, id)) in claims {
                let old = &g.inodes[&id];
                let ev = old.commit_at(at, broken).expect("claimed inodes have a commit event");
                let persisted = old.persisted_len_at(at);
                if persisted < ev.len {
                    // Without faults this would be an ordered-mode bug in
                    // the model itself; with faults it is the expected
                    // contract break the chaos harness probes for.
                    debug_assert!(
                        faulted,
                        "ordered-mode contract violated: inode {} committed len {} but only {} persisted",
                        id,
                        ev.len,
                        persisted
                    );
                    violations += 1;
                }
                let len = ev.len.min(persisted) as usize;
                let mut inode = Inode::new(id, path.clone());
                let damage = old.damage_within(len as u64, at);
                inode.content = if len == old.content.len() && damage.is_empty() {
                    // The whole file survived clean: share its bytes. An
                    // append on either side goes through `Arc::make_mut`,
                    // so the view and this filesystem split copy-on-write.
                    Arc::clone(&old.content)
                } else {
                    let mut content = old.content[..len].to_vec();
                    for (s, e) in damage {
                        for b in &mut content[s as usize..e as usize] {
                            *b ^= DAMAGE_MASK;
                        }
                    }
                    Arc::new(content)
                };
                inode.written_back = len as u64;
                inode.committed_epoch = inode.epoch;
                inode.committed_at = Some(at);
                inode.persisted.record(PersistEvent { len: len as u64, at });
                inode.commit_events.push(CommitEvent {
                    at,
                    durable_at: Some(at),
                    len: len as u64,
                    path: Some(path.clone()),
                });
                n.inodes.insert(id, inode);
                n.names.insert(path, id);
            }
            n.stats.ordered_violations = violations;
        }
        fresh
    }
}

impl Inner {
    /// A deleted inode's deletion record became durable at `at` (its own
    /// commit's FLUSH, or the real FLUSH that settled it): it may be
    /// forgotten once the horizon reaches `at`.
    pub(super) fn deletion_durable(&mut self, id: InodeId, at: Nanos) {
        self.forgettable.push(Reverse((at, id)));
    }

    /// Drops every deleted inode whose deletion record is durable by the
    /// horizon and sits in the journal before any torn commit record. For
    /// every `at` at or after the horizon, `commit_at` returns that record
    /// and the inode claims no path, so no view changes. A deletion
    /// journalled after a tear is never forgotten: replay stops before it,
    /// and the inode's earlier claim stays visible.
    fn forget_durable_deletions(&mut self) {
        while let Some(&Reverse((durable, id))) = self.forgettable.peek() {
            if durable > self.horizon {
                break;
            }
            self.forgettable.pop();
            let deletion_at = self.inodes[&id].commit_events.last().expect("deletion record").at;
            if self.journal_broken_at.is_none_or(|b| deletion_at < b) {
                self.inodes.remove(&id);
            }
        }
    }
}
