//! In-memory inode records, including the durability history that crash
//! reconstruction is built from.

use std::sync::Arc;

use nob_sim::Nanos;

use crate::InodeId;

/// One write-back completion: `content[..len]` became durable at `at`.
///
/// Because the simulated namespace is append-only, durability of data is a
/// monotone prefix, which keeps crash reconstruction exact and cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PersistEvent {
    pub(crate) len: u64,
    pub(crate) at: Nanos,
}

/// The durable-data history of one inode, kept as a Pareto staircase.
///
/// Only the longest prefix durable by an instant matters, so a completion
/// that some other completion beats on both counts (no later, no shorter)
/// can never be the answer and is not kept. What remains is strictly
/// increasing in both `at` and `len`, which makes the lookup a binary
/// search however many write-backs the inode has seen. Completions arrive
/// out of order (a foreground write overtakes the flusher's queue; a torn
/// write persists less than an earlier one), so a record may land in the
/// middle and may retire steps after it.
#[derive(Debug, Clone, Default)]
pub(crate) struct PersistHistory {
    steps: Vec<PersistEvent>,
    /// Completion instant of the write-back recorded last, kept or not:
    /// the in-flight tail an ordered commit waits for.
    last_at: Option<Nanos>,
}

impl PersistHistory {
    /// Records one write-back completion.
    pub(crate) fn record(&mut self, ev: PersistEvent) {
        self.last_at = Some(ev.at);
        let pos = self.steps.partition_point(|s| s.at < ev.at);
        if pos > 0 && self.steps[pos - 1].len >= ev.len {
            return; // an earlier completion already covers it
        }
        // Steps from `pos` on completed no earlier; the leading ones that
        // are no longer are now beaten.
        let beaten = self.steps[pos..].iter().take_while(|s| s.len <= ev.len).count();
        if beaten == 0 && self.steps.get(pos).is_some_and(|s| s.at == ev.at) {
            return; // a longer completion at the same instant
        }
        self.steps.splice(pos..pos + beaten, [ev]);
    }

    /// The longest prefix durable as of `at`.
    pub(crate) fn len_at(&self, at: Nanos) -> u64 {
        let after = self.steps.partition_point(|s| s.at <= at);
        after.checked_sub(1).map_or(0, |i| self.steps[i].len)
    }

    /// Completion instant of the most recently recorded write-back.
    pub(crate) fn last_at(&self) -> Option<Nanos> {
        self.last_at
    }
}

/// One journal-commit record for this inode: at instant `at` the kernel
/// observed the commit complete, recording the inode with size `len` under
/// `path` (`None` when the commit recorded the deletion).
///
/// `at` is the *acknowledged* completion — what the kernel (and therefore
/// the NobLSM Pending/Committed tables) believes. `durable_at` is when the
/// commit record actually reached stable media. The two differ only under
/// injected device faults: a dropped-but-acked FLUSH defers `durable_at`
/// to the next real FLUSH, and a torn journal write leaves it `None`
/// forever (the record is garbage on media).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CommitEvent {
    pub(crate) at: Nanos,
    pub(crate) durable_at: Option<Nanos>,
    pub(crate) len: u64,
    pub(crate) path: Option<String>,
}

/// A byte range of this inode's on-media content that an injected fault
/// silently damaged at instant `at`: the torn tail of an interrupted
/// multi-sector write, or a whole corrupted payload. The namespace is
/// append-only, so a damaged range is never rewritten and stays damaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DamageEvent {
    pub(crate) start: u64,
    pub(crate) end: u64,
    pub(crate) at: Nanos,
}

/// The full state of one inode.
#[derive(Debug, Clone)]
pub(crate) struct Inode {
    pub(crate) id: InodeId,
    /// Current (in-memory) path; `None` once deleted.
    pub(crate) path: Option<String>,
    /// Logical content as user space sees it (page cache view), shared
    /// with every [`Extent`](crate::Extent) read from it: appends go
    /// through `Arc::make_mut`, so they copy only while one is alive.
    pub(crate) content: Arc<Vec<u8>>,
    /// `content[..written_back]` has been handed to the device already
    /// (write-back issued); the remainder is dirty page-cache data.
    pub(crate) written_back: u64,
    /// Bumped on every mutation (data or metadata).
    pub(crate) epoch: u64,
    /// The epoch covered by the most recent completed commit.
    pub(crate) committed_epoch: u64,
    /// Completion instant of the most recent commit covering this inode.
    pub(crate) committed_at: Option<Nanos>,
    /// Durable-data history (monotone prefix lengths).
    pub(crate) persisted: PersistHistory,
    /// Journal history for this inode.
    pub(crate) commit_events: Vec<CommitEvent>,
    /// On-media ranges silently damaged by injected faults.
    pub(crate) damage_events: Vec<DamageEvent>,
    /// Whether the (clean part of the) content is resident in page cache.
    pub(crate) cached: bool,
    /// Deleted in the in-memory view (deletion may not be committed yet).
    pub(crate) deleted: bool,
}

impl Inode {
    pub(crate) fn new(id: InodeId, path: String) -> Self {
        Inode {
            id,
            path: Some(path),
            content: Arc::default(),
            written_back: 0,
            epoch: 1,
            committed_epoch: 0,
            committed_at: None,
            persisted: PersistHistory::default(),
            commit_events: Vec::new(),
            damage_events: Vec::new(),
            cached: false,
            deleted: false,
        }
    }

    /// Bytes sitting dirty in the page cache.
    pub(crate) fn dirty_bytes(&self) -> u64 {
        self.content.len() as u64 - self.written_back
    }

    /// Whether anything (data or metadata) is not covered by a completed
    /// commit.
    pub(crate) fn needs_commit(&self) -> bool {
        self.epoch > self.committed_epoch
    }

    /// Marks a mutation.
    pub(crate) fn touch(&mut self) {
        self.epoch += 1;
    }

    /// The durable prefix length as of `at`.
    pub(crate) fn persisted_len_at(&self, at: Nanos) -> u64 {
        self.persisted.len_at(at)
    }

    /// The last commit event *recoverable* at `at`, if any: its record
    /// must be durable on media by `at`, and it must sit in the journal
    /// before any torn transaction (`broken_from`) — JBD2 recovery scans
    /// the journal in order and stops at the first damaged commit record,
    /// so everything journalled after the tear is unreachable.
    pub(crate) fn commit_at(&self, at: Nanos, broken_from: Option<Nanos>) -> Option<&CommitEvent> {
        let horizon = broken_from.unwrap_or(Nanos::MAX);
        self.commit_events
            .iter()
            .rev()
            .find(|e| e.at < horizon && e.durable_at.is_some_and(|d| d <= at))
    }

    /// Byte ranges damaged on media by `at`, clipped to `[0, len)`.
    pub(crate) fn damage_within(&self, len: u64, at: Nanos) -> Vec<(u64, u64)> {
        self.damage_events
            .iter()
            .filter(|d| d.at <= at && d.start < len)
            .map(|d| (d.start, d.end.min(len)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inode() -> Inode {
        Inode::new(InodeId(1), "f".to_string())
    }

    #[test]
    fn new_inode_is_dirty_metadata_only() {
        let i = inode();
        assert!(i.needs_commit());
        assert_eq!(i.dirty_bytes(), 0);
    }

    #[test]
    fn persisted_len_is_monotone_prefix_max() {
        let mut i = inode();
        i.persisted.record(PersistEvent { len: 10, at: Nanos::from_secs(1) });
        i.persisted.record(PersistEvent { len: 30, at: Nanos::from_secs(3) });
        assert_eq!(i.persisted_len_at(Nanos::ZERO), 0);
        assert_eq!(i.persisted_len_at(Nanos::from_secs(2)), 10);
        assert_eq!(i.persisted_len_at(Nanos::from_secs(3)), 30);
    }

    /// The definition the staircase must reproduce: a scan of every
    /// completion ever recorded.
    fn linear_len_at(events: &[PersistEvent], at: Nanos) -> u64 {
        events.iter().filter(|e| e.at <= at).map(|e| e.len).max().unwrap_or(0)
    }

    proptest::proptest! {
        /// Completions in any order — late, early, torn short, repeated
        /// instants — answer every instant as the full scan does, stay a
        /// strict staircase, and remember the last recorded instant.
        #[test]
        fn staircase_matches_the_linear_scan(
            pushes in proptest::collection::vec((0u64..64, 0u64..64), 0..80),
        ) {
            let mut history = PersistHistory::default();
            let mut events = Vec::new();
            for (at, len) in pushes {
                let ev = PersistEvent { len, at: Nanos::from_nanos(at) };
                history.record(ev);
                events.push(ev);
                proptest::prop_assert_eq!(history.last_at(), Some(ev.at));
                proptest::prop_assert!(
                    history.steps.windows(2).all(|w| w[0].at < w[1].at && w[0].len < w[1].len),
                    "not a strict staircase: {:?}", history.steps
                );
                for t in 0..66 {
                    let t = Nanos::from_nanos(t);
                    proptest::prop_assert_eq!(history.len_at(t), linear_len_at(&events, t));
                }
            }
        }
    }

    #[test]
    fn a_beaten_completion_is_not_kept_but_is_remembered_as_last() {
        let mut h = PersistHistory::default();
        h.record(PersistEvent { len: 300, at: Nanos::from_nanos(50) });
        // A foreground rewrite of the same range overtakes the flusher.
        h.record(PersistEvent { len: 300, at: Nanos::from_nanos(30) });
        assert_eq!(h.steps, vec![PersistEvent { len: 300, at: Nanos::from_nanos(30) }]);
        // A torn write lands in the middle and retires nothing.
        h.record(PersistEvent { len: 400, at: Nanos::from_nanos(60) });
        h.record(PersistEvent { len: 350, at: Nanos::from_nanos(40) });
        assert_eq!(h.steps.len(), 3);
        h.record(PersistEvent { len: 100, at: Nanos::from_nanos(70) });
        assert_eq!(h.steps.len(), 3, "covered by an earlier, longer completion");
        assert_eq!(h.last_at(), Some(Nanos::from_nanos(70)));
        assert_eq!(h.len_at(Nanos::from_nanos(45)), 350);
    }

    fn committed(at: Nanos, len: u64, path: &str) -> CommitEvent {
        CommitEvent { at, durable_at: Some(at), len, path: Some(path.into()) }
    }

    #[test]
    fn commit_at_picks_latest_not_after() {
        let mut i = inode();
        i.commit_events.push(committed(Nanos::from_secs(1), 5, "a"));
        i.commit_events.push(committed(Nanos::from_secs(4), 9, "b"));
        assert!(i.commit_at(Nanos::ZERO, None).is_none());
        assert_eq!(i.commit_at(Nanos::from_secs(2), None).unwrap().len, 5);
        assert_eq!(i.commit_at(Nanos::from_secs(9), None).unwrap().path.as_deref(), Some("b"));
    }

    #[test]
    fn commit_at_skips_undurable_and_chain_broken_records() {
        let mut i = inode();
        i.commit_events.push(committed(Nanos::from_secs(1), 5, "a"));
        // Acked but never durable (torn journal write).
        i.commit_events.push(CommitEvent {
            at: Nanos::from_secs(4),
            durable_at: None,
            len: 9,
            path: Some("b".into()),
        });
        // Settled late by the next real FLUSH (dropped-acked FLUSH).
        i.commit_events.push(CommitEvent {
            at: Nanos::from_secs(6),
            durable_at: Some(Nanos::from_secs(8)),
            len: 12,
            path: Some("c".into()),
        });
        // The torn record is invisible at any time.
        assert_eq!(i.commit_at(Nanos::from_secs(5), None).unwrap().len, 5);
        // The unsettled record is invisible until its real FLUSH…
        assert_eq!(i.commit_at(Nanos::from_secs(7), None).unwrap().len, 5);
        assert_eq!(i.commit_at(Nanos::from_secs(8), None).unwrap().len, 12);
        // …and unreachable entirely once the journal chain broke before it.
        assert_eq!(i.commit_at(Nanos::from_secs(9), Some(Nanos::from_secs(4))).unwrap().len, 5);
    }

    #[test]
    fn damage_within_clips_to_length() {
        let mut i = inode();
        i.damage_events.push(DamageEvent { start: 10, end: 30, at: Nanos::from_secs(1) });
        i.damage_events.push(DamageEvent { start: 50, end: 60, at: Nanos::from_secs(5) });
        assert_eq!(i.damage_within(20, Nanos::from_secs(2)), vec![(10, 20)]);
        assert!(i.damage_within(5, Nanos::from_secs(9)).is_empty());
        assert_eq!(i.damage_within(100, Nanos::from_secs(9)), vec![(10, 30), (50, 60)]);
    }

    #[test]
    fn touch_outdates_commit() {
        let mut i = inode();
        i.committed_epoch = i.epoch;
        assert!(!i.needs_commit());
        i.touch();
        assert!(i.needs_commit());
    }
}
