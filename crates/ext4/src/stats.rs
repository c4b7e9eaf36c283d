//! Filesystem-level accounting (the paper's Table 1 inputs).

/// Counters accumulated by an [`Ext4Fs`](crate::Ext4Fs).
///
/// `sync_calls` and `bytes_synced` correspond directly to the paper's
/// Table 1 columns ("No. of syncs", "Size of data synced"): every
/// `fsync`/`fdatasync` call increments `sync_calls`, and the dirty bytes of
/// the target file written back by that call accrue to `bytes_synced`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FsStats {
    /// Number of `fsync`/`fdatasync` calls.
    pub sync_calls: u64,
    /// Bytes of the sync target's data written back by sync calls.
    pub bytes_synced: u64,
    /// Asynchronous journal commits (timer or dirty-threshold triggered).
    pub async_commits: u64,
    /// Synchronous journal commits (fsync-triggered).
    pub sync_commits: u64,
    /// Total data bytes written back (any trigger).
    pub bytes_written_back: u64,
    /// Journal (metadata) bytes written.
    pub journal_bytes: u64,
    /// Bytes appended through the buffered path.
    pub bytes_buffered: u64,
    /// Bytes written through the direct-I/O path.
    pub(crate) bytes_direct: u64,
    /// Journal commits whose commit record was torn/corrupted on media;
    /// the transaction (and everything journalled after it) is
    /// unrecoverable even though the kernel saw the commit complete.
    pub(crate) commits_lost_torn_journal: u64,
    /// Journal commits acknowledged behind a FLUSH the device dropped;
    /// the commit record stays volatile until the next real FLUSH.
    pub(crate) commits_unsettled_flush: u64,
    /// Data write-back commands torn by the injector (durable prefix
    /// only; the tail range is damaged on media).
    pub(crate) data_writebacks_torn: u64,
    /// Data write-back commands silently corrupted by the injector.
    pub data_writebacks_corrupted: u64,
    /// Crash reconstructions that found a committed inode without its
    /// full committed data durable — the ordered-mode contract broken by
    /// injected device faults. Only set on a [`crashed_view`] result.
    ///
    /// [`crashed_view`]: crate::Ext4Fs::crashed_view
    pub ordered_violations: u64,
}

impl FsStats {
    /// Creates zeroed counters.
    pub(crate) fn new() -> Self {
        FsStats::default()
    }

    /// Counter-wise difference `self - earlier`, for measuring a phase.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is not an earlier snapshot of the same
    /// filesystem (any counter would go negative).
    pub fn since(&self, earlier: &FsStats) -> FsStats {
        let sub = |a: u64, b: u64| -> u64 {
            a.checked_sub(b).expect("`earlier` is not an earlier snapshot")
        };
        FsStats {
            sync_calls: sub(self.sync_calls, earlier.sync_calls),
            bytes_synced: sub(self.bytes_synced, earlier.bytes_synced),
            async_commits: sub(self.async_commits, earlier.async_commits),
            sync_commits: sub(self.sync_commits, earlier.sync_commits),
            bytes_written_back: sub(self.bytes_written_back, earlier.bytes_written_back),
            journal_bytes: sub(self.journal_bytes, earlier.journal_bytes),
            bytes_buffered: sub(self.bytes_buffered, earlier.bytes_buffered),
            bytes_direct: sub(self.bytes_direct, earlier.bytes_direct),
            commits_lost_torn_journal: sub(
                self.commits_lost_torn_journal,
                earlier.commits_lost_torn_journal,
            ),
            commits_unsettled_flush: sub(
                self.commits_unsettled_flush,
                earlier.commits_unsettled_flush,
            ),
            data_writebacks_torn: sub(self.data_writebacks_torn, earlier.data_writebacks_torn),
            data_writebacks_corrupted: sub(
                self.data_writebacks_corrupted,
                earlier.data_writebacks_corrupted,
            ),
            ordered_violations: sub(self.ordered_violations, earlier.ordered_violations),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts() {
        let early = FsStats { sync_calls: 2, bytes_synced: 100, ..FsStats::new() };
        let late = FsStats { sync_calls: 5, bytes_synced: 350, async_commits: 1, ..FsStats::new() };
        let d = late.since(&early);
        assert_eq!(d.sync_calls, 3);
        assert_eq!(d.bytes_synced, 250);
        assert_eq!(d.async_commits, 1);
    }

    #[test]
    #[should_panic(expected = "earlier snapshot")]
    fn since_rejects_reversed_order() {
        let early = FsStats { sync_calls: 2, ..FsStats::new() };
        let late = FsStats { sync_calls: 5, ..FsStats::new() };
        let _ = early.since(&late);
    }
}
