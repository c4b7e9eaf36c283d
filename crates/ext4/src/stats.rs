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
