//! Engine-level runtime statistics.

use nob_sim::Nanos;

/// Per-source-level major-compaction accounting.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LevelCompactionStats {
    /// Major compactions whose parent was this level.
    pub count: u64,
    /// Input bytes read.
    pub(crate) bytes_read: u64,
    /// Output bytes written.
    pub bytes_written: u64,
    /// Total background time spent.
    pub(crate) duration: Nanos,
}

/// Counters accumulated by a [`Db`](crate::Db).
///
/// Together with [`nob_ext4::FsStats`] these drive the paper's Table 1 and
/// the per-experiment sanity columns in EXPERIMENTS.md.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DbStats {
    /// Completed puts/deletes.
    pub writes: u64,
    /// Completed gets.
    pub gets: u64,
    /// Gets that found a value.
    pub hits: u64,
    /// Minor compactions (memtable → `L0`).
    pub minor_compactions: u64,
    /// Major compactions (level `n` → `n+1`).
    pub major_compactions: u64,
    /// Major compactions triggered by read misses (seek compactions).
    pub seek_compactions: u64,
    /// Bytes read by compactions.
    pub compaction_bytes_read: u64,
    /// Bytes written by compactions.
    pub compaction_bytes_written: u64,
    /// Number of foreground write stalls (stop trigger or memtable wait).
    pub stalls: u64,
    /// Total foreground stall time.
    pub stall_time: Nanos,
    /// Writes delayed by the `L0` slowdown trigger.
    pub slowdowns: u64,
    /// SSTable files currently retained as NobLSM shadows.
    pub shadow_files: u64,
    /// Predecessor files reclaimed by NobLSM's poll.
    pub reclaimed_files: u64,
    /// WAL batches replayed into the memtable during the last recovery.
    pub wal_records_recovered: u64,
    /// Checksum mismatches (or malformed CRC-valid records) detected in
    /// WALs during the last recovery. Replay stops at the first damaged
    /// record of a log.
    pub wal_corruptions_detected: u64,
    /// WAL bytes dropped by the last recovery: everything after a torn
    /// tail or a damaged record, across all replayed logs.
    pub wal_bytes_dropped: u64,
    /// SSTable files probed across all gets (read-amplification numerator).
    pub files_read_per_get: u64,
    /// Iterators [`Db::iter_resume`](crate::Db::iter_resume) continued
    /// from a detached state (a stale state is rebuilt and not counted).
    pub iters_resumed: u64,
    /// Major-compaction time spent in the read (input I/O) stage.
    pub compact_read_time: Nanos,
    /// Major-compaction time spent in the merge (CPU) stage.
    pub compact_merge_time: Nanos,
    /// Major-compaction time spent in the write (output I/O) stage.
    pub compact_write_time: Nanos,
    /// Times the lane scheduler preempted toward `L0`→`L1` work because
    /// the `L0` count neared the slowdown trigger.
    pub l0_preempts: u64,
    /// Scheduling rounds where admission held lanes idle despite eligible
    /// work (write pressure was low).
    pub lane_backoffs: u64,
    /// Major-compaction breakdown by parent level.
    pub per_level: Vec<LevelCompactionStats>,
}

impl DbStats {
    /// Creates zeroed counters.
    pub(crate) fn new() -> Self {
        DbStats::default()
    }

    /// Read amplification so far: SSTable files probed per completed get.
    ///
    /// Returns 0.0 before the first get.
    pub fn read_amplification(&self) -> f64 {
        if self.gets == 0 {
            0.0
        } else {
            self.files_read_per_get as f64 / self.gets as f64
        }
    }

    /// The single accounting path for an applied major compaction: the
    /// global counters (`major_compactions`, `seek_compactions`, bytes)
    /// and the [`per_level`](DbStats::per_level) breakdown move together,
    /// so no trigger path (size, seek, manual) can under-report one of
    /// them.
    pub(crate) fn record_major_compaction(
        &mut self,
        level: usize,
        from_seek: bool,
        bytes_read: u64,
        bytes_written: u64,
        duration: Nanos,
    ) {
        self.major_compactions += 1;
        if from_seek {
            self.seek_compactions += 1;
        }
        self.compaction_bytes_read += bytes_read;
        self.compaction_bytes_written += bytes_written;
        if self.per_level.len() <= level {
            self.per_level.resize(level + 1, LevelCompactionStats::default());
        }
        let pl = &mut self.per_level[level];
        pl.count += 1;
        pl.bytes_read += bytes_read;
        pl.bytes_written += bytes_written;
        pl.duration += duration;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_amplification_handles_zero_gets() {
        let s = DbStats { files_read_per_get: 12, ..DbStats::new() };
        assert_eq!(s.read_amplification(), 0.0);
        let s = DbStats { files_read_per_get: 12, gets: 8, ..DbStats::new() };
        assert!((s.read_amplification() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn record_major_compaction_moves_global_and_per_level_together() {
        let mut s = DbStats::new();
        s.record_major_compaction(2, false, 100, 80, Nanos::from_micros(5));
        s.record_major_compaction(2, true, 10, 8, Nanos::from_micros(1));
        s.record_major_compaction(0, true, 1, 1, Nanos::from_micros(1));
        assert_eq!(s.major_compactions, 3);
        assert_eq!(s.seek_compactions, 2);
        assert_eq!(s.compaction_bytes_read, 111);
        assert_eq!(s.compaction_bytes_written, 89);
        assert_eq!(s.per_level.len(), 3);
        assert_eq!(s.per_level[2].count, 2);
        assert_eq!(s.per_level[2].bytes_read, 110);
        assert_eq!(s.per_level[0].count, 1);
        // The invariant the helper exists for: per-level counts sum to the
        // global counter, whatever mix of trigger paths ran.
        let sum: u64 = s.per_level.iter().map(|l| l.count).sum();
        assert_eq!(sum, s.major_compactions);
    }
}
