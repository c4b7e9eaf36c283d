//! Device-level I/O accounting.

/// Counters accumulated by an [`Ssd`](crate::Ssd) over its lifetime.
///
/// The harness reads these (together with the filesystem's sync counters)
/// to regenerate the paper's Table 1.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoStats {
    /// Total bytes transferred by write commands.
    pub bytes_written: u64,
    /// Total bytes transferred by read commands.
    pub bytes_read: u64,
    /// Number of write commands issued.
    pub write_commands: u64,
    /// Number of read commands issued.
    pub read_commands: u64,
    /// Number of FLUSH commands issued.
    pub flush_commands: u64,
    /// Write commands the injector tore (prefix durable, tail lost).
    pub(crate) torn_writes: u64,
    /// Write commands the injector silently corrupted on media.
    pub(crate) corrupt_writes: u64,
    /// FLUSH commands the injector acknowledged without draining.
    pub dropped_flushes: u64,
}

impl IoStats {
    /// Creates zeroed counters.
    pub(crate) fn new() -> Self {
        IoStats::default()
    }

    /// Total faults of any kind the injector produced.
    pub fn faults_injected(&self) -> u64 {
        self.torn_writes + self.corrupt_writes + self.dropped_flushes
    }

    /// Counter-wise difference `self - earlier`, for measuring a phase.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` has any counter larger than `self` (i.e. it is
    /// not actually an earlier snapshot of the same device).
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        let sub = |a: u64, b: u64| -> u64 {
            a.checked_sub(b).expect("`earlier` is not an earlier snapshot")
        };
        IoStats {
            bytes_written: sub(self.bytes_written, earlier.bytes_written),
            bytes_read: sub(self.bytes_read, earlier.bytes_read),
            write_commands: sub(self.write_commands, earlier.write_commands),
            read_commands: sub(self.read_commands, earlier.read_commands),
            flush_commands: sub(self.flush_commands, earlier.flush_commands),
            torn_writes: sub(self.torn_writes, earlier.torn_writes),
            corrupt_writes: sub(self.corrupt_writes, earlier.corrupt_writes),
            dropped_flushes: sub(self.dropped_flushes, earlier.dropped_flushes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_counterwise() {
        let early = IoStats { bytes_written: 10, write_commands: 1, ..IoStats::new() };
        let late = IoStats {
            bytes_written: 25,
            bytes_read: 5,
            write_commands: 3,
            read_commands: 1,
            flush_commands: 2,
            ..IoStats::new()
        };
        let d = late.since(&early);
        assert_eq!(d.bytes_written, 15);
        assert_eq!(d.bytes_read, 5);
        assert_eq!(d.write_commands, 2);
        assert_eq!(d.flush_commands, 2);
    }

    #[test]
    #[should_panic(expected = "earlier snapshot")]
    fn since_rejects_wrong_order() {
        let early = IoStats { bytes_written: 10, ..IoStats::new() };
        let late = IoStats { bytes_written: 25, ..IoStats::new() };
        let _ = early.since(&late);
    }
}
