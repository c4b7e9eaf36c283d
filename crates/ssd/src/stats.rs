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
    /// Total faults of any kind the injector produced.
    pub fn faults_injected(&self) -> u64 {
        self.torn_writes + self.corrupt_writes + self.dropped_flushes
    }
}
