//! Filesystem tuning knobs.

use nob_sim::Nanos;
use nob_ssd::SsdConfig;

/// Fraction of page-cache capacity that, once dirty, triggers an early
/// asynchronous commit with write-back (kernel default: 10 %).
const DIRTY_RATIO: f64 = 0.10;

/// Configuration of the simulated Ext4 filesystem.
///
/// Defaults mirror the kernel defaults the paper relies on: a 5-second
/// commit interval here, and a 10 % dirty-page threshold that is fixed.
///
/// # Examples
///
/// ```
/// use nob_ext4::Ext4Config;
/// use nob_sim::Nanos;
///
/// let cfg = Ext4Config::default().with_page_cache(64 << 20);
/// assert_eq!(cfg.commit_interval, Nanos::from_secs(5));
/// assert_eq!(cfg.page_cache_capacity, 64 << 20);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ext4Config {
    /// Interval of the asynchronous JBD2 commit timer (kernel default: 5 s).
    pub commit_interval: Nanos,
    /// Page-cache capacity in bytes. Clean residents beyond this are
    /// evicted LRU; benchmarks scale this with the workload.
    pub page_cache_capacity: u64,
    /// Streaming write-back threshold: once a file accumulates this many
    /// dirty bytes, the kernel flusher issues them to the device in the
    /// background (continuous write-back; commits then only wait for the
    /// in-flight tail).
    pub writeback_chunk: u64,
    /// Enable the fast-commit path (Ext4's iJournaling-inspired feature,
    /// referenced in the paper's §3): `fsync` then commits *only the
    /// target inode* via a small fast-commit record instead of forcing the
    /// whole compound transaction, eliminating entanglement with other
    /// files' dirty data.
    pub fast_commit: bool,
    /// Device parameters.
    pub ssd: SsdConfig,
}

impl Ext4Config {
    /// The kernel-default configuration over a PM883-class SSD.
    pub(crate) fn new() -> Self {
        Ext4Config {
            commit_interval: Nanos::from_secs(5),
            page_cache_capacity: 2 << 30, // 2 GiB
            writeback_chunk: 256 << 10,
            fast_commit: false,
            ssd: SsdConfig::pm883(),
        }
    }

    /// Same defaults with a different page-cache capacity; the benchmark
    /// harness uses this to keep cache pressure proportional when workloads
    /// are scaled down.
    pub fn with_page_cache(mut self, bytes: u64) -> Self {
        self.page_cache_capacity = bytes;
        self
    }

    /// The dirty-byte count at which an early commit fires.
    pub(crate) fn dirty_trigger_bytes(&self) -> u64 {
        (self.page_cache_capacity as f64 * DIRTY_RATIO) as u64
    }
}

impl Default for Ext4Config {
    fn default() -> Self {
        Ext4Config::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_defaults() {
        let cfg = Ext4Config::default();
        assert_eq!(cfg.commit_interval, Nanos::from_secs(5));
        assert_eq!(cfg.dirty_trigger_bytes(), (2u64 << 30) / 10);
    }

    #[test]
    fn with_page_cache_overrides_capacity() {
        let cfg = Ext4Config::default().with_page_cache(64 << 20);
        assert_eq!(cfg.page_cache_capacity, 64 << 20);
        assert_eq!(cfg.dirty_trigger_bytes(), (64u64 << 20) / 10);
    }
}
