//! Device parameterization.

use nob_sim::Nanos;

/// Performance parameters of the simulated SSD and its host.
///
/// All bandwidths are in bytes per second. `host_mem_bw` is the rate at
/// which buffered (page-cache) writes are absorbed by host DRAM; it lives
/// here because it is part of the same calibration that makes the paper's
/// Fig. 2a ratios come out.
///
/// # Examples
///
/// ```
/// use nob_sim::Nanos;
/// use nob_ssd::SsdConfig;
///
/// let cfg = SsdConfig::pm883();
/// // Host DRAM absorbs a buffered write faster than the device writes it.
/// assert!(cfg.mem_cost(1 << 20) < Nanos::for_transfer(1 << 20, cfg.seq_write_bw));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsdConfig {
    /// Sequential write bandwidth of the device (bytes/s).
    pub seq_write_bw: u64,
    /// Sequential read bandwidth of the device (bytes/s).
    pub(crate) seq_read_bw: u64,
    /// Fixed per-command setup latency.
    pub cmd_latency: Nanos,
    /// Latency of a FLUSH command (drain + NAND program barrier).
    pub flush_latency: Nanos,
    /// Host DRAM bandwidth for page-cache (buffered) writes (bytes/s).
    pub(crate) host_mem_bw: u64,
}

impl SsdConfig {
    /// Calibration for a Samsung PM883-class 960 GB SATA SSD, the device
    /// used in the paper.
    ///
    /// With these parameters, writing 4 GB in 2 MB buffered files costs
    /// ≈0.8 s (paper: 0.83 s), via direct I/O ≈8.0 s (paper: 8.18 s), and
    /// with per-file fsync ≈10 s (paper: 10.06 s).
    pub fn pm883() -> Self {
        SsdConfig {
            seq_write_bw: 520 * 1_000_000,
            seq_read_bw: 540 * 1_000_000,
            cmd_latency: Nanos::from_micros(60),
            flush_latency: Nanos::from_micros(900),
            host_mem_bw: 5_000 * 1_000_000,
        }
    }

    /// Duration of a data write of `bytes` at device bandwidth
    /// (command latency included).
    pub(crate) fn write_cost(&self, bytes: u64) -> Nanos {
        self.cmd_latency + Nanos::for_transfer(bytes, self.seq_write_bw)
    }

    /// Duration of a data read of `bytes` at device bandwidth
    /// (command latency included).
    pub(crate) fn read_cost(&self, bytes: u64) -> Nanos {
        self.cmd_latency + Nanos::for_transfer(bytes, self.seq_read_bw)
    }

    /// Duration of absorbing `bytes` into the host page cache.
    pub fn mem_cost(&self, bytes: u64) -> Nanos {
        Nanos::for_transfer(bytes, self.host_mem_bw)
    }
}

impl Default for SsdConfig {
    fn default() -> Self {
        SsdConfig::pm883()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pm883_orderings_hold() {
        let cfg = SsdConfig::pm883();
        // Buffered writes are much cheaper than device writes.
        assert!(cfg.mem_cost(1 << 20) < cfg.write_cost(1 << 20));
        // A flush costs much more than a small write's command latency.
        assert!(cfg.flush_latency > cfg.cmd_latency);
    }

    #[test]
    fn fig2a_calibration_is_in_range() {
        // 4 GB in 2 MB files: async ~0.8 s, direct ~8 s (paper: 0.83 / 8.18).
        let cfg = SsdConfig::pm883();
        let files = 2048u64;
        let file = 2u64 << 20;
        let async_t: Nanos = (0..files).map(|_| cfg.mem_cost(file)).sum();
        let direct_t: Nanos = (0..files).map(|_| cfg.write_cost(file)).sum();
        assert!(async_t.as_secs_f64() > 0.5 && async_t.as_secs_f64() < 1.2, "{async_t}");
        assert!(direct_t.as_secs_f64() > 7.0 && direct_t.as_secs_f64() < 9.0, "{direct_t}");
    }

    #[test]
    fn default_is_pm883() {
        assert_eq!(SsdConfig::default(), SsdConfig::pm883());
    }
}
