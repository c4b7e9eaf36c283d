//! The filesystem's and device's live gauges on a metrics hub.

use nob_metrics::MetricKind::{self, Counter, Gauge};
use nob_metrics::MetricsHub;
use nob_sim::Nanos;

use super::Ext4Fs;

/// Reads one instrument off the filesystem at a grid instant.
type Reader = fn(&Ext4Fs, Nanos) -> f64;

/// Every instrument [`Ext4Fs::register_metrics`] installs, in
/// registration order: kind, name, help text, reader.
const METRICS: [(MetricKind, &str, &str, Reader); 12] = [
    (Gauge, "ext4.dirty_bytes", "dirty page-cache bytes in the running txn", |fs, _| {
        fs.dirty_bytes() as f64
    }),
    (Gauge, "ext4.dirty_trigger_bytes", "dirty bytes that force an early commit", |fs, _| {
        fs.config().dirty_trigger_bytes() as f64
    }),
    (Gauge, "ext4.running_txn_inodes", "inodes joined to the running txn", |fs, _| {
        fs.running_txn_inodes() as f64
    }),
    (Gauge, "ext4.pending_inodes", "check_commit registrations awaiting commit", |fs, _| {
        fs.kernel_table_sizes().0 as f64
    }),
    (Gauge, "ext4.committed_inodes", "inodes in the Committed kernel table", |fs, _| {
        fs.kernel_table_sizes().1 as f64
    }),
    (Gauge, "ext4.journal_free_bytes", "journal headroom modulo wrap", |fs, _| {
        fs.journal_free_bytes() as f64
    }),
    (
        Gauge,
        "ext4.checkpoint_backlog_ns",
        "time until queued background write-back drains",
        |fs, t| fs.device_background_free_at().saturating_sub(t).as_nanos() as f64,
    ),
    (Counter, "ext4.journal_bytes", "bytes written through the journal", |fs, _| {
        fs.stats().journal_bytes as f64
    }),
    (Gauge, "ssd.queue_ns", "foreground command-queue backlog", |fs, t| {
        fs.device_free_at().saturating_sub(t).as_nanos() as f64
    }),
    (Gauge, "ssd.busy_permille", "foreground busy time per mille of elapsed", |fs, t| {
        if t == Nanos::ZERO {
            0.0
        } else {
            (fs.device_busy_time().as_nanos().saturating_mul(1000) / t.as_nanos()) as f64
        }
    }),
    (Gauge, "ssd.flush_inflight", "1 while a FLUSH is outstanding at the device", |fs, t| {
        if t < fs.device_flush_frontier() {
            1.0
        } else {
            0.0
        }
    }),
    (Counter, "ssd.flush_commands", "FLUSH commands issued to the device", |fs, _| {
        fs.io_stats().flush_commands as f64
    }),
];

impl Ext4Fs {
    /// Registers the filesystem's and device's live gauges with a metrics
    /// hub (the observability twin of [`Ext4Fs::set_trace_sink`]): dirty
    /// pages vs. the commit threshold, running-transaction membership, the
    /// NobLSM Pending/Committed kernel tables, journal free space,
    /// checkpoint backlog, and the device's queue/busy/FLUSH state. The
    /// closures capture a clone of this handle, so they observe all future
    /// activity; re-registering after crash recovery replaces the closures
    /// but keeps sampled history.
    pub fn register_metrics(&self, hub: &MetricsHub) {
        for (kind, name, help, read) in METRICS {
            let fs = self.clone();
            hub.register(kind, name, help, move |t| read(&fs, t));
        }
    }

    /// Removes every gauge [`Ext4Fs::register_metrics`] installed.
    pub fn unregister_metrics(hub: &MetricsHub) {
        for (_, name, ..) in METRICS {
            hub.unregister(name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unregistering_leaves_a_hub_that_samples_no_series() {
        let fs = Ext4Fs::new(crate::Ext4Config::default());
        let registered = MetricsHub::new();
        fs.register_metrics(&registered);
        registered.sample_due(Nanos::ZERO, &[]);
        let names: Vec<_> = registered.timeline().series.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names, METRICS.map(|(_, name, ..)| name), "one series per row, in order");

        let removed = MetricsHub::new();
        fs.register_metrics(&removed);
        Ext4Fs::unregister_metrics(&removed);
        removed.sample_due(Nanos::ZERO, &[]);
        assert!(removed.timeline().series.is_empty());
    }
}
