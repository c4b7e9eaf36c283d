//! The filesystem's and device's instrument table: live gauges and one
//! counter per `FsStats` and `IoStats` field, read by the metrics hub
//! and by the serving layer's INFO.

use nob_metrics::MetricKind::{self, Counter, Gauge};
use nob_metrics::MetricsHub;
use nob_sim::Nanos;

use super::Ext4Fs;

/// Reads one instrument off the filesystem at a grid instant.
type Reader = fn(&Ext4Fs, Nanos) -> f64;

/// Every filesystem and device instrument: kind, name, help text,
/// reader. [`Ext4Fs::register_metrics`] installs a probe per row, in
/// this order.
pub const METRICS: [(MetricKind, &str, &str, Reader); 29] = [
    (Counter, "ext4.sync_calls", "fsync/fdatasync calls", |fs, _| fs.stats().sync_calls as f64),
    (Counter, "ext4.bytes_synced", "sync targets' data bytes written back by syncs", |fs, _| {
        fs.stats().bytes_synced as f64
    }),
    (Counter, "ext4.async_commits", "timer or dirty-threshold journal commits", |fs, _| {
        fs.stats().async_commits as f64
    }),
    (Counter, "ext4.sync_commits", "fsync-triggered journal commits", |fs, _| {
        fs.stats().sync_commits as f64
    }),
    (Counter, "ext4.bytes_written_back", "data bytes written back by any trigger", |fs, _| {
        fs.stats().bytes_written_back as f64
    }),
    (Counter, "ext4.journal_bytes", "bytes written through the journal", |fs, _| {
        fs.stats().journal_bytes as f64
    }),
    (Counter, "ext4.bytes_buffered", "bytes appended through the buffered path", |fs, _| {
        fs.stats().bytes_buffered as f64
    }),
    (Counter, "ext4.bytes_direct", "bytes written through the direct-I/O path", |fs, _| {
        fs.stats().bytes_direct as f64
    }),
    (
        Counter,
        "ext4.commits_lost_torn_journal",
        "journal commits whose commit record tore on media",
        |fs, _| fs.stats().commits_lost_torn_journal as f64,
    ),
    (
        Counter,
        "ext4.commits_unsettled_flush",
        "journal commits acknowledged behind a dropped FLUSH",
        |fs, _| fs.stats().commits_unsettled_flush as f64,
    ),
    (Counter, "ext4.data_writebacks_torn", "data write-backs the injector tore", |fs, _| {
        fs.stats().data_writebacks_torn as f64
    }),
    (
        Counter,
        "ext4.data_writebacks_corrupted",
        "data write-backs the injector corrupted",
        |fs, _| fs.stats().data_writebacks_corrupted as f64,
    ),
    (
        Counter,
        "ext4.ordered_violations",
        "committed inodes a crash view found without their data",
        |fs, _| fs.stats().ordered_violations as f64,
    ),
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
    (Counter, "ssd.bytes_written", "bytes transferred by write commands", |fs, _| {
        fs.io_stats().bytes_written as f64
    }),
    (Counter, "ssd.bytes_read", "bytes transferred by read commands", |fs, _| {
        fs.io_stats().bytes_read as f64
    }),
    (Counter, "ssd.write_commands", "write commands issued to the device", |fs, _| {
        fs.io_stats().write_commands as f64
    }),
    (Counter, "ssd.read_commands", "read commands issued to the device", |fs, _| {
        fs.io_stats().read_commands as f64
    }),
    (Counter, "ssd.flush_commands", "FLUSH commands issued to the device", |fs, _| {
        fs.io_stats().flush_commands as f64
    }),
    (
        Counter,
        "ssd.dropped_flushes",
        "FLUSH commands the injector acknowledged undrained",
        |fs, _| fs.io_stats().dropped_flushes as f64,
    ),
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
];

impl Ext4Fs {
    /// Registers every [`METRICS`] row with a metrics hub (the
    /// observability twin of [`Ext4Fs::set_trace_sink`]): dirty pages vs.
    /// the commit threshold, running-transaction membership, the NobLSM
    /// Pending/Committed kernel tables, journal free space, checkpoint
    /// backlog, the device's queue/busy/FLUSH state, and the `FsStats` and
    /// `IoStats` counters. The closures capture a clone of this handle, so
    /// they observe all future activity; re-registering after crash
    /// recovery replaces the closures but keeps sampled history.
    pub fn register_metrics(&self, hub: &MetricsHub) {
        for (kind, name, help, read) in METRICS {
            let fs = self.clone();
            hub.register(kind, name, help, move |t| read(&fs, t));
        }
    }

    /// Removes every probe [`Ext4Fs::register_metrics`] installed.
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
        registered.sample_due(Nanos::ZERO);
        let names: Vec<_> = registered.timeline().series.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names, METRICS.map(|(_, name, ..)| name), "one series per row, in order");

        let removed = MetricsHub::new();
        fs.register_metrics(&removed);
        Ext4Fs::unregister_metrics(&removed);
        removed.sample_due(Nanos::ZERO);
        assert!(removed.timeline().series.is_empty());
    }
}
