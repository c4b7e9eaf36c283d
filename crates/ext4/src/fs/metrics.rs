//! The filesystem's and device's live gauges on a metrics hub.

use nob_metrics::MetricsHub;
use nob_sim::Nanos;

use super::Ext4Fs;

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
        use nob_metrics::MetricKind::{Counter, Gauge};
        let fs = self.clone();
        hub.register(Gauge, "ext4.dirty_bytes", "dirty page-cache bytes in the running txn", {
            let fs = fs.clone();
            move |_| fs.dirty_bytes() as f64
        });
        hub.register(
            Gauge,
            "ext4.dirty_trigger_bytes",
            "dirty bytes that force an early commit",
            {
                let fs = fs.clone();
                move |_| fs.config().dirty_trigger_bytes() as f64
            },
        );
        hub.register(Gauge, "ext4.running_txn_inodes", "inodes joined to the running txn", {
            let fs = fs.clone();
            move |_| fs.running_txn_inodes() as f64
        });
        hub.register(Gauge, "ext4.pending_inodes", "check_commit registrations awaiting commit", {
            let fs = fs.clone();
            move |_| fs.kernel_table_sizes().0 as f64
        });
        hub.register(Gauge, "ext4.committed_inodes", "inodes in the Committed kernel table", {
            let fs = fs.clone();
            move |_| fs.kernel_table_sizes().1 as f64
        });
        hub.register(Gauge, "ext4.journal_free_bytes", "journal headroom modulo wrap", {
            let fs = fs.clone();
            move |_| fs.journal_free_bytes() as f64
        });
        hub.register(
            Gauge,
            "ext4.checkpoint_backlog_ns",
            "time until queued background write-back drains",
            {
                let fs = fs.clone();
                move |t| fs.device_background_free_at().saturating_sub(t).as_nanos() as f64
            },
        );
        hub.register(Counter, "ext4.journal_bytes", "bytes written through the journal", {
            let fs = fs.clone();
            move |_| fs.stats().journal_bytes as f64
        });
        hub.register(Gauge, "ssd.queue_ns", "foreground command-queue backlog", {
            let fs = fs.clone();
            move |t| fs.device_free_at().saturating_sub(t).as_nanos() as f64
        });
        hub.register(Gauge, "ssd.busy_permille", "foreground busy time per mille of elapsed", {
            let fs = fs.clone();
            move |t| {
                if t == Nanos::ZERO {
                    0.0
                } else {
                    (fs.device_busy_time().as_nanos().saturating_mul(1000) / t.as_nanos()) as f64
                }
            }
        });
        hub.register(
            Gauge,
            "ssd.flush_inflight",
            "1 while a FLUSH is outstanding at the device",
            {
                let fs = fs.clone();
                move |t| {
                    if t < fs.device_flush_frontier() {
                        1.0
                    } else {
                        0.0
                    }
                }
            },
        );
        hub.register(Counter, "ssd.flush_commands", "FLUSH commands issued to the device", {
            let fs = fs.clone();
            move |_| fs.io_stats().flush_commands as f64
        });
    }

    /// Removes every gauge [`Ext4Fs::register_metrics`] installed.
    pub fn unregister_metrics(hub: &MetricsHub) {
        for name in [
            "ext4.dirty_bytes",
            "ext4.dirty_trigger_bytes",
            "ext4.running_txn_inodes",
            "ext4.pending_inodes",
            "ext4.committed_inodes",
            "ext4.journal_free_bytes",
            "ext4.checkpoint_backlog_ns",
            "ext4.journal_bytes",
            "ssd.queue_ns",
            "ssd.busy_permille",
            "ssd.flush_inflight",
            "ssd.flush_commands",
        ] {
            hub.unregister(name);
        }
    }
}
