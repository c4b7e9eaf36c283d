//! The `server.*` instruments: one table names each counter and gauge
//! once, and INFO and the metrics registry both read its cells. The
//! store's rows ([`nob_store::METRICS`]) get cells here too, refreshed at
//! every flush, so the registry reads them without the store.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nob_metrics::MetricKind::{self, Counter, Gauge};
use nob_store::StoreStats;

use crate::proto::RequestClass;

/// One `server.*` instrument; its discriminant indexes [`STATS`].
#[derive(Debug, Clone, Copy)]
pub enum Stat {
    Conns,
    Inflight,
    RequestsRead,
    RequestsWrite,
    RequestsControl,
    RequestsScan,
    ScanRows,
    CursorsOpen,
    CursorsOpened,
    CursorsExpired,
    ScanResumesHeld,
    ScanResumesRebuilt,
    BusyRejections,
    ProtocolErrors,
    BytesIn,
    BytesOut,
}

/// Every `server.*` instrument in INFO's `# server` order: INFO prints a
/// `name:value` line for each row and the metrics registry samples a
/// `server.name` series, both off the row's one cell.
pub const STATS: [(Stat, MetricKind, &str, &str); 16] = [
    (Stat::Conns, Gauge, "conns", "Open connections"),
    (Stat::Inflight, Gauge, "inflight", "Unresolved write tickets across all connections"),
    (Stat::RequestsRead, Counter, "requests_read", "Read-class requests served (GET/MGET)"),
    (
        Stat::RequestsWrite,
        Counter,
        "requests_write",
        "Write-class requests admitted (SET/DEL/BATCH)",
    ),
    (Stat::RequestsControl, Counter, "requests_control", "Control requests served (PING/INFO)"),
    (Stat::RequestsScan, Counter, "requests_scan", "Scan requests served (SCAN/SCAN NEXT)"),
    (Stat::ScanRows, Counter, "scan_rows", "Rows returned across all scan pages"),
    (Stat::CursorsOpen, Gauge, "cursors_open", "Scan cursors currently open"),
    (Stat::CursorsOpened, Counter, "cursors_opened", "Scan cursors opened"),
    (Stat::CursorsExpired, Counter, "cursors_expired", "Scan cursors expired by the lease sweep"),
    (
        Stat::ScanResumesHeld,
        Counter,
        "scan_resumes_held",
        "SCAN NEXT pages that continued every shard's held iterator",
    ),
    (
        Stat::ScanResumesRebuilt,
        Counter,
        "scan_resumes_rebuilt",
        "SCAN NEXT pages that rebuilt and re-sought an iterator (a shard changed version)",
    ),
    (
        Stat::BusyRejections,
        Counter,
        "busy_rejections",
        "Requests rejected with -BUSY by admission control",
    ),
    (
        Stat::ProtocolErrors,
        Counter,
        "protocol_errors",
        "Frame-level protocol errors (connection poisoned)",
    ),
    (Stat::BytesIn, Counter, "bytes_in", "Raw request bytes received"),
    (Stat::BytesOut, Counter, "bytes_out", "Raw reply bytes sent"),
];

/// The cells behind [`STATS`] and [`nob_store::METRICS`], shared with
/// the registry's readers.
#[derive(Debug, Default)]
pub(super) struct Counters {
    pub(super) cells: Arc<[AtomicU64; STATS.len()]>,
    /// The store's rows as of the last flush.
    pub(super) store: Arc<[AtomicU64; nob_store::METRICS.len()]>,
}

impl Counters {
    pub(super) fn get(&self, stat: Stat) -> u64 {
        self.cells[stat as usize].load(Ordering::Relaxed)
    }

    pub(super) fn add(&self, stat: Stat, n: u64) {
        self.cells[stat as usize].fetch_add(n, Ordering::Relaxed);
    }

    pub(super) fn set(&self, stat: Stat, value: usize) {
        self.cells[stat as usize].store(value as u64, Ordering::Relaxed);
    }

    /// Copies every store row out of `stats`.
    pub(super) fn refresh_store(&self, stats: &StoreStats) {
        for (cell, (.., read)) in self.store.iter().zip(nob_store::METRICS) {
            cell.store(read(stats), Ordering::Relaxed);
        }
    }

    pub(super) fn bump(&self, class: RequestClass) {
        let stat = match class {
            RequestClass::Read => Stat::RequestsRead,
            RequestClass::Write => Stat::RequestsWrite,
            RequestClass::Control => Stat::RequestsControl,
            RequestClass::Scan => Stat::RequestsScan,
        };
        self.add(stat, 1);
    }
}
