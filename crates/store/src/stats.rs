//! The store's group-commit counters and their instrument table.

use nob_metrics::MetricKind::{self, Counter, Gauge};

/// Aggregate group-commit counters, for benches asserting amortization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Coalesced groups committed (engine writes issued).
    pub groups: u64,
    /// Writer batches retired (leaders + followers).
    pub batches: u64,
    /// Total merged payload bytes across all groups.
    pub merged_bytes: u64,
    /// Committed groups captured for WAL shipping (0 while shipping is
    /// disabled); equals `groups` committed since
    /// [`Store::enable_shipping`](crate::Store::enable_shipping).
    pub shipped_records: u64,
    /// Tickets holding a durable instant nobody has redeemed yet with
    /// [`Store::take_outcome`](crate::Store::take_outcome) — a gauge, not a counter. It returns to 0
    /// whenever every writer has collected; one that only grows is a
    /// writer that went away with its tickets.
    pub unredeemed: u64,
}

/// Reads one instrument off the counters.
type Reader = fn(&StoreStats) -> u64;

/// Every [`StoreStats`] instrument: kind, name, help text, reader. The
/// serving layer prints INFO's `# store` field per row and samples a
/// `store.<name>` series per row, both in this order.
pub const METRICS: [(MetricKind, &str, &str, Reader); 5] = [
    (Counter, "groups", "Coalesced groups committed (engine writes issued)", |s| s.groups),
    (Counter, "batches", "Writer batches retired (leaders and followers)", |s| s.batches),
    (Counter, "merged_bytes", "Merged payload bytes across all groups", |s| s.merged_bytes),
    (Counter, "shipped_records", "Committed groups captured for WAL shipping", |s| {
        s.shipped_records
    }),
    (Gauge, "unredeemed", "Committed write tickets nobody has redeemed", |s| s.unredeemed),
];
