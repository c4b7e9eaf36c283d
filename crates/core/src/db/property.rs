//! Introspection: the engine's instrument table, which the metrics hub
//! and the `noblsm.stats` property both read, and `GetProperty`-style
//! strings.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nob_metrics::MetricKind::{self, Counter, Gauge};
use nob_metrics::MetricsHub;
use nob_sim::Nanos;

use super::Db;
use crate::options::NUM_LEVELS;

/// Reads one instrument off the engine at an instant.
type Reader = fn(&Db, Nanos) -> f64;

/// Every engine instrument: kind, name, help text, reader. The hub
/// samples a series per row and `noblsm.stats` prints a `name=value`
/// field per row, both in this order. The per-level `engine.lN.*` gauges
/// are the only engine series outside it.
pub const METRICS: [(MetricKind, &str, &str, Reader); 33] = [
    (Counter, "engine.writes", "Completed puts and deletes", |db, _| db.stats.writes as f64),
    (Counter, "engine.gets", "Completed gets", |db, _| db.stats.gets as f64),
    (Counter, "engine.get_hits", "Gets that found a value", |db, _| db.stats.hits as f64),
    (Counter, "engine.minor_compactions", "Memtable flushes to L0", |db, _| {
        db.stats.minor_compactions as f64
    }),
    (Counter, "engine.major_compactions", "Level n to n+1 compactions", |db, _| {
        db.stats.major_compactions as f64
    }),
    (Counter, "engine.seek_compactions", "Major compactions triggered by read misses", |db, _| {
        db.stats.seek_compactions as f64
    }),
    (Counter, "engine.compaction_bytes_read", "Bytes read by compactions", |db, _| {
        db.stats.compaction_bytes_read as f64
    }),
    (Counter, "engine.compaction_bytes_written", "Bytes written by compactions", |db, _| {
        db.stats.compaction_bytes_written as f64
    }),
    (Counter, "engine.stalls", "Foreground write stalls", |db, _| db.stats.stalls as f64),
    (Counter, "engine.stall_ns", "Foreground stall time", |db, _| {
        db.stats.stall_time.as_nanos() as f64
    }),
    (Counter, "engine.slowdowns", "Writes delayed by the L0 slowdown trigger", |db, _| {
        db.stats.slowdowns as f64
    }),
    (
        Counter,
        "engine.reclaimed_files",
        "Predecessor files reclaimed by the NobLSM poll",
        |db, _| db.stats.reclaimed_files as f64,
    ),
    (
        Counter,
        "engine.wal_records_recovered",
        "WAL batches replayed by the last recovery",
        |db, _| db.stats.wal_records_recovered as f64,
    ),
    (
        Counter,
        "engine.wal_corruptions_detected",
        "Damaged WAL records the last recovery stopped at",
        |db, _| db.stats.wal_corruptions_detected as f64,
    ),
    (Counter, "engine.wal_bytes_dropped", "WAL bytes the last recovery dropped", |db, _| {
        db.stats.wal_bytes_dropped as f64
    }),
    (Counter, "engine.files_read", "SSTable files probed across all gets", |db, _| {
        db.stats.files_read_per_get as f64
    }),
    (Counter, "engine.iters_resumed", "Iterators continued from a detached state", |db, _| {
        db.stats.iters_resumed as f64
    }),
    (Counter, "compact.read_ns", "Major-compaction time in the read stage", |db, _| {
        db.stats.compact_read_time.as_nanos() as f64
    }),
    (Counter, "compact.merge_ns", "Major-compaction time in the merge stage", |db, _| {
        db.stats.compact_merge_time.as_nanos() as f64
    }),
    (Counter, "compact.write_ns", "Major-compaction time in the write stage", |db, _| {
        db.stats.compact_write_time.as_nanos() as f64
    }),
    (Counter, "compact.preempt_l0", "Lane preemptions toward L0 work", |db, _| {
        db.stats.l0_preempts as f64
    }),
    (Counter, "compact.backoffs", "Rounds admission held lanes idle", |db, _| {
        db.stats.lane_backoffs as f64
    }),
    (Gauge, "engine.mem_bytes", "Active memtable bytes", |db, _| db.mem.approximate_bytes() as f64),
    (Gauge, "engine.imm_bytes", "Immutable memtable bytes awaiting flush", |db, _| {
        db.imm.as_ref().map_or(0.0, |m| m.approximate_bytes() as f64)
    }),
    (Gauge, "engine.l0_slowdown_distance", "L0 files left before the slowdown trigger", |db, _| {
        db.opts.l0_slowdown_trigger.saturating_sub(db.versions.current_ref().num_files(0)) as f64
    }),
    (Gauge, "engine.l0_stop_distance", "L0 files left before the stop trigger", |db, _| {
        db.opts.l0_stop_trigger.saturating_sub(db.versions.current_ref().num_files(0)) as f64
    }),
    (Gauge, "engine.shadow_files", "SSTables retained as NobLSM shadows", |db, _| {
        db.deps.shadow_count() as f64
    }),
    (Gauge, "engine.inflight_compactions", "Minor and major compactions in flight", |db, _| {
        (db.sched.active_majors() + usize::from(db.imm_done_at.is_some())) as f64
    }),
    (Gauge, "compact.lanes", "Compaction lanes", |db, _| db.sched.lanes() as f64),
    (Gauge, "compact.active_majors", "Lanes running a major compaction", |db, _| {
        db.sched.active_majors() as f64
    }),
    (Gauge, "compact.idle_lanes", "Lanes free at this instant", |db, t| {
        db.sched.idle_lanes(t) as f64
    }),
    (
        Gauge,
        "compact.pressure",
        "L0 write pressure, 0 at the compaction trigger to 1 at the stop trigger",
        |db, _| db.l0_pressure(),
    ),
    // Over-threshold work net of in-flight claims, so the gauge never
    // double-counts with concurrent lanes.
    (Gauge, "compact.debt_bytes", "Compaction debt net of in-flight claims", |db, _| {
        db.compaction_debt_bytes() as f64
    }),
];

impl Db {
    /// Engine introspection, LevelDB-style (`GetProperty`). Two names
    /// answer; every other name is `None`:
    ///
    /// * `"noblsm.stats"` — one line: a `name=value` field per [`METRICS`]
    ///   row, then `laneN=jobs:busy_ns:bytes` per compaction lane and, with
    ///   a trace sink, `trace_dropped=`;
    /// * `"noblsm.compaction-stats"` — the classic `leveldb.stats`-style
    ///   per-level table (files, size, compaction reads/writes/time).
    ///
    /// Single numbers have typed accessors instead:
    /// [`Db::last_sequence`], [`Db::level_file_counts`],
    /// [`Db::current_version`], and [`Db::fs`] for the filesystem and
    /// device below (`dirty_bytes`, `retained_bytes`, `stats`, `io_stats`).
    pub fn property(&self, name: &str) -> Option<String> {
        match name {
            "noblsm.stats" => {
                let now = self.clock.now();
                let mut fields: Vec<String> = METRICS
                    .iter()
                    .map(|(_, name, _, read)| format!("{name}={}", read(self, now)))
                    .collect();
                for (i, ls) in self.sched.lane_stats().iter().enumerate() {
                    fields.push(format!(
                        "lane{i}={}:{}:{}",
                        ls.jobs,
                        ls.busy.as_nanos(),
                        ls.bytes_written
                    ));
                }
                if let Some(sink) = &self.trace {
                    fields.push(format!("trace_dropped={}", sink.dropped()));
                }
                Some(fields.join(" "))
            }
            "noblsm.compaction-stats" => {
                let v = self.versions.current();
                let levels = v.levels().max(self.stats.per_level.len());
                let mut out = String::from(
                    "                               Compactions\n\
                     level  files  size(MB)  count  read(MB)  write(MB)  time\n\
                     -------------------------------------------------------\n",
                );
                for level in 0..levels {
                    let files = v.num_files(level);
                    let bytes = v.level_bytes(level);
                    let pl = self.stats.per_level.get(level).copied().unwrap_or_default();
                    if files == 0 && pl.count == 0 {
                        continue;
                    }
                    out.push_str(&format!(
                        "{:>5}  {:>5}  {:>8.1}  {:>5}  {:>8.1}  {:>9.1}  {}\n",
                        level,
                        files,
                        bytes as f64 / (1 << 20) as f64,
                        pl.count,
                        pl.bytes_read as f64 / (1 << 20) as f64,
                        pl.bytes_written as f64 / (1 << 20) as f64,
                        pl.duration
                    ));
                }
                Some(out)
            }
            _ => None,
        }
    }

    /// Publishes the engine's values and samples every due grid instant.
    /// One branch when no hub is installed; no allocation either way.
    pub(super) fn sample_metrics(&self, now: Nanos) {
        let Some((hub, cells)) = &self.metrics else { return };
        self.publish_metrics(cells, now);
        hub.sample_due(now);
    }

    /// Writes every engine series' value as of `now` into its cell.
    pub(super) fn publish_metrics(&self, cells: &Cells, now: Nanos) {
        let v = self.versions.current_ref();
        let levels = (0..NUM_LEVELS).flat_map(|l| [v.num_files(l) as f64, v.level_bytes(l) as f64]);
        let values = levels.chain(METRICS.iter().map(|row| row.3(self, now)));
        for (cell, value) in cells.iter().zip(values) {
            cell.store(value.to_bits(), Ordering::Relaxed);
        }
    }
}

/// The per-level gauges, `(files, bytes)` per level.
const LEVEL_GAUGES: [(&str, &str); NUM_LEVELS] = [
    ("engine.l0.files", "engine.l0.bytes"),
    ("engine.l1.files", "engine.l1.bytes"),
    ("engine.l2.files", "engine.l2.bytes"),
    ("engine.l3.files", "engine.l3.bytes"),
    ("engine.l4.files", "engine.l4.bytes"),
    ("engine.l5.files", "engine.l5.bytes"),
    ("engine.l6.files", "engine.l6.bytes"),
];

/// One cell per engine series, in [`series`] order, holding the `f64`
/// bits last published.
pub(super) type Cells = Arc<[AtomicU64; 2 * NUM_LEVELS + METRICS.len()]>;

/// The engine's series in registration order — the per-level gauges
/// level by level, then the [`METRICS`] rows: kind, name, help.
fn series() -> impl Iterator<Item = (MetricKind, &'static str, &'static str)> {
    let levels = LEVEL_GAUGES.iter().flat_map(|&(files, bytes)| [files, bytes]);
    levels.map(|name| (Gauge, name, "")).chain(METRICS.iter().map(|row| (row.0, row.1, row.2)))
}

/// Registers a probe per engine series with `hub`, each reading its cell.
pub(super) fn register_metrics(hub: &MetricsHub) -> Cells {
    let cells: Cells = Arc::new(std::array::from_fn(|_| AtomicU64::new(0)));
    for (i, (kind, name, help)) in series().enumerate() {
        let cells = Arc::clone(&cells);
        hub.register(kind, name, help, move |_| f64::from_bits(cells[i].load(Ordering::Relaxed)));
    }
    cells
}

/// Removes every probe [`register_metrics`] installed.
pub(super) fn unregister_metrics(hub: &MetricsHub) {
    series().for_each(|(_, name, _)| hub.unregister(name));
}
