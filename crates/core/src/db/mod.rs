//! The database engine: write path with LevelDB's throttling, background
//! compactions on virtual time, reads, iterators, recovery, and the
//! NobLSM mode.
//!
//! One `impl Db` block per concern: this file holds the struct, its
//! value types and plain accessors; `open` creates or recovers; `write`
//! and `read` are the foreground paths; `background` applies and
//! schedules compactions; `property` formats introspection; `batch` is
//! the write batch, held as the WAL payload it becomes.
//!
//! # Concurrency model
//!
//! The engine is driven from one real thread but models LevelDB's
//! foreground/background split in virtual time. Background jobs (minor
//! and major compactions) are *logically executed* when scheduled — their
//! file I/O is priced on the device timeline starting at their lane's
//! free instant — but their **results** (version edits, file deletions)
//! apply only when the foreground clock passes the job's completion
//! instant, via an event queue. The foreground stalls exactly where
//! LevelDB stalls: a full memtable whose predecessor is still flushing, or
//! `L0` at the slowdown/stop triggers.
//!
//! A background job that fails applies nothing: its error is recorded
//! (LevelDB's `bg_error_`) and returned by every later write, flush and
//! wait, while reads keep serving the unchanged version.

mod background;
mod batch;
mod hot;
mod level_iter;
mod open;
mod property;
mod read;
mod repair;
mod write;

pub use batch::WriteBatch;
pub(crate) use hot::HotTracker;
pub(crate) use level_iter::TableChild;
pub use property::METRICS;
pub use repair::RepairReport;

use std::collections::BTreeMap;
use std::sync::Arc;

use nob_ext4::{Ext4Fs, FileHandle, InodeId};
use nob_metrics::MetricsHub;
use nob_sim::{EventQueue, Nanos, SharedClock};
use nob_trace::{EventClass, TraceSink};

use crate::cache::TableCache;
use crate::compaction::{CompactionOutput, MajorOutcome, PhysicalRefs};
use crate::memtable::MemTable;
use crate::noblsm::DependencyTracker;
use crate::options::{Options, ScanOptions, NUM_LEVELS};
use crate::sched::{MajorJob, Scheduler};
use crate::version::{CompactionInputs, FileMetaData, Version, VersionSet};
use crate::wal::LogWriter;
use crate::{DbError, DbStats, LaneStats, Result};

/// The physical files (number, path, inode) holding a major's outputs.
type PhysicalFiles = Vec<(u64, String, InodeId)>;

/// Events applied when the foreground clock passes their instant.
#[derive(Debug)]
enum DbEvent {
    MinorDone {
        output: Option<CompactionOutput>,
        old_wal: (u64, String),
        new_log_number: u64,
    },
    MajorDone {
        inputs: CompactionInputs,
        outcome: MajorOutcome,
        succ_files: PhysicalFiles,
        /// The scheduler's books for the job (lane, start, busy levels,
        /// debt claim), closed when the version edit applies.
        job: MajorJob,
    },
    ReclaimPoll,
}

/// An LSM-tree key-value store over the simulated Ext4 filesystem.
///
/// See the [crate-level documentation](crate) for an example, and
/// [`Options`] for the sync-discipline and compaction-style knobs that
/// turn this one engine into the paper's seven evaluated systems.
#[derive(Debug)]
pub struct Db {
    fs: Ext4Fs,
    dir: String,
    opts: Options,
    mem: MemTable,
    imm: Option<MemTable>,
    /// When the in-flight minor compaction completes; `Some` exactly
    /// while one is in flight.
    imm_done_at: Option<Nanos>,
    wal_handle: FileHandle,
    wal_number: u64,
    wal_writer: LogWriter,
    versions: VersionSet,
    /// Shared with the level iterators a detached
    /// [`IterState`](crate::iterator::IterState) keeps.
    tables: Arc<TableCache>,
    events: EventQueue<DbEvent>,
    /// Compaction lanes, admission policy and the books of in-flight
    /// majors: *whether* and *where* a job runs (the engine only picks
    /// *which*).
    sched: Scheduler,
    deps: DependencyTracker,
    refs: PhysicalRefs,
    /// Recent update counts, kept only when compactions route hot keys
    /// (`Options::hot_cold`).
    hot: Option<HotTracker>,
    pending_seek: Option<(usize, Arc<FileMetaData>)>,
    /// Scratch for the lookup key of a point read, reused across gets.
    lookup_buf: Vec<u8>,
    reclaim_armed: bool,
    writer_free: Nanos,
    snapshots: BTreeMap<u64, crate::SequenceNumber>,
    next_snapshot_id: u64,
    stats: DbStats,
    trace: Option<TraceSink>,
    /// The installed hub and the cells its engine probes read.
    metrics: Option<(MetricsHub, property::Cells)>,
    /// First failure of a background job, returned by every later write,
    /// flush and wait; reads keep working.
    bg_error: Option<DbError>,
    /// The engine's virtual clock, shared with whoever schedules it (a
    /// `nob-store` shard pump, the CLI session, a bench driver). It is
    /// one of the two ways to say *when*: [`Db::write`], [`Db::get`],
    /// [`Db::scan`], [`Db::tick`], [`Db::flush`] and [`Db::settle`] start
    /// at it and move it to their end. The other is an actor's own
    /// instant, behind the clock: [`Db::write_at`], [`Db::get_at_time`]
    /// and [`Db::iter_at`] start there and only ever raise the clock to
    /// their end, never before.
    clock: SharedClock,
}

/// A consistent read view pinned at a sequence number.
///
/// Obtained from [`Db::snapshot`]; reads through [`Db::get`]/[`Db::iter`]
/// with [`ReadOptions::at`](crate::ReadOptions::at) see exactly the database state
/// at creation time, regardless of later writes. Entries a snapshot can
/// still see are preserved across compactions until the snapshot is
/// released with [`Db::release_snapshot`].
#[derive(Debug)]
pub struct Snapshot {
    id: u64,
    seq: crate::SequenceNumber,
}

impl Snapshot {
    /// The pinned sequence number.
    pub(crate) fn sequence(&self) -> crate::SequenceNumber {
        self.seq
    }
}

/// The outcome of one [`Db::scan`] (and of the store's cross-shard
/// scan, which reuses the shape).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanResult {
    /// The matching rows in scan order (empty under
    /// [`ScanOptions::count_only`], and when the rows went to a caller's
    /// sink instead: [`Db::scan_with`]).
    pub rows: Vec<(Vec<u8>, Vec<u8>)>,
    /// Rows matched; equals `rows.len()` unless `count_only` or a sink
    /// took them.
    pub count: u64,
    /// When the scan stopped at [`ScanOptions::limit`] with more matching
    /// rows beyond it, the user key of the next row; `None` when the range
    /// was exhausted. The next page starts with `start = resume`.
    pub resume: Option<Vec<u8>>,
}

/// The one pagination rule of a scan: counts rows against
/// [`ScanOptions::limit`], hands each admitted row to a sink unless
/// [`ScanOptions::count_only`], and records the resume key when the limit
/// truncates. Shared by [`Db::scan_with`] and the store's cross-shard merge
/// so both report identical pagination semantics; the rows themselves go
/// wherever the sink puts them.
#[derive(Debug)]
pub struct ScanCollector<S> {
    sink: S,
    count: u64,
    limit: usize,
    count_only: bool,
    resume: Option<Vec<u8>>,
}

impl<S: FnMut(&[u8], &[u8])> ScanCollector<S> {
    /// A collector honouring `sopts.limit` / `sopts.count_only`, passing
    /// rows to `sink`.
    pub fn new(sopts: &ScanOptions<'_>, sink: S) -> Self {
        ScanCollector {
            sink,
            count: 0,
            limit: sopts.limit,
            count_only: sopts.count_only,
            resume: None,
        }
    }

    /// Offers the next in-range row. Returns `false` when the collector
    /// is already full — the offered row is recorded as the resume key,
    /// not collected — at which point the scan must stop.
    pub fn offer(&mut self, key: &[u8], value: &[u8]) -> bool {
        if self.count as usize >= self.limit {
            self.resume = Some(key.to_vec());
            return false;
        }
        self.count += 1;
        if !self.count_only {
            (self.sink)(key, value);
        }
        true
    }

    /// The finished result: `count` and `resume` (the sink has the rows,
    /// so `rows` is empty).
    pub fn finish(self) -> ScanResult {
        ScanResult { rows: Vec::new(), count: self.count, resume: self.resume }
    }
}

impl Db {
    /// The engine's shared virtual clock.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// The underlying filesystem (for stats and crash injection).
    pub fn fs(&self) -> &Ext4Fs {
        &self.fs
    }

    /// Installs a trace sink on the whole stack: the engine emits
    /// put/get/compaction/stall spans, and the filesystem and device
    /// underneath emit commit and command spans into the same sink.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.fs.set_trace_sink(sink.clone());
        self.trace = Some(sink);
    }

    /// Removes the trace sink from the engine, filesystem and device.
    pub fn clear_trace_sink(&mut self) {
        self.fs.clear_trace_sink();
        self.trace = None;
    }

    /// Installs a metrics hub on the whole stack (the sampling twin of
    /// [`Db::set_trace_sink`]): the filesystem and device register a probe
    /// per `nob_ext4::METRICS` row, and the engine one per per-level gauge
    /// and [`METRICS`] row over a cell it refreshes, then samples the hub,
    /// every time the foreground clock crosses a grid instant. Sampling is
    /// observation only — it never changes virtual time.
    pub fn set_metrics_hub(&mut self, hub: MetricsHub) {
        self.fs.register_metrics(&hub);
        let cells = property::register_metrics(&hub);
        self.publish_metrics(&cells, self.clock.now());
        self.metrics = Some((hub, cells));
    }

    /// Detaches the metrics hub and removes every probe the stack
    /// registered; the sample path becomes a dead branch again. The hub
    /// (and its accumulated timeline) stays usable.
    pub fn clear_metrics_hub(&mut self) {
        if let Some((hub, _)) = self.metrics.take() {
            Ext4Fs::unregister_metrics(&hub);
            property::unregister_metrics(&hub);
        }
    }

    /// Raw per-level compaction debt: one table's worth per L0 file beyond
    /// the compaction trigger, and bytes over quota on scored levels —
    /// the work the background must retire before scores drop below 1.
    fn raw_debt_per_level(&self) -> [u64; NUM_LEVELS] {
        let v = self.versions.current_ref();
        let mut raw = [0u64; NUM_LEVELS];
        raw[0] = (v.num_files(0).saturating_sub(self.opts.l0_compaction_trigger) as u64)
            .saturating_mul(self.opts.table_size);
        for (level, r) in raw.iter_mut().enumerate().skip(1) {
            *r = v.scored_level_bytes(level).saturating_sub(self.opts.max_bytes_for_level(level));
        }
        raw
    }

    /// Pending compaction debt in bytes, net of what in-flight lanes have
    /// already claimed: with N concurrent majors the inputs sit in the
    /// version until each job *applies*, so a raw over-threshold sum would
    /// count the same bytes once per lane. Surfaced as the
    /// `compact.debt_bytes` row of [`METRICS`].
    pub fn compaction_debt_bytes(&self) -> u64 {
        self.sched.unified_debt(&self.raw_debt_per_level())
    }

    /// Number of configured compaction lanes.
    pub fn compaction_lanes(&self) -> usize {
        self.sched.lanes()
    }

    /// Reconfigures the number of compaction lanes at runtime. New lanes
    /// are free immediately; shrinking drops the highest-indexed lanes
    /// (their in-flight jobs still complete and apply). `noblsm-cli`'s
    /// `compact lanes <n>` shell command calls it.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero — an engine always has at least one lane.
    pub fn set_compaction_lanes(&mut self, n: usize) {
        let now = self.clock.now();
        self.opts.compaction_lanes = n;
        self.sched.resize(n, now);
        self.maybe_schedule(now);
    }

    /// Per-lane attribution: jobs run, busy time, bytes written.
    pub fn lane_stats(&self) -> &[LaneStats] {
        self.sched.lane_stats()
    }

    /// Major compactions currently in flight.
    pub fn active_majors(&self) -> usize {
        self.sched.active_majors()
    }

    /// Current L0 write pressure in `[0, 1]`: zero at the compaction
    /// trigger, one at the stop trigger.
    pub(crate) fn l0_pressure(&self) -> f64 {
        self.sched.pressure(self.versions.current_ref().num_files(0))
    }

    /// Engine statistics.
    pub fn stats(&self) -> &DbStats {
        &self.stats
    }

    /// The last committed sequence number: every entry written so far
    /// carries a sequence in `1..=last_sequence()`, assigned contiguously
    /// in commit order. This is the resume point for WAL shipping — a
    /// replica that has applied batches through `last_sequence()` is
    /// byte-identical in logical content, and a changefeed subscription
    /// resumes at `last_sequence() + 1`.
    pub fn last_sequence(&self) -> crate::SequenceNumber {
        self.versions.last_sequence
    }

    /// The engine's options.
    pub fn options(&self) -> &Options {
        &self.opts
    }

    /// Block-cache (hits, misses) so far.
    pub fn cache_hit_stats(&self) -> (u64, u64) {
        self.tables.block_cache().hit_stats()
    }

    /// Files per level of the current version.
    pub fn level_file_counts(&self) -> Vec<usize> {
        let v = self.versions.current();
        (0..v.levels()).map(|l| v.num_files(l)).collect()
    }

    /// Runs `op` inside a causal trace scope: the spans it emits nest
    /// under one `class` span running from `issued` to the end instant
    /// (and carrying the byte count) that `measure` reads off its result.
    /// A failed `op` records no span. A plain call when no sink is
    /// installed.
    fn traced<T>(
        &mut self,
        class: EventClass,
        issued: Nanos,
        op: impl FnOnce(&mut Db) -> Result<T>,
        measure: impl FnOnce(&T) -> (Nanos, u64),
    ) -> Result<T> {
        let scope = self.trace.as_ref().map(|sink| sink.open(None));
        let done = op(self)?;
        if let Some(scope) = scope {
            let (end, bytes) = measure(&done);
            scope.close(class, issued, end, bytes);
        }
        Ok(done)
    }

    /// The recorded background failure, if any, as the error every
    /// version-changing entry point returns from then on.
    fn check_background(&self) -> Result<()> {
        self.bg_error.clone().map_or(Ok(()), Err)
    }

    /// Rebuilds the database metadata in `dir` from surviving table and
    /// log files when the MANIFEST/CURRENT are lost or corrupt: every
    /// parseable table is re-registered at `L0` ordered by its newest
    /// sequence number, surviving WALs are replayed into fresh synced
    /// tables, and a new MANIFEST/CURRENT replace the damaged metadata.
    /// Returns the finishing instant and what was salvaged, skipped and
    /// detected as corrupt — the accounting a recovery-validation harness
    /// needs to separate detected loss from silent loss.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn repair(
        fs: &Ext4Fs,
        dir: &str,
        opts: &Options,
        now: Nanos,
    ) -> Result<(Nanos, RepairReport)> {
        repair::repair(fs, dir, opts, now)
    }

    /// Structural self-check (tests): version invariants hold and level
    /// accounting is consistent.
    #[doc(hidden)]
    pub fn check_invariants(&self) -> Result<()> {
        self.versions.current().check_invariants(self.opts.style)
    }

    /// The current version (read-only snapshot), for tests and tools.
    #[doc(hidden)]
    pub fn current_version(&self) -> Arc<Version> {
        self.versions.current()
    }
}
