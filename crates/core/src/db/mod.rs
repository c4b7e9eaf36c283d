//! The database engine: write path with LevelDB's throttling, background
//! compactions on virtual time, reads, iterators, recovery, and the
//! NobLSM mode.
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

pub mod batch;

mod hot;
mod level_iter;
mod repair;

pub use repair::RepairReport;

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use nob_compact::{
    DebtClaim, DebtLedger, LaneSet, LaneStats, PriorityPolicy, Stage, StageInterval, StagePlan,
};
use nob_ext4::{Ext4Fs, FileHandle, InodeId};
use nob_metrics::MetricsHub;
use nob_sim::{EventQueue, Nanos, SharedClock};
use nob_trace::{EventClass, StallKind, TraceCtx, TraceSink};

use crate::cache::TableCache;
use crate::compaction::{
    physical_files, run_major, write_table, CompactionOutput, MajorOutcome, PhysicalRefs,
};
use crate::iterator::{DbIterator, InternalIterator, MergingIterator};
use crate::memtable::{MemLookup, MemTable};
use crate::noblsm::{DependencyTracker, Predecessor};
use crate::options::{CompactionStyle, Options, ReadOptions, ScanOptions, SyncMode, WriteOptions};
use crate::version::Version;
use crate::version::{
    file_path, parse_file_name, CompactionInputs, FileKind, FileMetaData, VersionEdit, VersionSet,
};
use crate::wal::LogWriter;
use crate::{DbError, DbStats, Result, ValueType};

use batch::encode_batch;
use hot::HotTracker;
use level_iter::LevelIter;

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
        succ_files: Vec<(u64, String, InodeId)>,
        started: Nanos,
        /// Lane the job occupied (frees its stall-attribution slot).
        lane: usize,
        /// Debt-ledger claim released when the version edit applies.
        claim: DebtClaim,
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
    imm_done_at: Option<Nanos>,
    wal_handle: FileHandle,
    wal_number: u64,
    wal_writer: LogWriter,
    versions: VersionSet,
    tables: TableCache,
    events: EventQueue<DbEvent>,
    /// Background compaction lanes (LevelDB = 1 lane).
    lanes: LaneSet,
    /// Pipelined stage intervals of the major occupying each lane (`None`
    /// when idle) — what stall spans attribute their wait to.
    lane_jobs: Vec<Option<Vec<StageInterval>>>,
    /// Bytes of per-level debt claimed by in-flight majors, so concurrent
    /// lanes never double-count `compaction_debt_bytes`.
    debt_ledger: DebtLedger,
    busy_levels: HashSet<usize>,
    inflight_major: usize,
    minor_inflight: bool,
    deps: DependencyTracker,
    refs: PhysicalRefs,
    hot: HotTracker,
    pending_seek: Option<(usize, Arc<FileMetaData>)>,
    reclaim_armed: bool,
    writer_free: Nanos,
    snapshots: BTreeMap<u64, crate::SequenceNumber>,
    next_snapshot_id: u64,
    stats: DbStats,
    trace: Option<TraceSink>,
    metrics: Option<MetricsHub>,
    /// The engine's virtual clock, shared with whoever schedules it (a
    /// `nob-store` shard pump, the CLI session, a bench driver). The
    /// canonical [`Db::write`]/[`Db::get`] entry points read and advance
    /// it so callers no longer thread `now: Nanos` by hand; the legacy
    /// now-threading methods keep it in sync as they go.
    clock: SharedClock,
}

/// A consistent read view pinned at a sequence number.
///
/// Obtained from [`Db::snapshot`]; reads through [`Db::get`]/[`Db::iter`]
/// with [`ReadOptions::at`] see exactly the database state
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
    pub fn sequence(&self) -> crate::SequenceNumber {
        self.seq
    }
}

/// The outcome of one [`Db::scan`] (and of the store's cross-shard
/// scan, which reuses the shape).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanResult {
    /// The matching rows in scan order (empty under
    /// [`ScanOptions::count_only`]).
    pub rows: Vec<(Vec<u8>, Vec<u8>)>,
    /// Rows matched; equals `rows.len()` unless `count_only`.
    pub count: u64,
    /// When the scan stopped at [`ScanOptions::limit`] with more matching
    /// rows beyond it, the user key of the next row in scan direction;
    /// `None` when the range was exhausted. A forward scan resumes with
    /// `start = resume`; a reverse scan resumes with
    /// `end = resume ++ 0x00` (the immediate successor keeps the resume
    /// key itself in the next page).
    pub resume: Option<Vec<u8>>,
}

/// Accumulates scan rows under a [`ScanOptions`] limit / `count_only`
/// policy, recording the resume key when the limit truncates. Shared by
/// [`Db::scan`] and the store's cross-shard merge so both report
/// identical pagination semantics.
#[derive(Debug)]
pub struct ScanCollector {
    rows: Vec<(Vec<u8>, Vec<u8>)>,
    count: u64,
    limit: usize,
    count_only: bool,
    resume: Option<Vec<u8>>,
}

impl ScanCollector {
    /// A collector honouring `sopts.limit` / `sopts.count_only`.
    pub fn new(sopts: &ScanOptions<'_>) -> Self {
        ScanCollector {
            rows: Vec::new(),
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
            self.rows.push((key.to_vec(), value.to_vec()));
        }
        true
    }

    /// The finished result.
    pub fn finish(self) -> ScanResult {
        ScanResult { rows: self.rows, count: self.count, resume: self.resume }
    }
}

/// An atomic batch of writes, applied through [`Db::write`] with a
/// single WAL record: after a crash, either every operation in the batch
/// is recovered or none is.
#[derive(Debug, Default, Clone)]
pub struct WriteBatch {
    entries: Vec<(ValueType, Vec<u8>, Vec<u8>)>,
}

impl WriteBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        WriteBatch::default()
    }

    /// Queues an insert/overwrite.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.entries.push((ValueType::Value, key.to_vec(), value.to_vec()));
    }

    /// Queues a deletion.
    pub fn delete(&mut self, key: &[u8]) {
        self.entries.push((ValueType::Deletion, key.to_vec(), Vec::new()));
    }

    /// Appends every operation of `other` after the existing ones (the
    /// group-commit leader's coalescing primitive: follower batches are
    /// folded into the leader's in arrival order).
    pub fn extend(&mut self, other: &WriteBatch) {
        self.entries.extend(other.entries.iter().cloned());
    }

    /// Approximate payload bytes (keys + values) queued in this batch,
    /// used against the group-commit byte budget.
    pub fn byte_size(&self) -> u64 {
        self.entries.iter().map(|(_, k, v)| (k.len() + v.len()) as u64).sum()
    }

    /// Iterates the queued operations in insertion order as
    /// `(type, key, value)` triples. The `nob-store` front-end uses this
    /// to split a batch across shards by key hash.
    pub fn ops(&self) -> impl Iterator<Item = (ValueType, &[u8], &[u8])> + '_ {
        self.entries.iter().map(|(vt, k, v)| (*vt, k.as_slice(), v.as_slice()))
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes all queued operations.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl Db {
    /// Opens (creating or recovering) a database in `dir`.
    ///
    /// Recovery replays the MANIFEST and any surviving WALs; KV pairs in
    /// log tails that never reached the device are lost, exactly as the
    /// paper's consistency test observes.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Corruption`]/[`DbError::InvalidDb`] on damaged
    /// metadata or filesystem errors.
    pub fn open(fs: Ext4Fs, dir: &str, opts: Options, now: Nanos) -> Result<Db> {
        let exists = fs.exists(&file_path(dir, FileKind::Current, 0));
        if !exists {
            // No CURRENT: any database files present are remnants of a
            // creation that never became durable — clear them out.
            for p in fs.list(&format!("{dir}/")) {
                let Some(name) = p.strip_prefix(&format!("{dir}/")) else { continue };
                if parse_file_name(name).is_some() || name == "CURRENT.tmp" {
                    fs.delete(&p, now)?;
                }
            }
        }
        let (mut versions, mut t) = if exists {
            VersionSet::recover(fs.clone(), dir, opts.clone(), now)?
        } else {
            VersionSet::create(fs.clone(), dir, opts.clone(), now)?
        };
        let tables = TableCache::new(fs.clone(), dir.to_string(), opts.block_cache_bytes, opts.cpu);
        let mut refs = PhysicalRefs::new();
        for level in versions.current().files.iter() {
            for f in level {
                refs.acquire(f.physical, &file_path(dir, FileKind::Table, f.physical));
            }
        }

        // Garbage-collect leftovers first: orphan tables (written but
        // never referenced by a committed manifest edit), stale logs and
        // manifests. This must happen before any new file is created so
        // that reused numbers cannot collide, and the counter must move
        // past every number ever seen on disk.
        if exists {
            let live_physicals: HashSet<u64> =
                versions.current().files.iter().flatten().map(|f| f.physical).collect();
            let manifest_path = versions.manifest_path().to_string();
            for p in fs.list(&format!("{dir}/")) {
                let Some(name) = p.strip_prefix(&format!("{dir}/")) else { continue };
                let parsed = parse_file_name(name);
                if let Some((FileKind::Wal | FileKind::Table | FileKind::Manifest, n)) = parsed {
                    versions.next_file_number = versions.next_file_number.max(n + 1);
                }
                let delete = match parsed {
                    Some((FileKind::Wal, n)) => n < versions.log_number,
                    Some((FileKind::Table, n)) => !live_physicals.contains(&n),
                    Some((FileKind::Manifest, _)) => p != manifest_path,
                    _ => false,
                };
                if delete {
                    fs.delete(&p, t)?;
                }
            }
        }

        // Replay surviving WALs (numbers >= the recovered log number).
        let mut recovered_tables: Vec<CompactionOutput> = Vec::new();
        let mut recovery = DbStats::new();
        if exists {
            let mut logs: Vec<u64> = fs
                .list(&format!("{dir}/"))
                .into_iter()
                .filter_map(|p| {
                    let name = p.strip_prefix(&format!("{dir}/"))?;
                    match parse_file_name(name) {
                        Some((FileKind::Wal, n)) if n >= versions.log_number => Some(n),
                        _ => None,
                    }
                })
                .collect();
            logs.sort_unstable();
            let mut mem = MemTable::new();
            let mut max_seq = versions.last_sequence;
            for n in logs {
                let path = file_path(dir, FileKind::Wal, n);
                let h = fs.open(&path, t)?;
                let size = fs.file_size(&path)?;
                let (data, t2) = fs.read_at(h, 0, size, t)?;
                t = t2;
                // Full-log replay is the seq-0 case of the shared replay
                // cursor; `nob-repl` drives the same cursor from a
                // follower's resume sequence.
                let mut cursor = crate::wal::ReplayCursor::new(data);
                while let Some(batch) = cursor.next_batch() {
                    recovery.wal_records_recovered += 1;
                    for (seq, (vt, key, value)) in (batch.seq..).zip(batch.entries) {
                        mem.add(seq, vt, &key, &value);
                        max_seq = max_seq.max(seq);
                    }
                    if mem.approximate_bytes() >= opts.write_buffer_size {
                        let full = std::mem::take(&mut mem);
                        Self::flush_recovered(
                            &fs,
                            dir,
                            &opts,
                            &mut versions,
                            full,
                            &mut recovered_tables,
                            &mut t,
                        )?;
                    }
                }
                if cursor.payload_corruption_detected() {
                    recovery.wal_corruptions_detected += 1;
                }
                if cursor.record_corruption_detected() {
                    recovery.wal_corruptions_detected += 1;
                }
                recovery.wal_bytes_dropped += cursor.bytes_dropped();
                if recovery.wal_corruptions_detected > 0 && opts.paranoid_checks {
                    return Err(DbError::Corruption(format!(
                        "checksum mismatch in {path} during recovery \
                         ({} bytes unreplayable)",
                        cursor.bytes_dropped()
                    )));
                }
            }
            if !mem.is_empty() {
                Self::flush_recovered(
                    &fs,
                    dir,
                    &opts,
                    &mut versions,
                    mem,
                    &mut recovered_tables,
                    &mut t,
                )?;
            }
            versions.last_sequence = max_seq;
        }

        // Fresh WAL.
        let wal_number = versions.new_file_number();
        let wal_path = file_path(dir, FileKind::Wal, wal_number);
        let wal_handle = fs.create(&wal_path, t)?;
        versions.log_number = wal_number;
        let mut edit = VersionEdit::new();
        for o in &recovered_tables {
            edit.add_file(0, o.meta.clone());
        }
        t = versions.log_and_apply(edit, t, opts.sync_mode == SyncMode::Always)?;
        for o in &recovered_tables {
            refs.acquire(o.meta.physical, &o.physical_path);
        }

        // Drop the replayed logs: their contents are now in synced L0
        // tables referenced by the manifest.
        if exists {
            for p in fs.list(&format!("{dir}/")) {
                let Some(name) = p.strip_prefix(&format!("{dir}/")) else { continue };
                if let Some((FileKind::Wal, n)) = parse_file_name(name) {
                    if n < wal_number {
                        fs.delete(&p, t)?;
                    }
                }
            }
        }

        let hot_window = (opts.write_buffer_size / 256).clamp(1024, 1 << 20) as usize;
        let lanes = LaneSet::new(opts.compaction_lanes, t);
        let lane_jobs = vec![None; opts.compaction_lanes];
        let mut db = Db {
            fs,
            dir: dir.to_string(),
            opts,
            mem: MemTable::new(),
            imm: None,
            imm_done_at: None,
            wal_handle,
            wal_number,
            wal_writer: LogWriter::new(),
            versions,
            tables,
            events: EventQueue::new(),
            lanes,
            lane_jobs,
            debt_ledger: DebtLedger::default(),
            busy_levels: HashSet::new(),
            inflight_major: 0,
            minor_inflight: false,
            deps: DependencyTracker::new(),
            refs,
            hot: HotTracker::new(hot_window),
            pending_seek: None,
            reclaim_armed: false,
            writer_free: Nanos::ZERO,
            snapshots: BTreeMap::new(),
            next_snapshot_id: 0,
            stats: recovery,
            trace: None,
            metrics: None,
            clock: SharedClock::at(t),
        };
        db.maybe_schedule(t);
        Ok(db)
    }

    /// Opens a database on a caller-owned [`SharedClock`] (the scheduler's
    /// clock in a sharded `nob-store` deployment): the open starts at
    /// the clock's current instant and the clock is advanced past the
    /// recovery work, so subsequent [`Db::write`]/[`Db::get`] calls need
    /// no explicit timestamps.
    ///
    /// # Errors
    ///
    /// Same as [`Db::open`].
    pub fn open_with_clock(fs: Ext4Fs, dir: &str, opts: Options, clock: SharedClock) -> Result<Db> {
        let mut db = Self::open(fs, dir, opts, clock.now())?;
        clock.advance_to(db.clock.now());
        db.clock = clock;
        Ok(db)
    }

    /// The engine's shared virtual clock.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    fn flush_recovered(
        fs: &Ext4Fs,
        dir: &str,
        opts: &Options,
        versions: &mut VersionSet,
        mem: MemTable,
        out: &mut Vec<CompactionOutput>,
        t: &mut Nanos,
    ) -> Result<()> {
        let number = versions.new_file_number();
        if let Some(output) = write_table(fs, dir, opts, number, mem.iter(), t)? {
            if opts.sync_mode != SyncMode::Never {
                let h = fs.open(&output.physical_path, *t)?;
                *t = fs.fsync(h, *t)?;
            }
            out.push(output);
        }
        Ok(())
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
    /// [`Db::set_trace_sink`]): the filesystem and device register live
    /// gauge closures, and the engine pushes its own gauges every time
    /// the foreground clock crosses a grid instant. Sampling is
    /// observation only — it never changes virtual time.
    pub fn set_metrics_hub(&mut self, hub: MetricsHub) {
        self.fs.register_metrics(&hub);
        self.metrics = Some(hub);
    }

    /// Detaches the metrics hub; the sample path becomes a dead branch
    /// again. The hub (and its accumulated timeline) stays usable.
    pub fn clear_metrics_hub(&mut self) {
        if let Some(hub) = self.metrics.take() {
            Ext4Fs::unregister_metrics(&hub);
        }
    }

    /// The installed metrics hub, if any.
    pub fn metrics_hub(&self) -> Option<&MetricsHub> {
        self.metrics.as_ref()
    }

    /// Samples every due grid instant with the engine's pushed gauges.
    /// One branch when no hub is installed.
    fn sample_metrics(&self, now: Nanos) {
        // Per-level gauge names are static so the disabled path stays
        // allocation-free and the enabled path allocates only the vector.
        const LEVEL_FILES: [&str; 7] = [
            "engine.l0.files",
            "engine.l1.files",
            "engine.l2.files",
            "engine.l3.files",
            "engine.l4.files",
            "engine.l5.files",
            "engine.l6.files",
        ];
        const LEVEL_BYTES: [&str; 7] = [
            "engine.l0.bytes",
            "engine.l1.bytes",
            "engine.l2.bytes",
            "engine.l3.bytes",
            "engine.l4.bytes",
            "engine.l5.bytes",
            "engine.l6.bytes",
        ];
        let Some(hub) = &self.metrics else { return };
        let v = self.versions.current();
        let l0 = v.num_files(0);
        // Unified debt: over-threshold work net of in-flight claims, so
        // the gauge never double-counts with concurrent lanes.
        let debt = self.compaction_debt_bytes() as f64;
        let mut pushed: Vec<(&str, f64)> = Vec::with_capacity(26 + 2 * v.levels());
        for level in 0..v.levels().min(LEVEL_FILES.len()) {
            pushed.push((LEVEL_FILES[level], v.num_files(level) as f64));
            pushed.push((LEVEL_BYTES[level], v.level_bytes(level) as f64));
        }
        pushed.extend_from_slice(&[
            ("engine.mem_bytes", self.mem.approximate_bytes() as f64),
            ("engine.imm_bytes", self.imm.as_ref().map_or(0.0, |m| m.approximate_bytes() as f64)),
            (
                "engine.l0_slowdown_distance",
                self.opts.l0_slowdown_trigger.saturating_sub(l0) as f64,
            ),
            ("engine.l0_stop_distance", self.opts.l0_stop_trigger.saturating_sub(l0) as f64),
            ("engine.compaction_debt_bytes", debt),
            ("engine.shadow_files", self.deps.shadow_count() as f64),
            ("engine.reclaimed_files", self.stats.reclaimed_files as f64),
            (
                "engine.inflight_compactions",
                (self.inflight_major + usize::from(self.minor_inflight)) as f64,
            ),
            ("engine.writes", self.stats.writes as f64),
            ("engine.stall_ns", self.stats.stall_time.as_nanos() as f64),
        ]);
        // Lane-scheduler state: admission pressure, occupancy, and the
        // cumulative per-stage time split of the staged pipeline.
        pushed.extend_from_slice(&[
            ("compact.lanes", self.lanes.len() as f64),
            ("compact.active_majors", self.inflight_major as f64),
            ("compact.idle_lanes", self.lanes.idle_at(now) as f64),
            ("compact.pressure", self.policy().pressure(l0)),
            ("compact.debt_bytes", debt),
            ("compact.read_ns", self.stats.compact_read_time.as_nanos() as f64),
            ("compact.merge_ns", self.stats.compact_merge_time.as_nanos() as f64),
            ("compact.write_ns", self.stats.compact_write_time.as_nanos() as f64),
            ("compact.preempt_l0", self.stats.l0_preempts as f64),
            ("compact.backoffs", self.stats.lane_backoffs as f64),
        ]);
        hub.sample_due(now, &pushed);
    }

    /// Raw per-level compaction debt: one table's worth per L0 file beyond
    /// the compaction trigger, and bytes over quota on scored levels —
    /// the work the background must retire before scores drop below 1.
    fn raw_debt_per_level(&self) -> Vec<u64> {
        let v = self.versions.current();
        let mut raw = vec![0u64; v.levels()];
        if let Some(r0) = raw.first_mut() {
            *r0 = (v.num_files(0).saturating_sub(self.opts.l0_compaction_trigger) as u64)
                .saturating_mul(self.opts.table_size);
        }
        for (level, r) in raw.iter_mut().enumerate().skip(1) {
            *r = v.scored_level_bytes(level).saturating_sub(self.opts.max_bytes_for_level(level));
        }
        raw
    }

    /// Pending compaction debt in bytes, net of what in-flight lanes have
    /// already claimed: with N concurrent majors the inputs sit in the
    /// version until each job *applies*, so a raw over-threshold sum would
    /// count the same bytes once per lane. Surfaced as the
    /// `compact.debt_bytes` gauge and the `debt=` field of
    /// `property("noblsm.stats")`.
    pub fn compaction_debt_bytes(&self) -> u64 {
        self.debt_ledger.unified(&self.raw_debt_per_level())
    }

    /// The lane-admission policy derived from the engine's L0 triggers.
    fn policy(&self) -> PriorityPolicy {
        PriorityPolicy::new(
            self.opts.l0_compaction_trigger,
            self.opts.l0_slowdown_trigger,
            self.opts.l0_stop_trigger,
        )
    }

    /// Number of configured compaction lanes.
    pub fn compaction_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Reconfigures the number of compaction lanes at runtime. New lanes
    /// are free immediately; shrinking drops the highest-indexed lanes
    /// (their in-flight jobs still complete and apply). Exposed over the
    /// wire as `COMPACT LANES <n>`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero — an engine always has at least one lane.
    pub fn set_compaction_lanes(&mut self, n: usize) {
        let now = self.clock.now();
        self.opts.compaction_lanes = n;
        self.lanes.resize(n, now);
        self.lane_jobs.resize(n, None);
        self.maybe_schedule(now);
    }

    /// Per-lane attribution: jobs run, busy time, bytes written.
    pub fn lane_stats(&self) -> &[LaneStats] {
        self.lanes.stats()
    }

    /// Major compactions currently in flight.
    pub fn active_majors(&self) -> usize {
        self.inflight_major
    }

    /// Current L0 write pressure in `[0, 1]`: zero at the compaction
    /// trigger, one at the stop trigger.
    pub fn l0_pressure(&self) -> f64 {
        self.policy().pressure(self.versions.current().num_files(0))
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
    /// resumes at `last_sequence() + 1`. Also exposed as
    /// `property("noblsm.seq")`.
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

    /// Processes due background completions and journal timers.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from applying completions.
    pub fn tick(&mut self, now: Nanos) -> Result<()> {
        self.pump(now)
    }

    /// Applies `batch` atomically — the canonical write entry point.
    ///
    /// The write is timed on the engine's [`SharedClock`] (see
    /// [`Db::clock`]): it starts at the clock's current instant and the
    /// clock ends up at the instant the write returned control. The whole
    /// batch becomes one WAL record with consecutive sequence numbers, so
    /// after a crash either every operation is recovered or none is.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&mut self, wopts: &WriteOptions, batch: WriteBatch) -> Result<Nanos> {
        let now = self.clock.now();
        if batch.is_empty() {
            return Ok(now);
        }
        let entries: Vec<(ValueType, &[u8], &[u8])> =
            batch.entries.iter().map(|(vt, k, v)| (*vt, k.as_slice(), v.as_slice())).collect();
        self.write_entries(now, &entries, *wopts)
    }

    /// Deletes `key` (writes a tombstone).
    ///
    /// Deprecated since 0.3.0: build a [`WriteBatch`] and call
    /// [`Db::write`]; this shim survives one release.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn delete(&mut self, now: Nanos, key: &[u8]) -> Result<Nanos> {
        self.write_one(now, key, b"", ValueType::Deletion, WriteOptions::default())
    }

    fn write_one(
        &mut self,
        now: Nanos,
        key: &[u8],
        value: &[u8],
        vt: ValueType,
        wopts: WriteOptions,
    ) -> Result<Nanos> {
        let entries = [(vt, key, value)];
        self.write_entries(now, &entries, wopts)
    }

    fn write_entries(
        &mut self,
        now: Nanos,
        entries: &[(ValueType, &[u8], &[u8])],
        wopts: WriteOptions,
    ) -> Result<Nanos> {
        let issued = now;
        // Open the engine-write causal scope: stalls, WAL appends and
        // journal commits below nest under the engine_put span.
        if let Some(sink) = &self.trace {
            sink.begin_span();
        }
        let res = self.write_entries_inner(now, entries, wopts);
        if let Some(sink) = &self.trace {
            match &res {
                Ok(end) => {
                    let bytes: u64 =
                        entries.iter().map(|(_, k, v)| (k.len() + v.len()) as u64).sum();
                    sink.end_span(EventClass::EnginePut, issued, *end, bytes);
                }
                Err(_) => {
                    sink.pop_ctx();
                }
            }
        }
        res
    }

    fn write_entries_inner(
        &mut self,
        now: Nanos,
        entries: &[(ValueType, &[u8], &[u8])],
        wopts: WriteOptions,
    ) -> Result<Nanos> {
        // LevelDB serializes writers on a mutex.
        let mut now = now.max(self.writer_free);
        now = self.make_room(now)?;
        let seq = self.versions.last_sequence + 1;
        self.versions.last_sequence += entries.len() as u64;
        let payload = encode_batch(seq, entries);
        let record = self.wal_writer.encode_record(&payload);
        now = self.fs.append(self.wal_handle, &record, now)?;
        if wopts.wants_sync() {
            now = self.fs.fsync(self.wal_handle, now)?;
        }
        for (i, (vt, key, value)) in entries.iter().enumerate() {
            self.mem.add(seq + i as u64, *vt, key, value);
            self.hot.record(key);
        }
        now = now + self.opts.cpu.put + self.opts.extra_op_cpu;
        self.stats.writes += entries.len() as u64;
        self.writer_free = now;
        self.clock.advance_to(now);
        Ok(now)
    }

    /// Pins the current state as a [`Snapshot`].
    pub fn snapshot(&mut self) -> Snapshot {
        let id = self.next_snapshot_id;
        self.next_snapshot_id += 1;
        let seq = self.versions.last_sequence;
        self.snapshots.insert(id, seq);
        Snapshot { id, seq }
    }

    /// Releases a snapshot, allowing compactions to drop the old entry
    /// versions it pinned.
    pub fn release_snapshot(&mut self, s: Snapshot) {
        self.snapshots.remove(&s.id);
    }

    /// The oldest sequence number any reader may still need.
    fn smallest_snapshot(&self) -> crate::SequenceNumber {
        self.snapshots.values().copied().min().unwrap_or(self.versions.last_sequence)
    }

    /// Manually compacts every level whose files overlap
    /// `[begin, end]` (`None` = unbounded), pushing the data to the
    /// bottom-most populated level — LevelDB's `CompactRange`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn compact_range(
        &mut self,
        now: Nanos,
        begin: Option<&[u8]>,
        end: Option<&[u8]>,
    ) -> Result<Nanos> {
        let mut now = self.flush(now)?;
        now = self.wait_idle(now)?;
        let overlaps = |db: &Db, level: usize| -> bool {
            db.versions.current().files[level].iter().any(|f| {
                let lo_ok = end.is_none_or(|e| crate::types::user_key(f.smallest.as_bytes()) <= e);
                let hi_ok = begin.is_none_or(|b| crate::types::user_key(f.largest.as_bytes()) >= b);
                lo_ok && hi_ok
            })
        };
        for level in 0..self.opts.max_levels - 1 {
            let mut guard = 0;
            while overlaps(self, level) {
                let lo = begin.unwrap_or(b"").to_vec();
                let hi = end.map(<[u8]>::to_vec);
                let Some(inputs) =
                    self.versions.manual_compaction(level, &lo, hi.as_deref(), &self.busy_levels)
                else {
                    break;
                };
                self.schedule_major(now, inputs);
                now = self.wait_idle(now)?;
                guard += 1;
                assert!(guard < 10_000, "compact_range failed to converge");
            }
        }
        Ok(now)
    }

    /// Rebuilds the database metadata in `dir` from surviving table and
    /// log files when the MANIFEST/CURRENT are lost or corrupt: every
    /// parseable table is re-registered at `L0` ordered by its newest
    /// sequence number, surviving WALs are replayed into fresh synced
    /// tables, and a new MANIFEST/CURRENT replace the damaged metadata.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn repair(fs: &Ext4Fs, dir: &str, opts: &Options, now: Nanos) -> Result<Nanos> {
        repair::repair(fs, dir, opts, now).map(|(t, _)| t)
    }

    /// [`repair`](Db::repair), additionally returning what was salvaged,
    /// skipped, and detected as corrupt — the accounting a
    /// recovery-validation harness needs to separate detected loss from
    /// silent loss.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn repair_with_report(
        fs: &Ext4Fs,
        dir: &str,
        opts: &Options,
        now: Nanos,
    ) -> Result<(Nanos, RepairReport)> {
        repair::repair(fs, dir, opts, now)
    }

    /// Estimates the on-disk bytes holding keys in `[begin, end]`
    /// (LevelDB's `GetApproximateSizes`): each overlapping table
    /// contributes its size scaled by the key-range fraction it overlaps
    /// (byte-lexicographic interpolation).
    pub fn approximate_size(&self, begin: &[u8], end: &[u8]) -> u64 {
        let v = self.versions.current();
        let mut total = 0u64;
        for files in &v.files {
            for f in files {
                let lo = crate::types::user_key(f.smallest.as_bytes());
                let hi = crate::types::user_key(f.largest.as_bytes());
                if hi < begin || lo > end {
                    continue;
                }
                total += (f.size as f64 * overlap_fraction(lo, hi, begin, end)) as u64;
            }
        }
        total
    }

    /// Engine introspection, LevelDB-style (`GetProperty`). Supported
    /// names:
    ///
    /// * `"noblsm.stats"` — one-line engine counters, including read and
    ///   write amplification inputs;
    /// * `"noblsm.compaction-stats"` — the classic `leveldb.stats`-style
    ///   per-level table (files, size, compaction reads/writes/time);
    /// * `"noblsm.sstables"` — per-level file listing;
    /// * `"noblsm.seq"` — the last committed sequence number (see
    ///   [`Db::last_sequence`]);
    /// * `"noblsm.num-files-at-level<N>"`;
    /// * `"noblsm.approximate-memory"` (alias
    ///   `"noblsm.approximate-memory-usage"`) — memtable bytes;
    /// * `"noblsm.ext4.*"` — filesystem passthroughs: `dirty-bytes`,
    ///   `running-txn-inodes`, `pending-inodes`, `committed-inodes`,
    ///   `journal-free-bytes`, `stats`;
    /// * `"noblsm.ssd.*"` — device passthroughs: `free-at`, `busy-time`,
    ///   `stats`.
    pub fn property(&self, name: &str) -> Option<String> {
        if let Some(level) = name.strip_prefix("noblsm.num-files-at-level") {
            let level: usize = level.parse().ok()?;
            return Some(self.versions.current().num_files(level).to_string());
        }
        if let Some(rest) = name.strip_prefix("noblsm.ext4.") {
            return self.ext4_property(rest);
        }
        if let Some(rest) = name.strip_prefix("noblsm.ssd.") {
            return self.ssd_property(rest);
        }
        match name {
            "noblsm.seq" => Some(self.versions.last_sequence.to_string()),
            "noblsm.stats" => {
                let s = &self.stats;
                let mut line = format!(
                    "writes={} gets={} minor={} major={} seek={} stalls={} stall_time={} \
shadows={} reclaimed={} files_read={} read_amp={:.2}",
                    s.writes,
                    s.gets,
                    s.minor_compactions,
                    s.major_compactions,
                    s.seek_compactions,
                    s.stalls,
                    s.stall_time,
                    s.shadow_files,
                    s.reclaimed_files,
                    s.files_read_per_get,
                    s.read_amplification()
                );
                line.push_str(&format!(
                    " debt={} lanes={}/{} preempt_l0={} backoff={}",
                    self.compaction_debt_bytes(),
                    self.inflight_major,
                    self.lanes.len(),
                    s.l0_preempts,
                    s.lane_backoffs,
                ));
                for (i, ls) in self.lanes.stats().iter().enumerate() {
                    line.push_str(&format!(
                        " lane{i}={}:{}:{}",
                        ls.jobs,
                        ls.busy.as_nanos(),
                        ls.bytes_written
                    ));
                }
                if let Some(sink) = &self.trace {
                    line.push_str(&format!(" trace_dropped={}", sink.dropped()));
                }
                Some(line)
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
            "noblsm.sstables" => {
                let v = self.versions.current();
                let mut out = String::new();
                for (level, files) in v.files.iter().enumerate() {
                    if files.is_empty() {
                        continue;
                    }
                    out.push_str(&format!("--- level {level} ---\n"));
                    for f in files {
                        out.push_str(&format!(
                            "{}{}: {} bytes\n",
                            f.number,
                            if f.hot { " (hot)" } else { "" },
                            f.size
                        ));
                    }
                }
                Some(out)
            }
            "noblsm.approximate-memory" | "noblsm.approximate-memory-usage" => {
                let bytes = self.mem.approximate_bytes()
                    + self.imm.as_ref().map_or(0, MemTable::approximate_bytes);
                Some(bytes.to_string())
            }
            _ => None,
        }
    }

    /// `noblsm.ext4.*` property passthroughs.
    fn ext4_property(&self, name: &str) -> Option<String> {
        match name {
            "dirty-bytes" => Some(self.fs.dirty_bytes().to_string()),
            "running-txn-inodes" => Some(self.fs.running_txn_inodes().to_string()),
            "pending-inodes" => Some(self.fs.kernel_table_sizes().0.to_string()),
            "committed-inodes" => Some(self.fs.kernel_table_sizes().1.to_string()),
            "journal-free-bytes" => Some(self.fs.journal_free_bytes().to_string()),
            "stats" => {
                let s = self.fs.stats();
                Some(format!(
                    "sync_calls={} bytes_synced={} async_commits={} sync_commits={} \
journal_bytes={} bytes_written_back={}",
                    s.sync_calls,
                    s.bytes_synced,
                    s.async_commits,
                    s.sync_commits,
                    s.journal_bytes,
                    s.bytes_written_back
                ))
            }
            _ => None,
        }
    }

    /// `noblsm.ssd.*` property passthroughs.
    fn ssd_property(&self, name: &str) -> Option<String> {
        match name {
            "free-at" => Some(self.fs.device_free_at().as_nanos().to_string()),
            "busy-time" => Some(self.fs.device_busy_time().as_nanos().to_string()),
            "stats" => {
                let io = self.fs.io_stats();
                Some(format!(
                    "read_commands={} write_commands={} flush_commands={} bytes_read={} \
bytes_written={}",
                    io.read_commands,
                    io.write_commands,
                    io.flush_commands,
                    io.bytes_read,
                    io.bytes_written
                ))
            }
            _ => None,
        }
    }

    /// Reads `key` under [`ReadOptions`] — the canonical read entry
    /// point.
    ///
    /// The read is timed on the engine's [`SharedClock`] (see
    /// [`Db::clock`]). `ropts.snapshot` pins the view; `ropts.fill_cache`
    /// controls block-cache population.
    ///
    /// # Errors
    ///
    /// Propagates filesystem/corruption errors.
    pub fn get(&mut self, ropts: &ReadOptions<'_>, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let now = self.clock.now();
        let seq = ropts.snapshot.map_or(self.versions.last_sequence, Snapshot::sequence);
        let (value, _end) = self.get_internal(now, key, seq, ropts.fill_cache)?;
        Ok(value)
    }

    /// Reads the newest visible value of `key` at an explicit instant.
    ///
    /// Deprecated since 0.3.0: call [`Db::get`], which reads the shared
    /// clock instead of a caller-threaded `now`; this shim survives one
    /// release.
    ///
    /// # Errors
    ///
    /// Propagates filesystem/corruption errors.
    pub fn get_at_time(&mut self, now: Nanos, key: &[u8]) -> Result<(Option<Vec<u8>>, Nanos)> {
        let seq = self.versions.last_sequence;
        self.get_internal(now, key, seq, true)
    }

    fn get_internal(
        &mut self,
        now: Nanos,
        key: &[u8],
        seq: crate::SequenceNumber,
        fill_cache: bool,
    ) -> Result<(Option<Vec<u8>>, Nanos)> {
        let issued = now;
        // Scope the read so device commands it issues (table reads)
        // nest under the engine_get span in the trace tree.
        if let Some(sink) = &self.trace {
            sink.begin_span();
        }
        let result = self.get_untraced(now, key, seq, fill_cache);
        if let Ok((_, end)) = &result {
            self.clock.advance_to(*end);
        }
        if let Some(sink) = &self.trace {
            match &result {
                Ok((value, end)) => {
                    let bytes = value.as_ref().map_or(0, |v| v.len() as u64);
                    sink.end_span(EventClass::EngineGet, issued, *end, bytes);
                }
                Err(_) => {
                    sink.pop_ctx();
                }
            }
        }
        result
    }

    fn get_untraced(
        &mut self,
        now: Nanos,
        key: &[u8],
        seq: crate::SequenceNumber,
        fill_cache: bool,
    ) -> Result<(Option<Vec<u8>>, Nanos)> {
        self.pump(now)?;
        let mut now = now + self.opts.cpu.get + self.opts.extra_op_cpu;
        self.stats.gets += 1;
        match self.mem.get(key, seq) {
            MemLookup::Found(v) => {
                self.stats.hits += 1;
                return Ok((Some(v), now));
            }
            MemLookup::Deleted => return Ok((None, now)),
            MemLookup::NotFound => {}
        }
        if let Some(imm) = &self.imm {
            match imm.get(key, seq) {
                MemLookup::Found(v) => {
                    self.stats.hits += 1;
                    return Ok((Some(v), now));
                }
                MemLookup::Deleted => return Ok((None, now)),
                MemLookup::NotFound => {}
            }
        }
        let version = self.versions.current();
        let (result, probes, seek) =
            version.get(key, seq, self.opts.style, &self.tables, &mut now, fill_cache)?;
        self.stats.files_read_per_get += probes as u64;
        if let Some(sf) = seek {
            if self.opts.seek_compaction {
                self.pending_seek = Some(sf);
                self.maybe_schedule(now);
            }
        }
        match result {
            crate::version::GetResult::Found(v) => {
                self.stats.hits += 1;
                Ok((Some(v), now))
            }
            _ => Ok((None, now)),
        }
    }

    /// Reads several keys at one consistent sequence number, returning
    /// results in input order.
    ///
    /// # Errors
    ///
    /// Propagates filesystem/corruption errors.
    pub fn multi_get(
        &mut self,
        now: Nanos,
        keys: &[&[u8]],
    ) -> Result<(Vec<Option<Vec<u8>>>, Nanos)> {
        let seq = self.versions.last_sequence;
        let mut out = Vec::with_capacity(keys.len());
        let mut now = now;
        for key in keys {
            let (got, t) = self.get_internal(now, key, seq, true)?;
            now = t;
            out.push(got);
        }
        Ok((out, now))
    }

    /// Creates an iterator under [`ReadOptions`] — the canonical
    /// iteration entry point, starting at the shared clock's instant.
    ///
    /// The iterator owns its virtual clock (see [`DbIterator::now`]).
    ///
    /// # Errors
    ///
    /// Propagates filesystem/corruption errors.
    pub fn iter(&mut self, ropts: &ReadOptions<'_>) -> Result<DbIterator<'_>> {
        let now = self.clock.now();
        let seq = ropts.snapshot.map_or(self.versions.last_sequence, Snapshot::sequence);
        self.iter_internal(now, seq, ropts.fill_cache)
    }

    /// Creates an iterator over the live database at `now`.
    ///
    /// Deprecated since 0.3.0: prefer [`Db::iter`]; this shim survives
    /// one release.
    ///
    /// The iterator owns its virtual clock (see [`DbIterator::now`]).
    ///
    /// # Errors
    ///
    /// Propagates filesystem/corruption errors.
    pub fn iter_at(&mut self, now: Nanos) -> Result<DbIterator<'_>> {
        let seq = self.versions.last_sequence;
        self.iter_internal(now, seq, true)
    }

    fn iter_internal(
        &mut self,
        now: Nanos,
        snapshot: crate::SequenceNumber,
        fill_cache: bool,
    ) -> Result<DbIterator<'_>> {
        self.pump(now)?;
        let version = self.versions.current();
        let mut now = now;
        let mut children: Vec<Box<dyn InternalIterator + '_>> = Vec::new();
        children.push(Box::new(self.mem.internal_iter()));
        if let Some(imm) = &self.imm {
            children.push(Box::new(imm.internal_iter()));
        }
        for level in 0..version.levels() {
            let files = version.files[level].clone();
            if files.is_empty() {
                continue;
            }
            if level == 0 {
                for f in files {
                    let t = self.tables.table(&f, &mut now)?;
                    children.push(Box::new(t.iter_opt(fill_cache)));
                }
            } else if self.opts.style == CompactionStyle::Fragmented {
                // A fragmented level is a stack of sorted runs (each
                // compaction generation's outputs are disjoint); one
                // concatenating iterator per run bounds scan cost by the
                // generation count — the same effect PebblesDB's guards
                // have on reads.
                for run in sorted_runs(files) {
                    children.push(Box::new(LevelIter::new_opt(&self.tables, run, fill_cache)));
                }
            } else {
                // Hot (overlapping) files form their own runs; the sorted
                // cold remainder uses one concatenating iterator.
                let (hot, cold): (Vec<_>, Vec<_>) = files.into_iter().partition(|f| f.hot);
                for run in sorted_runs(hot) {
                    children.push(Box::new(LevelIter::new_opt(&self.tables, run, fill_cache)));
                }
                if !cold.is_empty() {
                    children.push(Box::new(LevelIter::new_opt(&self.tables, cold, fill_cache)));
                }
            }
        }
        Ok(DbIterator::new(MergingIterator::new(children), snapshot, now, self.opts.cpu.next))
    }

    /// Range scan under [`ReadOptions`] + [`ScanOptions`] — the canonical
    /// scan entry point, matching the `write`/`get` options-driven
    /// surface. Visits live (tombstone-suppressed) entries inside the
    /// options' effective bounds, ascending or descending, starting at
    /// the shared clock's instant and advancing it past the scan's I/O.
    ///
    /// # Errors
    ///
    /// Propagates filesystem/corruption errors.
    pub fn scan(&mut self, ropts: &ReadOptions<'_>, sopts: &ScanOptions<'_>) -> Result<ScanResult> {
        let now = self.clock.now();
        let seq = ropts.snapshot.map_or(self.versions.last_sequence, Snapshot::sequence);
        let start = sopts.effective_start().map(<[u8]>::to_vec);
        let end = sopts.effective_end();
        let fill = sopts.fill_cache && ropts.fill_cache;
        let mut collector = ScanCollector::new(sopts);
        let mut it = self.iter_internal(now, seq, fill)?;
        if sopts.reverse {
            match end.as_deref() {
                // `seek` lands on the first key >= end (out of range), so
                // one `prev` yields the largest in-range key; an invalid
                // seek means nothing >= end exists and the last key is it.
                Some(e) => {
                    it.seek(e)?;
                    if it.valid() {
                        it.prev()?;
                    } else {
                        it.seek_to_last()?;
                    }
                }
                None => it.seek_to_last()?,
            }
            while it.valid() {
                if start.as_deref().is_some_and(|s| it.key() < s) {
                    break;
                }
                if !collector.offer(it.key(), it.value()) {
                    break;
                }
                it.prev()?;
            }
        } else {
            match start.as_deref() {
                Some(s) => it.seek(s)?,
                None => it.seek_to_first()?,
            }
            while it.valid() {
                if end.as_deref().is_some_and(|e| it.key() >= e) {
                    break;
                }
                if !collector.offer(it.key(), it.value()) {
                    break;
                }
                it.next()?;
            }
        }
        let end_t = it.now();
        drop(it);
        self.clock.advance_to(end_t);
        Ok(collector.finish())
    }

    /// Forces the current memtable to `L0` and waits for the flush.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn flush(&mut self, now: Nanos) -> Result<Nanos> {
        let mut now = now;
        if !self.mem.is_empty() {
            // Wait out any in-flight flush first.
            while self.imm.is_some() {
                let t = self.imm_done_at.or_else(|| self.events.next_at());
                let Some(t) = t else { break };
                now = now.max(t);
                self.pump(now)?;
            }
            self.switch_memtable(now);
        }
        while self.imm.is_some() {
            let t = self.imm_done_at.or_else(|| self.events.next_at());
            let Some(t) = t else { break };
            now = now.max(t);
            self.pump(now)?;
        }
        self.clock.advance_to(now);
        Ok(now)
    }

    /// Drains all scheduled background *compaction* work, advancing
    /// virtual time as needed, and returns the instant the engine went
    /// idle. NobLSM's pending reclamation polls are left armed — they are
    /// housekeeping, not work a benchmark should wait for.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn wait_idle(&mut self, now: Nanos) -> Result<Nanos> {
        let mut now = now;
        let end = loop {
            self.pump(now)?;
            self.maybe_schedule(now);
            if self.inflight_major == 0 && !self.minor_inflight {
                break now;
            }
            let Some(t) = self.events.next_at() else { break now };
            now = now.max(t);
        };
        self.clock.advance_to(end);
        Ok(end)
    }

    /// Drains compactions *and* NobLSM reclamation: advances time across
    /// commit intervals until no shadow files remain. Used by tests and
    /// the consistency harness.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn settle(&mut self, now: Nanos) -> Result<Nanos> {
        let mut now = self.wait_idle(now)?;
        let mut guard = 0;
        while self.deps.pending_dependencies() > 0 {
            let t = self.events.next_at().unwrap_or(now + self.opts.reclaim_interval);
            now = now.max(t);
            self.pump(now)?;
            now = self.wait_idle(now)?;
            guard += 1;
            assert!(guard < 10_000, "reclamation failed to converge");
        }
        self.clock.advance_to(now);
        Ok(now)
    }

    // ------------------------------------------------------------------
    // Background machinery
    // ------------------------------------------------------------------

    fn pump(&mut self, now: Nanos) -> Result<()> {
        self.fs.tick(now);
        while let Some((t, ev)) = self.events.pop_due(now) {
            // Sample grid instants the event predates, so a gauge reads
            // its pre-completion value (e.g. L0 count before the merge
            // applied) exactly as a wall-clock scraper would have.
            self.sample_metrics(t);
            match ev {
                DbEvent::MinorDone { output, old_wal, new_log_number } => {
                    self.apply_minor(t, output, old_wal, new_log_number)?;
                }
                DbEvent::MajorDone { inputs, outcome, succ_files, started, lane, claim } => {
                    // The lane's stall attribution and debt claim end when
                    // the job's results apply (`get_mut`: the lane may have
                    // been dropped by a shrink while the job was in flight).
                    if let Some(slot) = self.lane_jobs.get_mut(lane) {
                        *slot = None;
                    }
                    self.debt_ledger.release(claim);
                    self.apply_major(t, inputs, outcome, succ_files, started)?;
                }
                DbEvent::ReclaimPoll => {
                    self.apply_reclaim(t)?;
                }
            }
        }
        self.sample_metrics(now);
        Ok(())
    }

    fn apply_minor(
        &mut self,
        t: Nanos,
        output: Option<CompactionOutput>,
        old_wal: (u64, String),
        new_log_number: u64,
    ) -> Result<()> {
        let mut edit = VersionEdit::new();
        if let Some(o) = &output {
            edit.add_file(0, o.meta.clone());
        }
        self.versions.log_number = new_log_number;
        let t = self.versions.log_and_apply(edit, t, self.opts.sync_mode == SyncMode::Always)?;
        if let Some(o) = &output {
            self.refs.acquire(o.meta.physical, &o.physical_path);
        }
        // The WAL's deletion and the manifest edit land in the same Ext4
        // transaction, so a crash either sees both or neither — the
        // recovery path handles each side.
        let _ = self.fs.delete(&old_wal.1, t);
        self.imm = None;
        self.imm_done_at = None;
        self.minor_inflight = false;
        self.maybe_schedule(t);
        Ok(())
    }

    fn apply_major(
        &mut self,
        t: Nanos,
        inputs: CompactionInputs,
        outcome: MajorOutcome,
        succ_files: Vec<(u64, String, InodeId)>,
        started: Nanos,
    ) -> Result<()> {
        let level = inputs.level;
        // Single accounting path for every major compaction — size-,
        // seek- and manually-triggered alike — so the global counters and
        // the per-level breakdown can never diverge.
        self.stats.record_major_compaction(
            level,
            inputs.from_seek,
            inputs.input_bytes(),
            outcome.bytes_written,
            t - started,
        );
        let mut edit = VersionEdit::new();
        for f in &inputs.inputs0 {
            edit.delete_file(level, f.number);
        }
        for f in &inputs.inputs1 {
            edit.delete_file(level + 1, f.number);
        }
        for o in &outcome.outputs {
            edit.add_file(level + 1, o.meta.clone());
        }
        // Hot outputs stay at the parent level (they will be reconsidered
        // when cold) — except for L0 parents, where re-adding files would
        // feed the L0 count trigger right back; those go to L1 flagged
        // hot, where overlap is tolerated.
        let hot_level = if level == 0 { 1 } else { level };
        for o in &outcome.hot_outputs {
            edit.add_file(hot_level, o.meta.clone());
        }
        if let Some(k) = &outcome.largest_compacted {
            edit.set_compact_pointer(level, k.clone());
        }
        let t = self.versions.log_and_apply(edit, t, self.opts.sync_mode == SyncMode::Always)?;
        for o in outcome.outputs.iter().chain(&outcome.hot_outputs) {
            self.refs.acquire(o.meta.physical, &o.physical_path);
        }

        match self.opts.sync_mode {
            SyncMode::NobLsm => {
                // §4.1: retain predecessors as shadows; register the
                // p-to-q dependency; ask Ext4 to track the successors.
                let inos: Vec<InodeId> = succ_files.iter().map(|(_, _, i)| *i).collect();
                self.fs.check_commit(&inos, t);
                let preds: Vec<Predecessor> = inputs
                    .inputs0
                    .iter()
                    .chain(&inputs.inputs1)
                    .map(|f| Predecessor { number: f.number, physical: f.physical })
                    .collect();
                self.deps.register(preds, inos);
                self.stats.shadow_files = self.deps.shadow_count() as u64;
                if !self.reclaim_armed {
                    self.reclaim_armed = true;
                    self.events.push(t + self.opts.reclaim_interval, DbEvent::ReclaimPoll);
                }
            }
            _ => {
                for f in inputs.inputs0.iter().chain(&inputs.inputs1) {
                    self.release_table(f.number, f.physical, t)?;
                }
            }
        }
        self.busy_levels.remove(&level);
        self.busy_levels.remove(&(level + 1));
        self.inflight_major -= 1;
        self.maybe_schedule(t);
        Ok(())
    }

    fn apply_reclaim(&mut self, t: Nanos) -> Result<()> {
        self.reclaim_armed = false;
        let ready = self.deps.poll(&self.fs, t);
        for p in ready {
            self.release_table(p.number, p.physical, t)?;
            self.stats.reclaimed_files += 1;
        }
        self.stats.shadow_files = self.deps.shadow_count() as u64;
        if self.deps.pending_dependencies() > 0 {
            self.reclaim_armed = true;
            self.events.push(t + self.opts.reclaim_interval, DbEvent::ReclaimPoll);
        }
        Ok(())
    }

    fn release_table(&mut self, number: u64, physical: u64, t: Nanos) -> Result<()> {
        self.tables.evict(number);
        if let Some(path) = self.refs.release(physical) {
            let _ = self.fs.delete(&path, t);
        }
        Ok(())
    }

    fn make_room(&mut self, now: Nanos) -> Result<Nanos> {
        self.pump(now)?;
        let mut now = now;
        let mut slowed = false;
        loop {
            let l0 = self.versions.current().num_files(0);
            if !slowed && l0 >= self.opts.l0_slowdown_trigger {
                // LevelDB's 1 ms write delay at the slowdown trigger.
                let from = now;
                now += self.opts.slowdown_delay;
                slowed = true;
                self.stats.slowdowns += 1;
                if let Some(sink) = &self.trace {
                    let ctx = sink.emit_stall(StallKind::Slowdown, from, now);
                    emit_stall_activity(sink, ctx, &self.lane_jobs, from, now);
                }
                self.pump(now)?;
                continue;
            }
            if self.mem.approximate_bytes() < self.opts.write_buffer_size {
                return Ok(now);
            }
            if self.imm.is_some() {
                // Wait for the in-flight minor compaction.
                let t = self.imm_done_at.or_else(|| self.events.next_at());
                let Some(t) = t else {
                    // No pending event can free the memtable; force one.
                    self.maybe_schedule(now);
                    if self.events.is_empty() {
                        return Err(DbError::InvalidDb(
                            "stalled with immutable memtable and no background work".into(),
                        ));
                    }
                    continue;
                };
                if t > now {
                    self.stats.stalls += 1;
                    self.stats.stall_time += t - now;
                    if let Some(sink) = &self.trace {
                        let ctx = sink.emit_stall(StallKind::Memtable, now, t);
                        emit_stall_activity(sink, ctx, &self.lane_jobs, now, t);
                    }
                    now = t;
                }
                self.pump(now)?;
                continue;
            }
            if l0 >= self.opts.l0_stop_trigger {
                self.maybe_schedule(now);
                let Some(t) = self.events.next_at() else {
                    return Err(DbError::InvalidDb(
                        "stalled at L0 stop trigger with no background work".into(),
                    ));
                };
                if t > now {
                    self.stats.stalls += 1;
                    self.stats.stall_time += t - now;
                    if let Some(sink) = &self.trace {
                        let ctx = sink.emit_stall(StallKind::L0Stop, now, t);
                        emit_stall_activity(sink, ctx, &self.lane_jobs, now, t);
                    }
                    now = t;
                }
                self.pump(now)?;
                continue;
            }
            self.switch_memtable(now);
        }
    }

    /// Seals the current memtable, opens a fresh WAL, and schedules the
    /// minor compaction.
    fn switch_memtable(&mut self, now: Nanos) {
        debug_assert!(self.imm.is_none());
        let old_wal_number = self.wal_number;
        let old_wal_path = file_path(&self.dir, FileKind::Wal, old_wal_number);
        let new_number = self.versions.new_file_number();
        let new_path = file_path(&self.dir, FileKind::Wal, new_number);
        let handle = self.fs.create(&new_path, now).expect("fresh WAL name is unique");
        self.wal_handle = handle;
        self.wal_number = new_number;
        self.wal_writer = LogWriter::new();
        self.imm = Some(std::mem::take(&mut self.mem));
        self.schedule_minor(now, (old_wal_number, old_wal_path), new_number);
    }

    fn pick_lane(&self, ready: Nanos) -> (usize, Nanos) {
        self.lanes.pick(ready)
    }

    fn schedule_minor(&mut self, now: Nanos, old_wal: (u64, String), new_log_number: u64) {
        debug_assert!(!self.minor_inflight);
        let number = self.versions.new_file_number();
        let (lane, start) = self.pick_lane(now);
        let mut t = start;
        let imm = self.imm.as_ref().expect("imm set before scheduling minor");
        let result = write_table(&self.fs, &self.dir, &self.opts, number, imm.iter(), &mut t);
        let output = result.unwrap_or_default();
        // NobLSM §4.1: the minor compaction is the *only* occasion KV
        // pairs are synced (modes other than Never sync here too).
        if self.opts.sync_mode != SyncMode::Never {
            if let Some(o) = &output {
                if let Ok(h) = self.fs.open(&o.physical_path, t) {
                    if let Ok(t2) = self.fs.fsync(h, t) {
                        t = t2;
                    }
                }
            }
        }
        let bytes = output.as_ref().map_or(0, |o| o.meta.size);
        self.lanes.occupy(lane, start, t, bytes);
        self.minor_inflight = true;
        self.imm_done_at = Some(t);
        self.stats.minor_compactions += 1;
        if let Some(sink) = &self.trace {
            sink.emit(EventClass::MinorCompaction, now, t, bytes);
        }
        self.events.push(t, DbEvent::MinorDone { output, old_wal, new_log_number });
    }

    fn maybe_schedule(&mut self, now: Nanos) {
        // Minor compactions take priority (LevelDB's background thread
        // always flushes the immutable memtable first).
        // They are scheduled directly from switch_memtable.

        // Admission: pressure decides how many lanes majors may fill —
        // one when calm, all of them as L0 approaches the stop trigger.
        let lanes = self.lanes.len();
        let policy = self.policy();
        let budget = policy.max_active(self.versions.current().num_files(0), lanes);

        // Seek-triggered compaction.
        if self.inflight_major < budget {
            if let Some((level, file)) = self.pending_seek.take() {
                if let Some(c) = self.versions.pick_seek_compaction(level, &file, &self.busy_levels)
                {
                    self.schedule_major(now, c);
                }
            }
        }
        // Size-triggered compactions, preempting toward L0→L1 work when
        // the L0 count nears the slowdown trigger.
        while self.inflight_major < budget {
            let l0 = self.versions.current().num_files(0);
            let preempted = if policy.prefer_l0(l0) {
                self.versions.pick_level_compaction(0, &self.busy_levels)
            } else {
                None
            };
            let c = match preempted {
                Some(c) => {
                    self.stats.l0_preempts += 1;
                    c
                }
                None => match self.versions.pick_compaction(&self.busy_levels) {
                    Some(c) => c,
                    None => break,
                },
            };
            self.schedule_major(now, c);
        }
        // Back-off accounting: admission held major-capable lanes idle
        // while eligible work existed (low pressure — bandwidth saved for
        // the foreground). The flush lane is reserved, never backed off.
        if budget < policy.major_capacity(lanes)
            && self.inflight_major >= budget
            && self.versions.pick_compaction(&self.busy_levels).is_some()
        {
            self.stats.lane_backoffs += 1;
        }
    }

    fn schedule_major(&mut self, now: Nanos, inputs: CompactionInputs) {
        let (lane, start) = self.pick_lane(now);
        let mut t = start;
        let version = self.versions.current();
        let snapshot = self.smallest_snapshot();
        // Reserve a generous block of file numbers for the outputs.
        let bound = (inputs.input_bytes() / self.opts.table_size.max(1)) + 8;
        let base = self.versions.next_file_number;
        self.versions.next_file_number += bound;
        let mut counter = base;
        let end = base + bound;
        let mut alloc = move || {
            let n = counter;
            counter += 1;
            assert!(n < end, "output number reservation exhausted");
            n
        };
        // L2SM hot routing converges only while the destination level has
        // room for more hot files; at the cap, everything is pushed down
        // cold so consolidation makes progress.
        let hot_level = if inputs.level == 0 { 1 } else { inputs.level };
        let allow_hot = self.opts.hot_cold
            && version.files.get(hot_level).is_some_and(|fs| {
                fs.iter().filter(|f| f.hot).count() < crate::version::MAX_FREE_HOT_FILES
            });
        let outcome = match run_major(
            &self.fs,
            &self.dir,
            &self.opts,
            &self.tables,
            &version,
            &inputs,
            snapshot,
            &self.hot,
            allow_hot,
            &mut alloc,
            &mut t,
        ) {
            Ok(o) => o,
            Err(_) => MajorOutcome {
                outputs: Vec::new(),
                hot_outputs: Vec::new(),
                bytes_written: 0,
                largest_compacted: None,
                stages: StagePlan::default(),
            },
        };
        // Sync discipline for the new tables. Ungrouped outputs were
        // already synced file-by-file inside the compaction (LevelDB's
        // behaviour); BoLT's grouped physical file is synced exactly once
        // here, after the whole compaction.
        let succ_files = physical_files(
            &outcome.outputs.iter().chain(&outcome.hot_outputs).cloned().collect::<Vec<_>>(),
        );
        let serial_end = t;
        if self.opts.sync_mode == SyncMode::Always && self.opts.grouped_output {
            for (_, path, _) in &succ_files {
                if let Ok(h) = self.fs.open(path, t) {
                    if let Ok(t2) = self.fs.fsync(h, t) {
                        t = t2;
                    }
                }
            }
        }
        // Staged completion: all I/O above was priced serially on the
        // device timeline (honest cost), but the three stages overlap
        // across output granules, so the *job* finishes at the pipelined
        // end — never later than the serial end — plus the final group
        // sync, which cannot overlap anything.
        let sync_cost = t - serial_end;
        let done = outcome.stages.pipelined_end(start) + sync_cost;
        let intervals = outcome.stages.intervals(start);
        let (read_t, merge_t, write_t) = outcome.stages.stage_totals();
        self.stats.compact_read_time += read_t;
        self.stats.compact_merge_time += merge_t;
        self.stats.compact_write_time += write_t;
        // Claim the debt this job is retiring, so concurrent lanes do not
        // re-count the same input bytes until the version edit applies.
        let claim_bytes = if inputs.level == 0 {
            (inputs.inputs0.len() as u64).saturating_mul(self.opts.table_size)
        } else {
            inputs.inputs0.iter().map(|f| f.size).sum()
        };
        let claim = self.debt_ledger.claim(inputs.level, claim_bytes);
        self.lanes.occupy(lane, start, done, outcome.bytes_written);
        self.busy_levels.insert(inputs.level);
        self.busy_levels.insert(inputs.level + 1);
        self.inflight_major += 1;
        // Stats are recorded in apply_major (the single accounting path),
        // when the completion event lands.
        if let Some(sink) = &self.trace {
            sink.emit(EventClass::MajorCompaction, now, done, outcome.bytes_written);
            for iv in &intervals {
                sink.emit(stage_class(iv.stage), iv.start, iv.end, iv.bytes);
            }
        }
        if let Some(slot) = self.lane_jobs.get_mut(lane) {
            *slot = Some(intervals);
        }
        self.events.push(
            done,
            DbEvent::MajorDone { inputs, outcome, succ_files, started: start, lane, claim },
        );
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

/// Partitions possibly-overlapping files into sorted non-overlapping runs
/// (greedy by smallest key): the iterator-facing equivalent of PebblesDB's
/// guards and L2SM's hot-log generations.
fn sorted_runs(mut files: Vec<Arc<FileMetaData>>) -> Vec<Vec<Arc<FileMetaData>>> {
    files.sort_by(|a, b| {
        crate::types::compare_internal(a.smallest.as_bytes(), b.smallest.as_bytes())
            .then(a.number.cmp(&b.number))
    });
    let mut runs: Vec<Vec<Arc<FileMetaData>>> = Vec::new();
    for f in files {
        let slot = runs.iter_mut().find(|run| {
            let last = run.last().expect("runs are non-empty");
            crate::types::user_key(last.largest.as_bytes())
                < crate::types::user_key(f.smallest.as_bytes())
        });
        match slot {
            Some(run) => run.push(f),
            None => runs.push(vec![f]),
        }
    }
    runs
}

#[cfg(test)]
mod run_tests {
    use super::*;
    use crate::{InternalKey, ValueType};

    fn meta(n: u64, lo: &str, hi: &str) -> Arc<FileMetaData> {
        Arc::new(FileMetaData::new(
            n,
            n,
            0,
            1,
            InternalKey::new(lo.as_bytes(), 1, ValueType::Value),
            InternalKey::new(hi.as_bytes(), 1, ValueType::Value),
        ))
    }

    #[test]
    fn disjoint_files_form_one_run() {
        let runs = sorted_runs(vec![meta(3, "g", "i"), meta(1, "a", "c"), meta(2, "d", "f")]);
        assert_eq!(runs.len(), 1);
        let nums: Vec<u64> = runs[0].iter().map(|f| f.number).collect();
        assert_eq!(nums, vec![1, 2, 3]);
    }

    #[test]
    fn overlapping_files_split_into_runs() {
        let runs = sorted_runs(vec![
            meta(1, "a", "m"),
            meta(2, "b", "k"),
            meta(3, "n", "z"),
            meta(4, "p", "q"),
        ]);
        assert_eq!(runs.len(), 2);
        // Every run is internally non-overlapping.
        for run in &runs {
            for w in run.windows(2) {
                assert!(
                    crate::types::user_key(w[0].largest.as_bytes())
                        < crate::types::user_key(w[1].smallest.as_bytes())
                );
            }
        }
        // All four files are covered exactly once.
        let total: usize = runs.iter().map(Vec::len).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn empty_input_yields_no_runs() {
        assert!(sorted_runs(Vec::new()).is_empty());
    }
}

/// The trace class a pipeline stage's spans carry.
fn stage_class(stage: Stage) -> EventClass {
    match stage {
        Stage::Read => EventClass::CompactRead,
        Stage::Merge => EventClass::CompactMerge,
        Stage::Write => EventClass::CompactWrite,
    }
}

/// Emits the in-flight compaction stage activity overlapping the stall
/// window `[lo, hi]` as children of the stall span `ctx`, so the
/// critical-path analyzer shows *what the background was doing* while the
/// foreground waited. A no-op outside request scope (`ctx` is none).
fn emit_stall_activity(
    sink: &TraceSink,
    ctx: TraceCtx,
    lane_jobs: &[Option<Vec<StageInterval>>],
    lo: Nanos,
    hi: Nanos,
) {
    if ctx.is_none() {
        return;
    }
    for job in lane_jobs.iter().flatten() {
        for iv in job {
            if let Some(c) = iv.clip(lo, hi) {
                sink.emit_ctx(stage_class(c.stage), c.start, c.end, c.bytes, sink.child_ctx(ctx));
            }
        }
    }
}

/// Fraction of `[lo, hi]` covered by `[begin, end]`, interpolating keys
/// as big-endian fractions of their first 8 bytes.
fn overlap_fraction(lo: &[u8], hi: &[u8], begin: &[u8], end: &[u8]) -> f64 {
    fn frac(key: &[u8]) -> f64 {
        let mut buf = [0u8; 8];
        for (i, b) in key.iter().take(8).enumerate() {
            buf[i] = *b;
        }
        u64::from_be_bytes(buf) as f64 / u64::MAX as f64
    }
    let (l, h) = (frac(lo), frac(hi));
    if h <= l {
        return 1.0; // degenerate single-point range: all or nothing
    }
    let b = frac(begin).max(l);
    let e = frac(end).min(h);
    ((e - b) / (h - l)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod overlap_tests {
    use super::overlap_fraction;

    #[test]
    fn full_containment_is_one() {
        assert!((overlap_fraction(b"b", b"c", b"a", b"z") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn half_overlap_is_half() {
        // file spans [0x20, 0x40]; query [0x30, 0xff] covers the top half.
        let f = overlap_fraction(&[0x20], &[0x40], &[0x30], &[0xff]);
        assert!((f - 0.5).abs() < 0.01, "{f}");
    }

    #[test]
    fn disjoint_is_zero() {
        let f = overlap_fraction(&[0x20], &[0x40], &[0x50], &[0x60]);
        assert!(f.abs() < 1e-9);
    }
}
