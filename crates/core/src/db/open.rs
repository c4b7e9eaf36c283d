//! Opening a database: creation, MANIFEST recovery, orphan collection and
//! WAL replay.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use nob_ext4::Ext4Fs;
use nob_sim::{EventQueue, Nanos, SharedClock};

use crate::cache::TableCache;
use crate::compaction::{write_table, CompactionOutput, PhysicalRefs};
use crate::memtable::MemTable;
use crate::noblsm::DependencyTracker;
use crate::options::{Options, SyncMode};
use crate::sched::Scheduler;
use crate::version::{file_path, list_dir, FileKind, VersionEdit, VersionSet};
use crate::wal::{LogWriter, ReplayCursor};
use crate::{DbError, DbStats, Result};

use super::hot::HotTracker;
use super::Db;

impl Db {
    /// Opens (creating or recovering) a database in `dir`.
    ///
    /// Recovery replays the MANIFEST and any surviving WALs; KV pairs in
    /// log tails that never reached the device are lost, exactly as the
    /// paper's consistency test observes.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Usage`], before touching `dir`, when `opts` has
    /// no compaction lane or misordered `L0` triggers, and
    /// [`DbError::Corruption`]/[`DbError::InvalidDb`] on damaged metadata
    /// or filesystem errors.
    pub fn open(fs: Ext4Fs, dir: &str, opts: Options, now: Nanos) -> Result<Db> {
        check_options(&opts)?;
        let exists = fs.exists(&file_path(dir, FileKind::Current, 0));
        let (mut versions, mut t) = if exists {
            VersionSet::recover(fs.clone(), dir, opts.clone(), now)?
        } else {
            // No CURRENT: any database files present are remnants of a
            // creation that never became durable — clear them out.
            let current_tmp = format!("{dir}/CURRENT.tmp");
            for (p, parsed) in list_dir(&fs, dir) {
                if parsed.is_some() || p == current_tmp {
                    fs.delete(&p, now)?;
                }
            }
            VersionSet::create(fs.clone(), dir, opts.clone(), now)?
        };
        let tables = TableCache::new(fs.clone(), dir.to_string(), opts.block_cache_bytes, opts.cpu);
        let mut refs = PhysicalRefs::default();
        for f in versions.current().files.iter().flatten() {
            refs.acquire(f.physical, &file_path(dir, FileKind::Table, f.physical));
        }

        let mut recovery = DbStats::new();
        let logs = if exists { collect_garbage(&fs, dir, &mut versions, t)? } else { Vec::new() };
        let recovered_tables =
            replay_logs(&fs, dir, &opts, &logs, &mut versions, &mut recovery, &mut t)?;

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
        for &n in &logs {
            fs.delete(&file_path(dir, FileKind::Wal, n), t)?;
        }

        let hot_window = (opts.write_buffer_size / 256).clamp(1024, 1 << 20) as usize;
        let hot = opts.hot_cold.then(|| HotTracker::new(hot_window));
        let sched = Scheduler::new(&opts, t);
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
            tables: Arc::new(tables),
            events: EventQueue::new(),
            sched,
            deps: DependencyTracker::new(),
            refs,
            hot,
            pending_seek: None,
            lookup_buf: Vec::new(),
            reclaim_armed: false,
            // The writer exists from the open's end: a write issued at an
            // earlier instant starts there.
            writer_free: t,
            snapshots: BTreeMap::new(),
            next_snapshot_id: 0,
            stats: recovery,
            trace: None,
            metrics: None,
            bg_error: None,
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
}

/// Rejects the options the compaction scheduler cannot run with: no lane,
/// or `L0` triggers out of the order compaction ≤ slowdown ≤ stop with
/// compaction < stop.
fn check_options(opts: &Options) -> Result<()> {
    if opts.compaction_lanes == 0 {
        return Err(DbError::Usage("at least one compaction lane is required".into()));
    }
    let (compaction, slowdown, stop) =
        (opts.l0_compaction_trigger, opts.l0_slowdown_trigger, opts.l0_stop_trigger);
    if !(compaction <= slowdown && slowdown <= stop && compaction < stop) {
        return Err(DbError::Usage(format!(
            "L0 triggers must be ordered compaction <= slowdown <= stop with compaction < stop, \
             got {compaction}, {slowdown}, {stop}"
        )));
    }
    Ok(())
}

/// The one directory pass of a recovery: deletes what no committed
/// manifest edit references — orphan tables (written but never logged),
/// logs older than the recovered log number, stale manifests — moves the
/// file-number counter past every number ever seen on disk, and returns
/// the surviving logs to replay, oldest first. Runs before any new file is
/// created so that reused numbers cannot collide.
fn collect_garbage(
    fs: &Ext4Fs,
    dir: &str,
    versions: &mut VersionSet,
    t: Nanos,
) -> Result<Vec<u64>> {
    let live_physicals: HashSet<u64> =
        versions.current().files.iter().flatten().map(|f| f.physical).collect();
    let mut logs = Vec::new();
    for (p, parsed) in list_dir(fs, dir) {
        let Some((kind, n)) = parsed else { continue };
        if kind != FileKind::Current {
            versions.next_file_number = versions.next_file_number.max(n + 1);
        }
        let delete = match kind {
            FileKind::Wal if n >= versions.log_number => {
                logs.push(n);
                false
            }
            FileKind::Wal => true,
            FileKind::Table => !live_physicals.contains(&n),
            FileKind::Manifest => p != versions.manifest_path(),
            FileKind::Current => false,
        };
        if delete {
            fs.delete(&p, t)?;
        }
    }
    logs.sort_unstable();
    Ok(logs)
}

/// Replays the surviving WALs `logs` (numbers at or past the recovered log
/// number) through one memtable into synced `L0` tables, one per filled
/// write buffer, counting what was recovered and what was dropped.
fn replay_logs(
    fs: &Ext4Fs,
    dir: &str,
    opts: &Options,
    logs: &[u64],
    versions: &mut VersionSet,
    recovery: &mut DbStats,
    t: &mut Nanos,
) -> Result<Vec<CompactionOutput>> {
    let mut tables = Vec::new();
    let mut flush = |mem: MemTable, versions: &mut VersionSet, t: &mut Nanos| -> Result<()> {
        let number = versions.new_file_number();
        tables.extend(write_table(fs, dir, opts, number, mem.iter(), t)?);
        Ok(())
    };
    let mut mem = MemTable::new();
    let mut max_seq = versions.last_sequence;
    for &n in logs {
        let path = file_path(dir, FileKind::Wal, n);
        let h = fs.open(&path, *t)?;
        let size = fs.file_size(&path)?;
        let (data, t2) = fs.read_at(h, 0, size, *t)?;
        *t = t2;
        let mut cursor = ReplayCursor::new(data.to_vec());
        while let Some(batch) = cursor.next_batch() {
            max_seq = max_seq.max(batch.insert_into(&mut mem));
            if mem.approximate_bytes() >= opts.write_buffer_size {
                flush(std::mem::take(&mut mem), versions, t)?;
            }
        }
        recovery.wal_records_recovered += cursor.records_replayed();
        recovery.wal_corruptions_detected += u64::from(cursor.payload_corruption_detected())
            + u64::from(cursor.record_corruption_detected());
        recovery.wal_bytes_dropped += cursor.bytes_dropped();
    }
    if !mem.is_empty() {
        flush(mem, versions, t)?;
    }
    versions.last_sequence = max_seq;
    Ok(tables)
}
