//! Compaction execution: minor (memtable → `L0`) and major (`Ln` →
//! `Ln+1`) merges, with output splitting, BoLT-style grouped physical
//! outputs, and L2SM-style hot/cold routing.

use std::collections::HashSet;

use nob_ext4::{Ext4Fs, InodeId};
use nob_sim::Nanos;

use crate::cache::TableCache;
use crate::db::HotTracker;
use crate::iterator::{InternalIterator, MergingIterator};
use crate::options::{Options, SyncMode};
use crate::sched::{Granule, StagePlan};
use crate::sstable::TableBuilder;
use crate::types::{compare_internal, sequence_of, user_key, value_type_of};
use crate::version::{file_path, CompactionInputs, FileKind, FileMetaData, Version};
use crate::{DbError, InternalKey, Result, SequenceNumber, ValueType};

/// One table produced by a compaction.
#[derive(Debug, Clone)]
pub(crate) struct CompactionOutput {
    pub(crate) meta: FileMetaData,
    /// Path of the physical file holding this (logical) table.
    pub(crate) physical_path: String,
    /// Inode of that physical file (for NobLSM `check_commit`).
    pub(crate) inode: InodeId,
}

/// Everything a finished major compaction hands back to the engine.
#[derive(Debug, Clone)]
pub(crate) struct MajorOutcome {
    /// Tables destined for `level + 1`.
    pub(crate) outputs: Vec<CompactionOutput>,
    /// Hot tables kept at `level` (L2SM mode only).
    pub(crate) hot_outputs: Vec<CompactionOutput>,
    /// Bytes written to output files.
    pub(crate) bytes_written: u64,
    /// The largest key processed (becomes the level's compact pointer).
    pub(crate) largest_compacted: Option<InternalKey>,
    /// Per-output-granule read / merge / write stage durations, priced on
    /// the serial device timeline. The scheduler completes the job at the
    /// plan's *pipelined* end (stages overlap across granules), which is
    /// never later than the serial sum.
    pub(crate) stages: StagePlan,
}

/// Writes `entries` (sorted internal keys) as one new table file, synced
/// unless the discipline is [`SyncMode::Never`], and returns its
/// metadata. Used by minor compactions, recovery flushes and repair — for
/// NobLSM (§4.1) the *only* occasions KV pairs are synced.
pub(crate) fn write_table<'a>(
    fs: &Ext4Fs,
    dir: &str,
    opts: &Options,
    number: u64,
    entries: impl Iterator<Item = (&'a [u8], &'a [u8])>,
    now: &mut Nanos,
) -> Result<Option<CompactionOutput>> {
    let mut builder = TableBuilder::new(opts);
    for (k, v) in entries {
        builder.add(k, v);
    }
    if builder.is_empty() {
        return Ok(None);
    }
    let smallest = InternalKey::from_encoded(builder.smallest().expect("non-empty"));
    let largest = InternalKey::from_encoded(builder.largest().expect("non-empty"));
    let bytes = builder.finish();
    let size = bytes.len() as u64;
    *now += opts.cpu.block_per_kib * (size >> 10).max(1);
    let path = file_path(dir, FileKind::Table, number);
    let handle = fs.create(&path, *now)?;
    // The new file adopts the image instead of copying it.
    *now = fs.append(handle, bytes, *now)?;
    if opts.sync_mode != SyncMode::Never {
        *now = fs.fsync(handle, *now)?;
    }
    let inode = fs
        .inode_of(&path)
        .ok_or_else(|| DbError::InvalidDb(format!("table {path} vanished during creation")))?;
    let meta = FileMetaData::new(number, number, 0, size, smallest, largest);
    Ok(Some(CompactionOutput { meta, physical_path: path, inode }))
}

/// Runs a major compaction: merges the inputs, deduplicates entries below
/// `snapshot`, drops dead tombstones, splits outputs at
/// `opts.table_size`, and writes them (grouped into one physical file when
/// `opts.grouped_output`). Given `hot`, a key it calls hot goes to the
/// hot outputs kept at the input level (L2SM).
///
/// `alloc` hands out fresh file numbers. Syncing is the caller's concern.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_major(
    fs: &Ext4Fs,
    dir: &str,
    opts: &Options,
    tables: &TableCache,
    version: &Version,
    inputs: &CompactionInputs,
    snapshot: SequenceNumber,
    hot: Option<&HotTracker>,
    alloc: &mut dyn FnMut() -> u64,
    now: &mut Nanos,
) -> Result<MajorOutcome> {
    // Stage accounting: every virtual nanosecond the compaction spends is
    // attributed to the read (input I/O), merge (CPU) or write (output
    // build + I/O) stage of the granule being produced, so the scheduler
    // can overlap the stages across granules.
    let mut acc_read = Nanos::ZERO;
    let mut acc_merge = Nanos::ZERO;

    // Build the merged input stream.
    let open_mark = *now;
    let mut openers = Vec::new();
    for f in inputs.inputs0.iter().chain(&inputs.inputs1) {
        openers.push(tables.table(f, now)?);
    }
    let mut children: Vec<Box<dyn InternalIterator + '_>> = Vec::new();
    for t in &openers {
        children.push(Box::new(t.iter(true)));
    }
    let mut merged = MergingIterator::new(children);
    merged.seek_to_first(now)?;
    acc_read += *now - open_mark;

    // Grouped (BoLT) outputs share one physical file.
    let mut group: Option<GroupWriter> = None;
    if opts.grouped_output {
        let physical = alloc();
        let path = file_path(dir, FileKind::Table, physical);
        let handle = fs.create(&path, *now)?;
        let inode = fs
            .inode_of(&path)
            .ok_or_else(|| DbError::InvalidDb("grouped output vanished".into()))?;
        group = Some(GroupWriter { physical, path, handle, inode, written: 0 });
    }

    let mut outcome = MajorOutcome {
        outputs: Vec::new(),
        hot_outputs: Vec::new(),
        bytes_written: 0,
        largest_compacted: None,
        stages: StagePlan::default(),
    };
    let mut cold = OutputStream::new(false);
    let mut hot_stream = OutputStream::new(true);
    let mut last_user_key: Option<Vec<u8>> = None;
    let mut last_seq_for_key: SequenceNumber = u64::MAX;
    // Whether a file at or below the target level holds `uk`, this merge's
    // inputs apart: a fragmented merge (or a hot child) leaves target files
    // in place.
    let deeper_has_key = |uk: &[u8]| {
        let merged = |f: &FileMetaData| inputs.inputs1.iter().any(|i| i.number == f.number);
        (inputs.level + 1..version.levels())
            .any(|l| version.files[l].iter().any(|f| f.contains_user_key(uk) && !merged(f)))
    };

    // Each entry is decided on and added to its table while it is still
    // borrowed from the merge; then the merge steps past it, and only then
    // is a full table flushed. Deciding and adding touch no clock, so the
    // step's device time still lands before the flush's.
    while merged.valid() {
        let ikey = merged.key();
        let uk = user_key(ikey);
        let seq = sequence_of(ikey);
        let is_first_occurrence = last_user_key.as_deref() != Some(uk);
        if is_first_occurrence {
            last_seq_for_key = u64::MAX;
            let last = last_user_key.get_or_insert_with(Vec::new);
            last.clear();
            last.extend_from_slice(uk);
        }
        // LevelDB's rule: this entry is dead iff a NEWER entry for the
        // same user key is itself visible to the oldest snapshot — then
        // no reader can ever see this one.
        let shadowed = last_seq_for_key <= snapshot;
        last_seq_for_key = seq;
        // Drop a tombstone only if no file at or below the target level
        // holds its key.
        let dead_tombstone = is_first_occurrence
            && value_type_of(ikey) == Some(ValueType::Deletion)
            && seq <= snapshot
            && !deeper_has_key(uk);
        let mut full = None;
        if !shadowed && !dead_tombstone {
            let stream =
                if hot.is_some_and(|h| h.is_hot(uk)) { &mut hot_stream } else { &mut cold };
            stream.add(ikey, merged.value(), opts);
            if stream.builder.as_ref().is_some_and(|b| b.size_estimate() >= opts.table_size) {
                full = Some(stream);
            }
        }

        let rmark = *now;
        merged.next(now)?;
        acc_read += *now - rmark;
        *now += opts.cpu.next;
        acc_merge += opts.cpu.next;

        if let Some(stream) = full {
            let wmark = *now;
            let bmark = outcome.bytes_written;
            stream.flush(fs, dir, opts, alloc, group.as_mut(), now, &mut outcome)?;
            outcome.stages.push(Granule::new(
                acc_read,
                acc_merge,
                *now - wmark,
                outcome.bytes_written - bmark,
            ));
            acc_read = Nanos::ZERO;
            acc_merge = Nanos::ZERO;
        }
    }
    for stream in [&mut cold, &mut hot_stream] {
        let wmark = *now;
        let bmark = outcome.bytes_written;
        stream.flush(fs, dir, opts, alloc, group.as_mut(), now, &mut outcome)?;
        if *now > wmark || outcome.bytes_written > bmark {
            outcome.stages.push(Granule::new(
                acc_read,
                acc_merge,
                *now - wmark,
                outcome.bytes_written - bmark,
            ));
            acc_read = Nanos::ZERO;
            acc_merge = Nanos::ZERO;
        }
    }
    if acc_read > Nanos::ZERO || acc_merge > Nanos::ZERO {
        // Input-side work that produced no output (everything dropped):
        // keep it on the plan so the pipelined end never undercounts.
        outcome.stages.push(Granule::new(acc_read, acc_merge, Nanos::ZERO, 0));
    }
    // The largest key kept ends the last table of one of the two streams.
    outcome.largest_compacted = [outcome.outputs.last(), outcome.hot_outputs.last()]
        .into_iter()
        .flatten()
        .map(|o| &o.meta.largest)
        .max_by(|a, b| compare_internal(a.as_bytes(), b.as_bytes()))
        .cloned();
    Ok(outcome)
}

/// State of one grouped physical output file.
struct GroupWriter {
    physical: u64,
    path: String,
    handle: nob_ext4::FileHandle,
    inode: InodeId,
    written: u64,
}

/// One output stream (cold or hot) being split at the table-size target.
struct OutputStream {
    builder: Option<TableBuilder>,
    hot: bool,
}

impl OutputStream {
    fn new(hot: bool) -> Self {
        OutputStream { builder: None, hot }
    }

    fn add(&mut self, ikey: &[u8], value: &[u8], opts: &Options) {
        self.builder.get_or_insert_with(|| TableBuilder::new(opts)).add(ikey, value);
    }

    #[allow(clippy::too_many_arguments)]
    fn flush(
        &mut self,
        fs: &Ext4Fs,
        dir: &str,
        opts: &Options,
        alloc: &mut dyn FnMut() -> u64,
        group: Option<&mut GroupWriter>,
        now: &mut Nanos,
        outcome: &mut MajorOutcome,
    ) -> Result<()> {
        let Some(builder) = self.builder.take() else { return Ok(()) };
        if builder.is_empty() {
            return Ok(());
        }
        let smallest = InternalKey::from_encoded(builder.smallest().expect("non-empty"));
        let largest = InternalKey::from_encoded(builder.largest().expect("non-empty"));
        let bytes = builder.finish();
        let size = bytes.len() as u64;
        *now += opts.cpu.block_per_kib * (size >> 10).max(1);
        let number = alloc();
        // A new file adopts the image instead of copying it; a group file
        // copies every table after its first.
        let output = if let Some(g) = group {
            // BoLT: bundle into the group file; the single sync happens
            // once per compaction, after the last logical table.
            let offset = g.written;
            *now = fs.append(g.handle, bytes, *now)?;
            g.written += size;
            CompactionOutput {
                meta: FileMetaData::new(number, g.physical, offset, size, smallest, largest),
                physical_path: g.path.clone(),
                inode: g.inode,
            }
        } else {
            let path = file_path(dir, FileKind::Table, number);
            let handle = fs.create(&path, *now)?;
            *now = fs.append(handle, bytes, *now)?;
            // LevelDB finishes and fdatasyncs each output file before
            // starting the next one — the blocking sync on the critical
            // path of major compaction that NobLSM eliminates.
            if opts.sync_mode == SyncMode::Always {
                *now = fs.fsync(handle, *now)?;
            }
            let inode =
                fs.inode_of(&path).ok_or_else(|| DbError::InvalidDb("output vanished".into()))?;
            CompactionOutput {
                meta: FileMetaData::new(number, number, 0, size, smallest, largest),
                physical_path: path,
                inode,
            }
        };
        outcome.bytes_written += output.meta.size;
        if self.hot {
            let mut output = output;
            output.meta.hot = true;
            outcome.hot_outputs.push(output);
        } else {
            outcome.outputs.push(output);
        }
        Ok(())
    }
}

/// Numbers of all physical files referenced by a set of outputs (used for
/// sync decisions: grouped outputs share one physical file).
pub(crate) fn physical_files(outputs: &[CompactionOutput]) -> Vec<(u64, String, InodeId)> {
    let mut seen = HashSet::new();
    let mut v = Vec::new();
    for o in outputs {
        if seen.insert(o.meta.physical) {
            v.push((o.meta.physical, o.physical_path.clone(), o.inode));
        }
    }
    v
}

/// Reference-count bookkeeping for logical tables sharing physical files.
#[derive(Debug, Default)]
pub(crate) struct PhysicalRefs {
    refs: std::collections::HashMap<u64, (usize, String)>,
}

impl PhysicalRefs {
    /// Registers one more logical table living in `physical`.
    pub(crate) fn acquire(&mut self, physical: u64, path: &str) {
        let entry = self.refs.entry(physical).or_insert_with(|| (0, path.to_string()));
        entry.0 += 1;
    }

    /// Releases one logical table; returns the physical path to delete
    /// when this was the last reference.
    pub(crate) fn release(&mut self, physical: u64) -> Option<String> {
        let entry = self.refs.get_mut(&physical)?;
        entry.0 -= 1;
        if entry.0 == 0 {
            let (_, path) = self.refs.remove(&physical).expect("present");
            Some(path)
        } else {
            None
        }
    }

    /// Number of tracked physical files.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.refs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nob_ext4::Ext4Config;

    #[test]
    fn physical_refs_count_correctly() {
        let mut r = PhysicalRefs::default();
        r.acquire(5, "db/000005.ldb");
        r.acquire(5, "db/000005.ldb");
        r.acquire(6, "db/000006.ldb");
        assert_eq!(r.len(), 2);
        assert_eq!(r.release(5), None);
        assert_eq!(r.release(5), Some("db/000005.ldb".to_string()));
        assert_eq!(r.release(6), Some("db/000006.ldb".to_string()));
        assert_eq!(r.len(), 0);
        assert_eq!(r.release(7), None, "unknown physical is a no-op");
    }

    #[test]
    fn write_table_round_trips_metadata() {
        let fs = Ext4Fs::new(Ext4Config::default());
        let opts = Options::default();
        let mut now = Nanos::ZERO;
        let entries: Vec<InternalKey> = (0..100u64)
            .map(|i| InternalKey::new(format!("k{i:04}").as_bytes(), i + 1, ValueType::Value))
            .collect();
        let value = [0u8; 64];
        let borrowed = entries.iter().map(|k| (k.as_bytes(), &value[..]));
        let out = write_table(&fs, "db", &opts, 9, borrowed, &mut now).unwrap().unwrap();
        assert_eq!(out.meta.number, 9);
        assert_eq!(out.meta.physical, 9);
        assert_eq!(user_key(out.meta.smallest.as_bytes()), b"k0000");
        assert_eq!(user_key(out.meta.largest.as_bytes()), b"k0099");
        assert_eq!(fs.file_size("db/000009.ldb").unwrap(), out.meta.size);
        assert!(now > Nanos::ZERO);
    }

    #[test]
    fn write_table_empty_is_none() {
        let fs = Ext4Fs::new(Ext4Config::default());
        let mut now = Nanos::ZERO;
        let out =
            write_table(&fs, "db", &Options::default(), 9, std::iter::empty(), &mut now).unwrap();
        assert!(out.is_none());
    }

    #[test]
    fn physical_files_dedups_grouped_outputs() {
        let meta = |n: u64, p: u64| {
            FileMetaData::new(
                n,
                p,
                0,
                10,
                InternalKey::new(b"a", 1, ValueType::Value),
                InternalKey::new(b"b", 1, ValueType::Value),
            )
        };
        let outs = vec![
            CompactionOutput { meta: meta(1, 9), physical_path: "p9".into(), inode: InodeId(9) },
            CompactionOutput { meta: meta(2, 9), physical_path: "p9".into(), inode: InodeId(9) },
            CompactionOutput { meta: meta(3, 4), physical_path: "p4".into(), inode: InodeId(4) },
        ];
        let phys = physical_files(&outs);
        assert_eq!(phys.len(), 2);
        assert_eq!(phys[0].0, 9);
        assert_eq!(phys[1].0, 4);
    }
}
