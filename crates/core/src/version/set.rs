//! The version set: current version, MANIFEST persistence, recovery, and
//! compaction picking.

use std::collections::HashSet;
use std::sync::Arc;

use nob_ext4::{Ext4Fs, FileHandle};
use nob_sim::Nanos;

use crate::options::{CompactionStyle, Options, NUM_LEVELS};
use crate::types::user_key;
use crate::wal::{LogReader, LogWriter};
use crate::{DbError, InternalKey, Result};

use super::{file_path, FileKind, FileMetaData, Version, VersionEdit};

/// The inputs of one major compaction, chosen by
/// [`VersionSet::pick_compaction`].
#[derive(Debug, Clone)]
pub(crate) struct CompactionInputs {
    /// Parent level (`n`); outputs go to `n+1`.
    pub(crate) level: usize,
    /// Files from level `n`.
    pub(crate) inputs0: Vec<Arc<FileMetaData>>,
    /// Files from level `n+1` (always empty in fragmented mode).
    pub(crate) inputs1: Vec<Arc<FileMetaData>>,
    /// Whether a read-miss budget (seek compaction) triggered this.
    pub(crate) from_seek: bool,
}

impl CompactionInputs {
    /// Total input bytes.
    pub(crate) fn input_bytes(&self) -> u64 {
        self.inputs0.iter().chain(&self.inputs1).map(|f| f.size).sum()
    }
}

/// Owns the current [`Version`], the MANIFEST, and allocation counters.
#[derive(Debug)]
pub(crate) struct VersionSet {
    fs: Ext4Fs,
    opts: Options,
    current: Arc<Version>,
    /// Next file number to allocate (tables, WALs, manifests).
    pub(crate) next_file_number: u64,
    /// Largest sequence number assigned.
    pub(crate) last_sequence: u64,
    /// Number of the live WAL; older logs are obsolete.
    pub(crate) log_number: u64,
    manifest_handle: FileHandle,
    manifest_log: LogWriter,
    manifest_path: String,
    compact_pointers: Vec<Option<InternalKey>>,
}

impl VersionSet {
    /// Creates a fresh database: an empty version, `MANIFEST-000001` with
    /// an initial snapshot, and `CURRENT`.
    ///
    /// # Errors
    ///
    /// Fails if the directory already contains a database or on I/O error.
    pub(crate) fn create(
        fs: Ext4Fs,
        dir: &str,
        opts: Options,
        now: Nanos,
    ) -> Result<(Self, Nanos)> {
        let current_path = file_path(dir, FileKind::Current, 0);
        if fs.exists(&current_path) {
            return Err(DbError::InvalidDb(format!("database already exists in {dir}")));
        }
        let manifest_number = 1;
        let mut set = VersionSet {
            fs: fs.clone(),
            current: Arc::new(Version::new(NUM_LEVELS)),
            next_file_number: 2,
            last_sequence: 0,
            log_number: 0,
            manifest_handle: fs
                .create(&file_path(dir, FileKind::Manifest, manifest_number), now)?,
            manifest_log: LogWriter::new(),
            manifest_path: file_path(dir, FileKind::Manifest, manifest_number),
            compact_pointers: vec![None; NUM_LEVELS],
            opts,
        };
        let mut edit = VersionEdit::new();
        edit.set_next_file_number(set.next_file_number);
        edit.set_last_sequence(0);
        edit.set_log_number(0);
        let record = set.manifest_log.encode_record(&edit.encode());
        let mut t = fs.append(set.manifest_handle, &record, now)?;
        // Point CURRENT at the manifest (atomic rename pattern).
        let tmp = format!("{dir}/CURRENT.tmp");
        let th = fs.create(&tmp, t)?;
        t = fs.append(th, format!("MANIFEST-{manifest_number:06}").as_bytes(), t)?;
        t = fs.fsync(th, t)?;
        t = fs.rename(&tmp, &current_path, t)?;
        Ok((set, t))
    }

    /// Recovers a version set from an existing database directory.
    ///
    /// Replays the MANIFEST named by `CURRENT` and resumes appending to
    /// it.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::InvalidDb`] when `CURRENT` or the manifest is
    /// missing, [`DbError::Corruption`] on malformed records or a record
    /// whose checksum fails. A torn last record is not corruption: replay
    /// stops before it.
    pub(crate) fn recover(
        fs: Ext4Fs,
        dir: &str,
        opts: Options,
        now: Nanos,
    ) -> Result<(Self, Nanos)> {
        let current_path = file_path(dir, FileKind::Current, 0);
        let ch = fs
            .open(&current_path, now)
            .map_err(|_| DbError::InvalidDb(format!("missing CURRENT in {dir}")))?;
        let size = fs.file_size(&current_path)?;
        let (name_bytes, mut t) = fs.read_exact_at(ch, 0, size, now)?;
        let manifest_name = String::from_utf8(name_bytes.to_vec())
            .map_err(|_| DbError::Corruption("bad CURRENT".into()))?;
        let manifest_path = format!("{dir}/{}", manifest_name.trim());
        let mh = fs
            .open(&manifest_path, t)
            .map_err(|_| DbError::InvalidDb(format!("missing manifest {manifest_path}")))?;
        let msize = fs.file_size(&manifest_path)?;
        let (data, t2) = fs.read_at(mh, 0, msize, t)?;
        t = t2;

        let mut version = Version::new(NUM_LEVELS);
        let mut next_file = 2u64;
        let mut last_seq = 0u64;
        let mut log_number = 0u64;
        let mut compact_pointers: Vec<Option<InternalKey>> = vec![None; NUM_LEVELS];
        let mut reader = LogReader::new(data.to_vec());
        while let Some(record) = reader.next_record() {
            let edit = VersionEdit::decode(&record)?;
            version = apply_edit(&version, &edit);
            if let Some(n) = edit.next_file_number {
                next_file = next_file.max(n);
            }
            if let Some(s) = edit.last_sequence {
                last_seq = last_seq.max(s);
            }
            if let Some(l) = edit.log_number {
                log_number = log_number.max(l);
            }
            for (level, key) in edit.compact_pointers {
                if level < compact_pointers.len() {
                    compact_pointers[level] = Some(key);
                }
            }
        }
        // A checksum failure is not a torn tail: the records behind it are
        // lost, and opening the older version would drop them silently.
        if reader.corruption_detected() {
            return Err(DbError::Corruption(format!("corrupt record in {manifest_path}")));
        }
        let set = VersionSet {
            fs,
            current: Arc::new(version),
            next_file_number: next_file,
            last_sequence: last_seq,
            log_number,
            manifest_handle: mh,
            manifest_log: LogWriter::resume_at(msize),
            manifest_path: manifest_path.clone(),
            compact_pointers,
            opts,
        };
        Ok((set, t))
    }

    /// The current version.
    pub(crate) fn current(&self) -> Arc<Version> {
        Arc::clone(&self.current)
    }

    /// The current version, borrowed for as long as the set is.
    pub(crate) fn current_ref(&self) -> &Arc<Version> {
        &self.current
    }

    /// Allocates a file number.
    pub(crate) fn new_file_number(&mut self) -> u64 {
        let n = self.next_file_number;
        self.next_file_number += 1;
        n
    }

    /// Path of the live MANIFEST (kept during garbage collection).
    pub(crate) fn manifest_path(&self) -> &str {
        &self.manifest_path
    }

    /// Applies `edit` to the current version and appends it to the
    /// MANIFEST. When `sync` is set the manifest is fsync'd before
    /// returning.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub(crate) fn log_and_apply(
        &mut self,
        mut edit: VersionEdit,
        now: Nanos,
        sync: bool,
    ) -> Result<Nanos> {
        edit.set_next_file_number(self.next_file_number);
        edit.set_last_sequence(self.last_sequence);
        edit.set_log_number(self.log_number);
        for (level, key) in &edit.compact_pointers {
            if *level < self.compact_pointers.len() {
                self.compact_pointers[*level] = Some(key.clone());
            }
        }
        let next = apply_edit(&self.current, &edit);
        let record = self.manifest_log.encode_record(&edit.encode());
        let mut t = self.fs.append(self.manifest_handle, &record, now)?;
        if sync {
            t = self.fs.fsync(self.manifest_handle, t)?;
        }
        self.current = Arc::new(next);
        Ok(t)
    }

    /// Per-level compaction score: ≥ 1.0 means the level needs compaction.
    pub(crate) fn level_score(&self, level: usize) -> f64 {
        if level == 0 {
            self.current.num_files(0) as f64 / self.opts.l0_compaction_trigger as f64
        } else {
            self.current.scored_level_bytes(level) as f64
                / self.opts.max_bytes_for_level(level) as f64
        }
    }

    /// Picks the inputs of the next size-triggered major compaction,
    /// skipping levels in `busy` (levels already being compacted).
    pub(crate) fn pick_compaction(&self, busy: &HashSet<usize>) -> Option<CompactionInputs> {
        let mut best: Option<(usize, f64)> = None;
        for level in 0..NUM_LEVELS - 1 {
            if busy.contains(&level) || busy.contains(&(level + 1)) {
                continue;
            }
            let score = self.level_score(level);
            if score >= 1.0 && best.is_none_or(|(_, s)| score > s) {
                best = Some((level, score));
            }
        }
        let (level, _) = best?;
        self.build_inputs(level)
    }

    /// Picks a size-triggered compaction of `level` specifically — the
    /// lane scheduler's L0-preemption path — provided the level is over
    /// budget and neither it nor its child is busy.
    pub(crate) fn pick_level_compaction(
        &self,
        level: usize,
        busy: &HashSet<usize>,
    ) -> Option<CompactionInputs> {
        if level + 1 >= NUM_LEVELS
            || busy.contains(&level)
            || busy.contains(&(level + 1))
            || self.level_score(level) < 1.0
        {
            return None;
        }
        self.build_inputs(level)
    }

    /// Builds inputs for a seek-triggered compaction of `file` at `level`.
    pub(crate) fn pick_seek_compaction(
        &self,
        level: usize,
        file: &Arc<FileMetaData>,
        busy: &HashSet<usize>,
    ) -> Option<CompactionInputs> {
        if level + 1 >= NUM_LEVELS || busy.contains(&level) || busy.contains(&(level + 1)) {
            return None;
        }
        // The file must still be live at that level.
        if !self.current.files[level].iter().any(|f| f.number == file.number) {
            return None;
        }
        let mut c = self.build_inputs_for_files(level, vec![Arc::clone(file)])?;
        c.from_seek = true;
        Some(c)
    }

    /// Builds inputs for a manual compaction of every `level` file
    /// overlapping `[lo, hi]` (`hi = None` means unbounded above).
    pub(crate) fn manual_compaction(
        &self,
        level: usize,
        lo: &[u8],
        hi: Option<&[u8]>,
        busy: &HashSet<usize>,
    ) -> Option<CompactionInputs> {
        if level + 1 >= NUM_LEVELS || busy.contains(&level) || busy.contains(&(level + 1)) {
            return None;
        }
        let picked: Vec<Arc<FileMetaData>> = self.current.files[level]
            .iter()
            .filter(|f| {
                let lo_ok = user_key(f.largest.as_bytes()) >= lo;
                let hi_ok = hi.is_none_or(|h| user_key(f.smallest.as_bytes()) <= h);
                lo_ok && hi_ok
            })
            .cloned()
            .collect();
        self.build_inputs_for_files(level, picked)
    }

    fn build_inputs(&self, level: usize) -> Option<CompactionInputs> {
        let files = &self.current.files[level];
        if files.is_empty() {
            return None;
        }
        let picked: Vec<Arc<FileMetaData>> = if level == 0 {
            // Compact every L0 file (they overlap anyway once the trigger
            // is hit).
            files.clone()
        } else {
            // Round-robin from the compaction pointer.
            let start = match &self.compact_pointers[level] {
                Some(ptr) => files
                    .iter()
                    .position(|f| {
                        crate::types::compare_internal(f.largest.as_bytes(), ptr.as_bytes()).is_gt()
                    })
                    .unwrap_or(0),
                None => 0,
            };
            vec![Arc::clone(&files[start.min(files.len() - 1)])]
        };
        self.build_inputs_for_files(level, picked)
    }

    fn build_inputs_for_files(
        &self,
        level: usize,
        mut inputs0: Vec<Arc<FileMetaData>>,
    ) -> Option<CompactionInputs> {
        if inputs0.is_empty() || level + 1 >= NUM_LEVELS {
            return None;
        }
        let range = |files: &[Arc<FileMetaData>]| -> (Vec<u8>, Vec<u8>) {
            let lo = files
                .iter()
                .map(|f| user_key(f.smallest.as_bytes()).to_vec())
                .min()
                .expect("non-empty");
            let hi = files
                .iter()
                .map(|f| user_key(f.largest.as_bytes()).to_vec())
                .max()
                .expect("non-empty");
            (lo, hi)
        };
        let (mut lo, mut hi) = range(&inputs0);
        // In any overlapping level (L0, everywhere in fragmented mode, or
        // any level holding hot files), grow inputs0 until it is closed
        // under overlap. Hot files overlap their level by design and are
        // reclaimed exactly here, when a compaction sweeps their range.
        let level_may_overlap = level == 0
            || self.opts.style == CompactionStyle::Fragmented
            || self.current.files[level].iter().any(|f| f.hot);
        if level_may_overlap {
            loop {
                let expanded = self.current.overlapping_inputs(level, &lo, &hi);
                if expanded.len() == inputs0.len() {
                    break;
                }
                inputs0 = expanded;
                let r = range(&inputs0);
                lo = r.0;
                hi = r.1;
            }
        }
        let inputs1 = match self.opts.style {
            // Hot child files are log-structured: they are never rewritten
            // by a parent merge (L2SM's de-amplification).
            CompactionStyle::Leveled => self
                .current
                .overlapping_inputs(level + 1, &lo, &hi)
                .into_iter()
                .filter(|f| !f.hot)
                .collect(),
            // Fragmented (PebblesDB-like): never rewrite resident child
            // files — that is the write-amplification saving.
            CompactionStyle::Fragmented => Vec::new(),
        };
        Some(CompactionInputs { level, inputs0, inputs1, from_seek: false })
    }
}

/// Applies an edit to a version, producing the next version.
pub(crate) fn apply_edit(base: &Version, edit: &VersionEdit) -> Version {
    let mut files = base.files.clone();
    files.resize(NUM_LEVELS, Vec::new());
    for (level, number) in &edit.deleted_files {
        if let Some(level_files) = files.get_mut(*level) {
            level_files.retain(|f| f.number != *number);
        }
    }
    for (level, meta) in &edit.new_files {
        if let Some(level_files) = files.get_mut(*level) {
            level_files.push(Arc::new(meta.clone()));
        }
    }
    for (level, level_files) in files.iter_mut().enumerate() {
        if level == 0 {
            level_files.sort_by_key(|f| std::cmp::Reverse(f.number));
        } else {
            level_files.sort_by(|a, b| {
                crate::types::compare_internal(a.smallest.as_bytes(), b.smallest.as_bytes())
                    .then(a.number.cmp(&b.number))
            });
        }
    }
    Version { files }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ValueType;
    use nob_ext4::Ext4Config;

    fn meta(number: u64, lo: &str, hi: &str, size: u64) -> FileMetaData {
        FileMetaData::new(
            number,
            number,
            0,
            size,
            InternalKey::new(lo.as_bytes(), u64::MAX >> 9, ValueType::Value),
            InternalKey::new(hi.as_bytes(), 0, ValueType::Value),
        )
    }

    fn fresh() -> (VersionSet, Ext4Fs, Nanos) {
        let fs = Ext4Fs::new(Ext4Config::default());
        let (set, t) =
            VersionSet::create(fs.clone(), "db", Options::default(), Nanos::ZERO).unwrap();
        (set, fs, t)
    }

    #[test]
    fn create_writes_current_and_manifest() {
        let (_set, fs, _t) = fresh();
        assert!(fs.exists("db/CURRENT"));
        assert!(fs.exists("db/MANIFEST-000001"));
    }

    #[test]
    fn create_twice_fails() {
        let (_set, fs, t) = fresh();
        assert!(matches!(
            VersionSet::create(fs, "db", Options::default(), t),
            Err(DbError::InvalidDb(_))
        ));
    }

    #[test]
    fn log_and_apply_updates_version_and_survives_recovery() {
        let (mut set, fs, t) = fresh();
        let mut edit = VersionEdit::new();
        edit.add_file(0, meta(10, "a", "m", 1000));
        edit.add_file(0, meta(11, "c", "z", 2000));
        set.last_sequence = 77;
        let t = set.log_and_apply(edit, t, true).unwrap();
        assert_eq!(set.current().num_files(0), 2);
        // L0 is newest-first.
        assert_eq!(set.current().files[0][0].number, 11);

        let (recovered, _) = VersionSet::recover(fs, "db", Options::default(), t).unwrap();
        assert_eq!(recovered.current().num_files(0), 2);
        assert_eq!(recovered.last_sequence, 77);
    }

    #[test]
    fn delete_file_edit_removes() {
        let (mut set, _fs, t) = fresh();
        let mut edit = VersionEdit::new();
        edit.add_file(1, meta(10, "a", "c", 1000));
        edit.add_file(1, meta(11, "d", "f", 1000));
        let t = set.log_and_apply(edit, t, false).unwrap();
        let mut edit = VersionEdit::new();
        edit.delete_file(1, 10);
        set.log_and_apply(edit, t, false).unwrap();
        assert_eq!(set.current().num_files(1), 1);
        assert_eq!(set.current().files[1][0].number, 11);
    }

    #[test]
    fn scores_and_picking() {
        let (mut set, _fs, t) = fresh();
        let mut edit = VersionEdit::new();
        for i in 0..4 {
            edit.add_file(0, meta(10 + i, "a", "z", 1000));
        }
        set.log_and_apply(edit, t, false).unwrap();
        assert!(set.level_score(0) >= 1.0);
        let c = set.pick_compaction(&HashSet::new()).unwrap();
        assert_eq!(c.level, 0);
        assert_eq!(c.inputs0.len(), 4, "all overlapping L0 files picked");
        assert!(c.inputs1.is_empty(), "L1 is empty");
        assert_eq!(c.input_bytes(), 4000);
    }

    #[test]
    fn busy_levels_are_skipped() {
        let (mut set, _fs, t) = fresh();
        let mut edit = VersionEdit::new();
        for i in 0..4 {
            edit.add_file(0, meta(10 + i, "a", "z", 1000));
        }
        set.log_and_apply(edit, t, false).unwrap();
        let mut busy = HashSet::new();
        busy.insert(1usize);
        assert!(set.pick_compaction(&busy).is_none(), "L0→L1 blocked by busy L1");
    }

    #[test]
    fn leveled_pick_includes_child_overlaps() {
        let (mut set, _fs, t) = fresh();
        let mut edit = VersionEdit::new();
        // L1 over its 10 MB budget with one big file.
        edit.add_file(1, meta(20, "c", "k", 20 << 20));
        edit.add_file(2, meta(30, "a", "e", 1000));
        edit.add_file(2, meta(31, "f", "m", 1000));
        edit.add_file(2, meta(32, "n", "z", 1000));
        set.log_and_apply(edit, t, false).unwrap();
        let c = set.pick_compaction(&HashSet::new()).unwrap();
        assert_eq!(c.level, 1);
        assert_eq!(c.inputs0.len(), 1);
        let nums: Vec<u64> = c.inputs1.iter().map(|f| f.number).collect();
        assert_eq!(nums, vec![30, 31], "only overlapping L2 files");
    }

    #[test]
    fn fragmented_pick_has_no_child_inputs() {
        let fs = Ext4Fs::new(Ext4Config::default());
        let opts = Options { style: CompactionStyle::Fragmented, ..Options::default() };
        let (mut set, t) = VersionSet::create(fs, "db", opts, Nanos::ZERO).unwrap();
        let mut edit = VersionEdit::new();
        edit.add_file(1, meta(20, "c", "k", 20 << 20));
        edit.add_file(2, meta(30, "a", "e", 1000));
        set.log_and_apply(edit, t, false).unwrap();
        let c = set.pick_compaction(&HashSet::new()).unwrap();
        assert!(c.inputs1.is_empty(), "fragmented mode never rewrites the child level");
    }

    #[test]
    fn seek_compaction_requires_live_file() {
        let (mut set, _fs, t) = fresh();
        let mut edit = VersionEdit::new();
        edit.add_file(1, meta(20, "c", "k", 1000));
        set.log_and_apply(edit, t, false).unwrap();
        let live = Arc::clone(&set.current().files[1][0]);
        let c = set.pick_seek_compaction(1, &live, &HashSet::new()).unwrap();
        assert!(c.from_seek);
        let dead = Arc::new(meta(99, "x", "y", 1));
        assert!(set.pick_seek_compaction(1, &dead, &HashSet::new()).is_none());
    }
}
