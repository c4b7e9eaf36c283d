//! Immutable level-structure snapshots and point lookups through them.

use std::sync::atomic::{AtomicI64, Ordering as AtomicOrdering};
use std::sync::Arc;

use nob_sim::Nanos;

use crate::cache::TableCache;
use crate::options::CompactionStyle;
use crate::types::user_key;
use crate::{InternalKey, Result, ValueType};

/// Metadata of one (logical) SSTable.
#[derive(Debug)]
pub struct FileMetaData {
    /// Logical table number (unique).
    pub(crate) number: u64,
    /// Physical file number; differs from `number` only for BoLT-style
    /// grouped outputs, where several logical tables share one file.
    pub(crate) physical: u64,
    /// Byte offset of the logical table within the physical file.
    pub(crate) offset: u64,
    /// Size of the logical table in bytes.
    pub(crate) size: u64,
    /// Smallest internal key in the table.
    pub(crate) smallest: InternalKey,
    /// Largest internal key in the table.
    pub(crate) largest: InternalKey,
    /// Whether this is an L2SM-style hot file: it lives outside its
    /// level's byte budget and is only compacted via range overlap.
    pub hot: bool,
    /// Remaining read misses before this file triggers a seek compaction.
    allowed_seeks: AtomicI64,
}

impl FileMetaData {
    /// Creates metadata; `allowed_seeks` follows LevelDB's rule
    /// (`size / 16 KiB`). LevelDB floors the budget at 100; here the
    /// floor is 4 so that the budget keeps scaling with the harness's
    /// shrunken table sizes (at real table sizes the divisor dominates
    /// and the floor never binds).
    pub(crate) fn new(
        number: u64,
        physical: u64,
        offset: u64,
        size: u64,
        smallest: InternalKey,
        largest: InternalKey,
    ) -> Self {
        let seeks = ((size / (16 << 10)) as i64).max(4);
        FileMetaData {
            number,
            physical,
            offset,
            size,
            smallest,
            largest,
            hot: false,
            allowed_seeks: AtomicI64::new(seeks),
        }
    }

    /// Consumes one allowed seek; returns `true` when the budget is
    /// exhausted (exactly once).
    pub(crate) fn consume_seek(&self) -> bool {
        self.allowed_seeks.fetch_sub(1, AtomicOrdering::Relaxed) == 1
    }

    /// Whether `key` (a user key) falls within this file's range.
    pub(crate) fn contains_user_key(&self, key: &[u8]) -> bool {
        key >= user_key(self.smallest.as_bytes()) && key <= user_key(self.largest.as_bytes())
    }

    /// Whether this file's user-key range overlaps `[lo, hi]`.
    pub(crate) fn overlaps(&self, lo: &[u8], hi: &[u8]) -> bool {
        user_key(self.smallest.as_bytes()) <= hi && user_key(self.largest.as_bytes()) >= lo
    }
}

impl Clone for FileMetaData {
    fn clone(&self) -> Self {
        FileMetaData {
            number: self.number,
            physical: self.physical,
            offset: self.offset,
            size: self.size,
            smallest: self.smallest.clone(),
            largest: self.largest.clone(),
            hot: self.hot,
            allowed_seeks: AtomicI64::new(self.allowed_seeks.load(AtomicOrdering::Relaxed)),
        }
    }
}

impl PartialEq for FileMetaData {
    fn eq(&self, other: &Self) -> bool {
        self.number == other.number
            && self.physical == other.physical
            && self.offset == other.offset
            && self.size == other.size
            && self.smallest == other.smallest
            && self.largest == other.largest
    }
}

/// Hot (L2SM-style) files per level that may sit outside the compaction
/// budget before the level is forced to consolidate.
pub(crate) const MAX_FREE_HOT_FILES: usize = 8;

/// Outcome of a point lookup through a version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum GetResult {
    /// A live value.
    Found(Vec<u8>),
    /// A tombstone shadows the key.
    Deleted,
    /// No entry in any table.
    NotFound,
}

/// An immutable snapshot of the on-disk level structure.
///
/// `L0` files may overlap each other (searched newest-first). `L1+` files
/// are non-overlapping under [`CompactionStyle::Leveled`]; under
/// [`CompactionStyle::Fragmented`] any level may contain overlapping
/// files, all of which are consulted newest-first.
#[derive(Debug, Clone, Default)]
pub struct Version {
    /// Files per level; `L0` ordered newest-first, deeper levels sorted by
    /// smallest key.
    pub files: Vec<Vec<Arc<FileMetaData>>>,
}

/// The state one point lookup carries from file to file: how many it
/// probed and which one pays for the extra seeks (LevelDB charges the first
/// file of a lookup that had to consult a second).
struct Lookup<'a> {
    probe: &'a [u8],
    tables: &'a TableCache,
    fill_cache: bool,
    probes: usize,
    first_probed: Option<(usize, &'a Arc<FileMetaData>)>,
    seek: Option<(usize, Arc<FileMetaData>)>,
}

impl<'a> Lookup<'a> {
    /// Probes `level`'s `candidates` in order; `Some` ends the lookup.
    fn probe_files(
        &mut self,
        level: usize,
        candidates: impl IntoIterator<Item = &'a Arc<FileMetaData>>,
        now: &mut Nanos,
    ) -> Result<Option<GetResult>> {
        for f in candidates {
            if let Some(result) = self.probe_file(level, f, now)? {
                return Ok(Some(result));
            }
        }
        Ok(None)
    }

    fn probe_file(
        &mut self,
        level: usize,
        f: &'a Arc<FileMetaData>,
        now: &mut Nanos,
    ) -> Result<Option<GetResult>> {
        self.probes += 1;
        if self.probes == 2 {
            if let Some((lvl, first)) = self.first_probed {
                if first.consume_seek() {
                    self.seek = Some((lvl, Arc::clone(first)));
                }
            }
        }
        if self.first_probed.is_none() {
            self.first_probed = Some((level, f));
        }
        let table = self.tables.table(f, now)?;
        Ok(table.get(self.probe, now, self.fill_cache)?.map(|(vt, value)| match vt {
            ValueType::Value => GetResult::Found(value),
            ValueType::Deletion => GetResult::Deleted,
        }))
    }
}

impl Version {
    /// Creates an empty version with `levels` levels.
    pub(crate) fn new(levels: usize) -> Self {
        Version { files: vec![Vec::new(); levels] }
    }

    /// Number of levels.
    pub(crate) fn levels(&self) -> usize {
        self.files.len()
    }

    /// Number of files at `level`.
    pub(crate) fn num_files(&self, level: usize) -> usize {
        self.files.get(level).map_or(0, Vec::len)
    }

    /// Total bytes at `level`.
    pub(crate) fn level_bytes(&self, level: usize) -> u64 {
        self.files.get(level).map_or(0, |fs| fs.iter().map(|f| f.size).sum())
    }

    /// Bytes at `level` that count toward its compaction budget. Hot
    /// files are exempt while few — they are reclaimed via range overlap —
    /// but once more than [`MAX_FREE_HOT_FILES`] accumulate they count
    /// again, forcing a consolidating compaction (otherwise reads would
    /// degrade without bound under sustained skew).
    pub(crate) fn scored_level_bytes(&self, level: usize) -> u64 {
        let Some(files) = self.files.get(level) else { return 0 };
        let hot_count = files.iter().filter(|f| f.hot).count();
        if hot_count > MAX_FREE_HOT_FILES {
            files.iter().map(|f| f.size).sum()
        } else {
            files.iter().filter(|f| !f.hot).map(|f| f.size).sum()
        }
    }

    /// All files at `level` whose user-key range overlaps `[lo, hi]`.
    pub(crate) fn overlapping_inputs(
        &self,
        level: usize,
        lo: &[u8],
        hi: &[u8],
    ) -> Vec<Arc<FileMetaData>> {
        let Some(files) = self.files.get(level) else { return Vec::new() };
        files.iter().filter(|f| f.overlaps(lo, hi)).cloned().collect()
    }

    /// Point lookup of `probe`, the [`lookup_key`](crate::types::lookup_key)
    /// of a user key at a snapshot.
    ///
    /// Returns the result, the number of SSTable files probed (the
    /// read-amplification numerator) and, if some file consumed its last
    /// allowed seek during this lookup, that file and its level (a
    /// seek-compaction candidate).
    ///
    /// # Errors
    ///
    /// Propagates table read failures.
    #[allow(clippy::type_complexity)]
    pub(crate) fn get(
        &self,
        probe: &[u8],
        style: CompactionStyle,
        tables: &TableCache,
        now: &mut Nanos,
        fill_cache: bool,
    ) -> Result<(GetResult, usize, Option<(usize, Arc<FileMetaData>)>)> {
        let key = user_key(probe);
        let mut lookup =
            Lookup { probe, tables, fill_cache, probes: 0, first_probed: None, seek: None };
        for (level, files) in self.files.iter().enumerate() {
            let containing = |f: &&Arc<FileMetaData>| f.contains_user_key(key);
            let found = if level == 0 {
                // Overlap possible: every containing file. `L0` is kept
                // newest-first, so the walk needs no sorting.
                lookup.probe_files(level, files.iter().filter(containing), now)?
            } else if style == CompactionStyle::Fragmented || files.iter().any(|f| f.hot) {
                // Fragmented levels and hot (log-structured) files may
                // overlap: every containing one is probed, newest first,
                // then the single cold candidate.
                let fragmented = style == CompactionStyle::Fragmented;
                let mut candidates: Vec<&Arc<FileMetaData>> =
                    files.iter().filter(|f| fragmented || f.hot).filter(containing).collect();
                candidates.sort_by_key(|f| std::cmp::Reverse(f.number));
                if !fragmented {
                    let cold: Vec<&Arc<FileMetaData>> = files.iter().filter(|f| !f.hot).collect();
                    let idx = cold.partition_point(|f| user_key(f.largest.as_bytes()) < key);
                    candidates.extend(cold.get(idx).copied().filter(containing));
                }
                lookup.probe_files(level, candidates, now)?
            } else {
                // Sorted and non-overlapping: binary search for the single
                // candidate.
                let idx = files.partition_point(|f| user_key(f.largest.as_bytes()) < key);
                lookup.probe_files(level, files.get(idx).filter(containing), now)?
            };
            if let Some(result) = found {
                return Ok((result, lookup.probes, lookup.seek));
            }
        }
        Ok((GetResult::NotFound, lookup.probes, lookup.seek))
    }

    /// Checks structural invariants (used by tests): `L0` sorted
    /// newest-first; deeper levels sorted by smallest key and, in leveled
    /// mode, non-overlapping.
    pub(crate) fn check_invariants(&self, style: CompactionStyle) -> Result<()> {
        use crate::DbError;
        for (level, files) in self.files.iter().enumerate() {
            if level == 0 {
                for w in files.windows(2) {
                    if w[0].number < w[1].number {
                        return Err(DbError::Corruption("L0 not newest-first".into()));
                    }
                }
                continue;
            }
            let cold: Vec<&Arc<FileMetaData>> = files.iter().filter(|f| !f.hot).collect();
            for w in cold.windows(2) {
                if crate::types::compare_internal(
                    w[0].smallest.as_bytes(),
                    w[1].smallest.as_bytes(),
                )
                .is_ge()
                {
                    return Err(DbError::Corruption(format!("L{level} not sorted")));
                }
                if style == CompactionStyle::Leveled
                    && user_key(w[0].largest.as_bytes()) >= user_key(w[1].smallest.as_bytes())
                {
                    return Err(DbError::Corruption(format!("L{level} files overlap")));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(number: u64, lo: &str, hi: &str) -> Arc<FileMetaData> {
        Arc::new(FileMetaData::new(
            number,
            number,
            0,
            1 << 20,
            InternalKey::new(lo.as_bytes(), u64::MAX >> 9, ValueType::Value),
            InternalKey::new(hi.as_bytes(), 0, ValueType::Value),
        ))
    }

    #[test]
    fn contains_and_overlaps() {
        let f = meta(1, "c", "g");
        assert!(f.contains_user_key(b"c"));
        assert!(f.contains_user_key(b"e"));
        assert!(f.contains_user_key(b"g"));
        assert!(!f.contains_user_key(b"b"));
        assert!(f.overlaps(b"a", b"d"));
        assert!(f.overlaps(b"f", b"z"));
        assert!(!f.overlaps(b"h", b"z"));
    }

    #[test]
    fn allowed_seeks_fire_once() {
        let f = FileMetaData::new(
            1,
            1,
            0,
            0, // size 0 → minimum budget of 4
            InternalKey::new(b"a", 1, ValueType::Value),
            InternalKey::new(b"b", 1, ValueType::Value),
        );
        let mut fired = 0;
        for _ in 0..200 {
            if f.consume_seek() {
                fired += 1;
            }
        }
        assert_eq!(fired, 1);
        // A real-sized table gets the size-proportional budget.
        let big = FileMetaData::new(
            2,
            2,
            0,
            64 << 20,
            InternalKey::new(b"a", 1, ValueType::Value),
            InternalKey::new(b"b", 1, ValueType::Value),
        );
        let mut fired = 0;
        for _ in 0..5000 {
            if big.consume_seek() {
                fired += 1;
            }
        }
        assert_eq!(fired, 1, "4096-seek budget for a 64 MB table");
    }

    #[test]
    fn overlapping_inputs_filters() {
        let mut v = Version::new(3);
        v.files[1] = vec![meta(1, "a", "c"), meta(2, "d", "f"), meta(3, "g", "i")];
        let hit = v.overlapping_inputs(1, b"e", b"h");
        let nums: Vec<u64> = hit.iter().map(|f| f.number).collect();
        assert_eq!(nums, vec![2, 3]);
        assert!(v.overlapping_inputs(5, b"a", b"z").is_empty());
    }

    #[test]
    fn level_accounting() {
        let mut v = Version::new(2);
        v.files[0] = vec![meta(2, "a", "c"), meta(1, "b", "d")];
        assert_eq!(v.num_files(0), 2);
        assert_eq!(v.level_bytes(0), 2 << 20);
    }

    #[test]
    fn invariants_catch_overlap() {
        let mut v = Version::new(2);
        v.files[1] = vec![meta(1, "a", "e"), meta(2, "c", "g")];
        assert!(v.check_invariants(CompactionStyle::Leveled).is_err());
        assert!(v.check_invariants(CompactionStyle::Fragmented).is_ok());
    }
}
