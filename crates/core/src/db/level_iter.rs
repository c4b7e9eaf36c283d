//! The table-side children of an engine iterator: a table, or a
//! concatenating iterator over one sorted, non-overlapping level.

use std::sync::Arc;

use nob_sim::Nanos;

use crate::cache::TableCache;
use crate::iterator::InternalIterator;
use crate::sstable::TableIter;
use crate::types::compare_internal;
use crate::version::{FileMetaData, Version};
use crate::Result;

/// A table-side child of an engine iterator: one `L0` table or one sorted
/// run. Both own what they read — a table reader, or the table cache and
/// the version or file list — so they can outlive the iterator that built
/// them and be continued by a later one
/// ([`DbIterator::detach`](crate::DbIterator::detach)).
#[derive(Debug)]
pub(crate) enum TableChild {
    Table(TableIter),
    Level(LevelIter),
}

impl TableChild {
    pub(crate) fn as_dyn(&self) -> &dyn InternalIterator {
        match self {
            TableChild::Table(t) => t,
            TableChild::Level(l) => l,
        }
    }

    pub(crate) fn as_dyn_mut(&mut self) -> &mut (dyn InternalIterator + 'static) {
        match self {
            TableChild::Table(t) => t,
            TableChild::Level(l) => l,
        }
    }
}

/// The sorted, non-overlapping files a [`LevelIter`] walks. Either way the
/// iterator owns what it reads, so it can outlive the call that built it.
pub(crate) enum Run {
    /// A whole level of a version, walked in place: sharing the version
    /// costs no allocation, cloning the level's file list would.
    Level(Arc<Version>, usize),
    /// A run picked out of a level (hot files, a fragmented level).
    Files(Vec<Arc<FileMetaData>>),
}

impl Run {
    fn files(&self) -> &[Arc<FileMetaData>] {
        match self {
            Run::Level(version, level) => &version.files[*level],
            Run::Files(files) => files,
        }
    }
}

/// Iterates a level's files in order, holding at most one table open —
/// LevelDB's "concatenating" iterator. Only valid for levels whose files
/// are sorted and non-overlapping (leveled `L1+`).
pub(crate) struct LevelIter {
    tables: Arc<TableCache>,
    run: Run,
    index: usize,
    cur: Option<TableIter>,
    fill_cache: bool,
}

impl std::fmt::Debug for LevelIter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LevelIter")
            .field("files", &self.run.files().len())
            .field("index", &self.index)
            .finish()
    }
}

impl LevelIter {
    /// Creates an iterator over `run` (must be sorted by smallest key and
    /// non-overlapping), with explicit block-cache population.
    pub(crate) fn new(tables: Arc<TableCache>, run: Run, fill_cache: bool) -> Self {
        LevelIter { tables, run, index: 0, cur: None, fill_cache }
    }

    fn open_index(&mut self, now: &mut Nanos) -> Result<()> {
        let Some(file) = self.run.files().get(self.index) else {
            self.cur = None;
            return Ok(());
        };
        let table = self.tables.table(file, now)?;
        self.cur = Some(table.iter(self.fill_cache));
        Ok(())
    }

    fn skip_exhausted(&mut self, now: &mut Nanos) -> Result<()> {
        while self.cur.as_ref().is_some_and(|c| !c.valid()) {
            self.index += 1;
            self.open_index(now)?;
            if let Some(c) = self.cur.as_mut() {
                c.seek_to_first(now)?;
            }
        }
        Ok(())
    }
}

impl InternalIterator for LevelIter {
    fn valid(&self) -> bool {
        self.cur.as_ref().is_some_and(|c| c.valid())
    }

    fn seek_to_first(&mut self, now: &mut Nanos) -> Result<()> {
        self.index = 0;
        self.open_index(now)?;
        if let Some(c) = self.cur.as_mut() {
            c.seek_to_first(now)?;
        }
        self.skip_exhausted(now)
    }

    fn seek(&mut self, target: &[u8], now: &mut Nanos) -> Result<()> {
        // Binary search: the first file whose largest key is >= target.
        self.index = self
            .run
            .files()
            .partition_point(|f| compare_internal(f.largest.as_bytes(), target).is_lt());
        self.open_index(now)?;
        if let Some(c) = self.cur.as_mut() {
            c.seek(target, now)?;
        }
        self.skip_exhausted(now)
    }

    fn next(&mut self, now: &mut Nanos) -> Result<()> {
        if let Some(c) = self.cur.as_mut() {
            c.next(now)?;
        }
        self.skip_exhausted(now)
    }

    fn key(&self) -> &[u8] {
        self.cur.as_ref().expect("valid iterator").key()
    }

    fn value(&self) -> &[u8] {
        self.cur.as_ref().expect("valid iterator").value()
    }
}
