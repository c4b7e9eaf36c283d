//! A concatenating iterator over one sorted, non-overlapping level.

use std::borrow::Cow;
use std::sync::Arc;

use nob_sim::Nanos;

use crate::cache::TableCache;
use crate::iterator::InternalIterator;
use crate::sstable::TableIter;
use crate::types::compare_internal;
use crate::version::FileMetaData;
use crate::Result;

/// Iterates a level's files in order, holding at most one table open —
/// LevelDB's "concatenating" iterator. Only valid for levels whose files
/// are sorted and non-overlapping (leveled `L1+`).
pub(crate) struct LevelIter<'a> {
    tables: &'a TableCache,
    /// A whole level, borrowed from the version the iterator reads, or an
    /// owned run picked out of one (hot files, a fragmented level).
    files: Cow<'a, [Arc<FileMetaData>]>,
    index: usize,
    cur: Option<TableIter>,
    fill_cache: bool,
}

impl<'a> std::fmt::Debug for LevelIter<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LevelIter")
            .field("files", &self.files.len())
            .field("index", &self.index)
            .finish()
    }
}

impl<'a> LevelIter<'a> {
    /// Creates an iterator over `files` (must be sorted by smallest key
    /// and non-overlapping), with explicit block-cache population.
    pub(crate) fn new(
        tables: &'a TableCache,
        files: impl Into<Cow<'a, [Arc<FileMetaData>]>>,
        fill_cache: bool,
    ) -> Self {
        LevelIter { tables, files: files.into(), index: 0, cur: None, fill_cache }
    }

    fn open_index(&mut self, now: &mut Nanos) -> Result<()> {
        if self.index >= self.files.len() {
            self.cur = None;
            return Ok(());
        }
        let table = self.tables.table(&self.files[self.index], now)?;
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

    fn skip_exhausted_backward(&mut self, now: &mut Nanos) -> Result<()> {
        while self.cur.as_ref().is_some_and(|c| !c.valid()) {
            if self.index == 0 {
                self.cur = None;
                return Ok(());
            }
            self.index -= 1;
            self.open_index(now)?;
            if let Some(c) = self.cur.as_mut() {
                c.seek_to_last(now)?;
            }
        }
        Ok(())
    }
}

impl<'a> InternalIterator for LevelIter<'a> {
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
        self.index =
            self.files.partition_point(|f| compare_internal(f.largest.as_bytes(), target).is_lt());
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

    fn seek_to_last(&mut self, now: &mut Nanos) -> Result<()> {
        if self.files.is_empty() {
            self.cur = None;
            return Ok(());
        }
        self.index = self.files.len() - 1;
        self.open_index(now)?;
        if let Some(c) = self.cur.as_mut() {
            c.seek_to_last(now)?;
        }
        self.skip_exhausted_backward(now)
    }

    fn prev(&mut self, now: &mut Nanos) -> Result<()> {
        if let Some(c) = self.cur.as_mut() {
            c.prev(now)?;
        }
        self.skip_exhausted_backward(now)
    }

    fn key(&self) -> &[u8] {
        self.cur.as_ref().expect("valid iterator").key()
    }

    fn value(&self) -> &[u8] {
        self.cur.as_ref().expect("valid iterator").value()
    }
}
