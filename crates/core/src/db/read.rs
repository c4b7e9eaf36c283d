//! The read path: point gets, iterators, range scans and size estimates.

use std::sync::Arc;

use nob_sim::Nanos;
use nob_trace::EventClass;

use crate::iterator::{DbIterator, InternalIterator, IterState, MergingIterator};
use crate::memtable::MemLookup;
use crate::options::{CompactionStyle, ReadOptions, ScanOptions};
use crate::types::{compare_internal, lookup_key, user_key};
use crate::version::{FileMetaData, GetResult};
use crate::{Result, SequenceNumber};

use super::level_iter::{LevelIter, Run, TableChild};
use super::{Db, ScanCollector, ScanResult, Snapshot};

impl Db {
    /// Reads `key` under [`ReadOptions`] — the canonical read entry
    /// point.
    ///
    /// The read is timed on the engine's [`SharedClock`](nob_sim::SharedClock) (see
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

    /// Reads the newest visible value of `key` starting at the caller's
    /// instant `now`, not the shared clock's, and returns it with the
    /// instant the read finished.
    ///
    /// This is what [`Db::get`] cannot say, so it stays: the multi-threaded
    /// YCSB and `db_bench` drivers model N client threads over one engine,
    /// each on its own timeline, and a thread that lags the shared clock
    /// (another thread's write advanced it) must still start its read at
    /// its own instant. The shared clock is moved up to the read's end.
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
        seq: SequenceNumber,
        fill_cache: bool,
    ) -> Result<(Option<Vec<u8>>, Nanos)> {
        // Device commands the read issues (table reads) nest under the
        // engine_get span.
        self.traced(
            EventClass::EngineGet,
            now,
            |db| {
                let found = db.get_untraced(now, key, seq, fill_cache)?;
                db.clock.advance_to(found.1);
                Ok(found)
            },
            |(value, end)| (*end, value.as_ref().map_or(0, |v| v.len() as u64)),
        )
    }

    fn get_untraced(
        &mut self,
        now: Nanos,
        key: &[u8],
        seq: SequenceNumber,
        fill_cache: bool,
    ) -> Result<(Option<Vec<u8>>, Nanos)> {
        self.pump(now)?;
        let mut now = now + self.opts.cpu.get + self.opts.extra_op_cpu;
        self.stats.gets += 1;
        for mem in std::iter::once(&self.mem).chain(&self.imm) {
            match mem.get(key, seq) {
                MemLookup::Found(v) => {
                    self.stats.hits += 1;
                    return Ok((Some(v), now));
                }
                MemLookup::Deleted => return Ok((None, now)),
                MemLookup::NotFound => {}
            }
        }
        // The lookup key is built in a buffer the engine keeps.
        lookup_key(&mut self.lookup_buf, key, seq);
        let (result, probes, seek) = self.versions.current_ref().get(
            &self.lookup_buf,
            self.opts.style,
            &self.tables,
            &mut now,
            fill_cache,
        )?;
        self.stats.files_read_per_get += probes as u64;
        if let Some(sf) = seek {
            self.pending_seek = Some(sf);
            self.maybe_schedule(now);
        }
        match result {
            GetResult::Found(v) => {
                self.stats.hits += 1;
                Ok((Some(v), now))
            }
            _ => Ok((None, now)),
        }
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

    /// Creates an iterator over the live database starting at the caller's
    /// instant `now`, not the shared clock's: the iteration twin of
    /// [`Db::get_at_time`], for a driver thread or a recovery check that
    /// carries its own timeline (`db_bench` `readseq`, a YCSB-E scan, the
    /// chaos harness's verification scan). [`Db::iter`] starts at the
    /// shared clock. The iterator leaves the shared clock alone; a caller
    /// that is done with it raises the clock to [`DbIterator::now`].
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

    /// Continues the iterator `state` was [detached](DbIterator::detach)
    /// from, positioned at the first live user key ≥ `resume_key`. That
    /// iterator must have been at rest there (or exhausted, with no live
    /// key at or after `resume_key`) — the key a truncated scan hands back
    /// as its `resume`.
    ///
    /// The rule is *validate, don't pin*: once the completions due by now
    /// have applied, the state's table and level iterators carry on from
    /// the blocks they hold only if the version they read is still the
    /// current one and `ropts` names the same snapshot and `fill_cache`;
    /// only the memtable children are built and sought afresh. Any other
    /// state is dropped and the iterator is built and sought the way
    /// [`Db::iter`] + [`DbIterator::seek`] would — same rows, one block
    /// read per child dearer.
    ///
    /// # Errors
    ///
    /// Propagates filesystem/corruption errors.
    pub fn iter_resume(
        &mut self,
        ropts: &ReadOptions<'_>,
        state: IterState,
        resume_key: &[u8],
    ) -> Result<DbIterator<'_>> {
        let now = self.clock.now();
        let seq = ropts.snapshot.map_or(self.versions.last_sequence, Snapshot::sequence);
        self.pump(now)?;
        let held = state.positioned
            && Arc::ptr_eq(&state.version, self.versions.current_ref())
            && state.snapshot == seq
            && state.fill_cache == ropts.fill_cache;
        if !held {
            let mut it = self.build_iter(now, seq, ropts.fill_cache)?;
            it.seek(resume_key)?;
            return Ok(it);
        }
        self.stats.iters_resumed += 1;
        let mut it = DbIterator::new(
            MergingIterator::with_tail(self.mem_children(), state.tables),
            state.version,
            seq,
            ropts.fill_cache,
            now,
            self.opts.cpu.next,
        );
        it.resume(resume_key)?;
        Ok(it)
    }

    fn iter_internal(
        &mut self,
        now: Nanos,
        snapshot: SequenceNumber,
        fill_cache: bool,
    ) -> Result<DbIterator<'_>> {
        self.pump(now)?;
        self.build_iter(now, snapshot, fill_cache)
    }

    /// The memtable children of an iterator: they borrow the engine, so
    /// every iterator builds its own.
    fn mem_children(&self) -> Vec<Box<dyn InternalIterator + '_>> {
        let mut front: Vec<Box<dyn InternalIterator + '_>> = Vec::with_capacity(2);
        front.push(Box::new(self.mem.internal_iter()));
        if let Some(imm) = &self.imm {
            front.push(Box::new(imm.internal_iter()));
        }
        front
    }

    /// An unpositioned iterator over the memtables and the current version.
    fn build_iter(
        &self,
        mut now: Nanos,
        snapshot: SequenceNumber,
        fill_cache: bool,
    ) -> Result<DbIterator<'_>> {
        // The table-side children share the version and the table cache, so
        // whole levels are walked in place and the children can outlive
        // this borrow of the engine (`DbIterator::detach`).
        let version = self.versions.current_ref();
        let level_iter =
            |run| TableChild::Level(LevelIter::new(Arc::clone(&self.tables), run, fill_cache));
        let mut tail: Vec<TableChild> = Vec::new();
        for (level, files) in version.files.iter().enumerate() {
            if files.is_empty() {
                continue;
            }
            if level == 0 {
                for f in files {
                    let t = self.tables.table(f, &mut now)?;
                    tail.push(TableChild::Table(t.iter(fill_cache)));
                }
            } else if self.opts.style == CompactionStyle::Fragmented {
                // A fragmented level is a stack of sorted runs (each
                // compaction generation's outputs are disjoint); one
                // concatenating iterator per run bounds scan cost by the
                // generation count — the same effect PebblesDB's guards
                // have on reads.
                tail.extend(sorted_runs(files.clone()).into_iter().map(Run::Files).map(level_iter));
            } else if files.iter().any(|f| f.hot) {
                // Hot (overlapping) files form their own runs; the sorted
                // cold remainder uses one concatenating iterator.
                let (hot, cold): (Vec<_>, Vec<_>) = files.iter().cloned().partition(|f| f.hot);
                tail.extend(sorted_runs(hot).into_iter().map(Run::Files).map(level_iter));
                if !cold.is_empty() {
                    tail.push(level_iter(Run::Files(cold)));
                }
            } else {
                tail.push(level_iter(Run::Level(Arc::clone(version), level)));
            }
        }
        Ok(DbIterator::new(
            MergingIterator::with_tail(self.mem_children(), tail),
            Arc::clone(version),
            snapshot,
            fill_cache,
            now,
            self.opts.cpu.next,
        ))
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
        let mut rows = Vec::new();
        let page = self.scan_with(ropts, sopts, |k, v| rows.push((k.to_vec(), v.to_vec())))?;
        Ok(ScanResult { rows, ..page })
    }

    /// [`Db::scan`] handing each row to `sink` as it is found, borrowed
    /// from the block or memtable that holds it — for a caller that copies
    /// rows somewhere of its own (a reply buffer) or not at all. The
    /// returned [`ScanResult`] carries `count` and `resume`; its `rows`
    /// stay empty.
    ///
    /// # Errors
    ///
    /// Propagates filesystem/corruption errors.
    pub fn scan_with(
        &mut self,
        ropts: &ReadOptions<'_>,
        sopts: &ScanOptions<'_>,
        sink: impl FnMut(&[u8], &[u8]),
    ) -> Result<ScanResult> {
        let now = self.clock.now();
        let seq = ropts.snapshot.map_or(self.versions.last_sequence, Snapshot::sequence);
        let start = sopts.effective_start();
        let end = sopts.effective_end();
        let fill = sopts.fill_cache && ropts.fill_cache;
        let mut collector = ScanCollector::new(sopts, sink);
        let mut it = self.iter_internal(now, seq, fill)?;
        match start {
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
        let end_t = it.now();
        drop(it);
        self.clock.advance_to(end_t);
        Ok(collector.finish())
    }
}

/// Partitions possibly-overlapping files into sorted non-overlapping runs
/// (greedy by smallest key): the iterator-facing equivalent of PebblesDB's
/// guards and L2SM's hot-log generations.
fn sorted_runs(mut files: Vec<Arc<FileMetaData>>) -> Vec<Vec<Arc<FileMetaData>>> {
    files.sort_by(|a, b| {
        compare_internal(a.smallest.as_bytes(), b.smallest.as_bytes()).then(a.number.cmp(&b.number))
    });
    let mut runs: Vec<Vec<Arc<FileMetaData>>> = Vec::new();
    for f in files {
        let slot = runs.iter_mut().find(|run| {
            let last = run.last().expect("runs are non-empty");
            user_key(last.largest.as_bytes()) < user_key(f.smallest.as_bytes())
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
                assert!(user_key(w[0].largest.as_bytes()) < user_key(w[1].smallest.as_bytes()));
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
