//! The simulated filesystem: `Ext4Fs`, its namespace and the NobLSM
//! syscalls. The concerns behind them live in four children:
//!
//! * `cache` — the page cache: LRU, eviction, `drop_caches` and the one
//!   write-back step that hands an inode's dirty tail to the device;
//! * `journal` — the running transaction, the commit timer and the one
//!   commit routine behind the full and the fast commit;
//! * `crash` — crash reconstruction and the crash horizon;
//! * `metrics` — the gauge registration.

mod cache;
mod crash;
mod journal;
mod metrics;

pub use crash::CommitWindow;
pub use metrics::METRICS;

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use nob_sim::Nanos;
use nob_ssd::{InjectorHandle, IoStats, Ssd};
use nob_trace::TraceSink;

use crate::inode::Inode;
use crate::{Ext4Config, Extent, FileHandle, FsError, FsStats, InodeId, Result};

/// A simulated Ext4 filesystem mounted in `data=ordered` mode.
///
/// `Ext4Fs` is a cheap cloneable handle (`Arc` inside); clones observe the
/// same filesystem. All operations take the caller's virtual instant `now`
/// and return the instant at which the caller may proceed.
///
/// See the [crate-level documentation](crate) for the model and an example.
#[derive(Debug, Clone)]
pub struct Ext4Fs {
    inner: Arc<Mutex<Inner>>,
}

#[derive(Debug)]
struct Inner {
    cfg: Ext4Config,
    ssd: Ssd,
    inodes: HashMap<InodeId, Inode>,
    names: HashMap<String, InodeId>,
    next_ino: u64,
    /// Inodes joined to the running (uncommitted) transaction.
    running: Vec<InodeId>,
    /// Next firing of the JBD2 commit timer.
    next_commit_at: Nanos,
    /// Total dirty page-cache bytes.
    dirty_bytes: u64,
    /// Total bytes of cached (resident) file content, dirty included.
    cache_used: u64,
    /// LRU of cached inodes (duplicates resolved via `lru_gen`).
    lru: VecDeque<(InodeId, u64)>,
    lru_touch: HashMap<InodeId, u64>,
    lru_gen: u64,
    /// NobLSM kernel-space tables: inode → epoch registered (pending) and
    /// inode → commit completion instant (committed).
    pending: HashMap<InodeId, u64>,
    committed: HashMap<InodeId, Nanos>,
    /// Instant of the first journal commit whose record was torn or
    /// corrupted on media. JBD2 recovery scans the journal in order and
    /// stops at the first bad commit record, so every transaction from
    /// this instant on is unrecoverable (fast-commit records excepted —
    /// they live in a separate self-checksummed area).
    journal_broken_at: Option<Nanos>,
    /// Commit events acknowledged behind a dropped FLUSH, addressed as
    /// (inode, index into its `commit_events`). The next real FLUSH
    /// drains the device cache and settles their `durable_at`.
    unsettled: Vec<(InodeId, usize)>,
    /// Timing of every journal commit, for chaos crash-point targeting.
    commit_log: Vec<CommitWindow>,
    /// The earliest instant a crash view may still be asked for, and
    /// whether a rewinding driver froze it there.
    horizon: Nanos,
    horizon_pinned: bool,
    /// Deleted inodes by the instant their deletion record became
    /// durable, earliest first: forgotten once the horizon passes it.
    forgettable: BinaryHeap<Reverse<(Nanos, InodeId)>>,
    stats: FsStats,
    trace: Option<TraceSink>,
}

impl Ext4Fs {
    /// Mounts a fresh, empty filesystem.
    pub fn new(cfg: Ext4Config) -> Self {
        let first_commit = cfg.commit_interval;
        let ssd = Ssd::new(cfg.ssd.clone());
        Ext4Fs {
            inner: Arc::new(Mutex::new(Inner {
                cfg,
                ssd,
                inodes: HashMap::new(),
                names: HashMap::new(),
                next_ino: 1,
                running: Vec::new(),
                next_commit_at: first_commit,
                dirty_bytes: 0,
                cache_used: 0,
                lru: VecDeque::new(),
                lru_touch: HashMap::new(),
                lru_gen: 0,
                pending: HashMap::new(),
                committed: HashMap::new(),
                journal_broken_at: None,
                unsettled: Vec::new(),
                commit_log: Vec::new(),
                horizon: Nanos::ZERO,
                horizon_pinned: false,
                forgettable: BinaryHeap::new(),
                stats: FsStats::default(),
                trace: None,
            })),
        }
    }

    /// Locks the filesystem state, absorbing poison: a panic that held
    /// the lock must not turn every later call on a clone into a second
    /// panic.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The filesystem's configuration.
    pub fn config(&self) -> Ext4Config {
        self.lock().cfg.clone()
    }

    /// Filesystem-level counters (syncs, write-back, journal traffic).
    pub fn stats(&self) -> FsStats {
        self.lock().stats
    }

    /// Device-level counters.
    pub fn io_stats(&self) -> IoStats {
        *self.lock().ssd.stats()
    }

    /// Instant at which the device queue drains.
    pub fn device_free_at(&self) -> Nanos {
        self.lock().ssd.free_at()
    }

    /// Resets filesystem and device counters (not state); used between
    /// benchmark phases.
    pub fn reset_stats(&self) {
        let mut g = self.lock();
        g.stats = FsStats::default();
        g.ssd.reset_stats();
    }

    /// Installs a device fault injector; subsequent I/O consults it.
    pub fn set_fault_injector(&self, injector: InjectorHandle) {
        self.lock().ssd.set_injector(injector);
    }

    /// Installs a trace sink on the filesystem *and* its device: journal
    /// commits, checkpoints, fast-commits and write-back emit spans, and
    /// the device underneath emits its own command spans into the same
    /// sink.
    pub fn set_trace_sink(&self, sink: TraceSink) {
        let mut g = self.lock();
        g.ssd.set_trace_sink(sink.clone());
        g.trace = Some(sink);
    }

    /// Removes the trace sink from the filesystem and its device.
    pub fn clear_trace_sink(&self) {
        let mut g = self.lock();
        g.ssd.clear_trace_sink();
        g.trace = None;
    }

    /// Creates a new empty file.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::AlreadyExists`] if `path` is taken.
    pub fn create(&self, path: &str, now: Nanos) -> Result<FileHandle> {
        let mut g = self.lock();
        g.tick(now);
        if g.names.contains_key(path) {
            return Err(FsError::AlreadyExists(path.to_string()));
        }
        let id = InodeId(g.next_ino);
        g.next_ino += 1;
        let inode = Inode::new(id, path.to_string());
        g.inodes.insert(id, inode);
        g.names.insert(path.to_string(), id);
        g.join_txn(id);
        Ok(FileHandle { ino: id })
    }

    /// Opens an existing file.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if `path` does not exist.
    pub fn open(&self, path: &str, now: Nanos) -> Result<FileHandle> {
        let mut g = self.lock();
        g.tick(now);
        let id = *g.names.get(path).ok_or_else(|| FsError::NotFound(path.to_string()))?;
        Ok(FileHandle { ino: id })
    }

    /// Whether `path` exists in the (in-memory) namespace.
    pub fn exists(&self, path: &str) -> bool {
        self.lock().names.contains_key(path)
    }

    /// Size of the file at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if `path` does not exist.
    pub fn file_size(&self, path: &str) -> Result<u64> {
        let g = self.lock();
        let id = g.names.get(path).ok_or_else(|| FsError::NotFound(path.to_string()))?;
        Ok(g.inodes[id].content.len() as u64)
    }

    /// All live paths with the given prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        let g = self.lock();
        let mut v: Vec<String> =
            g.names.keys().filter(|p| p.starts_with(prefix)).cloned().collect();
        v.sort();
        v
    }

    /// The inode number behind a live path, if any. NobLSM's user-space
    /// tracker records these for `check_commit`.
    pub fn inode_of(&self, path: &str) -> Option<InodeId> {
        self.lock().names.get(path).copied()
    }

    /// Buffered (page-cache) append. Returns the caller's new `now`.
    ///
    /// An owned buffer appended to an empty file becomes its content as
    /// it is, spare capacity included; a slice, or any append to a
    /// non-empty file, is copied. Nothing else depends on which happened.
    /// An append to a file that a live [`Extent`] views copies the content
    /// first, so the extent keeps showing the bytes it was read as.
    ///
    /// May trigger an early asynchronous commit if the dirty-page threshold
    /// is crossed; the caller does not wait for that commit.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::StaleHandle`] if the file was deleted.
    pub fn append<'a>(
        &self,
        h: FileHandle,
        data: impl Into<Cow<'a, [u8]>>,
        now: Nanos,
    ) -> Result<Nanos> {
        let data = data.into();
        let len = data.len() as u64;
        let mut g = self.lock();
        g.tick(now);
        let cost = g.cfg.ssd.mem_cost(len);
        let (resident, dirty) = {
            let inode = g.live_inode_mut(h)?;
            // Re-caching an uncached inode makes its whole content
            // resident again, not just the appended bytes.
            let resident = if inode.cached { 0 } else { inode.content.len() as u64 };
            match data {
                // Spare capacity is kept: releasing it (`shrink_to_fit`)
                // lowered peak RSS on a write-heavy load but raised it
                // more on read-heavy ones, and cost page faults.
                Cow::Owned(bytes) if inode.content.is_empty() => inode.content = Arc::new(bytes),
                data => Arc::make_mut(&mut inode.content).extend_from_slice(&data),
            }
            inode.touch();
            inode.cached = true;
            (resident, inode.dirty_bytes())
        };
        g.dirty_bytes += len;
        g.cache_used += len + resident;
        g.stats.bytes_buffered += len;
        g.join_txn(h.ino);
        g.lru_touch(h.ino);
        // The kernel flusher: once a file holds `writeback_chunk` dirty
        // bytes they go to the background class, so commits wait only for
        // the in-flight tail rather than whole bursts.
        if dirty >= g.cfg.writeback_chunk {
            g.write_back(h.ino, now, false);
        }
        if g.dirty_bytes >= g.cfg.dirty_trigger_bytes() {
            g.commit(now, false);
        }
        g.evict();
        Ok(now + cost)
    }

    /// Direct-I/O append: bypasses the page cache, waits for the device.
    /// Returns the caller's new `now` (the write's completion instant).
    ///
    /// # Errors
    ///
    /// Returns [`FsError::StaleHandle`] if the file was deleted.
    pub fn append_direct(&self, h: FileHandle, data: &[u8], now: Nanos) -> Result<Nanos> {
        let mut g = self.lock();
        g.tick(now);
        let (base, target) = {
            let inode = g.live_inode_mut(h)?;
            let base = inode.content.len() as u64;
            Arc::make_mut(&mut inode.content).extend_from_slice(data);
            inode.touch();
            (base, inode.content.len() as u64)
        };
        let end = g.data_write(h.ino, base, target, now, true, false);
        g.inodes.get_mut(&h.ino).expect("checked above").written_back = target;
        g.stats.bytes_direct += data.len() as u64;
        g.join_txn(h.ino);
        Ok(end)
    }

    /// Positional read of up to `len` bytes at `offset`. Returns the bytes,
    /// as an [`Extent`] sharing the file's content rather than a copy, and
    /// the caller's new `now`.
    ///
    /// Cached (recently written, unevicted) content costs DRAM time; cold
    /// content costs a synchronous device read. Reads do not populate the
    /// page cache — read caching is the responsibility of the layer above
    /// (the engine's block cache), which keeps the two models separable.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::StaleHandle`] if the file was deleted.
    pub fn read_at(
        &self,
        h: FileHandle,
        offset: u64,
        len: u64,
        now: Nanos,
    ) -> Result<(Extent, Nanos)> {
        let mut g = self.lock();
        g.tick(now);
        let inode = g.live_inode(h)?;
        let total = inode.content.len() as u64;
        let start = offset.min(total);
        // Saturating: no `offset`/`len` pair may wrap `end` below `start`.
        let end = offset.saturating_add(len).min(total);
        let data = Extent::new(Arc::clone(&inode.content), start as usize..end as usize);
        let got = end - start;
        let done =
            if inode.cached { now + g.cfg.ssd.mem_cost(got) } else { g.ssd.read(now, got).end };
        Ok((data, done))
    }

    /// Like [`read_at`](Ext4Fs::read_at) but errors if fewer than `len`
    /// bytes are available.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::ShortRead`] if the file ends before
    /// `offset + len`, or [`FsError::StaleHandle`] if the file was deleted.
    pub fn read_exact_at(
        &self,
        h: FileHandle,
        offset: u64,
        len: u64,
        now: Nanos,
    ) -> Result<(Extent, Nanos)> {
        let (data, done) = self.read_at(h, offset, len, now)?;
        if (data.len() as u64) < len {
            return Err(FsError::ShortRead { wanted: len, available: data.len() as u64 });
        }
        Ok((data, done))
    }

    /// `fsync(2)`: write back the file's dirty data, force a journal commit
    /// and a device FLUSH, and block until complete. Returns the caller's
    /// new `now`.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::StaleHandle`] if the file was deleted.
    pub fn fsync(&self, h: FileHandle, now: Nanos) -> Result<Nanos> {
        let mut g = self.lock();
        g.tick(now);
        g.stats.sync_calls += 1;
        let inode = g.live_inode(h)?;
        if !inode.needs_commit() {
            // Nothing newer than the last commit: a real fsync would find
            // nothing to do (both data and metadata are durable).
            return Ok(now);
        }
        // Bytes this sync is responsible for making durable: dirty pages
        // plus write-back still in flight.
        let len = inode.content.len() as u64;
        g.stats.bytes_synced += len - inode.persisted_len_at(now).min(len);
        let done =
            if g.cfg.fast_commit { g.fast_commit_inode(h.ino, now) } else { g.commit(now, true) };
        Ok(done)
    }

    /// Renames `old` to `new`, replacing `new` if it exists (the atomic
    /// `CURRENT` update pattern). A metadata-only operation.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if `old` does not exist.
    pub fn rename(&self, old: &str, new: &str, now: Nanos) -> Result<Nanos> {
        let mut g = self.lock();
        g.tick(now);
        let id = g.names.remove(old).ok_or_else(|| FsError::NotFound(old.to_string()))?;
        if let Some(victim) = g.names.remove(new) {
            g.unlink(victim);
        }
        let inode = g.inodes.get_mut(&id).expect("live name maps to live inode");
        inode.path = Some(new.to_string());
        inode.touch();
        g.names.insert(new.to_string(), id);
        g.join_txn(id);
        Ok(now)
    }

    /// Unlinks `path`. A metadata-only operation; the deletion becomes
    /// durable at the next commit. Erases the inode from the NobLSM
    /// kernel tables, as the paper specifies.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if `path` does not exist.
    pub fn delete(&self, path: &str, now: Nanos) -> Result<Nanos> {
        let mut g = self.lock();
        g.tick(now);
        let id = g.names.remove(path).ok_or_else(|| FsError::NotFound(path.to_string()))?;
        g.unlink(id);
        Ok(now)
    }

    /// Processes any asynchronous commits due at or before `now`.
    ///
    /// Every public operation ticks implicitly; drivers may also tick
    /// explicitly when virtual time passes without filesystem activity.
    pub fn tick(&self, now: Nanos) {
        self.lock().tick(now);
    }

    /// The `check_commit` syscall: registers inodes in the kernel Pending
    /// Table. Inodes that are already fully committed go straight to the
    /// Committed Table.
    pub fn check_commit(&self, inos: &[InodeId], now: Nanos) {
        let mut g = self.lock();
        g.tick(now);
        for &ino in inos {
            let Some(inode) = g.inodes.get(&ino).filter(|i| !i.deleted) else { continue };
            if inode.needs_commit() {
                let epoch = inode.epoch;
                g.pending.insert(ino, epoch);
            } else {
                let at = inode.committed_at.expect("committed epoch implies an instant");
                g.committed.insert(ino, at);
            }
        }
    }

    /// The `is_committed` syscall: whether the inode has moved to the
    /// Committed Table by `now`.
    pub fn is_committed(&self, ino: InodeId, now: Nanos) -> bool {
        let mut g = self.lock();
        g.tick(now);
        g.committed.get(&ino).is_some_and(|&t| t <= now)
    }

    /// Drops all clean page-cache residency (like
    /// `echo 3 > /proc/sys/vm/drop_caches`); benchmarks call this between a
    /// load phase and a read phase.
    pub fn drop_caches(&self) {
        self.lock().drop_caches();
    }

    /// Total dirty page-cache bytes right now.
    pub fn dirty_bytes(&self) -> u64 {
        self.lock().dirty_bytes
    }

    /// Number of inodes joined to the running (uncommitted) JBD2
    /// transaction.
    pub fn running_txn_inodes(&self) -> usize {
        self.lock().running.len()
    }

    /// Instant at which pending background (write-back) device work
    /// drains; the distance from "now" is the checkpoint backlog.
    pub fn device_background_free_at(&self) -> Nanos {
        self.lock().ssd.background_free_at()
    }

    /// Total foreground busy time of the device underneath.
    pub fn device_busy_time(&self) -> Nanos {
        self.lock().ssd.busy_time()
    }

    /// Completion instant of the device's most recently issued FLUSH
    /// ([`Nanos::ZERO`] before the first).
    pub(crate) fn device_flush_frontier(&self) -> Nanos {
        self.lock().ssd.flush_frontier()
    }
}

impl Inner {
    fn live_inode(&self, h: FileHandle) -> Result<&Inode> {
        match self.inodes.get(&h.ino) {
            Some(i) if !i.deleted => Ok(i),
            _ => Err(FsError::StaleHandle),
        }
    }

    fn live_inode_mut(&mut self, h: FileHandle) -> Result<&mut Inode> {
        match self.inodes.get_mut(&h.ino) {
            Some(i) if !i.deleted => Ok(i),
            _ => Err(FsError::StaleHandle),
        }
    }

    /// Marks an inode deleted, erases it from the NobLSM tables and joins
    /// it to the running transaction, whose commit makes the deletion
    /// durable: `delete`'s step, and a rename's over an existing name.
    fn unlink(&mut self, id: InodeId) {
        let Some(inode) = self.inodes.get_mut(&id) else { return };
        let dirty = inode.dirty_bytes();
        let len = inode.content.len() as u64;
        let was_cached = inode.cached;
        inode.deleted = true;
        inode.path = None;
        inode.written_back = inode.content.len() as u64;
        inode.touch();
        inode.cached = false;
        self.dirty_bytes -= dirty;
        if was_cached {
            self.cache_used -= len;
        }
        self.pending.remove(&id);
        self.committed.remove(&id);
        self.join_txn(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> Ext4Fs {
        Ext4Fs::new(Ext4Config::default())
    }

    #[test]
    fn poison_is_absorbed() {
        let fs = fs();
        let clone = fs.clone();
        let _ = std::thread::spawn(move || {
            let _g = clone.lock();
            panic!("poison it");
        })
        .join();
        assert!(fs.inner.is_poisoned());
        assert_eq!(fs.dirty_bytes(), 0, "a poisoned lock must not fail later calls");
    }

    #[test]
    fn create_append_read_round_trip() {
        let fs = fs();
        let h = fs.create("a", Nanos::ZERO).unwrap();
        let now = fs.append(h, b"hello ", Nanos::ZERO).unwrap();
        let now = fs.append(h, b"world", now).unwrap();
        let (data, _) = fs.read_at(h, 0, 64, now).unwrap();
        assert_eq!(&*data, b"hello world");
        assert_eq!(fs.file_size("a").unwrap(), 11);
    }

    #[test]
    fn create_duplicate_fails() {
        let fs = fs();
        fs.create("a", Nanos::ZERO).unwrap();
        assert_eq!(
            fs.create("a", Nanos::ZERO).unwrap_err(),
            FsError::AlreadyExists("a".to_string())
        );
    }

    #[test]
    fn open_missing_fails() {
        let fs = fs();
        assert_eq!(fs.open("nope", Nanos::ZERO).unwrap_err(), FsError::NotFound("nope".into()));
    }

    #[test]
    fn read_exact_reports_short_read() {
        let fs = fs();
        let h = fs.create("a", Nanos::ZERO).unwrap();
        let now = fs.append(h, b"abc", Nanos::ZERO).unwrap();
        let err = fs.read_exact_at(h, 1, 10, now).unwrap_err();
        assert_eq!(err, FsError::ShortRead { wanted: 10, available: 2 });
        // An `offset + len` past `u64::MAX` is a short read too, not a wrap.
        let err = fs.read_exact_at(h, u64::MAX - 3, 100, now).unwrap_err();
        assert_eq!(err, FsError::ShortRead { wanted: 100, available: 0 });
    }

    #[test]
    fn buffered_data_lost_before_any_commit() {
        let fs = fs();
        let h = fs.create("a", Nanos::ZERO).unwrap();
        let now = fs.append(h, b"data", Nanos::ZERO).unwrap();
        let view = fs.crashed_view(now);
        assert!(!view.exists("a"));
    }

    #[test]
    fn fsync_makes_file_durable_and_costs_time() {
        let fs = fs();
        let h = fs.create("a", Nanos::ZERO).unwrap();
        let now = fs.append(h, vec![7u8; 1 << 20].as_slice(), Nanos::ZERO).unwrap();
        let done = fs.fsync(h, now).unwrap();
        assert!(done > now, "fsync must cost device time");
        let view = fs.crashed_view(done);
        assert!(view.exists("a"));
        assert_eq!(view.file_size("a").unwrap(), 1 << 20);
        let h2 = view.open("a", done).unwrap();
        let (data, _) = view.read_at(h2, 0, 4, done).unwrap();
        assert_eq!(*data, vec![7u8; 4]);
    }

    #[test]
    fn fsync_on_clean_file_is_noop() {
        let fs = fs();
        let h = fs.create("a", Nanos::ZERO).unwrap();
        let now = fs.append(h, b"x", Nanos::ZERO).unwrap();
        let done = fs.fsync(h, now).unwrap();
        let again = fs.fsync(h, done).unwrap();
        assert_eq!(again, done, "second fsync finds nothing dirty");
        assert_eq!(fs.stats().sync_calls, 2);
        assert_eq!(fs.stats().sync_commits, 1);
    }

    #[test]
    fn dirty_threshold_triggers_early_commit() {
        // 10 MiB page cache → 1 MiB dirty trigger. Disable streaming
        // write-back so dirt actually accumulates to the threshold.
        let mut cfg = Ext4Config::default().with_page_cache(10 << 20);
        cfg.writeback_chunk = u64::MAX;
        let fs = Ext4Fs::new(cfg);
        let h = fs.create("a", Nanos::ZERO).unwrap();
        let now = fs.append(h, vec![0u8; 2 << 20].as_slice(), Nanos::ZERO).unwrap();
        assert_eq!(fs.stats().async_commits, 1, "threshold commit fired");
        assert!(now < Nanos::from_secs(5), "caller did not wait for the timer");
        // The commit eventually makes the data durable.
        assert!(fs.crashed_view(Nanos::from_secs(1)).exists("a"));
    }

    #[test]
    fn check_commit_on_already_committed_inode() {
        let fs = fs();
        let h = fs.create("a", Nanos::ZERO).unwrap();
        let now = fs.append(h, b"x", Nanos::ZERO).unwrap();
        let done = fs.fsync(h, now).unwrap();
        let ino = fs.inode_of("a").unwrap();
        fs.check_commit(&[ino], done);
        assert!(fs.is_committed(ino, done));
    }

    #[test]
    fn recommitted_after_new_dirt() {
        let fs = fs();
        let h = fs.create("a", Nanos::ZERO).unwrap();
        let now = fs.append(h, b"x", Nanos::ZERO).unwrap();
        let done = fs.fsync(h, now).unwrap();
        // New dirt: the inode needs a new commit to cover it.
        let now2 = fs.append(h, b"y", done).unwrap();
        let ino = fs.inode_of("a").unwrap();
        fs.check_commit(&[ino], now2);
        assert!(!fs.is_committed(ino, now2), "new epoch not yet committed");
        let done2 = fs.fsync(h, now2).unwrap();
        assert!(fs.is_committed(ino, done2));
    }

    #[test]
    fn delete_erases_from_kernel_tables() {
        let fs = fs();
        let h = fs.create("a", Nanos::ZERO).unwrap();
        let now = fs.append(h, b"x", Nanos::ZERO).unwrap();
        let done = fs.fsync(h, now).unwrap();
        let ino = fs.inode_of("a").unwrap();
        fs.check_commit(&[ino], done);
        assert!(fs.is_committed(ino, done));
        fs.delete("a", done).unwrap();
        assert!(!fs.is_committed(ino, done), "deletion erases the table entry");
    }

    #[test]
    fn uncommitted_delete_resurrects_on_crash() {
        let fs = fs();
        let h = fs.create("a", Nanos::ZERO).unwrap();
        let now = fs.append(h, b"x", Nanos::ZERO).unwrap();
        let done = fs.fsync(h, now).unwrap();
        fs.delete("a", done).unwrap();
        assert!(!fs.exists("a"));
        // The deletion sits in the running transaction: a crash now rolls
        // it back.
        let view = fs.crashed_view(done);
        assert!(view.exists("a"), "uncommitted deletion must not survive a crash");
        // After the next async commit the deletion is durable.
        let later = done + Nanos::from_secs(6);
        fs.tick(later);
        assert!(!fs.crashed_view(later).exists("a"));
    }

    #[test]
    fn rename_is_atomic_with_replacement() {
        let fs = fs();
        let cur = fs.create("CURRENT", Nanos::ZERO).unwrap();
        let now = fs.append(cur, b"MANIFEST-1", Nanos::ZERO).unwrap();
        let now = fs.fsync(cur, now).unwrap();
        let tmp = fs.create("CURRENT.tmp", now).unwrap();
        let now = fs.append(tmp, b"MANIFEST-2", now).unwrap();
        let now = fs.fsync(tmp, now).unwrap();
        fs.rename("CURRENT.tmp", "CURRENT", now).unwrap();
        // Before the rename's commit: crash sees the old CURRENT.
        let view = fs.crashed_view(now);
        let h = view.open("CURRENT", now).unwrap();
        let (data, _) = view.read_at(h, 0, 64, now).unwrap();
        assert_eq!(&*data, b"MANIFEST-1");
        // After a commit: the new CURRENT, exactly one claimant.
        let later = now + Nanos::from_secs(6);
        fs.tick(later);
        let view = fs.crashed_view(later);
        let h = view.open("CURRENT", later).unwrap();
        let (data, _) = view.read_at(h, 0, 64, later).unwrap();
        assert_eq!(&*data, b"MANIFEST-2");
        assert!(!view.exists("CURRENT.tmp"));
    }

    #[test]
    fn crash_truncates_to_committed_length() {
        let fs = fs();
        let h = fs.create("log", Nanos::ZERO).unwrap();
        let now = fs.append(h, b"AAAA", Nanos::ZERO).unwrap();
        let done = fs.fsync(h, now).unwrap();
        // Tail appended after the sync is lost on crash — the paper's
        // "broken log tail" behaviour.
        let _ = fs.append(h, b"BBBB", done).unwrap();
        let view = fs.crashed_view(done + Nanos::from_millis(1));
        assert_eq!(view.file_size("log").unwrap(), 4);
    }

    #[test]
    fn direct_io_waits_for_device_and_persists_data() {
        let fs = fs();
        let h = fs.create("a", Nanos::ZERO).unwrap();
        let done = fs.append_direct(h, vec![1u8; 2 << 20].as_slice(), Nanos::ZERO).unwrap();
        let buffered_cost = fs.config().ssd.mem_cost(2 << 20);
        assert!(done > buffered_cost, "direct I/O costs device time");
        assert_eq!(fs.stats().bytes_direct, 2 << 20);
        // Metadata not yet committed → file not yet recoverable...
        assert!(!fs.crashed_view(done).exists("a"));
        // ...until a commit covers the inode; then the (already persisted)
        // data is all there without any write-back.
        let later = Nanos::from_secs(6);
        fs.tick(later);
        let view = fs.crashed_view(later);
        assert_eq!(view.file_size("a").unwrap(), 2 << 20);
    }

    #[test]
    fn sync_accounting_matches_calls() {
        let fs = fs();
        let h = fs.create("a", Nanos::ZERO).unwrap();
        let mut now = Nanos::ZERO;
        for _ in 0..3 {
            now = fs.append(h, vec![0u8; 1000].as_slice(), now).unwrap();
            now = fs.fsync(h, now).unwrap();
        }
        let s = fs.stats();
        assert_eq!(s.sync_calls, 3);
        assert_eq!(s.bytes_synced, 3000);
        assert_eq!(s.sync_commits, 3);
    }

    #[test]
    fn drop_caches_makes_reads_cold() {
        let fs = fs();
        let h = fs.create("a", Nanos::ZERO).unwrap();
        let now = fs.append(h, vec![0u8; 4096].as_slice(), Nanos::ZERO).unwrap();
        let now = fs.fsync(h, now).unwrap();
        let (_, warm_end) = fs.read_at(h, 0, 4096, now).unwrap();
        fs.drop_caches();
        let (_, cold_end) = fs.read_at(h, 0, 4096, warm_end).unwrap();
        assert!(cold_end - warm_end > warm_end - now, "cold read must cost device time");
    }

    #[test]
    fn stale_handle_after_delete() {
        let fs = fs();
        let h = fs.create("a", Nanos::ZERO).unwrap();
        fs.delete("a", Nanos::ZERO).unwrap();
        assert_eq!(fs.append(h, b"x", Nanos::ZERO).unwrap_err(), FsError::StaleHandle);
        assert_eq!(fs.read_at(h, 0, 1, Nanos::ZERO).unwrap_err(), FsError::StaleHandle);
        assert_eq!(fs.fsync(h, Nanos::ZERO).unwrap_err(), FsError::StaleHandle);
    }

    #[test]
    fn list_filters_and_sorts() {
        let fs = fs();
        fs.create("db/000002.ldb", Nanos::ZERO).unwrap();
        fs.create("db/000001.ldb", Nanos::ZERO).unwrap();
        fs.create("other/x", Nanos::ZERO).unwrap();
        assert_eq!(fs.list("db/"), vec!["db/000001.ldb".to_string(), "db/000002.ldb".to_string()]);
    }

    mod faults {
        use super::*;
        use crate::fs::crash::DAMAGE_MASK;
        use nob_ssd::{FaultInjector, FlushCmd, FlushFault, WriteClass, WriteCmd, WriteFault};

        /// Tears every journal-class write, leaving data and FLUSH alone.
        struct TearJournal;
        impl FaultInjector for TearJournal {
            fn on_write(&mut self, cmd: &WriteCmd) -> WriteFault {
                match cmd.class {
                    WriteClass::Journal | WriteClass::FastCommit => WriteFault::Torn { keep: 0 },
                    _ => WriteFault::None,
                }
            }
        }

        /// Drops the first `n` FLUSH commands, then behaves.
        struct DropFlushes(u64);
        impl FaultInjector for DropFlushes {
            fn on_flush(&mut self, _cmd: &FlushCmd) -> FlushFault {
                if self.0 > 0 {
                    self.0 -= 1;
                    FlushFault::DroppedAcked
                } else {
                    FlushFault::None
                }
            }
        }

        /// Corrupts every data-class write.
        struct CorruptData;
        impl FaultInjector for CorruptData {
            fn on_write(&mut self, cmd: &WriteCmd) -> WriteFault {
                if cmd.class == WriteClass::Data {
                    WriteFault::Corrupt
                } else {
                    WriteFault::None
                }
            }
        }

        #[test]
        fn torn_journal_write_loses_commit_but_kernel_believes_it() {
            let fs = fs();
            fs.set_fault_injector(nob_ssd::InjectorHandle::new(TearJournal));
            let h = fs.create("a", Nanos::ZERO).unwrap();
            let now = fs.append(h, b"payload", Nanos::ZERO).unwrap();
            let done = fs.fsync(h, now).unwrap();
            // The kernel saw the commit complete: the NobLSM tables advance…
            let ino = fs.inode_of("a").unwrap();
            fs.check_commit(&[ino], done);
            assert!(fs.is_committed(ino, done), "kernel believes the acked commit");
            // …but the commit record is garbage on media, so a crash loses
            // the file entirely.
            assert!(!fs.crashed_view(done).exists("a"));
            assert_eq!(fs.stats().commits_lost_torn_journal, 1);
        }

        #[test]
        fn torn_journal_breaks_the_chain_for_later_commits() {
            let cfg = Ext4Config { fast_commit: false, ..Ext4Config::default() };
            let fs = Ext4Fs::new(cfg);
            // First commit is clean and recoverable.
            let a = fs.create("a", Nanos::ZERO).unwrap();
            let now = fs.append(a, b"aaaa", Nanos::ZERO).unwrap();
            let now = fs.fsync(a, now).unwrap();
            // Second commit's record is torn → chain breaks there.
            fs.set_fault_injector(nob_ssd::InjectorHandle::new(TearJournal));
            let b = fs.create("b", now).unwrap();
            let now = fs.append(b, b"bbbb", now).unwrap();
            let now = fs.fsync(b, now).unwrap();
            // Third commit is clean again, but sits after the break: JBD2
            // replay stops at the bad record and never reaches it.
            fs.set_fault_injector(nob_ssd::InjectorHandle::new(DropFlushes(0)));
            let c = fs.create("c", now).unwrap();
            let now = fs.append(c, b"cccc", now).unwrap();
            let now = fs.fsync(c, now).unwrap();
            assert!(fs.journal_broken().is_some());
            let view = fs.crashed_view(now);
            assert!(view.exists("a"), "commit before the break survives");
            assert!(!view.exists("b"), "the torn commit itself is lost");
            assert!(!view.exists("c"), "commits after the break are unreachable");
        }

        #[test]
        fn dropped_flush_defers_durability_to_next_real_flush() {
            let fs = fs();
            fs.set_fault_injector(nob_ssd::InjectorHandle::new(DropFlushes(1)));
            let a = fs.create("a", Nanos::ZERO).unwrap();
            let now = fs.append(a, b"aaaa", Nanos::ZERO).unwrap();
            let done_a = fs.fsync(a, now).unwrap();
            // The device acked the FLUSH without draining: the commit
            // record is still volatile, a power cut now loses it.
            assert!(!fs.crashed_view(done_a).exists("a"));
            assert_eq!(fs.stats().commits_unsettled_flush, 1);
            // The next real FLUSH (another file's fsync) drains the cache
            // and settles the earlier record.
            let b = fs.create("b", done_a).unwrap();
            let now = fs.append(b, b"bbbb", done_a).unwrap();
            let done_b = fs.fsync(b, now).unwrap();
            let view = fs.crashed_view(done_b);
            assert!(view.exists("a"), "earlier commit settled by the real flush");
            assert!(view.exists("b"));
            // But crashing between the two fsyncs still loses `a`.
            assert!(!fs.crashed_view(done_a).exists("a"));
        }

        #[test]
        fn corrupt_data_write_comes_back_damaged_for_checksums() {
            let fs = fs();
            fs.set_fault_injector(nob_ssd::InjectorHandle::new(CorruptData));
            let h = fs.create("a", Nanos::ZERO).unwrap();
            let now = fs.append(h, vec![7u8; 4096].as_slice(), Nanos::ZERO).unwrap();
            let done = fs.fsync(h, now).unwrap();
            let view = fs.crashed_view(done);
            assert!(view.exists("a"), "metadata commit itself was clean");
            let vh = view.open("a", done).unwrap();
            let (data, _) = view.read_at(vh, 0, 4096, done).unwrap();
            assert_eq!(*data, vec![7u8 ^ DAMAGE_MASK; 4096], "payload is detectably damaged");
            assert_eq!(fs.stats().data_writebacks_corrupted, 1);
        }

        #[test]
        fn torn_data_write_truncates_and_counts_violation() {
            struct TearDataInHalf;
            impl FaultInjector for TearDataInHalf {
                fn on_write(&mut self, cmd: &WriteCmd) -> WriteFault {
                    if cmd.class == WriteClass::Data {
                        WriteFault::Torn { keep: cmd.bytes / 2 }
                    } else {
                        WriteFault::None
                    }
                }
            }
            let fs = fs();
            fs.set_fault_injector(nob_ssd::InjectorHandle::new(TearDataInHalf));
            let h = fs.create("a", Nanos::ZERO).unwrap();
            let now = fs.append(h, vec![7u8; 4096].as_slice(), Nanos::ZERO).unwrap();
            let done = fs.fsync(h, now).unwrap();
            let view = fs.crashed_view(done);
            // The committed inode claims 4096 bytes but only half landed:
            // the ordered contract is broken and the view records it.
            assert_eq!(view.file_size("a").unwrap(), 2048);
            assert_eq!(view.stats().ordered_violations, 1);
            assert_eq!(fs.stats().data_writebacks_torn, 1);
        }

        #[test]
        fn fault_counters_flow_into_io_stats() {
            let fs = fs();
            fs.set_fault_injector(nob_ssd::InjectorHandle::new(DropFlushes(u64::MAX)));
            let h = fs.create("a", Nanos::ZERO).unwrap();
            let now = fs.append(h, b"x", Nanos::ZERO).unwrap();
            fs.fsync(h, now).unwrap();
            assert!(fs.io_stats().dropped_flushes >= 1);
            assert!(fs.io_stats().faults_injected() >= 1);
            assert!(fs.stats().commits_unsettled_flush >= 1);
        }
    }

    #[test]
    fn crash_view_is_nondestructive() {
        let fs = fs();
        let h = fs.create("a", Nanos::ZERO).unwrap();
        let now = fs.append(h, b"x", Nanos::ZERO).unwrap();
        let _view = fs.crashed_view(now);
        // Original filesystem still fully functional.
        assert!(fs.exists("a"));
        let (data, _) = fs.read_at(h, 0, 1, now).unwrap();
        assert_eq!(&*data, b"x");
    }
}
