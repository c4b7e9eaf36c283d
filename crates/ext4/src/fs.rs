//! The simulated filesystem: namespace, page cache, JBD2 journal and the
//! NobLSM syscalls. Crash reconstruction and the crash horizon live in
//! `crash`, the gauge registration in `metrics`.

mod crash;
mod metrics;

pub use crash::CommitWindow;

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use nob_sim::Nanos;
use nob_ssd::{FlushFault, InjectorHandle, IoStats, Ssd, WriteClass, WriteFault};
use nob_trace::{EventClass, TraceSink};

use crate::inode::{CommitEvent, DamageEvent, Inode, PersistEvent};
use crate::{Ext4Config, FileHandle, FsError, FsStats, InodeId, Result};

/// Size of one journal metadata block.
const JOURNAL_BLOCK: u64 = 4096;

/// Capacity of the circular JBD2 journal area in bytes (mkfs default for
/// large filesystems: 128 MiB). The simulation does not model journal
/// wrap-checkpointing; the metrics layer uses this to report free journal
/// space modulo the wrap.
const JOURNAL_CAPACITY: u64 = 128 << 20;

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
                stats: FsStats::new(),
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
        g.stats = FsStats::new();
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
        let resident = {
            let inode = g.live_inode_mut(h)?;
            // Re-caching an uncached inode makes its whole content
            // resident again, not just the appended bytes.
            let resident = if inode.cached { 0 } else { inode.content.len() as u64 };
            match data {
                // Spare capacity is kept: releasing it (`shrink_to_fit`)
                // lowered peak RSS on a write-heavy load but raised it
                // more on read-heavy ones, and cost page faults.
                Cow::Owned(bytes) if inode.content.is_empty() => inode.content = bytes,
                data => inode.content.extend_from_slice(&data),
            }
            inode.metadata_dirty = true;
            inode.touch();
            inode.cached = true;
            resident
        };
        g.dirty_bytes += len;
        g.cache_used += len + resident;
        g.stats.bytes_buffered += len;
        g.join_txn(h.ino);
        g.lru_touch(h.ino);
        g.stream_writeback(h.ino, now);
        if g.dirty_bytes >= g.cfg.dirty_trigger_bytes() {
            g.commit(now, false);
        }
        g.evict(now);
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
            inode.content.extend_from_slice(data);
            inode.metadata_dirty = true;
            inode.touch();
            (base, inode.content.len() as u64)
        };
        let end = g.data_write(h.ino, base, target, now, true, false);
        g.inodes.get_mut(&h.ino).expect("checked above").written_back = target;
        g.stats.bytes_direct += data.len() as u64;
        g.join_txn(h.ino);
        Ok(end)
    }

    /// Positional read of up to `len` bytes at `offset`. Returns the bytes
    /// and the caller's new `now`.
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
    ) -> Result<(Vec<u8>, Nanos)> {
        let mut g = self.lock();
        g.tick(now);
        let cached = {
            let inode = g.live_inode(h)?;
            inode.cached
        };
        let inode = g.live_inode(h)?;
        let total = inode.content.len() as u64;
        let start = offset.min(total);
        // Saturating: no `offset`/`len` pair may wrap `end` below `start`.
        let end = offset.saturating_add(len).min(total);
        let data = inode.content[start as usize..end as usize].to_vec();
        let got = end - start;
        let done = if cached { now + g.cfg.ssd.mem_cost(got) } else { g.ssd.read(now, got).end };
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
    ) -> Result<(Vec<u8>, Nanos)> {
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
        let (needs, pending) = {
            let inode = g.live_inode(h)?;
            // Bytes this sync is responsible for making durable: dirty
            // pages plus write-back still in flight.
            let pending = inode.content.len() as u64
                - inode.persisted_len_at(now).min(inode.content.len() as u64);
            (inode.needs_commit(), pending)
        };
        if !needs {
            // Nothing newer than the last commit: a real fsync would find
            // nothing to do (both data and metadata are durable).
            return Ok(now);
        }
        g.stats.bytes_synced += pending;
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
            g.delete_inode(victim);
        }
        let inode = g.inodes.get_mut(&id).expect("live name maps to live inode");
        inode.path = Some(new.to_string());
        inode.metadata_dirty = true;
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
        g.delete_inode(id);
        g.join_txn(id);
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
            let Some(inode) = g.inodes.get(&ino) else { continue };
            if inode.deleted {
                continue;
            }
            if !inode.needs_commit() {
                let at = inode.committed_at.expect("committed epoch implies an instant");
                g.committed.insert(ino, at);
            } else {
                let epoch = inode.epoch;
                g.pending.insert(ino, epoch);
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
        let mut g = self.lock();
        let cached: Vec<InodeId> = g
            .inodes
            .values()
            .filter(|i| i.cached && i.dirty_bytes() == 0 && !i.deleted)
            .map(|i| i.id)
            .collect();
        for id in cached {
            let len = g.inodes[&id].content.len() as u64;
            g.inodes.get_mut(&id).expect("listed above").cached = false;
            g.cache_used -= len;
        }
        g.lru.clear();
        g.lru_touch.clear();
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

    /// Sizes of the NobLSM kernel tables: `(pending, committed)` entry
    /// counts (`check_commit` registrations awaiting a commit, and inodes
    /// whose registered epoch has committed).
    pub(crate) fn kernel_table_sizes(&self) -> (usize, usize) {
        let g = self.lock();
        (g.pending.len(), g.committed.len())
    }

    /// Free space in the circular journal area, modulo wrap: the
    /// simulation does not model wrap-checkpoint stalls, so this reports
    /// `capacity - (journal_bytes mod capacity)` — the headroom an
    /// implicit checkpoint-on-wrap would leave.
    pub(crate) fn journal_free_bytes(&self) -> u64 {
        let g = self.lock();
        JOURNAL_CAPACITY - g.stats.journal_bytes % JOURNAL_CAPACITY
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

    /// Issues one data write-back covering `content[base..target]` of
    /// inode `id` and applies the device's verdict to the durability
    /// history: a clean write persists the prefix `target`; a torn write
    /// persists only `base + keep` and marks the torn tail as damaged
    /// media; a corrupt write persists `target` but marks the whole
    /// payload damaged. Returns the command's completion instant. The
    /// caller keeps `written_back`, `dirty_bytes` and byte accounting.
    fn data_write(
        &mut self,
        id: InodeId,
        base: u64,
        target: u64,
        at: Nanos,
        foreground: bool,
        credit: bool,
    ) -> Nanos {
        let bytes = target - base;
        let (res, fault) = if foreground {
            self.ssd.write_checked(at, bytes, WriteClass::Data)
        } else {
            self.ssd.write_background_checked(at, bytes, WriteClass::Data)
        };
        if credit {
            self.ssd.credit_background(res.duration());
        }
        if let Some(sink) = &self.trace {
            sink.emit(EventClass::Writeback, at, res.end, bytes);
        }
        let inode = self.inodes.get_mut(&id).expect("caller verified the inode is live");
        match fault {
            WriteFault::None => {
                inode.persisted.record(PersistEvent { len: target, at: res.end });
            }
            WriteFault::Torn { keep } => {
                let keep = keep.min(bytes);
                inode.persisted.record(PersistEvent { len: base + keep, at: res.end });
                if base + keep < target {
                    // The kernel believes write-back reached `target`, so
                    // the torn tail is never reissued: record it as a
                    // damaged media range rather than relying on the
                    // persisted prefix (later writes extend past it and
                    // would silently cover the hole).
                    inode.damage_events.push(DamageEvent {
                        start: base + keep,
                        end: target,
                        at: res.end,
                    });
                }
                self.stats.data_writebacks_torn += 1;
            }
            WriteFault::Corrupt => {
                inode.persisted.record(PersistEvent { len: target, at: res.end });
                inode.damage_events.push(DamageEvent { start: base, end: target, at: res.end });
                self.stats.data_writebacks_corrupted += 1;
            }
        }
        res.end
    }

    /// A real FLUSH completed at `at`: every commit record that was
    /// acknowledged behind a dropped FLUSH is now actually on media.
    fn settle_unsettled(&mut self, at: Nanos) {
        for (id, idx) in std::mem::take(&mut self.unsettled) {
            let Some(inode) = self.inodes.get_mut(&id) else { continue };
            let Some(ev) = inode.commit_events.get_mut(idx) else { continue };
            if ev.durable_at.is_none() {
                ev.durable_at = Some(at);
                if ev.path.is_none() {
                    self.deletion_durable(id, at);
                }
            }
        }
    }

    fn join_txn(&mut self, id: InodeId) {
        if !self.running.contains(&id) {
            self.running.push(id);
        }
    }

    fn lru_touch(&mut self, id: InodeId) {
        self.lru_gen += 1;
        let lru_gen = self.lru_gen;
        self.lru_touch.insert(id, lru_gen);
        self.lru.push_back((id, lru_gen));
        // Drop superseded entries so the queue stays proportional to the
        // number of cached files even when the cache never fills.
        if self.lru.len() > (self.lru_touch.len() * 4).max(64) {
            let touch = &self.lru_touch;
            self.lru.retain(|(k, g)| touch.get(k) == Some(g));
        }
    }

    /// Evicts clean cached files LRU until within capacity.
    fn evict(&mut self, _now: Nanos) {
        while self.cache_used > self.cfg.page_cache_capacity {
            let Some((id, entry_gen)) = self.lru.pop_front() else { break };
            if self.lru_touch.get(&id) != Some(&entry_gen) {
                continue; // superseded entry
            }
            let Some(inode) = self.inodes.get_mut(&id) else {
                self.lru_touch.remove(&id);
                continue;
            };
            if inode.deleted || !inode.cached {
                self.lru_touch.remove(&id);
                continue;
            }
            if inode.dirty_bytes() > 0 {
                // Cannot evict dirty data; re-queue behind everything else.
                self.lru_gen += 1;
                let lru_gen = self.lru_gen;
                self.lru_touch.insert(id, lru_gen);
                self.lru.push_back((id, lru_gen));
                // If only dirty files remain cached, stop rather than spin.
                if self.lru.len() <= 1 {
                    break;
                }
                // Heuristic: if everything cached is dirty we also stop;
                // detect by checking whether any clean resident remains.
                if !self.inodes.values().any(|i| i.cached && !i.deleted && i.dirty_bytes() == 0) {
                    break;
                }
                continue;
            }
            inode.cached = false;
            self.cache_used -= inode.content.len() as u64;
            self.lru_touch.remove(&id);
        }
    }

    fn tick(&mut self, now: Nanos) {
        while self.next_commit_at <= now {
            let at = self.next_commit_at;
            self.next_commit_at += self.cfg.commit_interval;
            if !self.running.is_empty() {
                self.commit(at, false);
            }
        }
    }

    /// The fast-commit path: durably commits *one* inode without touching
    /// the rest of the running transaction. Write back the inode's dirty
    /// data in the foreground, append one fast-commit journal block, and
    /// FLUSH. The inode leaves the running transaction; other inodes keep
    /// waiting for the normal timer commit.
    fn fast_commit_inode(&mut self, id: InodeId, at: Nanos) -> Nanos {
        self.stats.sync_commits += 1;
        let Some(inode) = self.inodes.get(&id) else { return at };
        // Open the fast-commit causal scope: the write-back, journal
        // write and FLUSH below nest under this span in the trace tree.
        if let Some(sink) = &self.trace {
            sink.begin_span();
        }
        let mut data_done = at;
        if let Some(last) = inode.persisted.last_at() {
            data_done = data_done.max(last);
        }
        let dirty = inode.dirty_bytes();
        let base = inode.written_back;
        let target = inode.content.len() as u64;
        if dirty > 0 {
            let end = self.data_write(id, base, target, at, true, false);
            self.inodes.get_mut(&id).expect("checked above").written_back = target;
            self.dirty_bytes -= dirty;
            self.stats.bytes_written_back += dirty;
            data_done = data_done.max(end);
        }
        let jbytes = JOURNAL_BLOCK; // one fast-commit record
        let (jres, jfault) = self.ssd.write_checked(data_done, jbytes, WriteClass::FastCommit);
        self.stats.journal_bytes += jbytes;
        let (flush, ffault) = self.ssd.flush_checked(jres.end);
        let t_commit = flush.end;
        // A damaged fast-commit record is garbage on media but does NOT
        // break the main journal chain — fast-commit records live in a
        // separate self-checksummed area that replay skips over.
        let record_lost = jfault != WriteFault::None;
        let flush_dropped = ffault == FlushFault::DroppedAcked;
        let durable_at = if record_lost {
            self.stats.commits_lost_torn_journal += 1;
            None
        } else if flush_dropped {
            self.stats.commits_unsettled_flush += 1;
            None
        } else {
            Some(t_commit)
        };
        let inode = self.inodes.get_mut(&id).expect("checked above");
        let event = CommitEvent {
            at: t_commit,
            durable_at,
            len: inode.content.len() as u64,
            path: inode.path.clone(),
        };
        inode.commit_events.push(event);
        if !record_lost && flush_dropped {
            let idx = inode.commit_events.len() - 1;
            self.unsettled.push((id, idx));
        }
        // The kernel believes the device's acknowledgements: epochs and
        // the NobLSM tables advance even when the record never landed.
        let inode = self.inodes.get_mut(&id).expect("checked above");
        inode.committed_epoch = inode.epoch;
        inode.committed_at = Some(t_commit);
        inode.metadata_dirty = false;
        self.running.retain(|&r| r != id);
        if let Some(&reg_epoch) = self.pending.get(&id) {
            if inode.committed_epoch >= reg_epoch && !inode.deleted {
                self.pending.remove(&id);
                self.committed.insert(id, t_commit);
            }
        }
        if !flush_dropped {
            self.settle_unsettled(t_commit);
        }
        self.commit_log.push(CommitWindow {
            start: at,
            data_done,
            journal_done: jres.end,
            end: t_commit,
            sync: true,
            inodes: 1,
            faulted: record_lost || flush_dropped,
        });
        if let Some(sink) = &self.trace {
            sink.end_span(EventClass::FastCommit, at, t_commit, jbytes);
        }
        t_commit
    }

    /// Commits the running transaction, starting at `at`. Returns the
    /// commit's completion instant (FLUSH end).
    fn commit(&mut self, at: Nanos, sync: bool) -> Nanos {
        let txn = std::mem::take(&mut self.running);
        if txn.is_empty() {
            return at;
        }
        // Open the commit's causal scope (after the empty-transaction
        // early return): ordered write-back, journal blocks and the
        // FLUSH barrier all become children of this span.
        if let Some(sink) = &self.trace {
            sink.begin_span();
        }
        if sync {
            self.stats.sync_commits += 1;
        } else {
            self.stats.async_commits += 1;
        }
        // Phase 1 — data=ordered: write back all dirty data of the
        // transaction's inodes before any journal block. A synchronous
        // (fsync-driven) commit writes back in the foreground class; the
        // timer/threshold commits use the background class (the kernel's
        // throttled write-back that never delays synchronous I/O).
        let mut data_done = at;
        for &id in &txn {
            let Some(inode) = self.inodes.get(&id) else { continue };
            if inode.deleted {
                continue;
            }
            // The ordered contract covers write-back issued by *earlier*
            // commits or the flusher that may still be in flight.
            let written_back = inode.written_back;
            let dirty = inode.dirty_bytes();
            let target = inode.content.len() as u64;
            if sync {
                // A synchronous commit does not wait behind the flusher's
                // queue: it promotes the inode's in-flight pages and
                // submits them itself in the foreground class, crediting
                // the background queue for the moved work.
                let p_now = inode.persisted_len_at(at).min(written_back);
                let in_flight = written_back - p_now;
                if in_flight > 0 {
                    let end = self.data_write(id, p_now, written_back, at, true, true);
                    data_done = data_done.max(end);
                }
            } else if let Some(last) = inode.persisted.last_at() {
                data_done = data_done.max(last);
            }
            if dirty > 0 {
                let end = self.data_write(id, written_back, target, at, sync, false);
                self.inodes.get_mut(&id).expect("checked above").written_back = target;
                self.dirty_bytes -= dirty;
                self.stats.bytes_written_back += dirty;
                data_done = data_done.max(end);
            }
        }
        // Phase 2 — journal blocks (descriptor + one metadata block per
        // inode + commit record), strictly after the ordered data.
        let jbytes = (txn.len() as u64 + 2) * JOURNAL_BLOCK;
        let (jres, jfault) = if sync {
            self.ssd.write_checked(data_done, jbytes, WriteClass::Journal)
        } else {
            self.ssd.write_background_checked(data_done, jbytes, WriteClass::Journal)
        };
        self.stats.journal_bytes += jbytes;
        // Phase 3 — FLUSH: the commit record's barrier.
        let (flush, ffault) = if sync {
            self.ssd.flush_checked(jres.end)
        } else {
            self.ssd.flush_background_checked(jres.end)
        };
        let t_commit = flush.end;
        // A torn/corrupt journal write damages this transaction's commit
        // record on media: replay stops here, so this commit and every
        // later one in the main journal is unrecoverable.
        let record_lost = jfault != WriteFault::None;
        let flush_dropped = ffault == FlushFault::DroppedAcked;
        if record_lost {
            self.stats.commits_lost_torn_journal += 1;
            let broken = self.journal_broken_at.map_or(t_commit, |b| b.min(t_commit));
            self.journal_broken_at = Some(broken);
        } else if flush_dropped {
            self.stats.commits_unsettled_flush += 1;
        }
        let durable_at = if record_lost || flush_dropped { None } else { Some(t_commit) };
        // Finalize: record per-inode commit events and serve the NobLSM
        // Pending Table. The kernel believes the acknowledgements, so the
        // tables advance even when the record never landed — exactly the
        // lie the chaos harness probes NobLSM's shadow scheme against.
        for &id in &txn {
            let Some(inode) = self.inodes.get_mut(&id) else { continue };
            let deleted = inode.deleted;
            let event = if deleted {
                CommitEvent { at: t_commit, durable_at, len: 0, path: None }
            } else {
                CommitEvent {
                    at: t_commit,
                    durable_at,
                    len: inode.content.len() as u64,
                    path: inode.path.clone(),
                }
            };
            inode.commit_events.push(event);
            if !record_lost && flush_dropped {
                let idx = inode.commit_events.len() - 1;
                self.unsettled.push((id, idx));
            }
            if let Some(durable) = durable_at.filter(|_| deleted) {
                self.deletion_durable(id, durable);
            }
            let inode = self.inodes.get_mut(&id).expect("looked up above");
            inode.committed_epoch = inode.epoch;
            inode.committed_at = Some(t_commit);
            inode.metadata_dirty = false;
            if let Some(&reg_epoch) = self.pending.get(&id) {
                let inode = &self.inodes[&id];
                if inode.committed_epoch >= reg_epoch {
                    self.pending.remove(&id);
                    if !inode.deleted {
                        self.committed.insert(id, t_commit);
                    }
                }
            }
        }
        if !flush_dropped {
            self.settle_unsettled(t_commit);
        }
        self.commit_log.push(CommitWindow {
            start: at,
            data_done,
            journal_done: jres.end,
            end: t_commit,
            sync,
            inodes: txn.len(),
            faulted: record_lost || flush_dropped,
        });
        if let Some(sink) = &self.trace {
            // Synchronous (fsync-driven) commits and asynchronous
            // timer/threshold commits are distinct tail-latency stories.
            let class = if sync { EventClass::JournalCommit } else { EventClass::Checkpoint };
            sink.end_span(class, at, t_commit, jbytes);
        }
        t_commit
    }

    /// Kernel-flusher model: once a file accumulates `writeback_chunk`
    /// dirty bytes, issue them to the device's background class. Commits
    /// then wait only for the in-flight tail rather than whole bursts.
    fn stream_writeback(&mut self, id: InodeId, now: Nanos) {
        let chunk = self.cfg.writeback_chunk;
        let Some(inode) = self.inodes.get(&id) else { return };
        if inode.deleted {
            return;
        }
        let dirty = inode.dirty_bytes();
        if dirty < chunk {
            return;
        }
        let base = inode.written_back;
        let target = inode.content.len() as u64;
        self.data_write(id, base, target, now, false, false);
        self.inodes.get_mut(&id).expect("checked above").written_back = target;
        self.dirty_bytes -= dirty;
        self.stats.bytes_written_back += dirty;
    }

    /// Marks an inode deleted and erases it from the NobLSM tables.
    fn delete_inode(&mut self, id: InodeId) {
        let Some(inode) = self.inodes.get_mut(&id) else { return };
        let dirty = inode.dirty_bytes();
        let len = inode.content.len() as u64;
        let was_cached = inode.cached;
        inode.deleted = true;
        inode.path = None;
        inode.metadata_dirty = true;
        inode.written_back = inode.content.len() as u64;
        inode.touch();
        inode.cached = false;
        self.dirty_bytes -= dirty;
        if was_cached {
            self.cache_used -= len;
        }
        self.pending.remove(&id);
        self.committed.remove(&id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> Ext4Fs {
        Ext4Fs::new(Ext4Config::default())
    }

    fn small_cache_fs(bytes: u64) -> Ext4Fs {
        Ext4Fs::new(Ext4Config::default().with_page_cache(bytes))
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
        assert_eq!(data, b"hello world");
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
        assert_eq!(data, vec![7u8; 4]);
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
    fn async_commit_fires_on_timer() {
        let fs = fs();
        let h = fs.create("a", Nanos::ZERO).unwrap();
        fs.append(h, b"payload", Nanos::ZERO).unwrap();
        // Just before the 5 s timer: nothing durable.
        let before = Nanos::from_secs(5) - Nanos::from_nanos(1);
        assert!(!fs.crashed_view(before).exists("a"));
        // Tick past the timer; the async commit persists the file without
        // any fsync.
        let after = Nanos::from_secs(6);
        fs.tick(after);
        assert_eq!(fs.stats().sync_calls, 0);
        assert_eq!(fs.stats().async_commits, 1);
        let view = fs.crashed_view(after);
        assert!(view.exists("a"));
        assert_eq!(view.file_size("a").unwrap(), 7);
    }

    #[test]
    fn commit_completion_lags_trigger_under_device_load() {
        let fs = fs();
        let h = fs.create("a", Nanos::ZERO).unwrap();
        let now = fs.append(h, vec![1u8; 64 << 20].as_slice(), Nanos::ZERO).unwrap();
        fs.tick(Nanos::from_secs(5));
        // 64 MiB of write-back takes ≈0.12 s; immediately "after" the
        // trigger the commit has not completed yet.
        assert!(!fs.crashed_view(Nanos::from_secs(5)).exists("a"));
        assert!(fs.crashed_view(Nanos::from_secs(6)).exists("a"));
        let _ = now;
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
    fn ordered_mode_contract_committed_implies_durable_data() {
        let fs = fs();
        let h = fs.create("a", Nanos::ZERO).unwrap();
        let now = fs.append(h, vec![9u8; 123_456].as_slice(), Nanos::ZERO).unwrap();
        fs.tick(Nanos::from_secs(5));
        let ino = fs.inode_of("a").unwrap();
        fs.check_commit(&[ino], Nanos::from_secs(5));
        // Find the first instant where is_committed turns true; the full
        // data must be readable in the crash view at that same instant.
        let mut t = Nanos::from_secs(5);
        while !fs.is_committed(ino, t) {
            t += Nanos::from_micros(100);
            assert!(t < Nanos::from_secs(7), "commit never completed");
        }
        let view = fs.crashed_view(t);
        assert_eq!(view.file_size("a").unwrap(), 123_456);
        let _ = now;
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
        assert_eq!(data, b"MANIFEST-1");
        // After a commit: the new CURRENT, exactly one claimant.
        let later = now + Nanos::from_secs(6);
        fs.tick(later);
        let view = fs.crashed_view(later);
        let h = view.open("CURRENT", later).unwrap();
        let (data, _) = view.read_at(h, 0, 64, later).unwrap();
        assert_eq!(data, b"MANIFEST-2");
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
    fn lru_eviction_respects_capacity_and_dirtiness() {
        let fs = small_cache_fs(1 << 20); // 1 MiB capacity, 100 KiB trigger
        let mut now = Nanos::ZERO;
        let mut handles = Vec::new();
        for i in 0..8 {
            let h = fs.create(&format!("f{i}"), now).unwrap();
            now = fs.append(h, vec![0u8; 300 << 10].as_slice(), now).unwrap();
            handles.push(h);
        }
        // Dirty-threshold commits have cleaned most files, and eviction
        // keeps residency within capacity (the files are clean).
        fs.tick(now + Nanos::from_secs(6));
        let g = fs.lock();
        assert!(g.cache_used <= g.cfg.page_cache_capacity + (300 << 10));
        drop(g);
        // Cold reads still return correct data (device-priced).
        let (data, end) = fs.read_at(handles[0], 0, 16, now + Nanos::from_secs(6)).unwrap();
        assert_eq!(data, vec![0u8; 16]);
        assert!(end > now + Nanos::from_secs(6));
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
        use nob_ssd::{FaultInjector, FlushCmd, WriteCmd};

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
            assert_eq!(data, vec![7u8 ^ DAMAGE_MASK; 4096], "payload is detectably damaged");
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
        assert_eq!(data, b"x");
    }
}
