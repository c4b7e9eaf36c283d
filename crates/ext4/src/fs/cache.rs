//! The page cache: the LRU of resident inodes, eviction, `drop_caches`,
//! and the one write-back step that hands an inode's dirty tail to the
//! device.

use nob_sim::Nanos;
use nob_ssd::{WriteClass, WriteFault};
use nob_trace::EventClass;

use super::Inner;
use crate::inode::{DamageEvent, PersistEvent};
use crate::InodeId;

impl Inner {
    pub(super) fn lru_touch(&mut self, id: InodeId) {
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

    /// Whether `(id, entry_gen)` is the live queue entry of a clean
    /// resident inode, one `evict` may drop.
    fn evictable(&self, id: InodeId, entry_gen: u64) -> bool {
        self.lru_touch.get(&id) == Some(&entry_gen)
            && self.inodes.get(&id).is_some_and(|i| i.cached && !i.deleted && i.dirty_bytes() == 0)
    }

    /// Evicts clean cached files LRU until within capacity. Dirty files
    /// are re-queued behind everything else; it stops once no queued entry
    /// of a live generation is clean, since popping further would only
    /// cycle the dirty ones.
    pub(super) fn evict(&mut self) {
        while self.cache_used > self.cfg.page_cache_capacity {
            let Some((id, entry_gen)) = self.lru.pop_front() else { break };
            if self.lru_touch.get(&id) != Some(&entry_gen) {
                continue; // superseded entry
            }
            let Some(inode) = self.inodes.get_mut(&id).filter(|i| !i.deleted && i.cached) else {
                self.lru_touch.remove(&id);
                continue;
            };
            if inode.dirty_bytes() > 0 {
                // Cannot evict dirty data; re-queue behind everything else.
                self.lru_touch(id);
                if !self.lru.iter().any(|&(k, g)| self.evictable(k, g)) {
                    break;
                }
                continue;
            }
            inode.cached = false;
            self.cache_used -= inode.content.len() as u64;
            self.lru_touch.remove(&id);
        }
    }

    /// Drops every clean resident inode and empties the LRU. A dirty
    /// resident stays cached but leaves the queue with the rest.
    pub(super) fn drop_caches(&mut self) {
        let clean =
            self.inodes.values_mut().filter(|i| i.cached && i.dirty_bytes() == 0 && !i.deleted);
        for inode in clean {
            inode.cached = false;
            self.cache_used -= inode.content.len() as u64;
        }
        self.lru.clear();
        self.lru_touch.clear();
    }

    /// Issues one data write-back covering `content[base..target]` of
    /// inode `id` and applies the device's verdict to the durability
    /// history: a clean write persists the prefix `target`; a torn write
    /// persists only `base + keep` and marks the torn tail as damaged
    /// media; a corrupt write persists `target` but marks the whole
    /// payload damaged. Returns the command's completion instant. The
    /// caller keeps `written_back`, `dirty_bytes` and byte accounting.
    pub(super) fn data_write(
        &mut self,
        id: InodeId,
        base: u64,
        target: u64,
        at: Nanos,
        foreground: bool,
        credit: bool,
    ) -> Nanos {
        let bytes = target - base;
        let (res, fault) = self.ssd.write(at, bytes, WriteClass::Data, !foreground);
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

    /// The write-back step: hands live inode `id`'s dirty tail to the
    /// device at `at`, in the foreground class or the background one.
    /// The only code that advances `written_back` on this path, with the
    /// dirty-byte and write-back accounting. Returns the write's
    /// completion instant, or `None` when nothing was dirty.
    pub(super) fn write_back(&mut self, id: InodeId, at: Nanos, foreground: bool) -> Option<Nanos> {
        let inode = &self.inodes[&id];
        let dirty = inode.dirty_bytes();
        if dirty == 0 {
            return None;
        }
        let (base, target) = (inode.written_back, inode.content.len() as u64);
        let end = self.data_write(id, base, target, at, foreground, false);
        self.inodes.get_mut(&id).expect("looked up above").written_back = target;
        self.dirty_bytes -= dirty;
        self.stats.bytes_written_back += dirty;
        Some(end)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Ext4Config, Ext4Fs};
    use nob_sim::Nanos;

    fn small_cache_fs(bytes: u64) -> Ext4Fs {
        Ext4Fs::new(Ext4Config::default().with_page_cache(bytes))
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
        assert_eq!(*data, vec![0u8; 16]);
        assert!(end > now + Nanos::from_secs(6));
    }

    /// `drop_caches` keeps a dirty file resident but takes it off the
    /// LRU. Once a commit cleans it, two small dirty files that overflow
    /// the cache must not make `evict` cycle them forever looking for it.
    /// The script runs on its own thread, so a hang fails here in seconds
    /// instead of stalling the suite.
    #[test]
    fn eviction_stops_when_no_queued_file_is_clean() {
        let (done, waited) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let fs = small_cache_fs(1 << 20);
            let d = fs.create("d", Nanos::ZERO).unwrap();
            let now = fs.append(d, vec![0u8; 3 << 19].as_slice(), Nanos::ZERO).unwrap();
            fs.append(d, [0u8; 10].as_slice(), now).unwrap();
            fs.drop_caches();
            let now = Nanos::from_secs(6);
            fs.tick(now);
            for name in ["a", "b"] {
                let h = fs.create(name, now).unwrap();
                fs.append(h, [0u8; 10].as_slice(), now).unwrap();
            }
            done.send(fs.dirty_bytes()).unwrap();
        });
        let dirty = waited
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("append returned instead of cycling the LRU");
        assert_eq!(dirty, 20, "the two small files stay dirty and resident");
    }
}
