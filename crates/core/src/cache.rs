//! A byte-bounded LRU block cache shared by all table readers of a DB.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::sstable::Block;

/// Cache key: (physical file number, block offset within that file).
pub(crate) type BlockKey = (u64, u64);

/// Locks `m`, absorbing poison: a panic that held the lock must not turn
/// every later cache access into a second panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A shared LRU cache of parsed blocks.
///
/// Hits avoid the virtual-time cost of a device read, which is how the
/// engine models LevelDB's `block_cache`.
///
/// A cached block is a view of its file's bytes, so it keeps the whole
/// file image alive. When a table's file is deleted, [`forget_file`]
/// drops its blocks but keeps their entries, each with its LRU slot and
/// byte charge: which blocks the cache evicts, and when, is virtual
/// behaviour, and must not depend on a host-memory concern.
///
/// [`forget_file`]: BlockCache::forget_file
#[derive(Debug)]
pub(crate) struct BlockCache {
    inner: Mutex<Lru>,
}

/// One cache entry: the block (`None` once its file is forgotten), the
/// bytes it is charged and the generation of its latest queue slot.
#[derive(Debug)]
struct Entry {
    block: Option<Arc<Block>>,
    charge: u64,
    slot: u64,
}

#[derive(Debug)]
struct Lru {
    map: HashMap<BlockKey, Entry>,
    queue: VecDeque<(BlockKey, u64)>,
    generation: u64,
    bytes: u64,
    capacity: u64,
    hits: u64,
    misses: u64,
}

impl BlockCache {
    pub(crate) fn new(capacity: u64) -> Arc<Self> {
        Arc::new(BlockCache {
            inner: Mutex::new(Lru {
                map: HashMap::new(),
                queue: VecDeque::new(),
                generation: 0,
                bytes: 0,
                capacity,
                hits: 0,
                misses: 0,
            }),
        })
    }

    pub(crate) fn get(&self, key: BlockKey) -> Option<Arc<Block>> {
        let mut g = lock(&self.inner);
        // File numbers are never reused and a deleted table's reader is
        // dropped before its file is forgotten, so no lookup reaches a
        // forgotten entry; one that did would read as a miss.
        let live = g.map.get(&key).map(|e| e.block.is_some());
        debug_assert_ne!(live, Some(false), "lookup of forgotten block {key:?}");
        if live != Some(true) {
            g.misses += 1;
            return None;
        }
        g.generation += 1;
        let generation_now = g.generation;
        let entry = g.map.get_mut(&key).expect("checked above");
        entry.slot = generation_now;
        let block = entry.block.clone();
        g.queue.push_back((key, generation_now));
        g.hits += 1;
        g.compact_queue();
        block
    }

    pub(crate) fn insert(&self, key: BlockKey, block: Arc<Block>) {
        let mut g = lock(&self.inner);
        let charge = block.bytes() as u64;
        g.generation += 1;
        let slot = g.generation;
        if let Some(old) = g.map.insert(key, Entry { block: Some(block), charge, slot }) {
            g.bytes -= old.charge;
        }
        g.bytes += charge;
        g.queue.push_back((key, slot));
        while g.bytes > g.capacity {
            let Some((victim, gen_at_push)) = g.queue.pop_front() else { break };
            if g.map.get(&victim).map(|e| e.slot) == Some(gen_at_push) {
                let old = g.map.remove(&victim).expect("present");
                g.bytes -= old.charge;
            }
        }
        g.compact_queue();
    }

    /// Drops the blocks of the deleted physical file `physical`, releasing
    /// the file image they view. Their entries stay, charged as before,
    /// until LRU evicts them: only what the cache holds changes, not what
    /// it evicts.
    pub(crate) fn forget_file(&self, physical: u64) {
        let mut g = lock(&self.inner);
        for (_, entry) in g.map.iter_mut().filter(|((file, _), _)| *file == physical) {
            entry.block = None;
        }
    }

    /// (hits, misses) so far.
    pub(crate) fn hit_stats(&self) -> (u64, u64) {
        let g = lock(&self.inner);
        (g.hits, g.misses)
    }
}

impl Lru {
    /// Drops superseded queue entries so the queue stays proportional to
    /// the map (touches push duplicates that would otherwise accumulate
    /// without bound when the cache never hits its capacity).
    fn compact_queue(&mut self) {
        if self.queue.len() > (self.map.len() * 4).max(64) {
            let map = &self.map;
            self.queue.retain(|(k, g)| map.get(k).map(|e| e.slot) == Some(*g));
        }
    }
}

/// Caches open [`Table`](crate::sstable::Table) readers by logical table
/// number, sharing one [`BlockCache`] across all of them.
#[derive(Debug)]
pub(crate) struct TableCache {
    fs: nob_ext4::Ext4Fs,
    dir: String,
    blocks: Arc<BlockCache>,
    cpu: crate::options::CpuCosts,
    tables: Mutex<HashMap<u64, Arc<crate::sstable::Table>>>,
}

impl TableCache {
    pub(crate) fn new(
        fs: nob_ext4::Ext4Fs,
        dir: String,
        block_cache_bytes: u64,
        cpu: crate::options::CpuCosts,
    ) -> Self {
        TableCache {
            fs,
            dir,
            blocks: BlockCache::new(block_cache_bytes),
            cpu,
            tables: Mutex::new(HashMap::new()),
        }
    }

    /// The shared block cache.
    pub(crate) fn block_cache(&self) -> &Arc<BlockCache> {
        &self.blocks
    }

    /// Opens (or returns the cached reader of) the table described by
    /// `meta`, charging any footer/index reads to `now`.
    pub(crate) fn table(
        &self,
        meta: &crate::version::FileMetaData,
        now: &mut nob_sim::Nanos,
    ) -> crate::Result<Arc<crate::sstable::Table>> {
        if let Some(t) = lock(&self.tables).get(&meta.number) {
            return Ok(Arc::clone(t));
        }
        let path =
            crate::version::file_path(&self.dir, crate::version::FileKind::Table, meta.physical);
        let handle = self.fs.open(&path, *now)?;
        let table = Arc::new(crate::sstable::Table::open(
            self.fs.clone(),
            handle,
            meta.physical,
            meta.offset,
            meta.size,
            Arc::clone(&self.blocks),
            self.cpu,
            now,
        )?);
        lock(&self.tables).insert(meta.number, Arc::clone(&table));
        Ok(table)
    }

    /// Drops the cached reader for a table (after deletion).
    pub(crate) fn evict(&self, number: u64) {
        lock(&self.tables).remove(&number);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sstable::BlockBuilder;
    use crate::{InternalKey, ValueType};

    fn block(tag: u8, bytes: usize) -> Arc<Block> {
        let mut b = BlockBuilder::new(16);
        let key = InternalKey::new(&[tag], 1, ValueType::Value);
        b.add(key.as_bytes(), &vec![tag; bytes]);
        Block::parse(b.finish_without_trailer()).unwrap()
    }

    #[test]
    fn poison_is_absorbed() {
        let c = BlockCache::new(1 << 20);
        let clone = Arc::clone(&c);
        let _ = std::thread::spawn(move || {
            let _g = lock(&clone.inner);
            panic!("poison it");
        })
        .join();
        assert!(c.inner.is_poisoned());
        assert!(c.get((1, 0)).is_none(), "a poisoned lock must not fail later calls");
    }

    #[test]
    fn hit_and_miss() {
        let c = BlockCache::new(1 << 20);
        assert!(c.get((1, 0)).is_none());
        c.insert((1, 0), block(1, 10));
        assert!(c.get((1, 0)).is_some());
        assert_eq!(c.hit_stats(), (1, 1));
    }

    #[test]
    fn evicts_lru_when_over_capacity() {
        let c = BlockCache::new(3000);
        c.insert((1, 0), block(1, 1000));
        c.insert((2, 0), block(2, 1000));
        // Touch (1,0) so (2,0) is the LRU victim.
        assert!(c.get((1, 0)).is_some());
        c.insert((3, 0), block(3, 1000));
        c.insert((4, 0), block(4, 1000));
        assert!(c.get((2, 0)).is_none(), "LRU victim should be evicted");
        assert!(c.get((4, 0)).is_some());
    }

    /// Runs one insert/get script, forgetting file 2 halfway when
    /// `forget` is set, and returns the keys held and bytes charged after
    /// every step.
    fn run_script(forget: bool) -> Vec<(Vec<BlockKey>, u64)> {
        let c = BlockCache::new(6000);
        let mut seen = Vec::new();
        let mut record = |c: &BlockCache| {
            let g = lock(&c.inner);
            let mut keys: Vec<BlockKey> = g.map.keys().copied().collect();
            keys.sort_unstable();
            seen.push((keys, g.bytes));
        };
        for (i, file) in [1, 2, 2, 3, 1, 2].into_iter().enumerate() {
            c.insert((file, i as u64), block(file as u8, 600 + 100 * i));
            record(&c);
        }
        assert!(c.get((1, 0)).is_some());
        if forget {
            c.forget_file(2);
        }
        record(&c);
        for i in 6..14u64 {
            c.insert((4, i), block(4, 500 + 50 * i as usize));
            if i % 3 == 0 {
                assert!(c.get((3, 3)).is_some() || c.get((4, i - 1)).is_some());
            }
            record(&c);
        }
        seen
    }

    #[test]
    fn forgetting_a_file_changes_no_victim_and_no_charge() {
        let (kept, forgot) = (run_script(false), run_script(true));
        assert_eq!(kept, forgot);
        // The script does evict, and evicts file 2's entries among others.
        let gone = |step: &(Vec<BlockKey>, u64)| !step.0.iter().any(|k| k.0 == 2);
        assert!(!gone(&kept[6]) && gone(kept.last().expect("steps")), "{kept:?}");
    }

    #[test]
    fn a_forgotten_block_is_released() {
        let c = BlockCache::new(1 << 20);
        let b = block(1, 100);
        let weak = Arc::downgrade(&b);
        c.insert((9, 0), b);
        c.insert((10, 0), block(2, 100));
        assert!(weak.upgrade().is_some(), "the cache holds the block");
        c.forget_file(9);
        assert!(weak.upgrade().is_none(), "the cache still holds a forgotten block");
        assert!(c.get((10, 0)).is_some(), "another file's block stays");
        let g = lock(&c.inner);
        assert_eq!(g.map.len(), 2, "the forgotten entry keeps its slot");
    }

    #[test]
    fn reinsert_updates_bytes() {
        let c = BlockCache::new(10_000);
        c.insert((1, 0), block(1, 1000));
        c.insert((1, 0), block(1, 2000));
        let g = lock(&c.inner);
        assert!(g.bytes >= 2000 && g.bytes < 3500, "bytes={}", g.bytes);
    }
}
