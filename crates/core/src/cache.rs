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
#[derive(Debug)]
pub(crate) struct BlockCache {
    inner: Mutex<Lru>,
}

#[derive(Debug)]
struct Lru {
    map: HashMap<BlockKey, (Arc<Block>, u64)>,
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
        if !g.map.contains_key(&key) {
            g.misses += 1;
            return None;
        }
        g.generation += 1;
        let generation_now = g.generation;
        let (block, slot) = g.map.get_mut(&key).expect("checked above");
        let block = Arc::clone(block);
        *slot = generation_now;
        g.queue.push_back((key, generation_now));
        g.hits += 1;
        g.compact_queue();
        Some(block)
    }

    pub(crate) fn insert(&self, key: BlockKey, block: Arc<Block>) {
        let mut g = lock(&self.inner);
        let size = block.bytes() as u64;
        g.generation += 1;
        let generation = g.generation;
        if let Some((old, _)) = g.map.insert(key, (block, generation)) {
            g.bytes -= old.bytes() as u64;
        }
        g.bytes += size;
        g.queue.push_back((key, generation));
        while g.bytes > g.capacity {
            let Some((victim, gen_at_push)) = g.queue.pop_front() else { break };
            let current = g.map.get(&victim).map(|(_, s)| *s);
            if current == Some(gen_at_push) {
                let (old, _) = g.map.remove(&victim).expect("present");
                g.bytes -= old.bytes() as u64;
            }
        }
        g.compact_queue();
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
            self.queue.retain(|(k, g)| map.get(k).map(|(_, s)| *s) == Some(*g));
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

    #[test]
    fn reinsert_updates_bytes() {
        let c = BlockCache::new(10_000);
        c.insert((1, 0), block(1, 1000));
        c.insert((1, 0), block(1, 2000));
        let g = lock(&c.inner);
        assert!(g.bytes >= 2000 && g.bytes < 3500, "bytes={}", g.bytes);
    }
}
