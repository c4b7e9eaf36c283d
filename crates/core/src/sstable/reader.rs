//! Table reader: footer/index/bloom parsing, point gets, iteration.

use std::sync::Arc;

use nob_ext4::{Ext4Fs, FileHandle};
use nob_sim::Nanos;

use crate::cache::BlockCache;
use crate::iterator::InternalIterator;
use crate::options::CpuCosts;
use crate::types::{user_key, value_type_of};
use crate::{DbError, Result, ValueType};

use super::block::{strip_trailer, BLOCK_TRAILER_SIZE};
use super::{Block, BlockHandle, BlockIter, BloomFilter, Footer, FOOTER_SIZE};

/// An open SSTable.
///
/// A `Table` may be a whole physical file or — in BoLT's grouped-output
/// mode — a *logical* table at `base_offset` within a larger physical
/// file. Block loads consult the shared block cache first; misses are
/// priced as device reads on the virtual clock.
#[derive(Debug)]
pub struct Table {
    fs: Ext4Fs,
    handle: FileHandle,
    physical_number: u64,
    base_offset: u64,
    /// Bytes of the logical table that blocks may occupy (its size less
    /// the footer); every handle is checked against it.
    blocks_end: u64,
    index: Arc<Block>,
    bloom: Option<BloomFilter>,
    cache: Arc<BlockCache>,
    cpu: CpuCosts,
}

impl Table {
    /// Opens a (logical) table of `size` bytes at `base_offset` within the
    /// file behind `handle`.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Corruption`] on malformed footer/blocks or
    /// [`DbError::Fs`] on filesystem errors.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn open(
        fs: Ext4Fs,
        handle: FileHandle,
        physical_number: u64,
        base_offset: u64,
        size: u64,
        cache: Arc<BlockCache>,
        cpu: CpuCosts,
        now: &mut Nanos,
    ) -> Result<Table> {
        if size < FOOTER_SIZE as u64 {
            return Err(DbError::Corruption("table smaller than footer".into()));
        }
        let blocks_end = size - FOOTER_SIZE as u64;
        let footer_at = base_offset
            .checked_add(blocks_end)
            .ok_or_else(|| DbError::Corruption("table extent overflows".into()))?;
        let (footer_bytes, t) = fs.read_exact_at(handle, footer_at, FOOTER_SIZE as u64, *now)?;
        *now = t;
        // The footer is the one part of a table no checksum covers, so its
        // handles are checked against the table's extent before any read.
        let footer = Footer::decode(&footer_bytes)?;
        let index = {
            let len = block_extent(footer.index, blocks_end)?;
            let (bytes, t) =
                fs.read_exact_at(handle, base_offset + footer.index.offset, len, *now)?;
            *now = t + cpu.block_per_kib * (footer.index.size >> 10).max(1);
            Block::parse(strip_trailer(bytes)?)?
        };
        let bloom = if footer.filter.size > 0 {
            let len = block_extent(footer.filter, blocks_end)?;
            let (bytes, t) =
                fs.read_exact_at(handle, base_offset + footer.filter.offset, len, *now)?;
            *now = t;
            BloomFilter::decode(&strip_trailer(bytes)?)
        } else {
            None
        };
        Ok(Table { fs, handle, physical_number, base_offset, blocks_end, index, bloom, cache, cpu })
    }

    /// Opens a table spanning the whole file behind `handle` with a
    /// private block cache (format tests and component benches, which
    /// have no engine around the table).
    ///
    /// # Errors
    ///
    /// As for [`Table::get`].
    pub fn open_file(
        fs: Ext4Fs,
        handle: FileHandle,
        size: u64,
        opts: &crate::Options,
        now: &mut Nanos,
    ) -> Result<Arc<Table>> {
        let cache = BlockCache::new(opts.block_cache_bytes);
        Ok(Arc::new(Table::open(fs, handle, 1, 0, size, cache, opts.cpu, now)?))
    }

    fn read_block(&self, h: BlockHandle, now: &mut Nanos, fill_cache: bool) -> Result<Arc<Block>> {
        let len = block_extent(h, self.blocks_end)?;
        let at = self.base_offset + h.offset;
        let key = (self.physical_number, at);
        if let Some(b) = self.cache.get(key) {
            return Ok(b);
        }
        let (bytes, t) = self.fs.read_exact_at(self.handle, at, len, *now)?;
        *now = t + self.cpu.block_per_kib * (h.size >> 10).max(1);
        let block = Block::parse(strip_trailer(bytes)?)?;
        if fill_cache {
            self.cache.insert(key, Arc::clone(&block));
        }
        Ok(block)
    }

    /// Point lookup: the type and value of the first entry at or after
    /// the probe internal key whose user key equals the probe's, if any
    /// (a type byte that names neither reads as a tombstone). `fill_cache`
    /// says whether a block read from the device enters the block cache
    /// (`ReadOptions::fill_cache`).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Corruption`] or [`DbError::Fs`] on read failures.
    pub fn get(
        &self,
        probe: &[u8],
        now: &mut Nanos,
        fill_cache: bool,
    ) -> Result<Option<(ValueType, Vec<u8>)>> {
        *now += self.cpu.table_probe;
        if let Some(bloom) = &self.bloom {
            if !bloom.may_contain(user_key(probe)) {
                return Ok(None);
            }
        }
        let mut index_iter = self.index.iter();
        index_iter.seek(probe);
        if !index_iter.valid() {
            return Ok(None);
        }
        let mut pos = 0;
        let handle = BlockHandle::decode_from(index_iter.value(), &mut pos)?;
        let block = self.read_block(handle, now, fill_cache)?;
        let mut it = block.iter();
        it.seek(probe);
        if it.valid() && user_key(it.key()) == user_key(probe) {
            let vt = value_type_of(it.key()).unwrap_or(ValueType::Deletion);
            Ok(Some((vt, it.value().to_vec())))
        } else {
            Ok(None)
        }
    }

    /// Creates an iterator over this table; `fill_cache` as for
    /// [`Table::get`] (`ReadOptions::fill_cache` / `ScanOptions::fill_cache`).
    pub fn iter(self: &Arc<Self>, fill_cache: bool) -> TableIter {
        TableIter {
            table: Arc::clone(self),
            index_iter: self.index.iter(),
            data_iter: None,
            fill_cache,
        }
    }
}

/// The bytes to read for the block `h` names — payload and trailer — once
/// it is known to lie inside the `blocks_end` bytes a table's blocks occupy.
fn block_extent(h: BlockHandle, blocks_end: u64) -> Result<u64> {
    h.size
        .checked_add(BLOCK_TRAILER_SIZE as u64)
        .filter(|len| h.offset.checked_add(*len).is_some_and(|end| end <= blocks_end))
        .ok_or_else(|| DbError::Corruption("block handle points outside the table".into()))
}

/// A two-level iterator over one [`Table`].
#[derive(Debug)]
pub struct TableIter {
    table: Arc<Table>,
    index_iter: BlockIter,
    data_iter: Option<BlockIter>,
    fill_cache: bool,
}

impl TableIter {
    fn load_current_data_block(&mut self, now: &mut Nanos) -> Result<()> {
        if !self.index_iter.valid() {
            self.data_iter = None;
            return Ok(());
        }
        let mut pos = 0;
        let handle = BlockHandle::decode_from(self.index_iter.value(), &mut pos)?;
        let block = self.table.read_block(handle, now, self.fill_cache)?;
        // One block iterator serves the whole table, so its key buffer is
        // allocated once.
        match self.data_iter.as_mut() {
            Some(d) => d.reset(block),
            None => self.data_iter = Some(block.iter()),
        }
        Ok(())
    }

    /// Advances past exhausted data blocks.
    fn skip_empty_blocks(&mut self, now: &mut Nanos) -> Result<()> {
        while self.data_iter.as_ref().is_some_and(|d| !d.valid()) {
            self.index_iter.next();
            self.load_current_data_block(now)?;
            if let Some(d) = self.data_iter.as_mut() {
                d.seek_to_first();
            }
        }
        Ok(())
    }
}

impl InternalIterator for TableIter {
    fn valid(&self) -> bool {
        self.data_iter.as_ref().is_some_and(|d| d.valid())
    }

    fn seek_to_first(&mut self, now: &mut Nanos) -> Result<()> {
        self.index_iter.seek_to_first();
        self.load_current_data_block(now)?;
        if let Some(d) = self.data_iter.as_mut() {
            d.seek_to_first();
        }
        self.skip_empty_blocks(now)
    }

    fn seek(&mut self, target: &[u8], now: &mut Nanos) -> Result<()> {
        self.index_iter.seek(target);
        self.load_current_data_block(now)?;
        if let Some(d) = self.data_iter.as_mut() {
            d.seek(target);
        }
        self.skip_empty_blocks(now)
    }

    fn next(&mut self, now: &mut Nanos) -> Result<()> {
        if let Some(d) = self.data_iter.as_mut() {
            d.next();
        }
        self.skip_empty_blocks(now)
    }

    fn key(&self) -> &[u8] {
        self.data_iter.as_ref().expect("valid iterator").key()
    }

    fn value(&self) -> &[u8] {
        self.data_iter.as_ref().expect("valid iterator").value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sstable::TableBuilder;
    use crate::types::compare_internal;
    use crate::{InternalKey, Options, ValueType};
    use nob_ext4::{Ext4Config, Ext4Fs};

    fn ik(key: &str, seq: u64) -> Vec<u8> {
        InternalKey::new(key.as_bytes(), seq, ValueType::Value).as_bytes().to_vec()
    }

    /// Builds a table in the fs and opens it.
    fn build_and_open(entries: &[(String, u64, String)]) -> (Arc<Table>, Nanos) {
        let fs = Ext4Fs::new(Ext4Config::default());
        let mut builder = TableBuilder::new(&Options::default());
        for (k, s, v) in entries {
            builder.add(&ik(k, *s), v.as_bytes());
        }
        let bytes = builder.finish();
        let h = fs.create("t.sst", Nanos::ZERO).unwrap();
        let mut now = fs.append(h, &bytes, Nanos::ZERO).unwrap();
        let cache = BlockCache::new(1 << 20);
        let table = Table::open(
            fs.clone(),
            h,
            1,
            0,
            bytes.len() as u64,
            cache,
            CpuCosts::default(),
            &mut now,
        )
        .unwrap();
        (Arc::new(table), now)
    }

    /// Walks the whole table checking key order; returns the entry count.
    fn verify_table_ordering(table: &Arc<Table>, now: &mut Nanos) -> Result<u64> {
        let mut it = table.iter(true);
        it.seek_to_first(now)?;
        let mut n = 0u64;
        let mut last: Option<Vec<u8>> = None;
        while it.valid() {
            if let Some(prev) = &last {
                if compare_internal(prev, it.key()).is_ge() {
                    return Err(DbError::Corruption("table keys out of order".into()));
                }
            }
            last = Some(it.key().to_vec());
            n += 1;
            it.next(now)?;
        }
        Ok(n)
    }

    fn sample(n: usize) -> Vec<(String, u64, String)> {
        (0..n).map(|i| (format!("key{i:05}"), 1u64, format!("value{i}"))).collect()
    }

    #[test]
    fn get_finds_present_keys() {
        let entries = sample(2000);
        let (table, mut now) = build_and_open(&entries);
        for (k, _, v) in entries.iter().step_by(37) {
            let probe = ik(k, u64::MAX >> 9);
            let got = table.get(&probe, &mut now, true).unwrap().expect("present");
            assert_eq!(got.1, v.as_bytes());
        }
    }

    #[test]
    fn get_misses_absent_keys() {
        let entries = sample(200);
        let (table, mut now) = build_and_open(&entries);
        assert!(table.get(&ik("missing", u64::MAX >> 9), &mut now, true).unwrap().is_none());
        assert!(table.get(&ik("key99999", u64::MAX >> 9), &mut now, true).unwrap().is_none());
    }

    #[test]
    fn iterator_walks_everything_in_order() {
        let entries = sample(3001);
        let (table, mut now) = build_and_open(&entries);
        let n = verify_table_ordering(&table, &mut now).unwrap();
        assert_eq!(n, 3001);
    }

    #[test]
    fn iterator_seek_mid_table() {
        let entries = sample(1000);
        let (table, mut now) = build_and_open(&entries);
        let mut it = table.iter(true);
        it.seek(&ik("key00500", u64::MAX >> 9), &mut now).unwrap();
        assert!(it.valid());
        assert_eq!(user_key(it.key()), b"key00500");
        it.seek(&ik("zzz", 1), &mut now).unwrap();
        assert!(!it.valid());
    }

    #[test]
    fn block_cache_makes_second_read_cheap() {
        let entries = sample(2000);
        let (table, now0) = build_and_open(&entries);
        // Drop the page cache so reads are device-priced on miss.
        table.fs.drop_caches();
        let mut now = now0;
        let probe = ik("key01000", u64::MAX >> 9);
        table.get(&probe, &mut now, true).unwrap().expect("present");
        let cold_cost = now - now0;
        let warm0 = now;
        table.get(&probe, &mut now, true).unwrap().expect("present");
        let warm_cost = now - warm0;
        assert!(warm_cost < cold_cost, "cache hit must be cheaper: {warm_cost} vs {cold_cost}");
    }

    #[test]
    fn logical_table_at_offset_works() {
        // Two tables packed into one physical file (BoLT's layout).
        let fs = Ext4Fs::new(Ext4Config::default());
        let opts = Options::default();
        let mk = |range: std::ops::Range<usize>| {
            let mut b = TableBuilder::new(&opts);
            for i in range {
                b.add(&ik(&format!("key{i:05}"), 1), b"v");
            }
            b.finish()
        };
        let t1 = mk(0..50);
        let t2 = mk(50..100);
        let h = fs.create("bundle.sst", Nanos::ZERO).unwrap();
        let mut now = fs.append(h, &t1, Nanos::ZERO).unwrap();
        now = fs.append(h, &t2, now).unwrap();
        let cache = BlockCache::new(1 << 20);
        let table2 = Arc::new(
            Table::open(
                fs.clone(),
                h,
                7,
                t1.len() as u64,
                t2.len() as u64,
                cache,
                CpuCosts::default(),
                &mut now,
            )
            .unwrap(),
        );
        let got = table2.get(&ik("key00075", u64::MAX >> 9), &mut now, true).unwrap();
        assert!(got.is_some());
        assert!(table2.get(&ik("key00010", u64::MAX >> 9), &mut now, true).unwrap().is_none());
        assert_eq!(verify_table_ordering(&table2, &mut now).unwrap(), 50);
    }

    #[test]
    fn corrupt_footer_fails_open() {
        let fs = Ext4Fs::new(Ext4Config::default());
        let h = fs.create("bad.sst", Nanos::ZERO).unwrap();
        let mut now = fs.append(h, &[0u8; 100], Nanos::ZERO).unwrap();
        let cache = BlockCache::new(1 << 20);
        let err = Table::open(fs, h, 1, 0, 100, cache, CpuCosts::default(), &mut now).unwrap_err();
        assert!(matches!(err, DbError::Corruption(_)));
    }
}
