//! Table builder: turns a sorted entry stream into table bytes.

use crate::options::{CompressionType, Options};
use crate::types::compare_internal;

use super::block::{append_trailer, append_trailer_typed, BlockBuilder};
use super::bloom::bloom_hash;
use super::{BlockHandle, BloomFilter, Footer};

/// Builds the bytes of one SSTable.
///
/// Entries must be added in strictly increasing internal-key order;
/// [`finish`](TableBuilder::finish) returns the complete table image,
/// which the engine appends to a file.
///
/// # Examples
///
/// ```
/// use noblsm::sstable::TableBuilder;
/// use noblsm::{InternalKey, Options, ValueType};
///
/// let mut b = TableBuilder::new(&Options::default());
/// let k = InternalKey::new(b"key", 1, ValueType::Value);
/// b.add(k.as_bytes(), b"value");
/// let bytes = b.finish();
/// assert!(!bytes.is_empty());
/// ```
#[derive(Debug)]
pub struct TableBuilder {
    block_size: usize,
    bloom_bits: usize,
    compression: CompressionType,
    buf: Vec<u8>,
    data: BlockBuilder,
    index: BlockBuilder,
    /// Bloom hash of every user key added: all the filter needs of them.
    key_hashes: Vec<u32>,
    last_key: Vec<u8>,
    entries: u64,
    smallest: Option<Vec<u8>>,
}

impl TableBuilder {
    /// Creates a builder with the options' block parameters.
    pub fn new(opts: &Options) -> Self {
        TableBuilder {
            block_size: opts.block_size,
            bloom_bits: opts.bloom_bits_per_key,
            compression: opts.compression,
            buf: Vec::new(),
            data: BlockBuilder::new(opts.block_restart_interval),
            index: BlockBuilder::new(1),
            key_hashes: Vec::new(),
            last_key: Vec::new(),
            entries: 0,
            smallest: None,
        }
    }

    /// Appends one entry (encoded internal key + value).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if keys are not strictly increasing.
    pub fn add(&mut self, ikey: &[u8], value: &[u8]) {
        debug_assert!(
            self.entries == 0 || compare_internal(&self.last_key, ikey).is_lt(),
            "table keys must be strictly increasing"
        );
        if self.smallest.is_none() {
            self.smallest = Some(ikey.to_vec());
        }
        self.data.add(ikey, value);
        if self.bloom_bits > 0 {
            self.key_hashes.push(bloom_hash(crate::types::user_key(ikey)));
        }
        self.last_key.clear();
        self.last_key.extend_from_slice(ikey);
        self.entries += 1;
        if self.data.size_estimate() >= self.block_size {
            self.flush_data_block();
        }
    }

    fn flush_data_block(&mut self) {
        if self.data.is_empty() {
            return;
        }
        let offset = self.buf.len();
        let raw = self.data.finish_in_place();
        // Compress when configured and profitable (snappy-style fallback
        // to raw for incompressible blocks).
        let compressed = match self.compression {
            CompressionType::Rle => crate::util::rle::compress(raw),
            CompressionType::None => None,
        };
        let (payload, ctype) = match &compressed {
            Some(c) => (c.as_slice(), 1u8),
            None => (raw, 0u8),
        };
        self.buf.extend_from_slice(payload);
        self.data.reset();
        let size = self.buf.len() - offset;
        append_trailer_typed(&mut self.buf, offset, ctype);
        let (handle, handle_len) = BlockHandle::new(offset as u64, size as u64).encoded();
        self.index.add(&self.last_key, &handle[..handle_len]);
    }

    /// Estimated current size of the finished table.
    pub fn size_estimate(&self) -> u64 {
        (self.buf.len() + self.data.size_estimate()) as u64
    }

    /// Number of entries added so far.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Whether nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// The smallest internal key added, if any.
    pub fn smallest(&self) -> Option<&[u8]> {
        self.smallest.as_deref()
    }

    /// The largest internal key added, if any.
    pub fn largest(&self) -> Option<&[u8]> {
        if self.entries == 0 {
            None
        } else {
            Some(&self.last_key)
        }
    }

    /// Finishes the table and returns its bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.flush_data_block();
        // Bloom filter area.
        let filter_handle = if self.bloom_bits > 0 {
            let filter = BloomFilter::from_hashes(&self.key_hashes, self.bloom_bits);
            let offset = self.buf.len() as u64;
            let mut payload = filter.encode();
            let size = payload.len() as u64;
            append_trailer(&mut payload);
            self.buf.extend_from_slice(&payload);
            BlockHandle::new(offset, size)
        } else {
            BlockHandle::default()
        };
        // Index block.
        let index_offset = self.buf.len() as u64;
        let mut index_payload = self.index.finish_without_trailer();
        let index_size = index_payload.len() as u64;
        append_trailer(&mut index_payload);
        self.buf.extend_from_slice(&index_payload);
        // Footer.
        let footer =
            Footer { filter: filter_handle, index: BlockHandle::new(index_offset, index_size) };
        self.buf.extend_from_slice(&footer.encode());
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InternalKey, ValueType};

    fn ik(key: &str, seq: u64) -> Vec<u8> {
        InternalKey::new(key.as_bytes(), seq, ValueType::Value).as_bytes().to_vec()
    }

    #[test]
    fn tracks_bounds_and_entries() {
        let mut b = TableBuilder::new(&Options::default());
        b.add(&ik("aaa", 9), b"1");
        b.add(&ik("mmm", 5), b"2");
        b.add(&ik("zzz", 2), b"3");
        assert_eq!(b.entries(), 3);
        assert_eq!(b.smallest().unwrap(), ik("aaa", 9).as_slice());
        assert_eq!(b.largest().unwrap(), ik("zzz", 2).as_slice());
    }

    #[test]
    fn multiple_data_blocks_are_flushed() {
        let opts = Options { block_size: 256, ..Options::default() };
        let mut b = TableBuilder::new(&opts);
        for i in 0..100 {
            b.add(&ik(&format!("key{i:04}"), 1), &[7u8; 40]);
        }
        let bytes = b.finish();
        // 100 × ~55-byte entries with 256-byte blocks → many blocks.
        assert!(bytes.len() > 4000);
        let footer = Footer::decode(&bytes[bytes.len() - super::super::FOOTER_SIZE..]).unwrap();
        assert!(footer.index.size > 0);
        assert!(footer.filter.size > 0);
    }

    #[test]
    fn empty_table_still_produces_valid_footer() {
        let b = TableBuilder::new(&Options::default());
        let bytes = b.finish();
        let footer = Footer::decode(&bytes[bytes.len() - super::super::FOOTER_SIZE..]).unwrap();
        // Index exists but holds no entries.
        assert!(footer.index.offset <= bytes.len() as u64);
    }

    #[test]
    fn size_estimate_is_monotone() {
        let mut b = TableBuilder::new(&Options::default());
        let s0 = b.size_estimate();
        b.add(&ik("a", 1), &[0u8; 500]);
        let s1 = b.size_estimate();
        assert!(s1 > s0);
    }
}
