//! Table builder: turns a sorted entry stream into table bytes.

use crate::options::Options;
use crate::types::compare_internal;

use super::block::{append_trailer, BlockBuilder};
use super::bloom::bloom_hash;
use super::{BlockHandle, BloomFilter, Footer};

/// Size a data block is cut at, before its restart array and trailer
/// (LevelDB's default).
const BLOCK_SIZE: usize = 4096;
/// Keys between restart points within a data block.
const BLOCK_RESTART_INTERVAL: usize = 16;
/// Bloom filter bits per key.
const BLOOM_BITS_PER_KEY: usize = 10;

/// Builds the bytes of one SSTable.
///
/// Entries must be added in strictly increasing internal-key order;
/// [`finish`](TableBuilder::finish) returns the complete table image,
/// which the engine appends to a file. The image is reserved once, at the
/// size a table is expected to reach, and every data block is encoded
/// straight into it.
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
    /// The one data-block builder; it holds the table image and encodes
    /// each block at its end.
    data: BlockBuilder,
    index: BlockBuilder,
    /// Bloom hash of every user key added: all the filter needs of them.
    key_hashes: Vec<u32>,
    last_key: Vec<u8>,
    entries: u64,
    smallest: Option<Vec<u8>>,
}

impl TableBuilder {
    /// Creates a builder whose image is reserved for the options' table
    /// size.
    pub fn new(opts: &Options) -> Self {
        TableBuilder {
            data: BlockBuilder::in_image(
                BLOCK_RESTART_INTERVAL,
                Vec::with_capacity(image_capacity(opts)),
            ),
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
        self.key_hashes.push(bloom_hash(crate::types::user_key(ikey)));
        self.last_key.clear();
        self.last_key.extend_from_slice(ikey);
        self.entries += 1;
        if self.data.size_estimate() >= BLOCK_SIZE {
            self.flush_data_block();
        }
    }

    fn flush_data_block(&mut self) {
        if self.data.is_empty() {
            return;
        }
        let (handle, handle_len) = self.data.finish_block().encoded();
        self.index.add(&self.last_key, &handle[..handle_len]);
    }

    /// Estimated current size of the finished table.
    pub(crate) fn size_estimate(&self) -> u64 {
        (self.data.offset() + self.data.size_estimate()) as u64
    }

    /// Whether nothing has been added.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// The smallest internal key added, if any.
    pub(crate) fn smallest(&self) -> Option<&[u8]> {
        self.smallest.as_deref()
    }

    /// The largest internal key added, if any.
    pub(crate) fn largest(&self) -> Option<&[u8]> {
        if self.entries == 0 {
            None
        } else {
            Some(&self.last_key)
        }
    }

    /// Finishes the table and returns its bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.flush_data_block();
        let mut image = self.data.into_image();
        let filter = BloomFilter::from_hashes(&self.key_hashes, BLOOM_BITS_PER_KEY);
        let filter = append_block(&mut image, &filter.encode());
        let index = append_block(&mut image, &self.index.finish_without_trailer());
        image.extend_from_slice(&Footer { filter, index }.encode());
        image
    }
}

/// Appends a raw block and its trailer to the image; returns its handle.
fn append_block(image: &mut Vec<u8>, payload: &[u8]) -> BlockHandle {
    let offset = image.len();
    image.extend_from_slice(payload);
    append_trailer(image, offset);
    BlockHandle::new(offset as u64, payload.len() as u64)
}

/// Bytes a table image is given up front, so that it never grows by
/// doubling: the size a compaction cuts a table at, a sixteenth more for
/// its filter and index, and a block for the entry that crosses the cut.
/// The file that adopts the image keeps what it leaves unused. (A memtable
/// flush bigger than a table grows it.)
fn image_capacity(opts: &Options) -> usize {
    let cut = opts.table_size as usize;
    cut + cut / 16 + BLOCK_SIZE
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
        assert_eq!(b.entries, 3);
        assert_eq!(b.smallest().unwrap(), ik("aaa", 9).as_slice());
        assert_eq!(b.largest().unwrap(), ik("zzz", 2).as_slice());
    }

    #[test]
    fn multiple_data_blocks_are_flushed() {
        let mut b = TableBuilder::new(&Options::default());
        for i in 0..1000 {
            b.add(&ik(&format!("key{i:04}"), 1), &[7u8; 40]);
        }
        let bytes = b.finish();
        // 1 000 × ~55-byte entries with 4 KiB blocks → many blocks.
        assert!(bytes.len() > 40_000);
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
