//! Prefix-compressed blocks with restart points.

use std::cmp::Ordering;
use std::sync::Arc;

use nob_ext4::Extent;

use crate::types::compare_internal;
use crate::util::{crc32c, crc32c_masked, crc32c_unmask, decode_u32, encode_u32};
use crate::{DbError, Result};

use super::BlockHandle;

/// Size of a block trailer: type byte (1, always 0) + masked CRC (4).
pub(crate) const BLOCK_TRAILER_SIZE: usize = 5;

/// Builds one block: entries with shared-prefix compression, restart
/// points every `restart_interval` keys, and a restart array at the end.
///
/// Keys must be added in strictly increasing internal-key order.
///
/// # Examples
///
/// ```
/// use noblsm::sstable::{Block, BlockBuilder};
/// use noblsm::{InternalKey, ValueType};
///
/// let mut b = BlockBuilder::new(16);
/// let k = InternalKey::new(b"key", 1, ValueType::Value);
/// b.add(k.as_bytes(), b"value");
/// let block = Block::parse(b.finish_without_trailer()).unwrap();
/// let mut it = block.iter();
/// it.seek_to_first();
/// assert!(it.valid());
/// assert_eq!(it.value(), b"value");
/// ```
#[derive(Debug)]
pub struct BlockBuilder {
    /// The block being built is `buf[start..]`. A standalone block starts
    /// at 0; a table builder's data blocks are encoded one after another
    /// at the end of the table image, which `buf` then is.
    buf: Vec<u8>,
    start: usize,
    restarts: Vec<u32>,
    counter: usize,
    restart_interval: usize,
    last_key: Vec<u8>,
    entries: usize,
}

impl BlockBuilder {
    /// Creates a builder with the given restart interval.
    ///
    /// # Panics
    ///
    /// Panics if `restart_interval` is zero.
    pub fn new(restart_interval: usize) -> Self {
        Self::in_image(restart_interval, Vec::new())
    }

    /// Creates a builder that encodes its blocks at the end of `image`:
    /// a table builder's one data-block builder, writing every block of
    /// the table straight into the table's bytes.
    pub(crate) fn in_image(restart_interval: usize, image: Vec<u8>) -> Self {
        assert!(restart_interval >= 1, "restart interval must be positive");
        BlockBuilder {
            start: image.len(),
            buf: image,
            restarts: vec![0],
            counter: 0,
            restart_interval,
            last_key: Vec::new(),
            entries: 0,
        }
    }

    /// Appends an entry. Keys must arrive in increasing order.
    pub fn add(&mut self, key: &[u8], value: &[u8]) {
        debug_assert!(
            self.entries == 0 || compare_internal(&self.last_key, key).is_lt(),
            "keys must be added in strictly increasing order"
        );
        let shared = if self.counter < self.restart_interval {
            common_prefix(&self.last_key, key)
        } else {
            self.restarts.push((self.buf.len() - self.start) as u32);
            self.counter = 0;
            0
        };
        encode_u32(&mut self.buf, shared as u32);
        encode_u32(&mut self.buf, (key.len() - shared) as u32);
        encode_u32(&mut self.buf, value.len() as u32);
        self.buf.extend_from_slice(&key[shared..]);
        self.buf.extend_from_slice(value);
        self.last_key.truncate(shared);
        self.last_key.extend_from_slice(&key[shared..]);
        self.counter += 1;
        self.entries += 1;
    }

    /// Current encoded size estimate (including the restart array).
    pub(crate) fn size_estimate(&self) -> usize {
        self.buf.len() - self.start + self.restarts.len() * 4 + 4
    }

    /// Where the block being built starts: the bytes of the image before
    /// it.
    pub(crate) fn offset(&self) -> usize {
        self.start
    }

    /// Whether no entries have been added.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Finishes the block payload (no trailer): entries ++ restart array ++
    /// restart count.
    pub fn finish_without_trailer(mut self) -> Vec<u8> {
        self.append_restarts();
        self.buf
    }

    fn append_restarts(&mut self) {
        for r in &self.restarts {
            self.buf.extend_from_slice(&r.to_le_bytes());
        }
        self.buf.extend_from_slice(&(self.restarts.len() as u32).to_le_bytes());
    }

    /// Completes the block where it lies: restart array, then the
    /// `type + masked CRC` trailer. Returns the block's handle and starts
    /// the next block right after it, keeping every buffer.
    pub(crate) fn finish_block(&mut self) -> BlockHandle {
        self.append_restarts();
        let handle = BlockHandle::new(self.start as u64, (self.buf.len() - self.start) as u64);
        append_trailer(&mut self.buf, self.start);
        self.start = self.buf.len();
        self.restarts.clear();
        self.restarts.push(0);
        self.counter = 0;
        self.last_key.clear();
        self.entries = 0;
        handle
    }

    /// The image the blocks were encoded into, once the last one is
    /// finished.
    pub(crate) fn into_image(self) -> Vec<u8> {
        debug_assert!(self.is_empty(), "an unfinished block would be dropped");
        self.buf
    }

    /// Finishes the block with its `type + masked CRC` trailer appended.
    pub fn finish(self) -> Vec<u8> {
        let mut payload = self.finish_without_trailer();
        append_trailer(&mut payload, 0);
        payload
    }
}

fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// Appends the 5-byte trailer (type 0 + masked CRC over the block and the
/// type byte) of the block occupying `out[start..]`: a table builder
/// writes each block straight into the table image.
pub(crate) fn append_trailer(out: &mut Vec<u8>, start: usize) {
    out.push(0);
    let crc = crc32c_masked(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Verifies a block trailer where the block lies, and narrows the view
/// to the payload.
///
/// # Errors
///
/// Returns [`DbError::Corruption`] on checksum mismatch, short input, or
/// a type byte other than 0 (blocks are stored raw).
pub(crate) fn strip_trailer(mut data: Extent) -> Result<Extent> {
    if data.len() < BLOCK_TRAILER_SIZE {
        return Err(DbError::Corruption("block shorter than trailer".into()));
    }
    let crc_pos = data.len() - 4;
    let stored = u32::from_le_bytes(data[crc_pos..].try_into().expect("4 bytes"));
    let body = &data[..crc_pos];
    if crc32c(body) != crc32c_unmask(stored) {
        return Err(DbError::Corruption("block checksum mismatch".into()));
    }
    let block_type = data[crc_pos - 1];
    if block_type != 0 {
        return Err(DbError::Corruption(format!("unknown block type {block_type}")));
    }
    data.truncate(crc_pos - 1); // drop type byte too
    Ok(data)
}

/// A parsed, immutable block.
///
/// The payload stays where it was read: a block read from a table is a
/// view of the file's bytes, not a copy. Entries, then the restart array,
/// then the restart count; restart offsets are decoded where they lie.
#[derive(Debug)]
pub struct Block {
    data: Extent,
    /// Where the entries end and the restart array begins.
    entries_end: usize,
    n_restarts: usize,
}

impl Block {
    /// Parses a block payload (without trailer).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Corruption`] if the restart array is malformed.
    pub fn parse(data: impl Into<Extent>) -> Result<Arc<Block>> {
        let data = data.into();
        if data.len() < 4 {
            return Err(DbError::Corruption("block too small".into()));
        }
        let n_restarts =
            u32::from_le_bytes(data[data.len() - 4..].try_into().expect("4 bytes")) as usize;
        let restart_bytes = n_restarts
            .checked_mul(4)
            .and_then(|b| b.checked_add(4))
            .ok_or_else(|| DbError::Corruption("restart count overflow".into()))?;
        if restart_bytes > data.len() {
            return Err(DbError::Corruption("restart array exceeds block".into()));
        }
        let entries_end = data.len() - restart_bytes;
        Ok(Arc::new(Block { data, entries_end, n_restarts }))
    }

    /// In-memory footprint, for cache accounting: the entries and the
    /// restart array (the count word is not charged).
    pub(crate) fn bytes(&self) -> usize {
        self.entries_end + self.n_restarts * 4
    }

    /// Creates an iterator positioned before the first entry.
    pub fn iter(self: &Arc<Block>) -> BlockIter {
        BlockIter { block: Arc::clone(self), pos: usize::MAX, key: Vec::new(), value_range: (0, 0) }
    }

    /// Byte offset of the entry restart point `i` names (`i < n_restarts`).
    fn restart(&self, i: usize) -> usize {
        let at = self.entries_end + i * 4;
        u32::from_le_bytes(self.data[at..at + 4].try_into().expect("4 bytes")) as usize
    }

    /// Decodes the entry at byte offset `pos`; returns
    /// `(next_pos, shared, non_shared_range, value_range)`.
    #[allow(clippy::type_complexity)]
    fn decode_entry(&self, pos: usize) -> Option<(usize, usize, (usize, usize), (usize, usize))> {
        if pos >= self.entries_end {
            return None;
        }
        // A header that strays into the restart array decodes to an entry
        // that ends past `entries_end`, and is refused there.
        let mut p = pos;
        let shared = decode_u32(&self.data, &mut p)? as usize;
        let non_shared = decode_u32(&self.data, &mut p)? as usize;
        let value_len = decode_u32(&self.data, &mut p)? as usize;
        let key_start = p;
        let value_start = key_start.checked_add(non_shared)?;
        let next = value_start.checked_add(value_len)?;
        if next > self.entries_end {
            return None;
        }
        Some((next, shared, (key_start, value_start), (value_start, next)))
    }
}

/// An iterator over one [`Block`].
#[derive(Debug)]
pub struct BlockIter {
    block: Arc<Block>,
    /// Byte offset of the current entry; `usize::MAX` = invalid.
    pos: usize,
    key: Vec<u8>,
    value_range: (usize, usize),
}

impl BlockIter {
    /// Re-points the iterator at `block`, positioned before its first
    /// entry, keeping the key buffer: a table iterator walks every data
    /// block of its table through one `BlockIter`.
    pub(crate) fn reset(&mut self, block: Arc<Block>) {
        self.block = block;
        self.pos = usize::MAX;
    }

    /// Whether the iterator points at an entry.
    pub fn valid(&self) -> bool {
        self.pos != usize::MAX
    }

    /// The current internal key.
    ///
    /// # Panics
    ///
    /// Panics if the iterator is not [`valid`](BlockIter::valid).
    pub fn key(&self) -> &[u8] {
        assert!(self.valid(), "iterator not valid");
        &self.key
    }

    /// The current value.
    ///
    /// # Panics
    ///
    /// Panics if the iterator is not [`valid`](BlockIter::valid).
    pub fn value(&self) -> &[u8] {
        assert!(self.valid(), "iterator not valid");
        &self.block.data[self.value_range.0..self.value_range.1]
    }

    /// Positions at the first entry.
    pub fn seek_to_first(&mut self) {
        self.seek_to_restart(0);
    }

    fn seek_to_restart(&mut self, r: usize) {
        self.key.clear();
        if r >= self.block.n_restarts {
            self.pos = usize::MAX;
            return;
        }
        self.advance_from(self.block.restart(r));
    }

    /// Moves to the entry starting at byte `pos` (key prefix must already
    /// be correct for that position).
    fn advance_from(&mut self, pos: usize) {
        match self.block.decode_entry(pos) {
            Some((_next, shared, key_r, value_r)) => {
                self.key.truncate(shared);
                self.key.extend_from_slice(&self.block.data[key_r.0..key_r.1]);
                self.value_range = value_r;
                self.pos = pos;
            }
            None => self.pos = usize::MAX,
        }
    }

    /// Advances to the next entry.
    pub fn next(&mut self) {
        if !self.valid() {
            return;
        }
        // The current entry's value is the last thing before the next one.
        self.advance_from(self.value_range.1);
    }

    /// Positions at the first entry with key >= `target`.
    pub fn seek(&mut self, target: &[u8]) {
        // Binary search the restart array for the last restart whose key
        // is < target.
        let (mut lo, mut hi) = (0usize, self.block.n_restarts);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let pos = self.block.restart(mid);
            // Restart entries have shared == 0, so the stored key is full.
            let Some((_, _, key_r, _)) = self.block.decode_entry(pos) else {
                hi = mid;
                continue;
            };
            let key = &self.block.data[key_r.0..key_r.1];
            match compare_internal(key, target) {
                Ordering::Less => lo = mid,
                _ => hi = mid,
            }
        }
        self.seek_to_restart(lo);
        while self.valid() && compare_internal(&self.key, target) == Ordering::Less {
            self.next();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InternalKey, ValueType};

    fn ik(key: &str, seq: u64) -> Vec<u8> {
        InternalKey::new(key.as_bytes(), seq, ValueType::Value).as_bytes().to_vec()
    }

    fn build(entries: &[(&str, u64, &str)]) -> Arc<Block> {
        let mut b = BlockBuilder::new(3);
        for (k, s, v) in entries {
            b.add(&ik(k, *s), v.as_bytes());
        }
        Block::parse(b.finish_without_trailer()).unwrap()
    }

    #[test]
    fn iterate_all_entries_in_order() {
        let entries: Vec<(String, u64, String)> =
            (0..50).map(|i| (format!("key{i:03}"), 1u64, format!("v{i}"))).collect();
        let mut b = BlockBuilder::new(4);
        for (k, s, v) in &entries {
            b.add(&ik(k, *s), v.as_bytes());
        }
        let block = Block::parse(b.finish_without_trailer()).unwrap();
        let mut it = block.iter();
        it.seek_to_first();
        for (k, s, v) in &entries {
            assert!(it.valid());
            assert_eq!(it.key(), ik(k, *s).as_slice());
            assert_eq!(it.value(), v.as_bytes());
            it.next();
        }
        assert!(!it.valid());
    }

    #[test]
    fn seek_lands_on_or_after_target() {
        let block = build(&[("b", 9, "1"), ("d", 9, "2"), ("f", 9, "3")]);
        let mut it = block.iter();
        it.seek(&ik("c", u64::MAX >> 9));
        assert!(it.valid());
        assert_eq!(crate::types::user_key(it.key()), b"d");
        it.seek(&ik("b", 9));
        assert_eq!(it.value(), b"1");
        it.seek(&ik("g", 9));
        assert!(!it.valid());
    }

    #[test]
    fn seek_respects_sequence_ordering() {
        // Same user key, descending sequences.
        let block = build(&[("k", 30, "new"), ("k", 20, "mid"), ("k", 10, "old")]);
        let mut it = block.iter();
        // Lookup at snapshot 25 must land on the seq-20 entry.
        it.seek(InternalKey::new(b"k", 25, ValueType::Value).as_bytes());
        assert!(it.valid());
        assert_eq!(it.value(), b"mid");
    }

    #[test]
    fn prefix_compression_restores_keys() {
        let block = build(&[
            ("prefix_aaaa", 1, "1"),
            ("prefix_aabb", 1, "2"),
            ("prefix_abcc", 1, "3"),
            ("prefix_b", 1, "4"),
        ]);
        let mut it = block.iter();
        it.seek(&ik("prefix_abcc", 1));
        assert_eq!(it.value(), b"3");
        assert_eq!(crate::types::user_key(it.key()), b"prefix_abcc");
    }

    #[test]
    fn trailer_round_trip_and_corruption() {
        let mut b = BlockBuilder::new(16);
        b.add(&ik("a", 1), b"v");
        let with_trailer = b.finish();
        let stripped = strip_trailer(with_trailer.clone().into()).unwrap();
        assert!(Block::parse(stripped.clone()).is_ok());

        let mut flipped = with_trailer;
        flipped[0] ^= 0x40;
        // A type byte other than 0 under a valid checksum: blocks are
        // stored raw, so any other type is damage.
        let typed = |ty: u8| {
            let mut block = stripped.to_vec();
            block.push(ty);
            let crc = crc32c_masked(&block);
            block.extend_from_slice(&crc.to_le_bytes());
            block
        };
        for corrupt in [flipped, typed(1), typed(2)] {
            assert!(matches!(strip_trailer(corrupt.into()), Err(DbError::Corruption(_))));
        }
    }

    #[test]
    fn every_single_bit_flip_in_a_4k_block_fails_the_checksum() {
        let mut b = BlockBuilder::new(16);
        let mut i = 0u32;
        while b.size_estimate() < 4096 {
            b.add(&ik(&format!("key{i:06}"), 1), &i.to_le_bytes().repeat(16));
            i += 1;
        }
        let block = b.finish();
        assert!(strip_trailer(block.clone().into()).is_ok());
        // Payload, type byte and stored CRC alike: a CRC detects every
        // single-bit error.
        for bit in 0..block.len() * 8 {
            let mut flipped = block.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(
                matches!(strip_trailer(flipped.into()), Err(DbError::Corruption(_))),
                "flip of bit {bit} passed verification"
            );
        }
    }

    #[test]
    fn a_reused_builder_produces_the_payload_of_a_fresh_one() {
        // Blocks of different sizes and key shapes, so state left over
        // from a longer block (restarts, the shared-prefix key, the entry
        // counter) would show in a shorter one after it.
        let blocks: Vec<Vec<(Vec<u8>, Vec<u8>)>> = [40usize, 3, 17, 1, 25]
            .iter()
            .enumerate()
            .map(|(b, &n)| {
                (0..n)
                    .map(|i| {
                        (
                            ik(&format!("blk{b}/key{i:04}"), (b * 100 + i) as u64),
                            vec![b as u8; i % 9],
                        )
                    })
                    .collect()
            })
            .collect();
        // One builder encodes every block into one image, after bytes that
        // were there first; each block must be a fresh builder's, with its
        // trailer.
        let mut reused = BlockBuilder::in_image(4, b"before".to_vec());
        let mut image = b"before".to_vec();
        for entries in &blocks {
            let mut fresh = BlockBuilder::new(4);
            for (k, v) in entries {
                fresh.add(k, v);
                reused.add(k, v);
            }
            assert_eq!(reused.size_estimate(), fresh.size_estimate());
            assert_eq!(reused.entries, fresh.entries);
            assert_eq!(reused.offset(), image.len());
            let handle = reused.finish_block();
            assert!(reused.is_empty());
            let offset = image.len();
            image.extend_from_slice(&fresh.finish_without_trailer());
            assert_eq!(handle, BlockHandle::new(offset as u64, (image.len() - offset) as u64));
            append_trailer(&mut image, offset);
        }
        assert_eq!(reused.into_image(), image);
    }

    #[test]
    fn size_estimate_tracks_growth() {
        let mut b = BlockBuilder::new(16);
        let empty = b.size_estimate();
        b.add(&ik("a", 1), &[0u8; 100]);
        assert!(b.size_estimate() >= empty + 100);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Block::parse(vec![1, 2]).is_err());
        // Restart count claims more restarts than bytes available.
        let bad = vec![0xff, 0xff, 0xff, 0x7f];
        assert!(Block::parse(bad).is_err());
    }
}
