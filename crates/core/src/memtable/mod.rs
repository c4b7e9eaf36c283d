//! The in-memory mutable table: a skiplist of internal keys.

mod skiplist;

pub use skiplist::{Cursor, SkipList};

use nob_sim::Nanos;

use crate::iterator::InternalIterator;

use crate::types::{pack_trailer, sequence_of, user_key, value_type_of};
use crate::{SequenceNumber, ValueType};

/// Result of probing a memtable for a user key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemLookup {
    /// The key has a live value.
    Found(Vec<u8>),
    /// The key's newest visible entry is a tombstone.
    Deleted,
    /// The memtable holds no visible entry for the key.
    NotFound,
}

/// A mutable in-memory table ordered by internal key.
///
/// # Examples
///
/// ```
/// use noblsm::memtable::{MemLookup, MemTable};
/// use noblsm::ValueType;
///
/// let mut mem = MemTable::new();
/// mem.add(1, ValueType::Value, b"k", b"v1");
/// mem.add(2, ValueType::Value, b"k", b"v2");
/// assert_eq!(mem.get(b"k", 2), MemLookup::Found(b"v2".to_vec()));
/// assert_eq!(mem.get(b"k", 1), MemLookup::Found(b"v1".to_vec()));
/// ```
#[derive(Debug)]
pub struct MemTable {
    list: SkipList,
    bytes: u64,
}

impl MemTable {
    /// Creates an empty memtable.
    pub fn new() -> Self {
        MemTable { list: SkipList::new(), bytes: 0 }
    }

    /// Inserts one entry.
    pub fn add(&mut self, seq: SequenceNumber, vt: ValueType, key: &[u8], value: &[u8]) {
        self.bytes += (key.len() + 8 + value.len() + 16) as u64;
        self.list.insert_parts(key, &pack_trailer(seq, vt).to_le_bytes(), value);
    }

    /// Looks up the newest entry for `key` visible at snapshot `seq`.
    pub fn get(&self, key: &[u8], seq: SequenceNumber) -> MemLookup {
        // The lookup key of `types::lookup_key`, in its two parts.
        match self.list.seek_parts(key, pack_trailer(seq, ValueType::Value)) {
            Some((ikey, value)) if user_key(ikey) == key => {
                debug_assert!(sequence_of(ikey) <= seq);
                match value_type_of(ikey) {
                    Some(ValueType::Value) => MemLookup::Found(value.to_vec()),
                    _ => MemLookup::Deleted,
                }
            }
            _ => MemLookup::NotFound,
        }
    }

    /// Approximate memory footprint in bytes.
    pub(crate) fn approximate_bytes(&self) -> u64 {
        self.bytes
    }

    /// Whether the memtable holds no entries.
    pub(crate) fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Iterates all entries in internal-key order as
    /// `(internal_key, value)` pairs.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&[u8], &[u8])> + '_ {
        self.list.iter()
    }

    /// Creates an [`InternalIterator`] borrowing this memtable.
    pub(crate) fn internal_iter(&self) -> MemIter<'_> {
        MemIter { cursor: self.list.cursor() }
    }
}

/// An [`InternalIterator`] over a [`MemTable`] (zero-copy).
#[derive(Debug)]
pub(crate) struct MemIter<'a> {
    cursor: Cursor<'a>,
}

impl<'a> InternalIterator for MemIter<'a> {
    fn valid(&self) -> bool {
        self.cursor.valid()
    }

    fn seek_to_first(&mut self, _now: &mut Nanos) -> crate::Result<()> {
        self.cursor.seek_to_first();
        Ok(())
    }

    fn seek(&mut self, target: &[u8], _now: &mut Nanos) -> crate::Result<()> {
        self.cursor.seek(target);
        Ok(())
    }

    fn next(&mut self, _now: &mut Nanos) -> crate::Result<()> {
        self.cursor.next();
        Ok(())
    }

    fn key(&self) -> &[u8] {
        self.cursor.key()
    }

    fn value(&self) -> &[u8] {
        self.cursor.value()
    }
}

impl Default for MemTable {
    fn default() -> Self {
        MemTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::compare_internal;

    #[test]
    fn empty_lookup_is_not_found() {
        let mem = MemTable::new();
        assert_eq!(mem.get(b"k", 100), MemLookup::NotFound);
        assert!(mem.is_empty());
    }

    #[test]
    fn snapshot_visibility() {
        let mut mem = MemTable::new();
        mem.add(5, ValueType::Value, b"k", b"old");
        mem.add(9, ValueType::Value, b"k", b"new");
        assert_eq!(mem.get(b"k", 4), MemLookup::NotFound);
        assert_eq!(mem.get(b"k", 5), MemLookup::Found(b"old".to_vec()));
        assert_eq!(mem.get(b"k", 8), MemLookup::Found(b"old".to_vec()));
        assert_eq!(mem.get(b"k", 100), MemLookup::Found(b"new".to_vec()));
    }

    #[test]
    fn tombstone_shadows_value() {
        let mut mem = MemTable::new();
        mem.add(3, ValueType::Value, b"k", b"v");
        mem.add(7, ValueType::Deletion, b"k", b"");
        assert_eq!(mem.get(b"k", 10), MemLookup::Deleted);
        assert_eq!(mem.get(b"k", 5), MemLookup::Found(b"v".to_vec()));
    }

    #[test]
    fn prefix_keys_do_not_collide() {
        let mut mem = MemTable::new();
        mem.add(1, ValueType::Value, b"abc", b"1");
        mem.add(2, ValueType::Value, b"ab", b"2");
        assert_eq!(mem.get(b"ab", 10), MemLookup::Found(b"2".to_vec()));
        assert_eq!(mem.get(b"abc", 10), MemLookup::Found(b"1".to_vec()));
        assert_eq!(mem.get(b"a", 10), MemLookup::NotFound);
    }

    #[test]
    fn iter_is_internal_key_sorted() {
        let mut mem = MemTable::new();
        mem.add(1, ValueType::Value, b"b", b"");
        mem.add(2, ValueType::Value, b"a", b"");
        mem.add(3, ValueType::Value, b"a", b"");
        let keys: Vec<Vec<u8>> = mem.iter().map(|(k, _)| k.to_vec()).collect();
        for w in keys.windows(2) {
            assert_eq!(compare_internal(&w[0], &w[1]), std::cmp::Ordering::Less);
        }
        // "a"@3 comes before "a"@2 (sequence descending).
        assert_eq!(sequence_of(&keys[0]), 3);
        assert_eq!(sequence_of(&keys[1]), 2);
    }

    #[test]
    fn approximate_bytes_follows_the_flush_formula_entry_by_entry() {
        // Flush instants hang on this number: internal key (user key + 8)
        // plus value plus 16 per entry, whatever the arena really holds.
        let mut mem = MemTable::new();
        let mut want = 0u64;
        for i in 0..3_000u64 {
            let key = vec![b'k'; (i % 37) as usize];
            let value = vec![b'v'; (i * 7 % 211) as usize];
            let vt = if i % 5 == 0 { ValueType::Deletion } else { ValueType::Value };
            mem.add(i + 1, vt, &key, &value);
            want += (crate::InternalKey::new(&key, i + 1, vt).as_bytes().len() + value.len() + 16)
                as u64;
            assert_eq!(mem.approximate_bytes(), want, "after entry {i}");
        }
    }

    #[test]
    fn bytes_accumulate() {
        let mut mem = MemTable::new();
        assert_eq!(mem.approximate_bytes(), 0);
        mem.add(1, ValueType::Value, b"key", b"value");
        assert!(mem.approximate_bytes() > 8);
        assert_eq!(mem.list.iter().count(), 1);
    }
}
