//! The write batch, which *is* the payload of one WAL record.
//!
//! Layout: `seq (8 LE) ++ count (4 LE) ++ entries`, each entry being
//! `type (1) ++ varint keylen ++ key [++ varint valuelen ++ value]`.
//!
//! [`WriteBatch`] owns exactly these bytes (LevelDB's `WriteBatch::rep_`):
//! [`put`](WriteBatch::put) and [`delete`](WriteBatch::delete) append
//! encoded entries, [`Db::write`](super::Db::write) stamps the sequence into
//! the header and frames the bytes into the log, and
//! [`ops`](WriteBatch::ops) decodes them in place for the memtable. The same
//! bytes are the unit of WAL shipping in `nob-repl` — a leader ships each
//! committed group's stamped payload verbatim, and a follower wraps it with
//! [`WriteBatch::from_payload`] and writes it. Keeping one format for the
//! write path, recovery and replication is what lets a promoted follower's
//! log line up bit-for-bit with the leader's.

use crate::memtable::MemTable;
use crate::util::{decode_bytes, encode_bytes};
use crate::{DbError, Result, SequenceNumber, ValueType};

/// `seq (8) ++ count (4)`.
const HEADER: usize = 12;

/// An atomic batch of writes, applied through [`Db::write`](super::Db::write)
/// with a single WAL record: after a crash, either every operation in the
/// batch is recovered or none is.
#[derive(Debug, Default, Clone)]
pub struct WriteBatch {
    /// Empty until the first operation (a fresh batch allocates nothing),
    /// a complete payload from then on.
    rep: Vec<u8>,
    /// Key + value bytes of the operations in `rep`.
    bytes: u64,
}

/// Decodes the entry at `pos`, advancing past it; `None` when the bytes
/// there are not a whole entry.
fn decode_op<'a>(data: &'a [u8], pos: &mut usize) -> Option<(ValueType, &'a [u8], &'a [u8])> {
    let vt = ValueType::from_u8(*data.get(*pos)?)?;
    *pos += 1;
    let key = decode_bytes(data, pos)?;
    let value = if vt == ValueType::Value { decode_bytes(data, pos)? } else { &[] };
    Some((vt, key, value))
}

impl WriteBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        WriteBatch::default()
    }

    /// Takes over an encoded payload — a WAL record's, or one shipped by a
    /// replication leader — checking all of it once, so that every later
    /// [`ops`](WriteBatch::ops) walk can trust the bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Corruption`] on a short header, an unknown type
    /// byte, a truncated entry, or an entry count that disagrees with the
    /// bytes present (too few entries, or bytes left over).
    pub fn from_payload(rep: Vec<u8>) -> Result<WriteBatch> {
        let corrupt = || DbError::Corruption("malformed write batch".into());
        let count = rep.get(8..HEADER).ok_or_else(corrupt)?;
        let count = u32::from_le_bytes(count.try_into().expect("4 bytes"));
        let mut pos = HEADER;
        let mut bytes = 0;
        for _ in 0..count {
            let (_, key, value) = decode_op(&rep, &mut pos).ok_or_else(corrupt)?;
            bytes += (key.len() + value.len()) as u64;
        }
        if pos != rep.len() {
            return Err(corrupt());
        }
        Ok(WriteBatch { rep, bytes })
    }

    /// The encoded batch: what [`Db::write`](super::Db::write) frames into
    /// the WAL and what replication ships. An empty batch reads as a bare
    /// zero header.
    pub fn payload(&self) -> &[u8] {
        if self.rep.is_empty() {
            &[0; HEADER]
        } else {
            &self.rep
        }
    }

    /// Sequence number of the first operation: zero until
    /// [`Db::write`](super::Db::write) (or a leader, before shipping)
    /// stamps it.
    pub fn sequence(&self) -> SequenceNumber {
        u64::from_le_bytes(self.payload()[..8].try_into().expect("8 bytes"))
    }

    /// Stamps the sequence number of the first operation; the rest follow
    /// consecutively.
    pub fn set_sequence(&mut self, seq: SequenceNumber) {
        self.header_mut()[..8].copy_from_slice(&seq.to_le_bytes());
    }

    /// Queues an insert/overwrite.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.begin_op(ValueType::Value, key, value.len());
        encode_bytes(&mut self.rep, value);
    }

    /// Queues a deletion.
    pub fn delete(&mut self, key: &[u8]) {
        self.begin_op(ValueType::Deletion, key, 0);
    }

    /// Appends every operation of `other` after the existing ones (the
    /// group-commit leader's coalescing primitive: follower batches are
    /// folded into the leader's in arrival order).
    pub fn extend(&mut self, other: &WriteBatch) {
        if other.is_empty() {
            return;
        }
        self.add_count(other.len());
        self.rep.extend_from_slice(&other.rep[HEADER..]);
        self.bytes += other.bytes;
    }

    /// Approximate payload bytes (keys + values) queued in this batch,
    /// used against the group-commit byte budget.
    pub fn byte_size(&self) -> u64 {
        self.bytes
    }

    /// Iterates the queued operations in insertion order as
    /// `(type, key, value)` triples, decoded in place. The `nob-store`
    /// front-end uses this to split a batch across shards by key hash.
    pub fn ops(&self) -> impl Iterator<Item = (ValueType, &[u8], &[u8])> + '_ {
        let mut pos = HEADER;
        (0..self.len()).map(move |_| {
            decode_op(&self.rep, &mut pos)
                .expect("a batch holds only entries it encoded or checked")
        })
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        u32::from_le_bytes(self.payload()[8..HEADER].try_into().expect("4 bytes")) as usize
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes all queued operations.
    pub fn clear(&mut self) {
        self.rep.clear();
        self.bytes = 0;
    }

    /// Inserts every operation into `mem`, the first under
    /// [`sequence`](WriteBatch::sequence) and the rest consecutively — the
    /// one loop behind the write path, recovery and repair. Returns the
    /// last sequence used (zero for an empty batch).
    pub(crate) fn insert_into(&self, mem: &mut MemTable) -> SequenceNumber {
        let mut last = 0;
        for (seq, (vt, key, value)) in (self.sequence()..).zip(self.ops()) {
            mem.add(seq, vt, key, value);
            last = seq;
        }
        last
    }

    /// The header, written on first use.
    fn header_mut(&mut self) -> &mut [u8] {
        if self.rep.is_empty() {
            self.rep.resize(HEADER, 0);
        }
        &mut self.rep[..HEADER]
    }

    fn add_count(&mut self, n: usize) {
        let count =
            u32::try_from(self.len() + n).expect("a batch holds fewer than 2^32 operations");
        self.header_mut()[8..].copy_from_slice(&count.to_le_bytes());
    }

    /// Everything of an entry up to and including its key.
    fn begin_op(&mut self, vt: ValueType, key: &[u8], value_len: usize) {
        // One growth at most per operation, and exactly one allocation for
        // a one-entry batch: the header if it is still to come, a type
        // byte, two length varints (five bytes each cover any length under
        // 4 GiB; a longer one just grows the buffer again) and the bytes.
        self.rep.reserve(HEADER + 1 + 5 + key.len() + 5 + value_len);
        self.add_count(1);
        self.rep.push(vt as u8);
        encode_bytes(&mut self.rep, key);
        self.bytes += (key.len() + value_len) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_mixed_batch() {
        let mut batch = WriteBatch::new();
        batch.put(b"k1", b"v1");
        batch.delete(b"k2");
        batch.put(b"", b"empty key ok");
        batch.set_sequence(42);
        let d = WriteBatch::from_payload(batch.payload().to_vec()).unwrap();
        assert_eq!(d.sequence(), 42);
        assert_eq!(d.len(), 3);
        assert_eq!(d.byte_size(), batch.byte_size());
        let ops: Vec<_> = d.ops().collect();
        assert_eq!(ops[0], (ValueType::Value, &b"k1"[..], &b"v1"[..]));
        assert_eq!(ops[1], (ValueType::Deletion, &b"k2"[..], &b""[..]));
        assert_eq!(ops[2], (ValueType::Value, &b""[..], &b"empty key ok"[..]));
    }

    #[test]
    fn truncation_is_corruption() {
        let mut batch = WriteBatch::new();
        batch.put(b"key", b"value");
        let bytes = batch.payload();
        for cut in [0, 5, 12, bytes.len() - 1] {
            assert!(WriteBatch::from_payload(bytes[..cut].to_vec()).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_garbage_is_corruption() {
        let mut batch = WriteBatch::new();
        batch.put(b"k", b"v");
        let mut bytes = batch.payload().to_vec();
        bytes.push(0);
        assert!(WriteBatch::from_payload(bytes).is_err());
    }

    #[test]
    fn an_empty_batch_is_a_bare_header_and_allocates_nothing() {
        let mut batch = WriteBatch::new();
        assert_eq!(batch.payload(), [0; HEADER]);
        assert_eq!((batch.len(), batch.sequence(), batch.byte_size()), (0, 0, 0));
        assert!(batch.ops().next().is_none());
        batch.extend(&WriteBatch::new());
        assert_eq!(batch.rep.capacity(), 0);
        let parsed = WriteBatch::from_payload(batch.payload().to_vec()).unwrap();
        assert!(parsed.is_empty());
        batch.extend(&parsed);
        assert!(batch.is_empty());
    }
}
