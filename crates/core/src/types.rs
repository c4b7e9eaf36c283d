//! Key encodings and sequence numbers.
//!
//! The engine uses LevelDB's internal-key scheme: a user key followed by an
//! 8-byte trailer packing `(sequence << 8) | value_type`. Internal keys
//! order by user key ascending, then sequence *descending* (newer first),
//! then type descending.

use std::cmp::Ordering;
use std::fmt;

/// A monotonically increasing sequence number assigned to every write.
pub(crate) type SequenceNumber = u64;

/// The largest valid sequence number (56 bits, as in LevelDB).
pub(crate) const MAX_SEQUENCE: SequenceNumber = (1 << 56) - 1;

/// Whether an entry is a value or a tombstone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ValueType {
    /// A deletion marker.
    Deletion = 0,
    /// A stored value.
    Value = 1,
}

impl ValueType {
    /// Decodes the low trailer byte.
    pub(crate) fn from_u8(b: u8) -> Option<ValueType> {
        match b {
            0 => Some(ValueType::Deletion),
            1 => Some(ValueType::Value),
            _ => None,
        }
    }
}

/// An owned internal key: `user_key ++ fixed64(seq << 8 | type)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InternalKey(Vec<u8>);

impl InternalKey {
    /// Builds an internal key from parts.
    pub fn new(user_key: &[u8], seq: SequenceNumber, vt: ValueType) -> Self {
        let mut buf = Vec::with_capacity(user_key.len() + 8);
        buf.extend_from_slice(user_key);
        buf.extend_from_slice(&pack_trailer(seq, vt).to_le_bytes());
        InternalKey(buf)
    }

    /// Wraps an already-encoded internal key.
    ///
    /// # Panics
    ///
    /// Panics if `encoded` is shorter than the 8-byte trailer.
    pub(crate) fn from_encoded(encoded: &[u8]) -> Self {
        assert!(encoded.len() >= 8, "internal key must include an 8-byte trailer");
        InternalKey(encoded.to_vec())
    }

    /// The encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// The user-key prefix.
    pub fn user_key(&self) -> &[u8] {
        user_key(&self.0)
    }

    /// The sequence number in the trailer.
    pub(crate) fn sequence(&self) -> SequenceNumber {
        trailer(&self.0) >> 8
    }

    /// The value type in the trailer.
    pub(crate) fn value_type(&self) -> ValueType {
        ValueType::from_u8((trailer(&self.0) & 0xff) as u8).expect("valid trailer")
    }
}

impl fmt::Display for InternalKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?}@{}:{:?}",
            String::from_utf8_lossy(self.user_key()),
            self.sequence(),
            self.value_type()
        )
    }
}

pub(crate) fn pack_trailer(seq: SequenceNumber, vt: ValueType) -> u64 {
    debug_assert!(seq <= MAX_SEQUENCE);
    (seq << 8) | vt as u64
}

/// The user-key prefix of an encoded internal key.
///
/// # Panics
///
/// Panics if `ikey` is shorter than 8 bytes.
pub(crate) fn user_key(ikey: &[u8]) -> &[u8] {
    assert!(ikey.len() >= 8, "internal key too short");
    &ikey[..ikey.len() - 8]
}

/// The trailer word of an encoded internal key.
fn trailer(ikey: &[u8]) -> u64 {
    let tail: [u8; 8] = ikey[ikey.len() - 8..].try_into().expect("length checked");
    u64::from_le_bytes(tail)
}

/// The sequence number of an encoded internal key.
pub(crate) fn sequence_of(ikey: &[u8]) -> SequenceNumber {
    trailer(ikey) >> 8
}

/// The value type of an encoded internal key, if valid.
pub(crate) fn value_type_of(ikey: &[u8]) -> Option<ValueType> {
    ValueType::from_u8((trailer(ikey) & 0xff) as u8)
}

/// Compares two encoded internal keys: user key ascending, then sequence
/// descending, then type descending (LevelDB's `InternalKeyComparator`).
pub(crate) fn compare_internal(a: &[u8], b: &[u8]) -> Ordering {
    compare_internal_to_parts(a, user_key(b), trailer(b))
}

/// [`compare_internal`] against the key `b_user_key ++ b_trailer`, for a
/// caller that has the two parts and no reason to join them.
pub(crate) fn compare_internal_to_parts(a: &[u8], b_user_key: &[u8], b_trailer: u64) -> Ordering {
    match user_key(a).cmp(b_user_key) {
        Ordering::Equal => b_trailer.cmp(&trailer(a)),
        ord => ord,
    }
}

/// Builds the lookup key for a `Get` at a snapshot in `buf`, replacing
/// what it held: the internal key that sorts *before* every entry of
/// `user_key` newer than `seq` and *at or after* the newest visible entry.
/// Readers keep one buffer and look up through it again and again.
pub(crate) fn lookup_key(buf: &mut Vec<u8>, user_key: &[u8], seq: SequenceNumber) {
    buf.clear();
    buf.reserve(user_key.len() + 8);
    buf.extend_from_slice(user_key);
    buf.extend_from_slice(&pack_trailer(seq, ValueType::Value).to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_parts() {
        let k = InternalKey::new(b"user", 42, ValueType::Value);
        assert_eq!(k.user_key(), b"user");
        assert_eq!(k.sequence(), 42);
        assert_eq!(k.value_type(), ValueType::Value);
        let k2 = InternalKey::from_encoded(k.as_bytes());
        assert_eq!(k, k2);
    }

    #[test]
    fn ordering_user_key_ascending() {
        let a = InternalKey::new(b"a", 5, ValueType::Value);
        let b = InternalKey::new(b"b", 5, ValueType::Value);
        assert_eq!(compare_internal(a.as_bytes(), b.as_bytes()), Ordering::Less);
    }

    #[test]
    fn ordering_sequence_descending_within_user_key() {
        let newer = InternalKey::new(b"k", 10, ValueType::Value);
        let older = InternalKey::new(b"k", 5, ValueType::Value);
        assert_eq!(compare_internal(newer.as_bytes(), older.as_bytes()), Ordering::Less);
    }

    #[test]
    fn deletion_sorts_after_value_at_same_seq() {
        // type descending: Value (1) sorts before Deletion (0).
        let val = InternalKey::new(b"k", 7, ValueType::Value);
        let del = InternalKey::new(b"k", 7, ValueType::Deletion);
        assert_eq!(compare_internal(val.as_bytes(), del.as_bytes()), Ordering::Less);
    }

    #[test]
    fn lookup_key_sees_only_visible_entries() {
        // Entries at seq 5 and 15; a lookup at snapshot 10 must land at or
        // before the seq-5 entry and after the seq-15 entry.
        let e5 = InternalKey::new(b"k", 5, ValueType::Value);
        let e15 = InternalKey::new(b"k", 15, ValueType::Value);
        let mut probe = b"left over from the last lookup".to_vec();
        lookup_key(&mut probe, b"k", 10);
        assert_eq!(compare_internal(e15.as_bytes(), &probe), Ordering::Less);
        assert!(compare_internal(&probe, e5.as_bytes()) != Ordering::Greater);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn short_key_panics() {
        let _ = user_key(b"short");
    }

    #[test]
    fn display_is_informative() {
        let k = InternalKey::new(b"key", 3, ValueType::Deletion);
        let s = k.to_string();
        assert!(s.contains("key") && s.contains('3'), "{s}");
    }
}
