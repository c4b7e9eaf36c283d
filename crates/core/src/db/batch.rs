//! Write-batch encoding: the payload of one WAL record.
//!
//! Layout: `seq (8 LE) ++ count (4 LE) ++ entries`, each entry being
//! `type (1) ++ varint keylen ++ key [++ varint valuelen ++ value]`.
//!
//! The codec is public: this exact byte layout is also the unit of WAL
//! shipping in `nob-repl` — a leader re-encodes each committed group with
//! its assigned first sequence and ships it verbatim, and a follower
//! decodes it with [`decode_batch`] before applying. Keeping one format
//! for recovery and replication is what lets a promoted follower's log
//! line up bit-for-bit with the leader's.

use crate::util::{decode_bytes, encode_bytes};
use crate::{DbError, Result, SequenceNumber, ValueType};

/// Encodes a batch of writes starting at sequence `seq`.
pub fn encode_batch(seq: SequenceNumber, entries: &[(ValueType, &[u8], &[u8])]) -> Vec<u8> {
    // One allocation in place of a run of doublings: header, then per entry
    // a type byte, two length varints (five bytes each cover any length
    // under 4 GiB; a longer one just grows the buffer) and the bytes.
    let body: usize = entries.iter().map(|(_, k, v)| 1 + 5 + k.len() + 5 + v.len()).sum();
    let mut out = Vec::with_capacity(12 + body);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (vt, key, value) in entries {
        out.push(*vt as u8);
        encode_bytes(&mut out, key);
        if *vt == ValueType::Value {
            encode_bytes(&mut out, value);
        }
    }
    out
}

/// A decoded WAL batch: the first sequence number and the entries, each
/// carrying consecutive sequences from [`DecodedBatch::seq`] upward.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedBatch {
    /// Sequence number of the first entry.
    pub seq: SequenceNumber,
    /// The entries in write order (deletions carry an empty value).
    pub entries: Vec<(ValueType, Vec<u8>, Vec<u8>)>,
}

/// Decodes a WAL batch payload.
///
/// # Errors
///
/// Returns [`DbError::Corruption`] on malformed input.
pub fn decode_batch(data: &[u8]) -> Result<DecodedBatch> {
    let corrupt = || DbError::Corruption("malformed write batch".into());
    if data.len() < 12 {
        return Err(corrupt());
    }
    let seq = u64::from_le_bytes(data[0..8].try_into().expect("8 bytes"));
    let count = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes")) as usize;
    let mut pos = 12;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let vt = ValueType::from_u8(*data.get(pos).ok_or_else(corrupt)?).ok_or_else(corrupt)?;
        pos += 1;
        let key = decode_bytes(data, &mut pos).ok_or_else(corrupt)?.to_vec();
        let value = if vt == ValueType::Value {
            decode_bytes(data, &mut pos).ok_or_else(corrupt)?.to_vec()
        } else {
            Vec::new()
        };
        entries.push((vt, key, value));
    }
    if pos != data.len() {
        return Err(corrupt());
    }
    Ok(DecodedBatch { seq, entries })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_mixed_batch() {
        let entries: Vec<(ValueType, &[u8], &[u8])> = vec![
            (ValueType::Value, b"k1", b"v1"),
            (ValueType::Deletion, b"k2", b""),
            (ValueType::Value, b"", b"empty key ok"),
        ];
        let bytes = encode_batch(42, &entries);
        let d = decode_batch(&bytes).unwrap();
        assert_eq!(d.seq, 42);
        assert_eq!(d.entries.len(), 3);
        assert_eq!(d.entries[0], (ValueType::Value, b"k1".to_vec(), b"v1".to_vec()));
        assert_eq!(d.entries[1], (ValueType::Deletion, b"k2".to_vec(), Vec::new()));
    }

    #[test]
    fn truncation_is_corruption() {
        let bytes = encode_batch(1, &[(ValueType::Value, b"key", b"value")]);
        for cut in [0, 5, 12, bytes.len() - 1] {
            assert!(decode_batch(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn trailing_garbage_is_corruption() {
        let mut bytes = encode_batch(1, &[(ValueType::Value, b"k", b"v")]);
        bytes.push(0);
        assert!(decode_batch(&bytes).is_err());
    }
}
