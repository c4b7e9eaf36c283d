//! WAL replay: a log image's batches, front to back.
//!
//! [`ReplayCursor`] wraps a [`LogReader`] and the batch check behind one
//! iterator, so recovery and repair share the rule for where a log's
//! replayable part ends and why.
//!
//! Like the rest of this module it is pure (bytes in, batches out): the
//! engine's recovery and repair paths drive it over a WAL file image.

use crate::db::WriteBatch;
use crate::wal::LogReader;

/// An iterator over a WAL image's batches.
///
/// A torn tail is a clean end of iteration (as in recovery); a CRC-valid
/// record whose payload is not a batch stops iteration too, and the
/// cursor remembers why.
///
/// # Examples
///
/// ```
/// use noblsm::wal::{LogWriter, ReplayCursor};
/// use noblsm::WriteBatch;
///
/// let mut w = LogWriter::new();
/// let mut file = Vec::new();
/// let mut batch = WriteBatch::new();
/// batch.put(b"a", b"1");
/// batch.put(b"b", b"2");
/// batch.set_sequence(1);
/// file.extend_from_slice(&w.encode_record(batch.payload()));
/// batch.clear();
/// batch.delete(b"a");
/// batch.set_sequence(3);
/// file.extend_from_slice(&w.encode_record(batch.payload()));
///
/// let mut cursor = ReplayCursor::new(file);
/// let first = cursor.next_batch().unwrap();
/// assert_eq!((first.sequence(), first.len()), (1, 2));
/// assert_eq!(cursor.next_batch().unwrap().sequence(), 3);
/// assert!(cursor.next_batch().is_none());
/// ```
pub struct ReplayCursor {
    reader: LogReader,
    payload_corrupt: bool,
    records_replayed: u64,
}

impl ReplayCursor {
    /// A cursor over the whole log.
    pub fn new(data: Vec<u8>) -> ReplayCursor {
        ReplayCursor { reader: LogReader::new(data), payload_corrupt: false, records_replayed: 0 }
    }

    /// The next batch, or `None` at the end of the replayable log (torn
    /// tail, corruption, or genuine EOF).
    pub fn next_batch(&mut self) -> Option<WriteBatch> {
        let record = self.reader.next_record()?;
        match WriteBatch::from_payload(record) {
            Ok(batch) => {
                self.records_replayed += 1;
                Some(batch)
            }
            // A CRC-valid record that is not a batch is real corruption,
            // not a torn tail (tearing is caught by the record checksum).
            Err(_) => {
                self.payload_corrupt = true;
                None
            }
        }
    }

    /// Whether a CRC-valid record failed to decode as a batch.
    pub(crate) fn payload_corruption_detected(&self) -> bool {
        self.payload_corrupt
    }

    /// Whether the underlying reader hit a checksum mismatch.
    pub(crate) fn record_corruption_detected(&self) -> bool {
        self.reader.corruption_detected()
    }

    /// Bytes at the tail that could not be replayed (torn or corrupt).
    pub(crate) fn bytes_dropped(&self) -> u64 {
        self.reader.bytes_total() - self.reader.bytes_consumed()
    }

    /// Batches yielded so far.
    pub(crate) fn records_replayed(&self) -> u64 {
        self.records_replayed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::LogWriter;

    /// The record of the batch `fill` builds, stamped to start at `seq`.
    fn record(w: &mut LogWriter, seq: u64, fill: impl FnOnce(&mut WriteBatch)) -> Vec<u8> {
        let mut batch = WriteBatch::new();
        fill(&mut batch);
        batch.set_sequence(seq);
        w.encode_record(batch.payload())
    }

    /// Three batches: seqs 1-2, 3-5, 6.
    fn sample_log() -> Vec<u8> {
        let mut w = LogWriter::new();
        let mut file = record(&mut w, 1, |b| {
            b.put(b"a", b"1");
            b.put(b"b", b"2");
        });
        file.extend(record(&mut w, 3, |b| {
            b.put(b"c", b"3");
            b.delete(b"a");
            b.put(b"d", b"5");
        }));
        file.extend(record(&mut w, 6, |b| b.put(b"e", b"6")));
        file
    }

    #[test]
    fn full_replay_yields_every_batch() {
        let mut c = ReplayCursor::new(sample_log());
        let seqs: Vec<(u64, usize)> =
            std::iter::from_fn(|| c.next_batch().map(|b| (b.sequence(), b.len()))).collect();
        assert_eq!(seqs, vec![(1, 2), (3, 3), (6, 1)]);
        assert_eq!(c.records_replayed(), 3);
        assert!(!c.payload_corruption_detected() && !c.record_corruption_detected());
    }

    #[test]
    fn past_end_cursor_is_empty_and_clean() {
        let mut c = ReplayCursor::new(sample_log());
        while c.next_batch().is_some() {}
        assert!(c.next_batch().is_none(), "the end of the log stays the end");
        assert_eq!(c.records_replayed(), 3);
        assert_eq!(c.bytes_dropped(), 0);
        assert!(!c.payload_corruption_detected() && !c.record_corruption_detected());
    }

    #[test]
    fn torn_tail_is_clean_eof_for_the_cursor() {
        let mut w = LogWriter::new();
        let mut file = record(&mut w, 1, |b| b.put(b"a", b"1"));
        let second = record(&mut w, 2, |b| b.put(b"b", b"2"));
        // A crash mid-append: only half the second record hit disk.
        file.extend_from_slice(&second[..second.len() / 2]);
        let mut c = ReplayCursor::new(file);
        assert_eq!(c.next_batch().unwrap().sequence(), 1);
        assert!(c.next_batch().is_none());
        assert!(!c.payload_corruption_detected(), "a torn tail is not corruption");
        assert!(c.bytes_dropped() > 0);
    }

    #[test]
    fn undecodable_payload_stops_with_corruption_flag() {
        let mut w = LogWriter::new();
        let mut file = record(&mut w, 1, |b| b.put(b"a", b"1"));
        // A CRC-valid record that is not a batch.
        file.extend_from_slice(&w.encode_record(b"not a batch"));
        let mut c = ReplayCursor::new(file);
        assert_eq!(c.next_batch().unwrap().sequence(), 1);
        assert!(c.next_batch().is_none());
        assert!(c.payload_corruption_detected());
    }
}
