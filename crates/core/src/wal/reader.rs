//! Log record decoder.

use crate::util::{crc32c, crc32c_extend, crc32c_unmask};

use super::{RecordType, BLOCK_SIZE, HEADER_SIZE};

/// Decodes records from a log file's bytes.
///
/// Truncated or corrupt tails terminate iteration cleanly;
/// [`corruption_detected`](LogReader::corruption_detected) distinguishes a
/// checksum failure from a plain truncation.
#[derive(Debug)]
pub struct LogReader {
    data: Vec<u8>,
    pos: usize,
    corruption: bool,
}

impl LogReader {
    /// Creates a reader over a full log file's contents.
    pub fn new(data: Vec<u8>) -> Self {
        LogReader { data, pos: 0, corruption: false }
    }

    /// Whether a checksum mismatch (not mere truncation) was encountered.
    pub fn corruption_detected(&self) -> bool {
        self.corruption
    }

    /// Bytes of the log consumed by successfully decoded fragments; the
    /// remainder (`data.len() - bytes_consumed()`) was dropped as a torn
    /// tail or damaged records.
    pub(crate) fn bytes_consumed(&self) -> u64 {
        self.pos.min(self.data.len()) as u64
    }

    /// Total bytes the reader was given.
    pub(crate) fn bytes_total(&self) -> u64 {
        self.data.len() as u64
    }

    /// Reads the next logical record, reassembling fragments.
    ///
    /// Returns `None` at end of log, on a torn tail, or after corruption.
    pub fn next_record(&mut self) -> Option<Vec<u8>> {
        let mut assembled: Option<Vec<u8>> = None;
        loop {
            let (rt, frag) = self.next_fragment()?;
            match (rt, assembled.as_mut()) {
                (RecordType::Full, None) => return Some(frag),
                (RecordType::First, None) => assembled = Some(frag),
                (RecordType::Middle, Some(buf)) => buf.extend_from_slice(&frag),
                (RecordType::Last, Some(buf)) => {
                    buf.extend_from_slice(&frag);
                    return assembled;
                }
                // Out-of-sequence fragment: treat as corruption (LevelDB
                // reports and resyncs; our logs are single-writer so this
                // only happens on real corruption).
                _ => {
                    self.corruption = true;
                    return None;
                }
            }
        }
    }

    fn next_fragment(&mut self) -> Option<(RecordType, Vec<u8>)> {
        if self.corruption {
            return None;
        }
        loop {
            let block_left = BLOCK_SIZE - (self.pos % BLOCK_SIZE);
            if block_left < HEADER_SIZE {
                // Zero-padded block tail.
                self.pos += block_left;
                continue;
            }
            if self.pos + HEADER_SIZE > self.data.len() {
                return None; // truncated tail
            }
            let h = &self.data[self.pos..self.pos + HEADER_SIZE];
            let stored_crc = u32::from_le_bytes(h[0..4].try_into().expect("4 bytes"));
            let len = u16::from_le_bytes(h[4..6].try_into().expect("2 bytes")) as usize;
            let type_byte = h[6];
            if stored_crc == 0 && len == 0 && type_byte == 0 {
                // Reading into zero padding; skip to the next block.
                self.pos += block_left;
                if self.pos >= self.data.len() {
                    return None;
                }
                continue;
            }
            let Some(rt) = RecordType::from_u8(type_byte) else {
                self.corruption = true;
                return None;
            };
            let start = self.pos + HEADER_SIZE;
            if start + len > self.data.len() {
                return None; // torn fragment
            }
            let frag = &self.data[start..start + len];
            if crc32c_extend(crc32c(&[type_byte]), frag) != crc32c_unmask(stored_crc) {
                self.corruption = true;
                return None;
            }
            self.pos = start + len;
            return Some((rt, frag.to_vec()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::LogWriter;

    #[test]
    fn empty_log_yields_nothing() {
        let mut r = LogReader::new(Vec::new());
        assert!(r.next_record().is_none());
        assert!(!r.corruption_detected());
    }

    #[test]
    fn zero_padding_is_skipped_silently() {
        let mut w = LogWriter::new();
        let mut file = w.encode_record(&vec![1u8; BLOCK_SIZE - HEADER_SIZE - 3]);
        // The writer will pad 3 bytes before the next record.
        file.extend_from_slice(&w.encode_record(b"after-pad"));
        let mut r = LogReader::new(file);
        r.next_record().unwrap();
        assert_eq!(r.next_record().unwrap(), b"after-pad");
    }

    #[test]
    fn bad_type_byte_is_corruption() {
        let mut w = LogWriter::new();
        let mut file = w.encode_record(b"x");
        file[6] = 99;
        let mut r = LogReader::new(file);
        assert!(r.next_record().is_none());
        assert!(r.corruption_detected());
    }

    #[test]
    fn lone_middle_fragment_is_corruption() {
        // Construct FIRST+LAST then truncate FIRST away by corrupting it:
        // simplest: hand-build a MIDDLE fragment.
        let mut w = LogWriter::new();
        let big = vec![3u8; BLOCK_SIZE * 2];
        let bytes = w.encode_record(&big);
        // Drop the first block so the reader starts at a MIDDLE fragment.
        let tail = bytes[BLOCK_SIZE..].to_vec();
        let mut r = LogReader::new(tail);
        assert!(r.next_record().is_none());
        assert!(r.corruption_detected());
    }
}
