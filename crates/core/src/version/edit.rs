//! Version edits: the records appended to the MANIFEST.

use crate::util::{decode_bytes, decode_u64, encode_bytes, encode_u64};
use crate::{DbError, InternalKey, Result};

use super::FileMetaData;

// Record tags (LevelDB-compatible numbering where applicable).
const TAG_LOG_NUMBER: u64 = 2;
const TAG_NEXT_FILE: u64 = 3;
const TAG_LAST_SEQ: u64 = 4;
const TAG_COMPACT_POINTER: u64 = 5;
const TAG_DELETED_FILE: u64 = 6;
const TAG_NEW_FILE: u64 = 7;

/// A delta between two versions, durably logged in the MANIFEST.
///
/// # Examples
///
/// ```
/// use noblsm::version::VersionEdit;
///
/// let mut e = VersionEdit::new();
/// e.set_log_number(9);
/// e.delete_file(1, 42);
/// let bytes = e.encode();
/// let d = VersionEdit::decode(&bytes)?;
/// assert_eq!(d.log_number, Some(9));
/// assert_eq!(d.deleted_files, vec![(1, 42)]);
/// # Ok::<(), noblsm::DbError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VersionEdit {
    /// New WAL number: logs older than this are obsolete.
    pub log_number: Option<u64>,
    /// Next file number to allocate.
    pub(crate) next_file_number: Option<u64>,
    /// Largest sequence number used.
    pub(crate) last_sequence: Option<u64>,
    /// Per-level compaction cursors.
    pub(crate) compact_pointers: Vec<(usize, InternalKey)>,
    /// Files removed: `(level, table number)`.
    pub deleted_files: Vec<(usize, u64)>,
    /// Files added: `(level, metadata)`.
    pub(crate) new_files: Vec<(usize, FileMetaData)>,
}

impl VersionEdit {
    /// Creates an empty edit.
    pub fn new() -> Self {
        VersionEdit::default()
    }

    /// Sets the current WAL number.
    pub fn set_log_number(&mut self, n: u64) {
        self.log_number = Some(n);
    }

    /// Sets the next-file counter.
    pub(crate) fn set_next_file_number(&mut self, n: u64) {
        self.next_file_number = Some(n);
    }

    /// Sets the last sequence number.
    pub(crate) fn set_last_sequence(&mut self, s: u64) {
        self.last_sequence = Some(s);
    }

    /// Records a compaction cursor for `level`.
    pub(crate) fn set_compact_pointer(&mut self, level: usize, key: InternalKey) {
        self.compact_pointers.push((level, key));
    }

    /// Removes table `number` from `level`.
    pub fn delete_file(&mut self, level: usize, number: u64) {
        self.deleted_files.push((level, number));
    }

    /// Adds a table to `level`.
    pub(crate) fn add_file(&mut self, level: usize, meta: FileMetaData) {
        self.new_files.push((level, meta));
    }

    /// Serializes the edit.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        if let Some(n) = self.log_number {
            encode_u64(&mut out, TAG_LOG_NUMBER);
            encode_u64(&mut out, n);
        }
        if let Some(n) = self.next_file_number {
            encode_u64(&mut out, TAG_NEXT_FILE);
            encode_u64(&mut out, n);
        }
        if let Some(n) = self.last_sequence {
            encode_u64(&mut out, TAG_LAST_SEQ);
            encode_u64(&mut out, n);
        }
        for (level, key) in &self.compact_pointers {
            encode_u64(&mut out, TAG_COMPACT_POINTER);
            encode_u64(&mut out, *level as u64);
            encode_bytes(&mut out, key.as_bytes());
        }
        for (level, number) in &self.deleted_files {
            encode_u64(&mut out, TAG_DELETED_FILE);
            encode_u64(&mut out, *level as u64);
            encode_u64(&mut out, *number);
        }
        for (level, f) in &self.new_files {
            encode_u64(&mut out, TAG_NEW_FILE);
            encode_u64(&mut out, *level as u64);
            encode_u64(&mut out, f.number);
            encode_u64(&mut out, f.physical);
            encode_u64(&mut out, f.offset);
            encode_u64(&mut out, f.size);
            encode_u64(&mut out, u64::from(f.hot));
            encode_bytes(&mut out, f.smallest.as_bytes());
            encode_bytes(&mut out, f.largest.as_bytes());
        }
        out
    }

    /// Deserializes an edit.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Corruption`] on malformed input.
    pub fn decode(data: &[u8]) -> Result<VersionEdit> {
        let corrupt = || DbError::Corruption("truncated version edit".into());
        let mut edit = VersionEdit::new();
        let mut pos = 0;
        while pos < data.len() {
            let tag = decode_u64(data, &mut pos).ok_or_else(corrupt)?;
            match tag {
                TAG_LOG_NUMBER => {
                    edit.log_number = Some(decode_u64(data, &mut pos).ok_or_else(corrupt)?);
                }
                TAG_NEXT_FILE => {
                    edit.next_file_number = Some(decode_u64(data, &mut pos).ok_or_else(corrupt)?);
                }
                TAG_LAST_SEQ => {
                    edit.last_sequence = Some(decode_u64(data, &mut pos).ok_or_else(corrupt)?);
                }
                TAG_COMPACT_POINTER => {
                    let level = decode_u64(data, &mut pos).ok_or_else(corrupt)? as usize;
                    let key = decode_bytes(data, &mut pos).ok_or_else(corrupt)?;
                    if key.len() < 8 {
                        return Err(corrupt());
                    }
                    edit.compact_pointers.push((level, InternalKey::from_encoded(key)));
                }
                TAG_DELETED_FILE => {
                    let level = decode_u64(data, &mut pos).ok_or_else(corrupt)? as usize;
                    let number = decode_u64(data, &mut pos).ok_or_else(corrupt)?;
                    edit.deleted_files.push((level, number));
                }
                TAG_NEW_FILE => {
                    let level = decode_u64(data, &mut pos).ok_or_else(corrupt)? as usize;
                    let number = decode_u64(data, &mut pos).ok_or_else(corrupt)?;
                    let physical = decode_u64(data, &mut pos).ok_or_else(corrupt)?;
                    let offset = decode_u64(data, &mut pos).ok_or_else(corrupt)?;
                    let size = decode_u64(data, &mut pos).ok_or_else(corrupt)?;
                    let hot = decode_u64(data, &mut pos).ok_or_else(corrupt)? != 0;
                    let smallest = decode_bytes(data, &mut pos).ok_or_else(corrupt)?;
                    let largest = decode_bytes(data, &mut pos).ok_or_else(corrupt)?;
                    if smallest.len() < 8 || largest.len() < 8 {
                        return Err(corrupt());
                    }
                    let mut meta = FileMetaData::new(
                        number,
                        physical,
                        offset,
                        size,
                        InternalKey::from_encoded(smallest),
                        InternalKey::from_encoded(largest),
                    );
                    meta.hot = hot;
                    edit.new_files.push((level, meta));
                }
                _ => return Err(DbError::Corruption(format!("unknown edit tag {tag}"))),
            }
        }
        Ok(edit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ValueType;

    fn meta(n: u64) -> FileMetaData {
        FileMetaData::new(
            n,
            n,
            0,
            1234,
            InternalKey::new(b"aaa", 9, ValueType::Value),
            InternalKey::new(b"zzz", 2, ValueType::Value),
        )
    }

    #[test]
    fn full_round_trip() {
        let mut e = VersionEdit::new();
        e.set_log_number(12);
        e.set_next_file_number(99);
        e.set_last_sequence(123_456);
        e.set_compact_pointer(2, InternalKey::new(b"ptr", 1, ValueType::Value));
        e.delete_file(1, 7);
        e.delete_file(2, 8);
        e.add_file(2, meta(100));
        let d = VersionEdit::decode(&e.encode()).unwrap();
        assert_eq!(d, e);
    }

    #[test]
    fn empty_edit_round_trips() {
        let e = VersionEdit::new();
        assert_eq!(VersionEdit::decode(&e.encode()).unwrap(), e);
    }

    #[test]
    fn truncated_input_is_corruption() {
        let mut e = VersionEdit::new();
        e.add_file(0, meta(1));
        let mut bytes = e.encode();
        bytes.truncate(bytes.len() - 3);
        assert!(matches!(VersionEdit::decode(&bytes), Err(DbError::Corruption(_))));
    }

    #[test]
    fn unknown_tag_is_corruption() {
        let mut bytes = Vec::new();
        crate::util::encode_u64(&mut bytes, 99);
        assert!(matches!(VersionEdit::decode(&bytes), Err(DbError::Corruption(_))));
    }
}
