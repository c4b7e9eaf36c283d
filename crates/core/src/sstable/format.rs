//! Block handles and the table footer.

use crate::util::decode_u64;
use crate::util::varint::{write_u64, MAX_VARINT_LEN};
use crate::{DbError, Result};

/// Magic number terminating every table (shared with no real format).
pub const TABLE_MAGIC: u64 = 0x4e6f_624c_534d_2276; // "NobLSM"v

/// Fixed footer size: two max-length varint handles (2×20) + magic (8).
pub const FOOTER_SIZE: usize = 48;

/// The location of a block within a table: `offset` from the start of the
/// *logical* table, `size` excluding the 5-byte trailer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockHandle {
    /// Byte offset of the block.
    pub(crate) offset: u64,
    /// Payload size in bytes (trailer excluded).
    pub(crate) size: u64,
}

impl BlockHandle {
    /// Creates a handle.
    pub fn new(offset: u64, size: u64) -> Self {
        BlockHandle { offset, size }
    }

    /// Appends the varint encoding.
    pub(crate) fn encode_to(&self, out: &mut Vec<u8>) {
        let (bytes, len) = self.encoded();
        out.extend_from_slice(&bytes[..len]);
    }

    /// The varint encoding on the stack and its length: the index entry
    /// written for every data block.
    pub(crate) fn encoded(&self) -> ([u8; 2 * MAX_VARINT_LEN], usize) {
        let mut bytes = [0u8; 2 * MAX_VARINT_LEN];
        let len = write_u64(&mut bytes, self.offset);
        let len = len + write_u64(&mut bytes[len..], self.size);
        (bytes, len)
    }

    /// Decodes a handle, advancing `pos`.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Corruption`] on truncated input.
    pub(crate) fn decode_from(data: &[u8], pos: &mut usize) -> Result<BlockHandle> {
        let offset = decode_u64(data, pos)
            .ok_or_else(|| DbError::Corruption("truncated block handle".into()))?;
        let size = decode_u64(data, pos)
            .ok_or_else(|| DbError::Corruption("truncated block handle".into()))?;
        Ok(BlockHandle { offset, size })
    }
}

/// The fixed-size table footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footer {
    /// Handle of the bloom-filter area (size 0 when no filter).
    pub filter: BlockHandle,
    /// Handle of the index block.
    pub index: BlockHandle,
}

impl Footer {
    /// Encodes the footer into exactly [`FOOTER_SIZE`] bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FOOTER_SIZE);
        self.filter.encode_to(&mut out);
        self.index.encode_to(&mut out);
        out.resize(FOOTER_SIZE - 8, 0);
        out.extend_from_slice(&TABLE_MAGIC.to_le_bytes());
        out
    }

    /// Decodes a footer from its fixed-size tail bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Corruption`] if the magic or handles are invalid.
    pub fn decode(data: &[u8]) -> Result<Footer> {
        if data.len() != FOOTER_SIZE {
            return Err(DbError::Corruption(format!(
                "footer must be {FOOTER_SIZE} bytes, got {}",
                data.len()
            )));
        }
        let magic = u64::from_le_bytes(data[FOOTER_SIZE - 8..].try_into().expect("8 bytes"));
        if magic != TABLE_MAGIC {
            return Err(DbError::Corruption("bad table magic".into()));
        }
        let mut pos = 0;
        let filter = BlockHandle::decode_from(data, &mut pos)?;
        let index = BlockHandle::decode_from(data, &mut pos)?;
        Ok(Footer { filter, index })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_round_trip() {
        let h = BlockHandle::new(123_456_789, 4096);
        let mut buf = Vec::new();
        h.encode_to(&mut buf);
        let mut pos = 0;
        assert_eq!(BlockHandle::decode_from(&buf, &mut pos).unwrap(), h);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn stack_encoding_is_the_varint_pair() {
        for (offset, size) in [(0, 0), (127, 128), (123_456_789, 4096), (u64::MAX, u64::MAX)] {
            let mut want = Vec::new();
            crate::util::encode_u64(&mut want, offset);
            crate::util::encode_u64(&mut want, size);
            let (bytes, len) = BlockHandle::new(offset, size).encoded();
            assert_eq!(&bytes[..len], want.as_slice());
        }
    }

    #[test]
    fn footer_round_trip() {
        let f = Footer { filter: BlockHandle::new(1000, 200), index: BlockHandle::new(1205, 333) };
        let enc = f.encode();
        assert_eq!(enc.len(), FOOTER_SIZE);
        assert_eq!(Footer::decode(&enc).unwrap(), f);
    }

    #[test]
    fn footer_rejects_bad_magic() {
        let f = Footer { filter: BlockHandle::default(), index: BlockHandle::new(0, 10) };
        let mut enc = f.encode();
        enc[FOOTER_SIZE - 1] ^= 1;
        assert!(matches!(Footer::decode(&enc), Err(DbError::Corruption(_))));
    }

    #[test]
    fn footer_rejects_wrong_size() {
        assert!(Footer::decode(&[0u8; 10]).is_err());
    }
}
