//! Small utilities shared across the engine: CRC32C and varints. Only
//! the checksum is public.

mod crc32c;
pub(crate) mod varint;

pub use crc32c::crc32c;
pub(crate) use crc32c::{crc32c_extend, crc32c_mask};
pub(crate) use crc32c::{crc32c_masked, crc32c_unmask};
pub(crate) use varint::{
    decode_bytes, decode_u32, decode_u64, encode_bytes, encode_u32, encode_u64,
};
