//! LEB128-style varint encoding (LevelDB's on-disk integer format).

/// Appends `v` to `out` as a varint (1–5 bytes).
pub(crate) fn encode_u32(out: &mut Vec<u8>, v: u32) {
    encode_u64(out, v as u64);
}

/// The longest varint: ten groups of seven bits cover a `u64`.
pub(crate) const MAX_VARINT_LEN: usize = 10;

/// Appends `v` to `out` as a varint (1–10 bytes).
pub(crate) fn encode_u64(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// [`encode_u64`] into a caller's buffer, for encoding on the stack:
/// writes the varint at the start of `out` and returns its length.
///
/// # Panics
///
/// Panics if `out` is too short ([`MAX_VARINT_LEN`] bytes always suffice).
pub(crate) fn write_u64(out: &mut [u8], mut v: u64) -> usize {
    let mut len = 0;
    while v >= 0x80 {
        out[len] = (v as u8 & 0x7f) | 0x80;
        len += 1;
        v >>= 7;
    }
    out[len] = v as u8;
    len + 1
}

/// Decodes a varint `u64` from `data[*pos..]`, advancing `pos`.
///
/// Returns `None` on truncated or overlong input.
pub(crate) fn decode_u64(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut result: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &b = data.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        result |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Some(result);
        }
        shift += 7;
    }
}

/// Decodes a varint `u32` from `data[*pos..]`, advancing `pos`.
///
/// Returns `None` on truncated input or values exceeding `u32`.
pub(crate) fn decode_u32(data: &[u8], pos: &mut usize) -> Option<u32> {
    let v = decode_u64(data, pos)?;
    u32::try_from(v).ok()
}

/// Appends a length-prefixed byte string.
pub(crate) fn encode_bytes(out: &mut Vec<u8>, data: &[u8]) {
    encode_u64(out, data.len() as u64);
    out.extend_from_slice(data);
}

/// Decodes a length-prefixed byte string, advancing `pos`.
pub(crate) fn decode_bytes<'a>(data: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let len = decode_u64(data, pos)? as usize;
    let end = pos.checked_add(len)?;
    if end > data.len() {
        return None;
    }
    let s = &data[*pos..end];
    *pos = end;
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_u64_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            encode_u64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(decode_u64(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn truncated_input_is_none() {
        let mut buf = Vec::new();
        encode_u64(&mut buf, 1_000_000);
        buf.pop();
        let mut pos = 0;
        assert_eq!(decode_u64(&buf, &mut pos), None);
    }

    #[test]
    fn u32_rejects_large_values() {
        let mut buf = Vec::new();
        encode_u64(&mut buf, u32::MAX as u64 + 1);
        let mut pos = 0;
        assert_eq!(decode_u32(&buf, &mut pos), None);
    }

    #[test]
    fn bytes_round_trip_and_reject_truncation() {
        let mut buf = Vec::new();
        encode_bytes(&mut buf, b"hello");
        encode_bytes(&mut buf, b"");
        let mut pos = 0;
        assert_eq!(decode_bytes(&buf, &mut pos), Some(&b"hello"[..]));
        assert_eq!(decode_bytes(&buf, &mut pos), Some(&b""[..]));
        assert_eq!(pos, buf.len());

        let mut bad = Vec::new();
        encode_u64(&mut bad, 10);
        bad.extend_from_slice(b"abc"); // claims 10, has 3
        let mut pos = 0;
        assert_eq!(decode_bytes(&bad, &mut pos), None);
    }

    #[test]
    fn multibyte_encoding_sizes() {
        let mut buf = Vec::new();
        encode_u64(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        buf.clear();
        encode_u64(&mut buf, 128);
        assert_eq!(buf.len(), 2);
        buf.clear();
        encode_u64(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
    }
}
