//! CRC32C (Castagnoli) with LevelDB's masking scheme.
//!
//! One kernel in two tiers, picked by what the CPU reports on each call:
//! the SSE4.2 `crc32` instruction on x86_64 that has it, and a safe
//! slicing-by-8 table walk everywhere else. Both compute the same
//! function, so nothing stored on disk depends on which tier ran.
//!
//! LevelDB masks CRCs stored alongside data so that computing the CRC of a
//! string that already contains an embedded CRC does not degenerate; the
//! same scheme is reproduced here for the WAL and SSTable block trailers.

const POLY: u32 = 0x82f6_3b78; // reflected 0x1EDC6F41

/// `TABLES[0]` is the classic one-byte table; `TABLES[k][b]` is the CRC
/// state after byte `b` followed by `k` zero bytes, which lets eight
/// input bytes be folded with eight independent lookups.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            j += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Computes the CRC32C of `data`.
///
/// # Examples
///
/// ```
/// // Known-answer test vector from RFC 3720: CRC32C of 32 zero bytes.
/// assert_eq!(noblsm::util::crc32c(&[0u8; 32]), 0x8a91_36aa);
/// ```
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_extend(0, data)
}

/// Extends a running CRC with more data:
/// `crc32c_extend(crc32c(a), b) == crc32c(a ‖ b)`.
pub(crate) fn crc32c_extend(crc: u32, data: &[u8]) -> u32 {
    let state = !crc;
    #[cfg(target_arch = "x86_64")]
    if let Some(state) = hardware(state, data) {
        return !state;
    }
    !slicing_by_8(state, data)
}

/// Hardware tier: one `crc32q` stream over 8-byte words, `crc32b` over
/// the tail. Works on the raw (un-inverted) CRC state; `None` when the
/// CPU lacks SSE4.2. The workspace's only unsafe code lives here.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn hardware(state: u32, data: &[u8]) -> Option<u32> {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

    #[target_feature(enable = "sse4.2")]
    fn sse42(state: u32, data: &[u8]) -> u32 {
        let mut words = data.chunks_exact(8);
        let mut wide = u64::from(state);
        for word in &mut words {
            wide = _mm_crc32_u64(wide, u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        // `crc32q` zero-extends its 32-bit result.
        let mut state = wide as u32;
        for &b in words.remainder() {
            state = _mm_crc32_u8(state, b);
        }
        state
    }

    // One cached atomic load after the first call.
    if !std::arch::is_x86_feature_detected!("sse4.2") {
        return None;
    }
    // SAFETY: `sse42` requires only that the CPU supports SSE4.2, which
    // the `is_x86_feature_detected!("sse4.2")` check just above proved.
    Some(unsafe { sse42(state, data) })
}

/// Portable tier: eight table lookups per 8-byte word, the one-byte
/// table over the tail. Works on the raw (un-inverted) CRC state.
fn slicing_by_8(mut state: u32, data: &[u8]) -> u32 {
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = u32::from_le_bytes(word[..4].try_into().expect("4 bytes")) ^ state;
        let hi = u32::from_le_bytes(word[4..].try_into().expect("4 bytes"));
        state = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        state = TABLES[0][((state ^ u32::from(b)) & 0xff) as usize] ^ (state >> 8);
    }
    state
}

const MASK_DELTA: u32 = 0xa282_ead8;

/// Masks a raw CRC for storage (LevelDB's rotation + delta).
pub(crate) fn crc32c_mask(crc: u32) -> u32 {
    crc.rotate_right(15).wrapping_add(MASK_DELTA)
}

/// Computes the CRC32C of `data`, masked for storage.
pub fn crc32c_masked(data: &[u8]) -> u32 {
    crc32c_mask(crc32c(data))
}

/// Unmasks a stored CRC back to the raw value.
pub fn crc32c_unmask(masked: u32) -> u32 {
    masked.wrapping_sub(MASK_DELTA).rotate_left(15)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop the tiers replaced, kept as their reference.
    fn bytewise(crc: u32, data: &[u8]) -> u32 {
        let mut crc = !crc;
        for &b in data {
            crc = TABLES[0][((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
        }
        !crc
    }

    type Tier = fn(u32, &[u8]) -> u32;

    fn portable(crc: u32, data: &[u8]) -> u32 {
        !slicing_by_8(!crc, data)
    }

    /// The public entry point, then every tier this CPU can run called
    /// directly, so that the portable tier is tested on SSE4.2 hosts too.
    fn tiers() -> Vec<(&'static str, Tier)> {
        let mut tiers: Vec<(&'static str, Tier)> =
            vec![("crc32c_extend", crc32c_extend), ("slicing-by-8", portable)];
        #[cfg(target_arch = "x86_64")]
        if hardware(0, &[]).is_some() {
            tiers.push(("sse4.2", |crc, data| !hardware(!crc, data).expect("checked above")));
        } else {
            eprintln!("skipped: this CPU lacks SSE4.2, hardware tier not tested");
        }
        #[cfg(not(target_arch = "x86_64"))]
        eprintln!("skipped: not x86_64, hardware tier not tested");
        tiers
    }

    /// One step of the workspace's usual LCG; returns the high bits.
    fn lcg(x: &mut u64) -> u64 {
        *x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        *x >> 33
    }

    fn fill(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed;
        (0..len).map(|_| lcg(&mut x) as u8).collect()
    }

    #[test]
    fn standard_vectors_per_tier() {
        // RFC 3720 B.4 test vectors.
        let ascending: Vec<u8> = (0u8..32).collect();
        let descending: Vec<u8> = (0u8..32).rev().collect();
        for (name, tier) in tiers() {
            assert_eq!(tier(0, &[0u8; 32]), 0x8a91_36aa, "{name}");
            assert_eq!(tier(0, &[0xffu8; 32]), 0x62a8_ab43, "{name}");
            assert_eq!(tier(0, &ascending), 0x46dd_794e, "{name}");
            assert_eq!(tier(0, &descending), 0x113f_db5c, "{name}");
            assert_eq!(tier(0, b"123456789"), 0xe306_9283, "{name}");
        }
    }

    #[test]
    fn every_short_length_at_every_alignment() {
        let buf = fill(1, 8 + 72);
        for (name, tier) in tiers() {
            for offset in 0..8 {
                for len in 0..=72 {
                    let data = &buf[offset..offset + len];
                    assert_eq!(
                        tier(0, data),
                        bytewise(0, data),
                        "{name} offset {offset} len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn seeded_random_buffers() {
        const MAX: usize = 64 * 1024;
        let full = fill(99, MAX);
        for (name, tier) in tiers() {
            assert_eq!(tier(0, &full), bytewise(0, &full), "{name} 64 KiB");
            for seed in 0..48u64 {
                let mut x = seed;
                let len = lcg(&mut x) as usize % (MAX + 1);
                let start = lcg(&mut x) as usize % 8;
                let init = lcg(&mut x) as u32;
                let data = &fill(seed, start + len)[start..];
                assert_eq!(tier(init, data), bytewise(init, data), "{name} seed {seed} len {len}");
            }
        }
    }

    #[test]
    fn extend_composes_at_every_split() {
        let data = fill(7, 257);
        let whole = bytewise(0, &data);
        for (name, tier) in tiers() {
            for split in 0..=data.len() {
                let (a, b) = data.split_at(split);
                assert_eq!(tier(tier(0, a), b), whole, "{name} split {split}");
            }
        }
    }

    #[test]
    fn mask_round_trips() {
        for data in [&b"hello"[..], b"", b"\x00\x01\x02"] {
            let masked = crc32c_masked(data);
            assert_eq!(crc32c_unmask(masked), crc32c(data));
            // Masked value differs from the raw CRC (that is its purpose).
            assert_ne!(masked, crc32c(data));
        }
    }

    #[test]
    fn crc_distinguishes_corruption() {
        let a = crc32c(b"payload");
        let b = crc32c(b"paUload");
        assert_ne!(a, b);
    }
}
