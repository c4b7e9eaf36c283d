//! CRC32C (Castagnoli) with LevelDB's masking scheme.
//!
//! One kernel in two tiers, picked by what the CPU reports on each call:
//! the SSE4.2 `crc32` instruction on x86_64 that has it, run as three
//! independent streams, and a safe slicing-by-8 table walk everywhere
//! else. Both compute the same function, so nothing stored on disk
//! depends on which tier ran.
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

/// Hardware tier: three `crc32q` streams over adjacent lanes, joined by
/// the zero-append tables of `lanes`, then one stream over the rest,
/// `crc32b` over its last bytes. Works on the raw (un-inverted) CRC state;
/// `None` when the CPU lacks SSE4.2. The workspace's only unsafe code
/// lives here.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn hardware(state: u32, data: &[u8]) -> Option<u32> {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

    use lanes::{shift, Zeros, LONG, LONG_ZEROS, SHORT, SHORT_ZEROS};

    /// Rounds of three `lane`-byte lanes while they fit; returns the state
    /// and what is left. The streams are independent, so the three
    /// `crc32q`s of a step overlap instead of waiting on each other.
    #[target_feature(enable = "sse4.2")]
    fn rounds<'a>(
        mut state: u32,
        mut data: &'a [u8],
        lane: usize,
        zeros: &Zeros,
    ) -> (u32, &'a [u8]) {
        while data.len() >= 3 * lane {
            let (round, rest) = data.split_at(3 * lane);
            data = rest;
            let (a, bc) = round.split_at(lane);
            let (b, c) = bc.split_at(lane);
            let (mut x, mut y, mut z) = (u64::from(state), 0, 0);
            let words =
                a.as_chunks::<8>().0.iter().zip(b.as_chunks::<8>().0).zip(c.as_chunks::<8>().0);
            for ((a, b), c) in words {
                x = _mm_crc32_u64(x, u64::from_le_bytes(*a));
                y = _mm_crc32_u64(y, u64::from_le_bytes(*b));
                z = _mm_crc32_u64(z, u64::from_le_bytes(*c));
            }
            // `crc32q` zero-extends its 32-bit result.
            state = shift(zeros, shift(zeros, x as u32) ^ y as u32) ^ z as u32;
        }
        (state, data)
    }

    #[target_feature(enable = "sse4.2")]
    fn sse42(state: u32, data: &[u8]) -> u32 {
        let (state, rest) = rounds(state, data, LONG, &LONG_ZEROS);
        let (state, rest) = rounds(state, rest, SHORT, &SHORT_ZEROS);
        let (words, tail) = rest.as_chunks::<8>();
        let mut wide = u64::from(state);
        for word in words {
            wide = _mm_crc32_u64(wide, u64::from_le_bytes(*word));
        }
        let mut state = wide as u32;
        for &b in tail {
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

/// How the hardware tier joins its lanes (Intel's "Fast CRC computation
/// for iSCSI polynomial using CRC32 instruction", as in Mark Adler's
/// `crc32c.c`). The raw CRC state is linear over GF(2), so the state after
/// `a ‖ b` is the state after `a` carried over `b.len()` zero bytes, XOR
/// the state after `b` from zero. "Carry over `n` zero bytes" is a fixed
/// 32 × 32 bit matrix, applied as four 256-entry tables (one per state
/// byte) that `const` evaluation builds.
#[cfg(target_arch = "x86_64")]
mod lanes {
    use super::POLY;

    /// Lane lengths in bytes (multiples of 8): rounds of three long lanes
    /// while they fit, then of three short ones, then one stream over the
    /// rest. Three long lanes are 4 032 bytes, so a 4 KiB block is one
    /// round and a 64-byte tail; three short ones are 504, so a 1 KiB WAL
    /// record is two rounds. Chosen by timing candidates on 4 KiB blocks
    /// (DESIGN.md, "Checksums").
    pub(super) const LONG: usize = 1344;
    pub(super) const SHORT: usize = 168;

    /// "Carry a raw state over `n` zero bytes": `Zeros[k][b]` is what the
    /// state `b << 8k` becomes.
    pub(super) type Zeros = [[u32; 256]; 4];

    pub(super) static LONG_ZEROS: Zeros = zeros(LONG);
    pub(super) static SHORT_ZEROS: Zeros = zeros(SHORT);

    /// Carries the raw state `state` over `zeros`' number of zero bytes.
    pub(super) fn shift(zeros: &Zeros, state: u32) -> u32 {
        zeros[0][(state & 0xff) as usize]
            ^ zeros[1][((state >> 8) & 0xff) as usize]
            ^ zeros[2][((state >> 16) & 0xff) as usize]
            ^ zeros[3][(state >> 24) as usize]
    }

    /// The tables for `n` zero bytes: the one-byte matrix raised to the
    /// `n`th power by squaring, then applied to every byte value at each
    /// of the four positions.
    pub(super) const fn zeros(mut n: usize) -> Zeros {
        let mut byte = [0u32; 32];
        let mut power = [0u32; 32];
        let mut i = 0;
        while i < 32 {
            let mut state = 1u32 << i;
            let mut bit = 0;
            while bit < 8 {
                state = if state & 1 != 0 { (state >> 1) ^ POLY } else { state >> 1 };
                bit += 1;
            }
            byte[i] = state;
            power[i] = 1 << i;
            i += 1;
        }
        while n > 0 {
            if n & 1 != 0 {
                power = compose(&byte, &power);
            }
            byte = compose(&byte, &byte);
            n >>= 1;
        }
        let mut tables = [[0u32; 256]; 4];
        let mut k = 0;
        while k < 4 {
            let mut b = 0;
            while b < 256 {
                tables[k][b] = apply(&power, (b as u32) << (8 * k));
                b += 1;
            }
            k += 1;
        }
        tables
    }

    /// The matrix `m` (column `i` is the image of bit `i`) applied to `v`.
    const fn apply(m: &[u32; 32], mut v: u32) -> u32 {
        let mut out = 0;
        let mut i = 0;
        while v != 0 {
            if v & 1 != 0 {
                out ^= m[i];
            }
            v >>= 1;
            i += 1;
        }
        out
    }

    /// The matrix of `a` after `b`.
    const fn compose(a: &[u32; 32], b: &[u32; 32]) -> [u32; 32] {
        let mut out = [0u32; 32];
        let mut i = 0;
        while i < 32 {
            out[i] = apply(a, b[i]);
            i += 1;
        }
        out
    }
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
pub(crate) fn crc32c_masked(data: &[u8]) -> u32 {
    crc32c_mask(crc32c(data))
}

/// Unmasks a stored CRC back to the raw value.
pub(crate) fn crc32c_unmask(masked: u32) -> u32 {
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

    /// Every length within 16 bytes of a point where the hardware tier's
    /// rounds change (up to two long and two short rounds, and their
    /// sums), at every alignment.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn every_length_near_a_lane_round_boundary_at_every_alignment() {
        use lanes::{LONG, SHORT};
        let buf = fill(3, 8 + 2 * 3 * (LONG + SHORT) + 16);
        let tiers = tiers();
        for longs in 0..=2 {
            for shorts in 0..=2 {
                let boundary = 3 * (longs * LONG + shorts * SHORT);
                for len in boundary.saturating_sub(16)..=boundary + 16 {
                    for offset in 0..8 {
                        let data = &buf[offset..offset + len];
                        let want = bytewise(0, data);
                        for (name, tier) in &tiers {
                            assert_eq!(tier(0, data), want, "{name} offset {offset} len {len}");
                        }
                    }
                }
            }
        }
    }

    /// Each zero-append table carries a state exactly as that many zero
    /// bytes do.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn zero_tables_append_their_length_of_zero_bytes() {
        use lanes::{shift, zeros, LONG, LONG_ZEROS, SHORT, SHORT_ZEROS};
        let raw = |state: u32, n: usize| !bytewise(!state, &vec![0u8; n]);
        let mut x = 5u64;
        let states: Vec<u32> =
            (0..32).map(|i| 1u32 << i).chain((0..32).map(|_| lcg(&mut x) as u32)).collect();
        for (n, table) in
            [(LONG, &LONG_ZEROS), (SHORT, &SHORT_ZEROS), (1, &zeros(1)), (13, &zeros(13))]
        {
            for &state in &states {
                assert_eq!(shift(table, state), raw(state, n), "{n} zero bytes from {state:#x}");
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
