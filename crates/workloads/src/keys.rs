//! Key and value generation (16-byte keys, deterministic values).

/// Encodes record number `i` as the paper's 16-byte key: its decimal
/// digits, zero-padded to 16 (a number of 17 to 20 digits is not padded),
/// the bytes `format!("{i:016}")` gives.
pub fn key(i: u64) -> Vec<u8> {
    // u64::MAX has 20 digits; the buffer starts as the padding.
    let mut digits = [b'0'; 20];
    let mut start = digits.len();
    let mut n = i;
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    digits[start.min(digits.len() - 16)..].to_vec()
}

/// Deterministic value of `len` bytes for record `i`: a seeded xorshift
/// stream, so overwrites with a different `round` produce different data.
pub fn value(i: u64, round: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut state = i
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(round.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        | 1;
    while out.len() < len {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        out.extend_from_slice(&state.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// A Fisher–Yates-shuffled permutation of `0..n` (deterministic by seed).
pub fn shuffled(n: u64, seed: u64) -> Vec<u64> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut v: Vec<u64> = (0..n).collect();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    v.shuffle(&mut rng);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_16_bytes_and_ordered() {
        assert_eq!(key(0).len(), 16);
        assert_eq!(key(123).len(), 16);
        assert!(key(1) < key(2));
        assert!(key(9) < key(10), "zero padding preserves numeric order");
    }

    #[test]
    fn keys_match_the_zero_padded_format() {
        use rand::{Rng, SeedableRng};
        let edges = [0, 9, 10u64.pow(15), 10u64.pow(16) - 1, 10u64.pow(16), u64::MAX];
        let mut rng = rand::rngs::SmallRng::seed_from_u64(4);
        // Uniform u64s are almost all 19–20 digits; shifting by a random
        // amount spreads them over every digit count.
        let seeded = (0..10_000).map(|_| rng.gen::<u64>() >> rng.gen_range(0..64));
        for i in edges.into_iter().chain(seeded) {
            assert_eq!(key(i), format!("{i:016}").into_bytes(), "key({i})");
        }
    }

    #[test]
    fn values_are_deterministic_and_round_sensitive() {
        assert_eq!(value(5, 0, 100), value(5, 0, 100));
        assert_ne!(value(5, 0, 100), value(5, 1, 100));
        assert_ne!(value(5, 0, 100), value(6, 0, 100));
        assert_eq!(value(5, 0, 1024).len(), 1024);
        assert!(value(0, 0, 7).len() == 7, "non-multiple-of-8 lengths truncate");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let s = shuffled(1000, 7);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<_>>());
        assert_ne!(s, sorted, "seed 7 must actually shuffle");
        assert_eq!(s, shuffled(1000, 7), "deterministic by seed");
        assert_ne!(s, shuffled(1000, 8));
    }
}
