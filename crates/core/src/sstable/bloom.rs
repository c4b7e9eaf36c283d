//! A bloom filter over user keys (LevelDB's double-hashing scheme).

/// An immutable bloom filter.
///
/// # Examples
///
/// ```
/// use noblsm::sstable::BloomFilter;
///
/// let keys: Vec<&[u8]> = vec![b"alpha", b"beta"];
/// let f = BloomFilter::build(&keys, 10);
/// assert!(f.may_contain(b"alpha"));
/// assert!(f.may_contain(b"beta"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u8>,
    k: u8,
}

pub(crate) fn bloom_hash(key: &[u8]) -> u32 {
    // LevelDB's Hash() — a Murmur-like mix.
    const SEED: u32 = 0xbc9f_1d34;
    const M: u32 = 0xc6a4_a793;
    let mut h = SEED ^ (key.len() as u32).wrapping_mul(M);
    let mut chunks = key.chunks_exact(4);
    for c in &mut chunks {
        let w = u32::from_le_bytes(c.try_into().expect("4 bytes"));
        h = h.wrapping_add(w).wrapping_mul(M);
        h ^= h >> 16;
    }
    let rest = chunks.remainder();
    match rest.len() {
        3 => {
            h = h.wrapping_add((rest[2] as u32) << 16);
            h = h.wrapping_add((rest[1] as u32) << 8);
            h = h.wrapping_add(rest[0] as u32).wrapping_mul(M);
            h ^= h >> 24;
        }
        2 => {
            h = h.wrapping_add((rest[1] as u32) << 8);
            h = h.wrapping_add(rest[0] as u32).wrapping_mul(M);
            h ^= h >> 24;
        }
        1 => {
            h = h.wrapping_add(rest[0] as u32).wrapping_mul(M);
            h ^= h >> 24;
        }
        _ => {}
    }
    h
}

impl BloomFilter {
    /// Builds a filter for `keys` at `bits_per_key`.
    pub fn build<K: AsRef<[u8]>>(keys: &[K], bits_per_key: usize) -> Self {
        let hashes: Vec<u32> = keys.iter().map(|k| bloom_hash(k.as_ref())).collect();
        BloomFilter::from_hashes(&hashes, bits_per_key)
    }

    /// Builds a filter from the keys' [`bloom_hash`]es, one per key: all a
    /// table builder has to keep of each key it is handed.
    pub(crate) fn from_hashes(hashes: &[u32], bits_per_key: usize) -> Self {
        // k = bits_per_key * ln(2), clamped like LevelDB.
        let k = ((bits_per_key as f64 * 0.69) as usize).clamp(1, 30) as u8;
        let bits = (hashes.len() * bits_per_key).max(64);
        let bytes = bits.div_ceil(8);
        let bits = bytes * 8;
        let mut array = vec![0u8; bytes];
        for &hash in hashes {
            let mut h = hash;
            let delta = h.rotate_right(17);
            for _ in 0..k {
                let pos = (h as usize) % bits;
                array[pos / 8] |= 1 << (pos % 8);
                h = h.wrapping_add(delta);
            }
        }
        BloomFilter { bits: array, k }
    }

    /// Whether `key` may be in the set (false positives possible, false
    /// negatives never).
    pub fn may_contain(&self, key: &[u8]) -> bool {
        let bits = self.bits.len() * 8;
        if bits == 0 {
            return true;
        }
        let mut h = bloom_hash(key);
        let delta = h.rotate_right(17);
        for _ in 0..self.k {
            let pos = (h as usize) % bits;
            if self.bits[pos / 8] & (1 << (pos % 8)) == 0 {
                return false;
            }
            h = h.wrapping_add(delta);
        }
        true
    }

    /// Serializes to `bits ++ k`.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = self.bits.clone();
        out.push(self.k);
        out
    }

    /// Deserializes a filter; returns `None` on empty input.
    pub(crate) fn decode(data: &[u8]) -> Option<BloomFilter> {
        let (&k, bits) = data.split_last()?;
        Some(BloomFilter { bits: bits.to_vec(), k })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let keys: Vec<Vec<u8>> = (0..1000).map(|i| format!("key{i}").into_bytes()).collect();
        let f = BloomFilter::build(&keys, 10);
        for k in &keys {
            assert!(f.may_contain(k), "false negative for {:?}", String::from_utf8_lossy(k));
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let keys: Vec<Vec<u8>> = (0..2000).map(|i| format!("present{i}").into_bytes()).collect();
        let f = BloomFilter::build(&keys, 10);
        let fp = (0..2000).filter(|i| f.may_contain(format!("absent{i}").as_bytes())).count();
        // 10 bits/key gives ≈1 % theoretical FP rate; allow generous slack.
        assert!(fp < 100, "false positive rate too high: {fp}/2000");
    }

    #[test]
    fn encode_decode_round_trip() {
        let keys: Vec<&[u8]> = vec![b"a", b"b", b"c"];
        let f = BloomFilter::build(&keys, 10);
        let enc = f.encode();
        let g = BloomFilter::decode(&enc).unwrap();
        assert_eq!(f, g);
        assert!(BloomFilter::decode(&[]).is_none());
    }

    #[test]
    fn built_from_hashes_encodes_byte_equal_to_built_from_keys() {
        for n in [0usize, 1, 7, 1000] {
            let keys: Vec<Vec<u8>> = (0..n).map(|i| format!("user{i:07}").into_bytes()).collect();
            let hashes: Vec<u32> = keys.iter().map(|k| bloom_hash(k)).collect();
            for bits in [1, 10, 16] {
                assert_eq!(
                    BloomFilter::from_hashes(&hashes, bits).encode(),
                    BloomFilter::build(&keys, bits).encode(),
                    "{n} keys at {bits} bits per key"
                );
            }
        }
    }

    #[test]
    fn empty_key_set_builds_valid_filter() {
        let keys: Vec<&[u8]> = Vec::new();
        let f = BloomFilter::build(&keys, 10);
        // Nothing asserted to be absent — just must not panic.
        let _ = f.may_contain(b"whatever");
    }
}
