//! Request distributions: zipfian (Gray et al.), scrambled zipfian,
//! latest, uniform.

use rand::rngs::SmallRng;
use rand::Rng;

/// The YCSB default zipfian constant.
pub const ZIPFIAN_CONSTANT: f64 = 0.99;

/// A zipfian generator over `0..n` (popular items are the small ranks),
/// using the Gray et al. "Quickly generating billion-record synthetic
/// databases" algorithm, as in YCSB.
#[derive(Debug, Clone)]
pub struct Zipfian {
    items: u64,
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
}

fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

impl Zipfian {
    /// Creates a generator over `items` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `items` is zero.
    pub fn new(items: u64) -> Self {
        assert!(items > 0, "zipfian requires at least one item");
        let theta = ZIPFIAN_CONSTANT;
        let zetan = zeta(items, theta);
        let zeta2theta = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        Zipfian { items, theta, zetan, alpha, eta }
    }

    /// Draws the next rank in `0..items` (0 is the most popular).
    pub fn next(&self, rng: &mut SmallRng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.items as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.items - 1)
    }

    /// Number of ranks.
    pub fn items(&self) -> u64 {
        self.items
    }
}

/// FNV-1a 64-bit hash (YCSB's scrambling function).
pub fn fnv1a(v: u64) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1000_0000_01b3;
    let mut h = OFFSET;
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Scrambled zipfian: zipfian rank hashed across the full keyspace, so the
/// popular items are spread out rather than clustered at low keys.
#[derive(Debug, Clone)]
pub struct ScrambledZipfian {
    inner: Zipfian,
}

impl ScrambledZipfian {
    /// Creates a generator over `items` keys.
    pub fn new(items: u64) -> Self {
        ScrambledZipfian { inner: Zipfian::new(items) }
    }

    /// Draws the next key in `0..items`.
    pub fn next(&self, rng: &mut SmallRng) -> u64 {
        fnv1a(self.inner.next(rng)) % self.inner.items()
    }
}

/// The "latest" distribution: recent inserts are the most popular
/// (used by YCSB workload D).
#[derive(Debug, Clone)]
pub struct Latest {
    inner: Zipfian,
}

impl Latest {
    /// Creates a generator; `max` is the current number of records.
    pub fn new(max: u64) -> Self {
        Latest { inner: Zipfian::new(max) }
    }

    /// Draws the next key given the current record count (keys near
    /// `records - 1` are the most likely).
    pub fn next(&self, records: u64, rng: &mut SmallRng) -> u64 {
        let rank = self.inner.next(rng);
        records.saturating_sub(1).saturating_sub(rank % records.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0x1234)
    }

    #[test]
    fn zipfian_is_skewed_toward_low_ranks() {
        let z = Zipfian::new(10_000);
        let mut r = rng();
        let n = 50_000;
        let head = (0..n).filter(|_| z.next(&mut r) < 100).count();
        // With θ=0.99 over 10k items, the top 1 % of ranks should absorb
        // a large fraction (~40-60 %) of draws.
        assert!(head > n / 4, "zipfian head too light: {head}/{n}");
        assert!(head < n * 9 / 10, "zipfian head too heavy: {head}/{n}");
    }

    #[test]
    fn zipfian_stays_in_range() {
        let z = Zipfian::new(100);
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(z.next(&mut r) < 100);
        }
    }

    #[test]
    fn scrambled_spreads_the_head() {
        let z = ScrambledZipfian::new(10_000);
        let mut r = rng();
        // The most popular key is fnv1a(0) % n — not key 0.
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            *counts.entry(z.next(&mut r)).or_insert(0u32) += 1;
        }
        let (&top, _) = counts.iter().max_by_key(|(_, c)| **c).unwrap();
        assert_eq!(top, fnv1a(0) % 10_000);
        assert_ne!(top, 0);
    }

    #[test]
    fn latest_prefers_recent_records() {
        let l = Latest::new(10_000);
        let mut r = rng();
        let n = 20_000;
        let recent = (0..n).filter(|_| l.next(10_000, &mut r) >= 9_900).count();
        assert!(recent > n / 4, "latest head too light: {recent}/{n}");
        // All draws valid.
        for _ in 0..1000 {
            assert!(l.next(10_000, &mut r) < 10_000);
        }
    }

    #[test]
    fn fnv_is_deterministic_and_dispersive() {
        assert_eq!(fnv1a(42), fnv1a(42));
        assert_ne!(fnv1a(1), fnv1a(2));
        // Adjacent inputs land far apart.
        assert!(fnv1a(1).abs_diff(fnv1a(2)) > 1 << 32);
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zipfian_rejects_zero() {
        let _ = Zipfian::new(0);
    }
}
