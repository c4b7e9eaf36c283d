//! HDR-style log-bucketed latency histograms.
//!
//! Values up to 31 ns are recorded exactly; beyond that each power of two
//! is split into 32 linear sub-buckets, bounding the relative recording
//! error at ~3.1% while covering the whole `u64` range in 1920 buckets.

/// Linear sub-buckets per octave, as a power of two.
const SUB_BITS: u32 = 5;
/// Linear sub-buckets per octave.
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count: the linear block plus 59 octaves × 32 sub-buckets.
const N_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB as usize;

/// A fixed-footprint latency histogram over `u64` nanoseconds.
///
/// # Examples
///
/// ```
/// use nob_trace::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=100u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 100);
/// assert_eq!(h.value_at_quantile(0.5), 50);
/// assert_eq!(h.max(), 100);
/// ```
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64; N_BUCKETS]>,
    count: u64,
    total: u128,
    min: u64,
    max: u64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish()
    }
}

/// Bucket index for a value.
fn index_for(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let block = (msb - SUB_BITS + 1) as u64;
    (block * SUB + ((v >> (msb - SUB_BITS)) - SUB)) as usize
}

/// Largest value a bucket holds (its inclusive upper bound).
fn upper_for(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB {
        return idx;
    }
    let block = idx / SUB;
    let offset = idx % SUB;
    ((SUB + offset + 1) << (block - 1)).wrapping_sub(1)
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0u64; N_BUCKETS].into_boxed_slice().try_into().expect("length matches"),
            count: 0,
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.counts[index_for(v)] += 1;
        self.count += 1;
        self.total += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Sum of recorded values, saturating at `u64::MAX`.
    pub(crate) fn total(&self) -> u64 {
        self.total.min(u64::MAX as u128) as u64
    }

    /// The smallest recorded value `v` such that at least `q` of all
    /// recordings are ≤ `v`, reported as its bucket's upper bound (never
    /// above [`Histogram::max`]). Returns 0 when empty.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return upper_for(idx).min(self.max);
            }
        }
        self.max
    }

    /// The (p50, p95, p99, p999) quantiles.
    pub fn percentiles(&self) -> (u64, u64, u64, u64) {
        (
            self.value_at_quantile(0.50),
            self.value_at_quantile(0.95),
            self.value_at_quantile(0.99),
            self.value_at_quantile(0.999),
        )
    }

    /// Adds every recording of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_exact() {
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.value_at_quantile(0.5), 0);
        assert_eq!(h.value_at_quantile(1.0), 0);
    }

    #[test]
    fn linear_range_is_exact() {
        // Every value below 32 lives in its own bucket.
        for v in 0..SUB {
            assert_eq!(index_for(v), v as usize);
            assert_eq!(upper_for(v as usize), v);
        }
        // …and so does every value below 64 (shift = 0 in octave 1).
        for v in SUB..64 {
            assert_eq!(upper_for(index_for(v)), v);
        }
    }

    #[test]
    fn exact_powers_of_two_land_on_bucket_lower_bounds() {
        for k in 0..64u32 {
            let v = 1u64 << k;
            let idx = index_for(v);
            let upper = upper_for(idx);
            // The bucket's range contains v with ≤ 1/32 relative error.
            assert!(upper >= v, "2^{k}: upper {upper} < {v}");
            assert!(upper - v <= v >> SUB_BITS, "2^{k}: error too large ({upper} vs {v})");
            // The previous bucket ends strictly below v.
            assert!(idx == 0 || upper_for(idx - 1) < v, "2^{k} not a lower bound");
        }
    }

    #[test]
    fn bucket_boundaries_are_monotone_and_contiguous() {
        for idx in 1..N_BUCKETS {
            assert!(upper_for(idx) > upper_for(idx - 1), "bucket {idx} not monotone");
        }
        // Every bucket's range starts right after its predecessor ends.
        for idx in 1..N_BUCKETS {
            let lo = upper_for(idx - 1) + 1;
            assert_eq!(index_for(lo), idx, "gap below bucket {idx}");
        }
    }

    #[test]
    fn u64_max_is_representable() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(index_for(u64::MAX), N_BUCKETS - 1);
        assert_eq!(h.max(), u64::MAX);
        // The reported quantile is clamped to the exact max.
        assert_eq!(h.value_at_quantile(0.999), u64::MAX);
    }

    #[test]
    fn quantiles_over_uniform_values() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let (p50, p95, p99, p999) = h.percentiles();
        // ≤ 1/32 relative recording error.
        for (q, v) in [(p50, 500u64), (p95, 950), (p99, 990), (p999, 999)] {
            assert!(q >= v && q <= v + v / 32 + 1, "quantile {q} for true {v}");
        }
        assert_eq!(h.value_at_quantile(1.0), 1000);
        assert_eq!(h.value_at_quantile(0.0), 1);
    }

    #[test]
    fn quantile_never_exceeds_max() {
        let mut h = Histogram::new();
        h.record(1_000_003);
        assert_eq!(h.value_at_quantile(0.5), 1_000_003);
        assert_eq!(h.value_at_quantile(0.999), 1_000_003);
    }

    #[test]
    fn merge_combines_counts_and_extrema() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        b.record(2);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 2);
        assert_eq!(a.max(), 1_000_000);
        let empty = Histogram::new();
        a.merge(&empty);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn mean_and_total() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(20);
        assert_eq!(h.total(), 30);
    }
}
