//! Workload result reporting.

use nob_sim::Nanos;

/// A log₂-bucketed latency histogram (64 buckets over nanoseconds):
/// coarse but constant-space, good to ±50 % per bucket — plenty for the
/// P50/P99 shape `nob-bench`'s server sweep reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
    count: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: [0; 64], count: 0 }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one operation latency.
    pub fn record(&mut self, latency: Nanos) {
        let ns = latency.as_nanos();
        let bucket = if ns == 0 { 0 } else { 63 - ns.leading_zeros() as usize };
        self.buckets[bucket.min(63)] += 1;
        self.count += 1;
    }

    /// The latency at quantile `q` (`0.0..=1.0`), as the upper bound of
    /// the containing bucket. Returns zero for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Nanos {
        assert!((0.0..=1.0).contains(&q), "quantile must be within [0, 1]");
        if self.count == 0 {
            return Nanos::ZERO;
        }
        let target = ((self.count as f64) * q).ceil() as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target.max(1) {
                return Nanos::from_nanos(1u64 << (i + 1).min(63));
            }
        }
        Nanos::from_nanos(u64::MAX)
    }
}

/// The outcome of one workload run, in virtual time.
///
/// The paper's performance metric is *average execution time per
/// operation* ([`Report::mean_us_per_op`]); lower is better.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Workload label (e.g. `"fillrandom"`, `"ycsb-A"`).
    pub name: String,
    /// Operations completed.
    pub ops: u64,
    /// Virtual instant the run started.
    pub started: Nanos,
    /// Virtual instant the last operation completed (wall time of the
    /// run = `finished - started`).
    pub finished: Nanos,
    /// Sum of individual operation latencies (equals the wall time for a
    /// single-threaded run).
    pub total_latency: Nanos,
    /// Number of client threads.
    pub threads: usize,
}

impl Report {
    /// Mean latency per operation, in microseconds.
    pub fn mean_us_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.total_latency.as_micros_f64() / self.ops as f64
        }
    }

    /// Wall-clock (virtual) duration of the run.
    pub fn wall(&self) -> Nanos {
        self.finished - self.started
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let r = Report {
            name: "x".into(),
            ops: 1000,
            started: Nanos::from_secs(1),
            finished: Nanos::from_secs(3),
            total_latency: Nanos::from_secs(2),
            threads: 1,
        };
        assert!((r.mean_us_per_op() - 2000.0).abs() < 1e-9);
        assert_eq!(r.wall(), Nanos::from_secs(2));
    }

    #[test]
    fn histogram_quantiles_are_monotone_and_bracketing() {
        let mut h = LatencyHistogram::new();
        for us in [1u64, 2, 4, 10, 100, 1000] {
            for _ in 0..100 {
                h.record(Nanos::from_micros(us));
            }
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p99);
        // P50 of this mix sits in the ~4-16 us region (bucketed upper bound).
        assert!(p50 >= Nanos::from_micros(4) && p50 <= Nanos::from_micros(16), "{p50}");
        // P99 covers the 1 ms tail.
        assert!(p99 >= Nanos::from_micros(512), "{p99}");
    }

    #[test]
    fn empty_histogram_is_zero() {
        assert_eq!(LatencyHistogram::new().quantile(0.99), Nanos::ZERO);
    }

    #[test]
    fn zero_ops_is_safe() {
        let r = Report {
            name: "x".into(),
            ops: 0,
            started: Nanos::ZERO,
            finished: Nanos::ZERO,
            total_latency: Nanos::ZERO,
            threads: 1,
        };
        assert_eq!(r.mean_us_per_op(), 0.0);
    }
}
