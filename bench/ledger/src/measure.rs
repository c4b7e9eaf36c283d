//! Sample statistics: exact sorted-sample latency summaries (never a
//! bucketed histogram) and the median / quartile-spread the contract in
//! `BENCHMARK.json` is judged by.

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one rep.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (the exclusive method) — the figure the driver computes.
/// Zero for fewer than two samples.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&v)
}

/// One operation class's virtual latencies, from exact `u64` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Latency {
    /// Samples taken.
    pub n: u64,
    /// Mean, ns.
    pub mean_ns: f64,
    /// Mean of the slowest tenth of the samples (at least one), ns. A
    /// smooth tail figure: on this model's few discrete latency levels
    /// a plain percentile is either constant across seeds or flips
    /// between two levels, and the slowest 1 % alone is a few hundred
    /// multi-millisecond outliers whose sum moves ±15 % with the seed.
    pub tail_ns: f64,
    /// Median, ns.
    pub p50_ns: u64,
    /// 99th, 99.9th and 99.99th percentile, ns.
    pub p99_ns: u64,
    /// See `p99_ns`.
    pub p999_ns: u64,
    /// See `p99_ns`.
    pub p9999_ns: u64,
}

impl Latency {
    /// Sorts `samples` and summarises them.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set: a workload reports a class only
    /// when it issued operations of it.
    pub fn of(samples: &mut [u64]) -> Latency {
        assert!(!samples.is_empty(), "latency summary of no samples");
        samples.sort_unstable();
        let n = samples.len();
        let at = |q: f64| samples[((n as f64 * q) as usize).min(n - 1)];
        let tail = &samples[n - (n / 10).max(1)..];
        Latency {
            n: n as u64,
            mean_ns: samples.iter().sum::<u64>() as f64 / n as f64,
            tail_ns: tail.iter().sum::<u64>() as f64 / tail.len() as f64,
            p50_ns: at(0.5),
            p99_ns: at(0.99),
            p999_ns: at(0.999),
            p9999_ns: at(0.9999),
        }
    }

    /// The highest percentile with at least ten samples beyond it, as
    /// `(label, ns)`; the median when even p99 has fewer.
    pub fn highest(&self) -> (&'static str, u64) {
        [("p99.99", 1e-4, self.p9999_ns), ("p99.9", 1e-3, self.p999_ns), ("p99", 1e-2, self.p99_ns)]
            .into_iter()
            .find(|&(_, beyond, _)| self.n as f64 * beyond >= 10.0)
            .map_or(("p50", self.p50_ns), |(label, _, ns)| (label, ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(spread(&[7.0]), 0.0);
    }

    #[test]
    fn latency_picks_the_highest_supported_percentile() {
        let mut s: Vec<u64> = (1..=20_000).collect();
        let l = Latency::of(&mut s);
        assert_eq!(l.highest(), ("p99.9", 19_981));
        assert_eq!(l.p50_ns, 10_001);
        assert_eq!(l.tail_ns, (18_001..=20_000).sum::<u64>() as f64 / 2000.0);
        let mut few: Vec<u64> = (1..=500).collect();
        assert_eq!(Latency::of(&mut few).highest().0, "p50");
    }
}
