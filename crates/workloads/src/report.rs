//! Workload result reporting.

use nob_sim::Nanos;

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
