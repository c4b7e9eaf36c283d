//! Virtual compaction lanes.
//!
//! A lane models one background compaction worker: a device-style timeline
//! with a "free from" instant. Scheduling a job on a lane occupies it until
//! the job's (pipelined) completion instant and records per-lane attribution
//! counters that `noblsm.stats` and the `compact.*` metrics surface.

use nob_sim::Nanos;

/// Attribution counters for one lane, as surfaced by `noblsm.stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Instant the lane becomes free.
    pub free: Nanos,
    /// Jobs this lane has run (minor + major compactions).
    pub jobs: u64,
    /// Total virtual time the lane spent occupied.
    pub busy: Nanos,
    /// Total bytes the lane's jobs wrote.
    pub bytes_written: u64,
}

/// A set of N compaction lanes sharing one virtual clock.
///
/// Picking is deterministic: the least-loaded lane wins, ties broken by the
/// lowest index, so a run is reproducible for any lane count.
///
/// # Examples
///
/// ```
/// use nob_compact::LaneSet;
/// use nob_sim::Nanos;
///
/// let mut lanes = LaneSet::new(2, Nanos::ZERO);
/// let (lane, start) = lanes.pick(Nanos::from_micros(1));
/// assert_eq!((lane, start), (0, Nanos::from_micros(1)));
/// lanes.occupy(lane, start, Nanos::from_micros(9), 100);
/// // The other lane is now the earliest free.
/// assert_eq!(lanes.pick(Nanos::from_micros(2)).0, 1);
/// ```
#[derive(Debug, Clone)]
pub struct LaneSet {
    lanes: Vec<LaneStats>,
}

impl LaneSet {
    /// Creates `n` lanes, all free at `t`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero — an engine always has at least one lane.
    pub fn new(n: usize, t: Nanos) -> Self {
        assert!(n > 0, "at least one compaction lane is required");
        LaneSet { lanes: vec![LaneStats { free: t, ..LaneStats::default() }; n] }
    }

    /// Number of lanes.
    pub(crate) fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Grows or shrinks the set to `n` lanes. New lanes are free at `now`;
    /// shrinking drops the highest-indexed lanes (their attribution is
    /// forgotten, matching a worker pool resize).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub(crate) fn resize(&mut self, n: usize, now: Nanos) {
        assert!(n > 0, "at least one compaction lane is required");
        self.lanes.resize(n, LaneStats { free: now, ..LaneStats::default() });
    }

    /// Picks the earliest-free lane for a job ready at `ready`, returning
    /// the lane index and the instant the job can start.
    pub fn pick(&self, ready: Nanos) -> (usize, Nanos) {
        let (lane, s) =
            self.lanes.iter().enumerate().min_by_key(|(_, s)| s.free).expect("at least one lane");
        (lane, s.free.max(ready))
    }

    /// Occupies `lane` for a job spanning `[start, end]` that wrote
    /// `bytes_written`, updating the free instant and attribution.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn occupy(&mut self, lane: usize, start: Nanos, end: Nanos, bytes_written: u64) {
        let s = &mut self.lanes[lane];
        s.free = s.free.max(end);
        s.jobs += 1;
        s.busy += end.saturating_sub(start);
        s.bytes_written += bytes_written;
    }

    /// Number of lanes whose free instant is at or before `now`.
    pub(crate) fn idle_at(&self, now: Nanos) -> usize {
        self.lanes.iter().filter(|s| s.free <= now).count()
    }

    /// Per-lane attribution snapshot.
    pub(crate) fn stats(&self) -> &[LaneStats] {
        &self.lanes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_prefers_earliest_free_then_lowest_index() {
        let mut lanes = LaneSet::new(3, Nanos::ZERO);
        assert_eq!(lanes.pick(Nanos::ZERO), (0, Nanos::ZERO));
        lanes.occupy(0, Nanos::ZERO, Nanos::from_micros(10), 1);
        lanes.occupy(1, Nanos::ZERO, Nanos::from_micros(5), 1);
        // Lane 2 is still free at zero.
        assert_eq!(lanes.pick(Nanos::ZERO).0, 2);
        lanes.occupy(2, Nanos::ZERO, Nanos::from_micros(10), 1);
        // Now lane 1 frees first; a job ready later starts at its ready time.
        assert_eq!(lanes.pick(Nanos::from_micros(7)), (1, Nanos::from_micros(7)));
    }

    #[test]
    fn occupy_accumulates_attribution() {
        let mut lanes = LaneSet::new(1, Nanos::ZERO);
        lanes.occupy(0, Nanos::from_micros(1), Nanos::from_micros(4), 100);
        lanes.occupy(0, Nanos::from_micros(4), Nanos::from_micros(6), 50);
        let s = lanes.stats()[0];
        assert_eq!(s.jobs, 2);
        assert_eq!(s.busy, Nanos::from_micros(5));
        assert_eq!(s.bytes_written, 150);
        assert_eq!(s.free, Nanos::from_micros(6));
    }

    #[test]
    fn resize_adds_fresh_lanes_and_drops_tail() {
        let mut lanes = LaneSet::new(1, Nanos::ZERO);
        lanes.occupy(0, Nanos::ZERO, Nanos::from_micros(10), 1);
        lanes.resize(3, Nanos::from_micros(2));
        assert_eq!(lanes.len(), 3);
        assert_eq!(lanes.pick(Nanos::from_micros(2)), (1, Nanos::from_micros(2)));
        lanes.resize(1, Nanos::from_micros(2));
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes.stats()[0].jobs, 1);
    }

    #[test]
    fn idle_counts_lanes_free_by_now() {
        let mut lanes = LaneSet::new(2, Nanos::ZERO);
        lanes.occupy(0, Nanos::ZERO, Nanos::from_micros(10), 1);
        assert_eq!(lanes.idle_at(Nanos::from_micros(5)), 1);
        assert_eq!(lanes.idle_at(Nanos::from_micros(10)), 2);
    }

    #[test]
    #[should_panic(expected = "at least one compaction lane")]
    fn zero_lanes_is_rejected() {
        let _ = LaneSet::new(0, Nanos::ZERO);
    }
}
