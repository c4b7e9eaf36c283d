//! L0-pressure-driven lane admission.
//!
//! LevelDB stalls the write path at two L0 file-count thresholds (slowdown,
//! then hard stop). The policy here converts the distance to those triggers
//! into (a) how many lanes may run concurrently — backing off to one when
//! write pressure is low so compaction bandwidth is not wasted — and (b)
//! whether the level picker should preempt toward L0→L1 work.

/// Lane admission and preemption policy derived from the L0 triggers.
///
/// All decisions are pure integer arithmetic over the current L0 file count,
/// so scheduling stays deterministic for any lane count.
///
/// # Examples
///
/// ```
/// use nob_compact::PriorityPolicy;
///
/// let p = PriorityPolicy::new(4, 8, 12);
/// assert_eq!(p.max_active(3, 4), 1); // calm: single lane
/// assert_eq!(p.max_active(12, 4), 3); // at the stop trigger: all but the flush lane
/// assert!(!p.prefer_l0(6));
/// assert!(p.prefer_l0(8)); // slowdown imminent: preempt toward L0->L1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PriorityPolicy {
    /// L0 file count that makes L0 eligible for compaction.
    pub(crate) l0_compaction_trigger: usize,
    /// L0 file count at which writes are slowed (1 ms delay).
    pub(crate) l0_slowdown_trigger: usize,
    /// L0 file count at which writes stop.
    pub(crate) l0_stop_trigger: usize,
}

impl PriorityPolicy {
    /// Builds a policy from the engine's three L0 triggers.
    ///
    /// # Panics
    ///
    /// Panics unless `compaction <= slowdown <= stop` and `compaction < stop`.
    pub fn new(compaction: usize, slowdown: usize, stop: usize) -> Self {
        assert!(
            compaction <= slowdown && slowdown <= stop && compaction < stop,
            "triggers must be ordered: compaction <= slowdown <= stop"
        );
        PriorityPolicy {
            l0_compaction_trigger: compaction,
            l0_slowdown_trigger: slowdown,
            l0_stop_trigger: stop,
        }
    }

    /// Write pressure in `[0, 1]`: zero at (or below) the compaction
    /// trigger, one at the stop trigger. Reported via `compact.pressure`.
    pub(crate) fn pressure(&self, l0: usize) -> f64 {
        let span = (self.l0_stop_trigger - self.l0_compaction_trigger) as f64;
        let over = l0.saturating_sub(self.l0_compaction_trigger) as f64;
        (over / span).clamp(0.0, 1.0)
    }

    /// Lanes majors may ever occupy: all of them for a single-lane set,
    /// all but one otherwise. The spare lane keeps flush (minor
    /// compaction) latency out of the majors' queue — a flush that waits
    /// behind a major stalls the next memtable switch, which is exactly
    /// the foreground pause the lanes exist to remove.
    pub(crate) fn major_capacity(&self, lanes: usize) -> usize {
        if lanes <= 1 {
            lanes
        } else {
            lanes - 1
        }
    }

    /// How many of `lanes` may hold major compactions at this L0 count:
    /// one lane while calm, scaling linearly to the full major capacity
    /// (a single lane, or all lanes but the flush lane) at the stop trigger (integer
    /// arithmetic, so deterministic).
    pub fn max_active(&self, l0: usize, lanes: usize) -> usize {
        let cap = self.major_capacity(lanes);
        if cap <= 1 {
            return cap;
        }
        let span = self.l0_stop_trigger - self.l0_compaction_trigger;
        let over = l0.saturating_sub(self.l0_compaction_trigger).min(span);
        // Rounds up: any pressure at all adds lanes before the stall hits.
        let extra = ((cap - 1) * over).div_ceil(span);
        (1 + extra).min(cap)
    }

    /// True when the level picker should preempt toward L0→L1 work: the L0
    /// count has crossed the midpoint between the compaction and stop
    /// triggers (the slowdown trigger, under LevelDB's default spacing).
    pub fn prefer_l0(&self, l0: usize) -> bool {
        2 * l0 >= self.l0_compaction_trigger + self.l0_stop_trigger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pressure_is_clamped_and_linear() {
        let p = PriorityPolicy::new(4, 8, 12);
        assert_eq!(p.pressure(0), 0.0);
        assert_eq!(p.pressure(4), 0.0);
        assert!((p.pressure(8) - 0.5).abs() < 1e-12);
        assert_eq!(p.pressure(12), 1.0);
        assert_eq!(p.pressure(40), 1.0);
    }

    #[test]
    fn admission_backs_off_when_calm_and_opens_up_under_pressure() {
        let p = PriorityPolicy::new(4, 8, 12);
        assert_eq!(p.max_active(0, 4), 1);
        assert_eq!(p.max_active(4, 4), 1);
        assert_eq!(p.max_active(6, 4), 2);
        assert_eq!(p.max_active(8, 4), 2);
        assert_eq!(p.max_active(12, 4), 3);
        assert_eq!(p.max_active(20, 4), 3);
        // Two lanes: one for majors, one kept clear for flushes.
        for l0 in 0..24 {
            assert_eq!(p.max_active(l0, 2), 1);
        }
        // Monotone in l0 and capped at the major capacity, for every
        // lane count.
        for lanes in 1..=8 {
            let mut last = 0;
            for l0 in 0..24 {
                let a = p.max_active(l0, lanes);
                assert!(a >= last && a >= 1 && a <= p.major_capacity(lanes).max(1));
                last = a;
            }
        }
    }

    #[test]
    fn single_lane_is_always_one() {
        let p = PriorityPolicy::new(4, 8, 12);
        for l0 in 0..20 {
            assert_eq!(p.max_active(l0, 1), 1);
        }
    }

    #[test]
    fn preemption_kicks_in_at_the_midpoint() {
        let p = PriorityPolicy::new(4, 8, 12);
        assert!(!p.prefer_l0(7));
        assert!(p.prefer_l0(8));
        // Non-default spacing still uses the midpoint.
        let q = PriorityPolicy::new(2, 3, 10);
        assert!(!q.prefer_l0(5));
        assert!(q.prefer_l0(6));
    }

    #[test]
    #[should_panic(expected = "triggers must be ordered")]
    fn unordered_triggers_are_rejected() {
        let _ = PriorityPolicy::new(8, 4, 12);
    }
}
