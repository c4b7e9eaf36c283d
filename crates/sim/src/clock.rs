//! The shared virtual clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::Nanos;

/// The one virtual clock: the scheduler owns one and hands the same
/// handle to every component that needs "the current virtual time"
/// without threading `now: Nanos` through each call.
///
/// All clones observe and advance the same instant. The clock only ever
/// moves forward: [`SharedClock::advance_to`] with an earlier instant is
/// a no-op, which makes "wait until X happened" idempotent.
///
/// # Examples
///
/// ```
/// use nob_sim::{Nanos, SharedClock};
///
/// let scheduler = SharedClock::new();
/// let worker = scheduler.clone();
/// worker.advance_to(Nanos::from_micros(3));
/// assert_eq!(scheduler.now(), Nanos::from_micros(3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedClock {
    /// The instant in nanoseconds. Only ever raised, so a reader needs no
    /// lock: `Acquire` loads see every advance published before them.
    inner: Arc<AtomicU64>,
}

impl SharedClock {
    /// Creates a shared clock at the simulation origin (t = 0).
    pub fn new() -> Self {
        SharedClock::default()
    }

    /// Creates a shared clock already advanced to `start`.
    pub fn at(start: Nanos) -> Self {
        SharedClock { inner: Arc::new(AtomicU64::new(start.as_nanos())) }
    }

    /// The current virtual instant.
    pub fn now(&self) -> Nanos {
        Nanos::from_nanos(self.inner.load(Ordering::Acquire))
    }

    /// Advances the clock by a duration, saturating as [`Nanos`] addition
    /// does.
    pub fn advance(&self, by: Nanos) {
        let by = by.as_nanos();
        // The closure never returns `None`, so the update cannot fail.
        let _ = self
            .inner
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |ns| Some(ns.saturating_add(by)));
    }

    /// Advances the clock to an instant, if it is in the future. Returns
    /// the stall duration (zero if `to` was not in the future).
    pub fn advance_to(&self, to: Nanos) -> Nanos {
        let before = self.inner.fetch_max(to.as_nanos(), Ordering::AcqRel);
        to.saturating_sub(Nanos::from_nanos(before))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(SharedClock::new().now(), Nanos::ZERO);
    }

    #[test]
    fn shared_clock_is_shared_and_monotone() {
        let a = SharedClock::at(Nanos::from_micros(2));
        let b = a.clone();
        assert_eq!(b.now(), Nanos::from_micros(2));
        let stall = b.advance_to(Nanos::from_micros(9));
        assert_eq!(stall, Nanos::from_micros(7));
        assert_eq!(a.now(), Nanos::from_micros(9));
        assert_eq!(a.advance_to(Nanos::from_micros(1)), Nanos::ZERO, "monotone");
        a.advance(Nanos::from_micros(1));
        assert_eq!(b.now(), Nanos::from_micros(10));
    }

    #[test]
    fn at_starts_elsewhere() {
        assert_eq!(SharedClock::at(Nanos::from_secs(3)).now(), Nanos::from_secs(3));
    }

    #[test]
    fn advance_accumulates() {
        let c = SharedClock::new();
        c.advance(Nanos::from_micros(2));
        c.advance(Nanos::from_micros(3));
        assert_eq!(c.now(), Nanos::from_micros(5));
    }

    #[test]
    fn advance_to_reports_stall() {
        let c = SharedClock::new();
        let stall = c.advance_to(Nanos::from_micros(7));
        assert_eq!(stall, Nanos::from_micros(7));
        // Going backwards is a no-op with zero stall.
        let stall = c.advance_to(Nanos::from_micros(1));
        assert_eq!(stall, Nanos::ZERO);
        assert_eq!(c.now(), Nanos::from_micros(7));
    }
}
