//! A FIFO resource timeline: the virtual-time model of a device queue.

use crate::Nanos;

/// The `[start, end)` window a [`Timeline`] granted to one command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// When the resource began serving this command.
    pub start: Nanos,
    /// When the command completes.
    pub end: Nanos,
}

impl Reservation {
    /// Service duration of the command.
    pub fn duration(&self) -> Nanos {
        self.end - self.start
    }
}

/// A single-server FIFO resource.
///
/// Commands are served strictly in issue order: a command issued at `now`
/// starts at `max(now, free_at)` and occupies the resource for its duration.
/// This is the essential model behind the paper's "barrier" effect — a sync
/// (flush) issued into the queue delays everything issued after it.
///
/// # Examples
///
/// ```
/// use nob_sim::{Nanos, Timeline};
///
/// let mut t = Timeline::new();
/// let a = t.reserve(Nanos::ZERO, Nanos::from_millis(2));
/// // Issued later but while the device is still busy: queues behind `a`.
/// let b = t.reserve(Nanos::from_millis(1), Nanos::from_millis(2));
/// assert_eq!(b.start, a.end);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Timeline {
    free_at: Nanos,
    busy: Nanos,
}

impl Timeline {
    /// Creates an idle timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Reserves the resource for `duration`, for a command issued at `now`.
    pub fn reserve(&mut self, now: Nanos, duration: Nanos) -> Reservation {
        let start = now.max(self.free_at);
        let end = start + duration;
        self.free_at = end;
        self.busy += duration;
        Reservation { start, end }
    }

    /// The instant at which the resource next becomes idle.
    pub fn free_at(&self) -> Nanos {
        self.free_at
    }

    /// Total busy time accumulated so far.
    pub fn busy_time(&self) -> Nanos {
        self.busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_starts_immediately() {
        let mut t = Timeline::new();
        let r = t.reserve(Nanos::from_micros(5), Nanos::from_micros(10));
        assert_eq!(r.start, Nanos::from_micros(5));
        assert_eq!(r.end, Nanos::from_micros(15));
    }

    #[test]
    fn commands_serialize_fifo() {
        let mut t = Timeline::new();
        let a = t.reserve(Nanos::ZERO, Nanos::from_micros(10));
        let b = t.reserve(Nanos::ZERO, Nanos::from_micros(10));
        let c = t.reserve(Nanos::ZERO, Nanos::from_micros(10));
        assert_eq!(a.end, b.start);
        assert_eq!(b.end, c.start);
        assert_eq!(t.busy_time(), Nanos::from_micros(30));
    }

    #[test]
    fn gap_leaves_idle_time() {
        let mut t = Timeline::new();
        t.reserve(Nanos::ZERO, Nanos::from_micros(10));
        let r = t.reserve(Nanos::from_micros(100), Nanos::from_micros(10));
        assert_eq!(r.start, Nanos::from_micros(100));
        assert_eq!(t.free_at(), Nanos::from_micros(110));
        assert_eq!(t.busy_time(), Nanos::from_micros(20), "the gap is idle");
    }

    #[test]
    fn zero_duration_reservation_is_instant() {
        let mut t = Timeline::new();
        let r = t.reserve(Nanos::from_micros(3), Nanos::ZERO);
        assert_eq!(r.start, r.end);
        assert_eq!(r.duration(), Nanos::ZERO);
    }
}
