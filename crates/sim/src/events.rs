//! A time-ordered event queue for timer-style simulation events.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::Nanos;

/// A min-heap of `(time, payload)` pairs with stable FIFO ordering for
/// same-instant events.
///
/// The LSM world uses this for everything that fires "at a time" rather than
/// "after an I/O": journal commit ticks, NobLSM's 5-second reclamation poll,
/// scheduled crash injections.
///
/// # Examples
///
/// ```
/// use nob_sim::{EventQueue, Nanos};
///
/// let mut q = EventQueue::new();
/// q.push(Nanos::from_secs(5), "commit");
/// q.push(Nanos::from_secs(2), "poll");
/// assert_eq!(q.pop_due(Nanos::from_secs(3)), Some((Nanos::from_secs(2), "poll")));
/// assert_eq!(q.pop_due(Nanos::from_secs(3)), None); // "commit" not due yet
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    at: Nanos,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0 }
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `payload` to fire at `at`.
    pub fn push(&mut self, at: Nanos, payload: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, seq, payload }));
    }

    /// The instant of the next event, if any.
    pub fn next_at(&self) -> Option<Nanos> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Pops the earliest event whose time is `<= now`.
    ///
    /// Events scheduled for the same instant pop in insertion order.
    pub fn pop_due(&mut self, now: Nanos) -> Option<(Nanos, E)> {
        if self.next_at().is_some_and(|at| at <= now) {
            self.heap.pop().map(|Reverse(e)| (e.at, e.payload))
        } else {
            None
        }
    }

    /// Pops the earliest event unconditionally.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Nanos::from_secs(3), 'c');
        q.push(Nanos::from_secs(1), 'a');
        q.push(Nanos::from_secs(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut q = EventQueue::new();
        let t = Nanos::from_secs(1);
        q.push(t, 1);
        q.push(t, 2);
        q.push(t, 3);
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
        assert_eq!(q.pop(), Some((t, 3)));
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(Nanos::from_secs(5), ());
        assert_eq!(q.pop_due(Nanos::from_secs(4)), None);
        assert_eq!(q.pop_due(Nanos::from_secs(5)), Some((Nanos::from_secs(5), ())));
        assert_eq!(q.next_at(), None);
    }
}
