//! Fixed-capacity ring buffer of recent [`SpanEvent`]s.

use crate::event::SpanEvent;

/// Keeps the most recent `capacity` spans; older spans are overwritten
/// and counted in [`TraceRing::overwritten`].
#[derive(Debug, Clone)]
pub(crate) struct TraceRing {
    buf: Vec<SpanEvent>,
    capacity: usize,
    /// Index of the next write slot once the buffer is full.
    head: usize,
    /// Total spans ever pushed.
    pushed: u64,
}

impl TraceRing {
    /// Creates a ring that retains up to `capacity` spans (minimum 1).
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRing { buf: Vec::with_capacity(capacity), capacity, head: 0, pushed: 0 }
    }

    /// Appends a span, evicting the oldest once full.
    pub(crate) fn push(&mut self, ev: SpanEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
        }
        self.pushed += 1;
    }

    /// Total spans ever pushed, including evicted ones.
    pub(crate) fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Spans evicted to make room for newer ones.
    pub(crate) fn overwritten(&self) -> u64 {
        self.pushed - self.buf.len() as u64
    }

    /// Retained spans, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &SpanEvent> {
        let (newer, older) = self.buf.split_at(self.head);
        older.iter().chain(newer.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventClass;
    use nob_sim::Nanos;

    fn ev(seq: u64) -> SpanEvent {
        SpanEvent {
            seq,
            class: EventClass::SsdWrite,
            start: Nanos::from_nanos(seq * 10),
            end: Nanos::from_nanos(seq * 10 + 5),
            bytes: 0,
            trace: 0,
            span: 0,
            parent: 0,
        }
    }

    #[test]
    fn fills_in_order_below_capacity() {
        let mut r = TraceRing::new(4);
        for s in 0..3 {
            r.push(ev(s));
        }
        assert_eq!(r.iter().count(), 3);
        assert_eq!(r.overwritten(), 0);
        let seqs: Vec<u64> = r.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn wraparound_keeps_newest_in_order() {
        let mut r = TraceRing::new(4);
        for s in 0..10 {
            r.push(ev(s));
        }
        assert_eq!(r.iter().count(), 4);
        assert_eq!(r.pushed(), 10);
        assert_eq!(r.overwritten(), 6);
        let seqs: Vec<u64> = r.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn wraparound_exactly_at_capacity_boundary() {
        let mut r = TraceRing::new(3);
        for s in 0..3 {
            r.push(ev(s));
        }
        assert_eq!(r.overwritten(), 0);
        r.push(ev(3));
        let seqs: Vec<u64> = r.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(r.overwritten(), 1);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut r = TraceRing::new(0);
        r.push(ev(0));
        r.push(ev(1));
        assert_eq!(r.iter().count(), 1);
        assert_eq!(r.iter().next().unwrap().seq, 1);
    }
}
