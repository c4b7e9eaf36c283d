//! The device itself: a FIFO command queue over an [`SsdConfig`].

use nob_sim::{Nanos, Reservation, Timeline};
use nob_trace::{EventClass, TraceSink};

use crate::fault::{FlushCmd, FlushFault, InjectorHandle, WriteClass, WriteCmd, WriteFault};
use crate::{IoStats, SsdConfig};

/// A simulated SSD with two service classes.
///
/// The device has one command per operation — [`read`](Self::read),
/// [`write`](Self::write) and [`flush`](Self::flush) — and a write or
/// FLUSH names its service class as an argument. Every write and FLUSH
/// passes the installed fault injector, whichever its class.
///
/// *Foreground* commands (reads, direct writes, fsync write-back and
/// FLUSH) pass through a FIFO [`Timeline`]; a foreground command issued at
/// `issue` starts when the foreground queue is free — it is never delayed
/// by queued background work, modelling the kernel's write-back
/// throttling and NCQ prioritization of synchronous I/O.
///
/// *Background* commands (asynchronous journal-commit write-back) drain in
/// the capacity foreground work leaves over: every foreground reservation
/// that overlaps the background frontier pushes that frontier back by its
/// own duration, so total bandwidth is conserved while foreground latency
/// stays independent of write-back backlog.
///
/// # Examples
///
/// ```
/// use nob_sim::Nanos;
/// use nob_ssd::{Ssd, SsdConfig, WriteClass};
///
/// let mut ssd = Ssd::new(SsdConfig::pm883());
/// let (a, _) = ssd.write(Nanos::ZERO, 1 << 20, WriteClass::Data, false);
/// let (b, _) = ssd.write(Nanos::ZERO, 1 << 20, WriteClass::Data, false);
/// assert_eq!(b.start, a.end); // FIFO: b queues behind a
/// // A large background write-back does not delay a later foreground read…
/// let (wb, _) = ssd.write(b.end, 256 << 20, WriteClass::Data, true);
/// let r = ssd.read(b.end, 4096);
/// assert!(r.end < wb.end);
/// ```
#[derive(Debug, Clone)]
pub struct Ssd {
    cfg: SsdConfig,
    timeline: Timeline,
    bg_tail: Nanos,
    last_flush_end: Nanos,
    stats: IoStats,
    injector: Option<InjectorHandle>,
    trace: Option<TraceSink>,
}

impl Ssd {
    /// Creates an idle device with the given parameters.
    pub fn new(cfg: SsdConfig) -> Self {
        Ssd {
            cfg,
            timeline: Timeline::new(),
            bg_tail: Nanos::ZERO,
            last_flush_end: Nanos::ZERO,
            stats: IoStats::default(),
            injector: None,
            trace: None,
        }
    }

    /// Installs a trace sink; every command the device services from now
    /// on emits an issue→completion span (so FLUSH-barrier queueing is
    /// visible as span length). Clones made *after* the call share it.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.trace = Some(sink);
    }

    /// Removes the trace sink; the emit path becomes a dead branch again.
    pub fn clear_trace_sink(&mut self) {
        self.trace = None;
    }

    /// Emits `class` over `issue → r.end` if a sink is installed.
    fn trace_span(&self, class: EventClass, issue: Nanos, r: Reservation, bytes: u64) {
        if let Some(sink) = &self.trace {
            sink.emit(class, issue, r.end, bytes);
        }
    }

    /// Installs a fault injector; all clones of this device made *after*
    /// the call share its fault stream.
    pub fn set_injector(&mut self, injector: InjectorHandle) {
        self.injector = Some(injector);
    }

    /// Accumulated I/O counters.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Instant at which the foreground command queue drains.
    pub fn free_at(&self) -> Nanos {
        self.timeline.free_at()
    }

    /// Instant at which pending background write-back drains.
    pub fn background_free_at(&self) -> Nanos {
        self.bg_tail
    }

    /// Total foreground busy time.
    pub fn busy_time(&self) -> Nanos {
        self.timeline.busy_time()
    }

    /// Completion instant of the most recently issued FLUSH (foreground
    /// or background); [`Nanos::ZERO`] before the first FLUSH. A FLUSH is
    /// *in flight* at instant `t` when `t < flush_frontier()` — the gauge
    /// the metrics layer samples.
    pub fn flush_frontier(&self) -> Nanos {
        self.last_flush_end
    }

    /// Reserves `dur` at `issue` in one service class. A foreground
    /// window queues FIFO on the timeline and displaces pending background
    /// work by its own duration (preemption); a background window starts
    /// after earlier background work and never while the foreground queue
    /// is busy.
    fn reserve(&mut self, issue: Nanos, dur: Nanos, background: bool) -> Reservation {
        if background {
            let start = issue.max(self.bg_tail).max(self.timeline.free_at());
            self.bg_tail = start + dur;
            return Reservation { start, end: self.bg_tail };
        }
        let r = self.timeline.reserve(issue, dur);
        if self.bg_tail > r.start {
            // Background work was pending during this window: push it back.
            self.bg_tail += dur;
        }
        r
    }

    /// Issues a foreground read of `bytes` at `issue`.
    pub fn read(&mut self, issue: Nanos, bytes: u64) -> Reservation {
        self.stats.bytes_read += bytes;
        self.stats.read_commands += 1;
        let r = self.reserve(issue, self.cfg.read_cost(bytes), false);
        self.trace_span(EventClass::SsdRead, issue, r, bytes);
        r
    }

    /// Issues a write of `bytes` carrying `class` at `issue`, in the
    /// background class (asynchronous write-back) if `background`, else
    /// in the foreground class, and returns it with the injector's
    /// verdict. The caller (the filesystem layer) decides what a torn or
    /// corrupt payload means for durability.
    pub fn write(
        &mut self,
        issue: Nanos,
        bytes: u64,
        class: WriteClass,
        background: bool,
    ) -> (Reservation, WriteFault) {
        let cmd = WriteCmd { at: issue, bytes, background, class };
        let fault = match self.injector.as_ref().map_or(WriteFault::None, |i| i.on_write(&cmd)) {
            WriteFault::None => WriteFault::None,
            WriteFault::Torn { keep } => {
                self.stats.torn_writes += 1;
                WriteFault::Torn { keep: keep.min(bytes) }
            }
            WriteFault::Corrupt => {
                self.stats.corrupt_writes += 1;
                WriteFault::Corrupt
            }
        };
        self.stats.bytes_written += bytes;
        self.stats.write_commands += 1;
        let r = self.reserve(issue, self.cfg.write_cost(bytes), background);
        let span = if background { EventClass::SsdBgWrite } else { EventClass::SsdWrite };
        self.trace_span(span, issue, r, bytes);
        match fault {
            WriteFault::None => {}
            WriteFault::Torn { .. } => self.trace_span(EventClass::FaultTornWrite, issue, r, bytes),
            WriteFault::Corrupt => self.trace_span(EventClass::FaultCorruptWrite, issue, r, bytes),
        }
        (r, fault)
    }

    /// Issues a FLUSH at `issue`, in the background class (asynchronous
    /// journal commit records) if `background`, else in the foreground
    /// class, and returns it with the injector's verdict.
    ///
    /// FIFO ordering within a class guarantees the flush starts only
    /// after every previously issued command of its class completed — in
    /// the foreground, the "barrier" the paper attributes to syncs. The
    /// flush itself costs [`SsdConfig::flush_latency`]. A
    /// [`FlushFault::DroppedAcked`] verdict means the returned reservation
    /// is when the device *acknowledged* — nothing actually became
    /// durable.
    pub fn flush(&mut self, issue: Nanos, background: bool) -> (Reservation, FlushFault) {
        let cmd = FlushCmd { at: issue, background };
        let fault = self.injector.as_ref().map_or(FlushFault::None, |i| i.on_flush(&cmd));
        if fault == FlushFault::DroppedAcked {
            self.stats.dropped_flushes += 1;
        }
        self.stats.flush_commands += 1;
        let r = self.reserve(issue, self.cfg.flush_latency, background);
        self.last_flush_end = self.last_flush_end.max(r.end);
        let span = if background { EventClass::SsdBgFlush } else { EventClass::SsdFlush };
        self.trace_span(span, issue, r, 0);
        if fault == FlushFault::DroppedAcked {
            self.trace_span(EventClass::FaultDroppedFlush, issue, r, 0);
        }
        (r, fault)
    }

    /// Removes `dur` of queued background work (it was promoted to the
    /// foreground class and submitted there — e.g. the journal commit
    /// path writing back ordered data itself instead of waiting for the
    /// flusher).
    pub fn credit_background(&mut self, dur: Nanos) {
        self.bg_tail -= dur;
    }

    /// Resets the I/O counters (not the timelines); used between
    /// benchmark phases.
    pub fn reset_stats(&mut self) {
        self.stats = IoStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ssd() -> Ssd {
        Ssd::new(SsdConfig::pm883())
    }

    /// A clean foreground data write.
    fn write(d: &mut Ssd, issue: Nanos, bytes: u64) -> Reservation {
        d.write(issue, bytes, WriteClass::Data, false).0
    }

    #[test]
    fn write_accounts_bytes_and_time() {
        let mut d = ssd();
        let r = write(&mut d, Nanos::ZERO, 520 * 1_000_000); // 1 second of data
        assert_eq!(d.stats().bytes_written, 520 * 1_000_000);
        assert_eq!(d.stats().write_commands, 1);
        let secs = r.duration().as_secs_f64();
        assert!((secs - 1.0).abs() < 0.01, "expected ~1s, got {secs}");
    }

    #[test]
    fn flush_acts_as_barrier() {
        let mut d = ssd();
        // Issue a long write, then a flush "from the future is not possible":
        // the flush queues behind the write even if issued at t=0.
        let w = write(&mut d, Nanos::ZERO, 100 << 20);
        let f = d.flush(Nanos::ZERO, false).0;
        assert_eq!(f.start, w.end);
        // And a subsequent read queues behind the flush.
        let r = d.read(Nanos::ZERO, 4096);
        assert_eq!(r.start, f.end);
    }

    #[test]
    fn read_and_write_costs_differ_by_bandwidth() {
        let mut d = ssd();
        let w = write(&mut d, Nanos::ZERO, 1 << 30);
        let r = d.read(w.end, 1 << 30);
        // Read bandwidth is higher, so the read is shorter.
        assert!(r.duration() < w.duration());
    }

    #[test]
    fn reset_stats_zeroes_counters_only() {
        let mut d = ssd();
        write(&mut d, Nanos::ZERO, 4096);
        let free = d.free_at();
        d.reset_stats();
        assert_eq!(*d.stats(), IoStats::default());
        assert_eq!(d.free_at(), free);
    }

    #[test]
    fn flush_frontier_tracks_latest_flush_completion() {
        let mut d = ssd();
        assert_eq!(d.flush_frontier(), Nanos::ZERO);
        let f = d.flush(Nanos::ZERO, false).0;
        assert_eq!(d.flush_frontier(), f.end);
        // A background flush queued later advances the frontier…
        let bg = d.flush(f.end, true).0;
        assert_eq!(d.flush_frontier(), bg.end);
        // …and an earlier-completing command never moves it backwards.
        d.flush(Nanos::ZERO, false);
        assert!(d.flush_frontier() >= bg.end);
    }

    #[test]
    fn zero_byte_write_still_pays_command_latency() {
        let mut d = ssd();
        let r = write(&mut d, Nanos::ZERO, 0);
        assert_eq!(r.duration(), d.cfg.cmd_latency);
    }
}
