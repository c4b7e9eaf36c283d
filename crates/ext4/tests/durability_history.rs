//! The durability history seen from outside: whatever order write-back
//! completions arrive in — the flusher's background queue overtaken by a
//! foreground fsync, torn writes that persist less than an earlier one,
//! corrupt ones — the filesystem must answer "how long a prefix is durable
//! at `t`" exactly as a scan over *every* completion would
//! (`filter(at <= t).map(len).max()`), and an ordered commit must wait for
//! the completion recorded *last*, beaten or not.
//!
//! The test rebuilds that full completion list from public observations
//! only — the fault injector sees every data write in issue order and
//! decides its fate, the trace carries each write's completion instant —
//! and holds the filesystem to the scan on every path that reads the
//! history: `fsync`'s pending-byte accounting, the sync commit's in-flight
//! promotion, every commit window's `data_done`, and `crashed_view` on a
//! grid of instants.

use std::cmp::Reverse;
use std::sync::{Arc, Mutex};

use nob_ext4::{CommitWindow, Ext4Config, Ext4Fs};
use nob_sim::Nanos;
use nob_ssd::{FaultInjector, InjectorHandle, WriteClass, WriteCmd, WriteFault};
use nob_trace::{EventClass, TraceSink};

const CHUNK: u64 = 8 << 10;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Tears or corrupts a fifth of the data writes and logs every one.
struct DataFaults {
    rng: Lcg,
    log: Arc<Mutex<Vec<(WriteCmd, WriteFault)>>>,
}

impl FaultInjector for DataFaults {
    fn on_write(&mut self, cmd: &WriteCmd) -> WriteFault {
        if cmd.class != WriteClass::Data {
            return WriteFault::None;
        }
        let fault = match self.rng.next() % 10 {
            // Half the torn writes persist nothing at all: such a
            // completion adds no step to the history, yet an ordered
            // commit must still wait for it.
            0 => WriteFault::Torn { keep: (self.rng.next() % 2) * (self.rng.next() % cmd.bytes) },
            1 => WriteFault::Corrupt,
            _ => WriteFault::None,
        };
        self.log.lock().unwrap().push((*cmd, fault));
        fault
    }
}

/// What one seed's run exercised, so the sweep can show it covered the
/// cases it is named for.
#[derive(Default)]
struct Coverage {
    out_of_order: u64,
    torn: u64,
    corrupt: u64,
    promotions: u64,
    last_recorded_was_not_the_top_step: u64,
}

/// The reference: every completion ever recorded, scanned linearly.
#[derive(Default)]
struct Reference {
    completions: Vec<(Nanos, u64)>,
    written_back: u64,
    /// `(record durable at, committed length)` in commit order.
    commits: Vec<(Nanos, u64)>,
}

impl Reference {
    fn persisted_len_at(&self, t: Nanos) -> u64 {
        self.completions.iter().filter(|(at, _)| *at <= t).map(|(_, len)| *len).max().unwrap_or(0)
    }
}

struct Run {
    fs: Ext4Fs,
    sink: TraceSink,
    log: Arc<Mutex<Vec<(WriteCmd, WriteFault)>>>,
    reference: Reference,
    /// Completion instants of the data writes, refreshed per call absorbed.
    ends: Vec<Nanos>,
    seen_writes: usize,
    seen_windows: usize,
    fast_commit: bool,
    cover: Coverage,
}

impl Run {
    /// Completion instants of every data write so far, in issue order.
    fn write_ends(&self) -> Vec<Nanos> {
        let (spans, _) = self.sink.snapshot();
        spans.iter().filter(|s| s.class == EventClass::Writeback).map(|s| s.end).collect()
    }

    /// Takes the next unseen data write, checks it is the one the
    /// reference predicts (`bytes` issued at `at` in the given class) and
    /// records the completion the device's verdict leaves behind.
    fn take_write(&mut self, base: u64, target: u64, at: Nanos, background: bool) -> Nanos {
        let (cmd, fault) = self.log.lock().unwrap()[self.seen_writes];
        let end = self.ends[self.seen_writes];
        self.seen_writes += 1;
        assert_eq!((cmd.bytes, cmd.at, cmd.background), (target - base, at, background));
        let len = match fault {
            WriteFault::Torn { keep } => {
                self.cover.torn += 1;
                base + keep.min(target - base)
            }
            WriteFault::Corrupt => {
                self.cover.corrupt += 1;
                target
            }
            WriteFault::None => target,
        };
        if self.reference.completions.last().is_some_and(|(last, _)| end < *last) {
            self.cover.out_of_order += 1;
        }
        self.reference.completions.push((end, len));
        end
    }

    /// Accounts for everything one call into the filesystem did. `before`
    /// and `after` are the file's length around the call; `now` is the
    /// instant it was made at; `synced` is `bytes_synced` before it.
    fn absorb(&mut self, before: u64, after: u64, now: Nanos, synced: u64, streams: bool) {
        self.ends = self.write_ends();
        let windows: Vec<CommitWindow> = self.fs.commit_windows()[self.seen_windows..].to_vec();
        self.seen_windows += windows.len();
        for w in &windows {
            // Timer commits ran inside the call's leading `tick`, before
            // the call changed anything; a sync commit is the call.
            let len = if w.sync { after } else { before };
            let mut data_done = w.start;
            if w.sync {
                let pending = after - self.reference.persisted_len_at(now).min(after);
                assert_eq!(self.fs.stats().bytes_synced - synced, pending, "fsync pending bytes");
            }
            if w.sync && !self.fast_commit {
                let wb = self.reference.written_back;
                let durable = self.reference.persisted_len_at(w.start).min(wb);
                if durable < wb {
                    self.cover.promotions += 1;
                    data_done = data_done.max(self.take_write(durable, wb, w.start, false));
                }
            } else if let Some(&(last, _)) = self.reference.completions.last() {
                // The completion recorded last need not be the staircase's
                // top step (the longest prefix at its earliest instant).
                let top =
                    self.reference.completions.iter().map(|&(at, len)| (len, Reverse(at))).max();
                let Reverse(top_at) = top.expect("non-empty").1;
                if w.start.max(last) != w.start.max(top_at) {
                    self.cover.last_recorded_was_not_the_top_step += 1;
                }
                data_done = data_done.max(last);
            }
            if self.reference.written_back < len {
                let wb = self.reference.written_back;
                data_done = data_done.max(self.take_write(wb, len, w.start, !w.sync));
                self.reference.written_back = len;
            }
            assert_eq!(w.data_done, data_done, "commit window {w:?}");
            assert!(!w.faulted, "only data writes are faulted");
            self.reference.commits.push((w.end, len));
        }
        if streams && after - self.reference.written_back >= CHUNK {
            self.take_write(self.reference.written_back, after, now, true);
            self.reference.written_back = after;
        }
        assert_eq!(self.seen_writes, self.log.lock().unwrap().len(), "an unexplained data write");
    }

    /// `crashed_view(t)` shows the file at `min(committed, persisted)`.
    fn check_crash_at(&self, t: Nanos) {
        let view = self.fs.crashed_view(t);
        let Some(&(_, committed)) = self.reference.commits.iter().rev().find(|(end, _)| *end <= t)
        else {
            assert!(!view.exists("f"), "no commit record is durable at {t}");
            return;
        };
        let persisted = self.reference.persisted_len_at(t);
        assert_eq!(view.file_size("f").unwrap(), committed.min(persisted), "crash at {t}");
        assert_eq!(view.stats().ordered_violations, u64::from(persisted < committed));
    }
}

fn run_seed(seed: u64, fast_commit: bool) -> Coverage {
    // A slow device keeps the flusher's queue a few milliseconds deep, so
    // commits and fsyncs routinely find write-back in flight.
    let mut cfg = Ext4Config {
        commit_interval: Nanos::from_millis(2),
        writeback_chunk: CHUNK,
        fast_commit,
        ..Ext4Config::default()
    };
    cfg.ssd.seq_write_bw = 40 << 20;
    let fs = Ext4Fs::new(cfg);
    let sink = TraceSink::with_ring_capacity(1 << 16);
    fs.set_trace_sink(sink.clone());
    let log = Arc::new(Mutex::new(Vec::new()));
    fs.set_fault_injector(InjectorHandle::new(DataFaults {
        rng: Lcg(seed ^ 0xfau64),
        log: Arc::clone(&log),
    }));
    let mut run = Run {
        fs: fs.clone(),
        sink,
        log,
        reference: Reference::default(),
        ends: Vec::new(),
        seen_writes: 0,
        seen_windows: 0,
        fast_commit,
        cover: Coverage::default(),
    };
    let mut rng = Lcg(seed);
    let mut now = Nanos::ZERO;
    let h = fs.create("f", now).unwrap();
    let mut len = 0u64;
    for _ in 0..120 {
        let synced = fs.stats().bytes_synced;
        match rng.next() % 8 {
            0..=4 => {
                // Mostly small appends, sometimes several chunks at once so
                // the flusher's queue runs ahead of the clock.
                let n = if rng.next().is_multiple_of(4) {
                    rng.next() % (64 << 10)
                } else {
                    rng.next() % 6000
                };
                let n = n + 1;
                let issued = now;
                now = fs.append(h, vec![seed as u8; n as usize], now).unwrap();
                run.absorb(len, len + n, issued, synced, true);
                len += n;
            }
            5 | 6 => {
                let issued = now;
                now = fs.fsync(h, now).unwrap();
                run.absorb(len, len, issued, synced, false);
            }
            _ => {
                now += Nanos::from_micros(rng.next() % 3000);
                fs.tick(now);
                run.absorb(len, len, now, synced, false);
            }
        }
    }
    // A grid over the whole run and past its last completion, plus every
    // instant at which the answer can change and the one just before it.
    let horizon = run.reference.completions.iter().map(|(at, _)| *at).max().unwrap_or(now).max(now)
        + Nanos::from_millis(1);
    let mut instants: Vec<Nanos> =
        (0..=50).map(|i| Nanos::from_nanos(horizon.as_nanos() / 50 * i)).collect();
    for at in run
        .reference
        .completions
        .iter()
        .map(|(at, _)| *at)
        .chain(run.reference.commits.iter().map(|(end, _)| *end))
    {
        instants.push(at);
        instants.push(at.saturating_sub(Nanos::from_nanos(1)));
    }
    for t in instants {
        run.check_crash_at(t);
    }
    run.cover
}

#[test]
fn history_reads_match_the_linear_scan_under_out_of_order_and_faulted_writeback() {
    let mut total = Coverage::default();
    for seed in 1..=24 {
        for fast_commit in [false, true] {
            let c = run_seed(seed, fast_commit);
            total.out_of_order += c.out_of_order;
            total.torn += c.torn;
            total.corrupt += c.corrupt;
            total.promotions += c.promotions;
            total.last_recorded_was_not_the_top_step += c.last_recorded_was_not_the_top_step;
        }
    }
    assert!(total.out_of_order > 50, "out-of-order completions: {}", total.out_of_order);
    assert!(
        total.torn > 50 && total.corrupt > 50,
        "faults: {} torn, {} corrupt",
        total.torn,
        total.corrupt
    );
    assert!(total.promotions > 50, "in-flight promotions: {}", total.promotions);
    assert!(
        total.last_recorded_was_not_the_top_step > 0,
        "no commit's wait ever depended on the last-recorded completion rather than the top step"
    );
}
