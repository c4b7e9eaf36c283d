//! The crash horizon forgets only what no crash view at or after it can
//! see.
//!
//! One seeded script — creates, appends, fsyncs, deletes, `CURRENT`-style
//! rename-over and timer commits — runs on two filesystems side by side:
//! one with its horizon pinned, which forgets nothing, and one whose
//! horizon follows the script's present. Every few steps, every crash view
//! at or after the horizon — on a grid and at every commit-window boundary
//! — must be the same on both sides: the same paths, the same bytes and the
//! same ordered-mode violation count. The script runs without faults and
//! under a torn journal write, dropped FLUSHes and corrupt data write-back,
//! with and without fast commits.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use nob_ext4::{Ext4Config, Ext4Fs, FileHandle};
use nob_sim::Nanos;
use nob_ssd::{
    FaultInjector, FlushCmd, FlushFault, InjectorHandle, WriteClass, WriteCmd, WriteFault,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const STEPS: usize = 400;
const CHECK_EVERY: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Faults {
    None,
    /// Tears one main-journal commit record mid-run: replay stops there,
    /// so a deletion journalled after it must not be forgotten.
    TornJournal,
    /// Drops two FLUSHes in three: a deletion acknowledged behind one is
    /// durable only at the next real FLUSH.
    DroppedFlush,
    /// Corrupts every fourth data write-back.
    CorruptData,
}

const ALL_FAULTS: [Faults; 4] =
    [Faults::None, Faults::TornJournal, Faults::DroppedFlush, Faults::CorruptData];

/// A deterministic fault schedule; each side gets its own copy, and both
/// see the same command stream.
struct Injector {
    faults: Faults,
    journal_writes: u64,
    data_writes: u64,
    flushes: u64,
}

impl FaultInjector for Injector {
    fn on_write(&mut self, cmd: &WriteCmd) -> WriteFault {
        match (self.faults, cmd.class) {
            (Faults::TornJournal, WriteClass::Journal) => {
                self.journal_writes += 1;
                if self.journal_writes == 12 {
                    WriteFault::Torn { keep: 0 }
                } else {
                    WriteFault::None
                }
            }
            (Faults::CorruptData, WriteClass::Data) => {
                self.data_writes += 1;
                if self.data_writes.is_multiple_of(4) {
                    WriteFault::Corrupt
                } else {
                    WriteFault::None
                }
            }
            _ => WriteFault::None,
        }
    }

    fn on_flush(&mut self, _cmd: &FlushCmd) -> FlushFault {
        if self.faults != Faults::DroppedFlush {
            return FlushFault::None;
        }
        self.flushes += 1;
        if self.flushes.is_multiple_of(3) {
            FlushFault::None
        } else {
            FlushFault::DroppedAcked
        }
    }
}

/// The two filesystems, pinned first.
struct Sides {
    fs: [Ext4Fs; 2],
    /// The run's faults and journal mode, for failure messages.
    what: String,
    /// The advancing side's horizon: the script's present.
    horizon: Nanos,
}

impl Sides {
    fn new(faults: Faults, fast_commit: bool) -> Self {
        let cfg = Ext4Config { fast_commit, ..Ext4Config::default() };
        let fs = [Ext4Fs::new(cfg.clone()), Ext4Fs::new(cfg)];
        fs[0].pin_crash_horizon();
        for f in &fs {
            f.set_fault_injector(InjectorHandle::new(Injector {
                faults,
                journal_writes: 0,
                data_writes: 0,
                flushes: 0,
            }));
        }
        Sides { fs, what: format!("{faults:?}, fast_commit {fast_commit}"), horizon: Nanos::ZERO }
    }

    /// Runs `op` on both sides; forgetting must not move its result.
    fn both<T: PartialEq + std::fmt::Debug>(&self, mut op: impl FnMut(&Ext4Fs, usize) -> T) -> T {
        let pinned = op(&self.fs[0], 0);
        let advancing = op(&self.fs[1], 1);
        assert_eq!(pinned, advancing, "{}: the two sides diverged", self.what);
        advancing
    }

    fn advance(&mut self, now: Nanos) {
        self.horizon = now;
        self.fs[1].advance_crash_horizon(now);
    }

    /// Every cut at or after the horizon, on a grid and at every commit
    /// window boundary, must leave the same disk on both sides.
    fn compare(&self, now: Nanos) -> usize {
        let windows = self.both(|fs, _| fs.commit_windows());
        let last = windows.iter().map(|w| w.end).max().unwrap_or(now).max(now);
        let until = last + Nanos::from_secs(1);
        let span = (until - self.horizon).as_nanos();
        let mut cuts: BTreeSet<Nanos> =
            (0..=16).map(|i| self.horizon + Nanos::from_nanos(span * i / 16)).collect();
        for w in &windows {
            cuts.extend(
                [w.start, w.data_done, w.journal_done, w.end]
                    .into_iter()
                    .filter(|&b| b >= self.horizon),
            );
        }
        for &at in &cuts {
            let (pinned, advancing) = (disk(&self.fs[0], at), disk(&self.fs[1], at));
            assert!(
                pinned == advancing,
                "{}: crash at {at:?} (horizon {:?}): pinned {} but advancing {}",
                self.what,
                self.horizon,
                summary(&pinned),
                summary(&advancing)
            );
        }
        cuts.len()
    }
}

/// What a power cut at `at` leaves: every path with its bytes, and the
/// ordered-mode violations the reconstruction counted.
fn disk(fs: &Ext4Fs, at: Nanos) -> (Vec<(String, Vec<u8>)>, u64) {
    let view = fs.crashed_view(at);
    let files = view
        .list("")
        .into_iter()
        .map(|p| {
            let h = view.open(&p, at).unwrap();
            let len = view.file_size(&p).unwrap();
            let (bytes, _) = view.read_at(h, 0, len, at).unwrap();
            (p, bytes.to_vec())
        })
        .collect();
    (files, view.stats().ordered_violations)
}

/// Paths with their lengths, and the violation count.
fn summary((files, violations): &(Vec<(String, Vec<u8>)>, u64)) -> String {
    let files: Vec<String> = files.iter().map(|(p, b)| format!("{p}:{}", b.len())).collect();
    format!("[{}] violations {violations}", files.join(" "))
}

/// Runs the seeded script on both sides, comparing as it goes. Returns
/// the sides and how many cuts were compared.
fn run(seed: u64, faults: Faults, fast_commit: bool) -> (Sides, usize) {
    let mut sides = Sides::new(faults, fast_commit);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut live: Vec<(String, [FileHandle; 2])> = Vec::new();
    let mut next = 0u32;
    let mut now = Nanos::ZERO;
    let mut cuts = 0;
    for step in 0..STEPS {
        let fill = (step % 251) as u8;
        let data = vec![fill; rng.gen_range(1..16_384)];
        now = match rng.gen_range(0..10) {
            0 | 1 => {
                let path = format!("f{next:04}");
                next += 1;
                let mut h = [None; 2];
                let t = sides.both(|fs, i| {
                    let f = fs.create(&path, now).unwrap();
                    h[i] = Some(f);
                    fs.append(f, &data, now).unwrap()
                });
                live.push((path, h.map(Option::unwrap)));
                t
            }
            2..=4 if !live.is_empty() => {
                let (_, h) = &live[rng.gen_range(0..live.len())];
                sides.both(|fs, i| fs.append(h[i], &data, now).unwrap())
            }
            5 if !live.is_empty() => {
                let (_, h) = &live[rng.gen_range(0..live.len())];
                sides.both(|fs, i| fs.fsync(h[i], now).unwrap())
            }
            6 if !live.is_empty() => {
                let (path, _) = live.swap_remove(rng.gen_range(0..live.len()));
                sides.both(|fs, _| fs.delete(&path, now).unwrap())
            }
            7 => sides.both(|fs, _| {
                let tmp = fs.create("CURRENT.tmp", now).unwrap();
                let t = fs.append(tmp, format!("MANIFEST-{step:06}\n").as_bytes(), now).unwrap();
                let t = fs.fsync(tmp, t).unwrap();
                fs.rename("CURRENT.tmp", "CURRENT", t).unwrap()
            }),
            _ => {
                let t = now + Nanos::from_micros(rng.gen_range(1..3_000_000));
                sides.both(|fs, _| fs.tick(t));
                t
            }
        };
        sides.advance(now);
        if step % CHECK_EVERY == 0 {
            cuts += sides.compare(now);
        }
    }
    // Two commit intervals later every deletion is committed.
    let end = now + Nanos::from_secs(11);
    sides.both(|fs, _| fs.tick(end));
    sides.advance(end);
    cuts += sides.compare(end);
    (sides, cuts)
}

#[test]
fn forgetting_changes_no_view_at_or_after_the_horizon() {
    for fast_commit in [false, true] {
        for faults in ALL_FAULTS {
            let (sides, cuts) = run(26, faults, fast_commit);
            let what = &sides.what;
            assert!(cuts > 200, "{what}: only {cuts} cuts compared");
            let [pinned, advancing] = &sides.fs;
            assert!(
                advancing.retained_bytes() < pinned.retained_bytes(),
                "{what}: the advancing side forgot nothing ({} bytes on both)",
                pinned.retained_bytes()
            );
            if faults == Faults::TornJournal {
                assert!(pinned.journal_broken().is_some(), "{what}: the tear must break the chain");
            }
            // A view below the horizon would need what was forgotten.
            let below = sides.horizon - Nanos::from_nanos(1);
            let asked = catch_unwind(AssertUnwindSafe(|| advancing.crashed_view(below)));
            assert!(asked.is_err(), "{what}: a view below the horizon must panic");
            let _ = pinned.crashed_view(below);
        }
    }
}
