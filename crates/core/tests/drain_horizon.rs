//! Forgetting mid-drain changes no crash view.
//!
//! A drain (`Db::wait_idle`, `Db::flush`, `Db::compact_range`) moves the
//! shared clock to each instant it reaches, and the pump raises the crash
//! horizon to the clock once the completions due there are applied, so a
//! table deleted early in the drain is forgotten before the drain ends.
//! Two NobLSM engines run one seeded script — a load in rounds, a
//! `compact_range` over each quarter of the key space, a jump of the clock
//! past the pending reclamation polls and a drain there, then `settle` —
//! one on a filesystem whose horizon is pinned, which forgets nothing, and
//! one whose horizon follows its engine. Both must return the same
//! instants, and after every step every crash view at or after the
//! following engine's clock — on a grid and at every commit-window
//! boundary — must hold the same paths and the same bytes. The script runs
//! without faults, with one main-journal commit record torn and with
//! dropped FLUSHes.
//!
//! The jump is the ledger's settle: the drain steps through every
//! completion below the instant it was asked for, in order, and raises the
//! horizon only to each step's instant, so the views must also agree after
//! a drain that stepped across journal commits.

use std::collections::BTreeSet;

use nob_ext4::{Ext4Config, Ext4Fs};
use nob_sim::Nanos;
use nob_ssd::{
    FaultInjector, FlushCmd, FlushFault, InjectorHandle, WriteClass, WriteCmd, WriteFault,
};
use noblsm::{Db, Options, SyncMode, WriteBatch, WriteOptions};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const KEYS: u64 = 4_000;
const ROUNDS: usize = 6;
const PUTS_PER_ROUND: usize = 1_500;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Faults {
    None,
    /// Tears one main-journal commit record: replay stops there, so a
    /// deletion journalled after it must not be forgotten.
    TornJournal,
    /// Drops two FLUSHes in three: a deletion acknowledged behind one is
    /// durable only at the next real FLUSH.
    DroppedFlush,
}

/// A deterministic fault schedule; each side gets its own copy, and both
/// see the same command stream.
struct Injector {
    faults: Faults,
    journal_writes: u64,
    flushes: u64,
}

impl FaultInjector for Injector {
    fn on_write(&mut self, cmd: &WriteCmd) -> WriteFault {
        if self.faults != Faults::TornJournal || cmd.class != WriteClass::Journal {
            return WriteFault::None;
        }
        self.journal_writes += 1;
        if self.journal_writes == 40 {
            WriteFault::Torn { keep: 0 }
        } else {
            WriteFault::None
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

/// Small tables and levels, so the load leaves several levels and
/// `compact_range` deletes many tables.
fn opts() -> Options {
    let mut opts = Options::default().with_sync_mode(SyncMode::NobLsm).with_table_size(32 << 10);
    opts.level1_max_bytes = 128 << 10;
    opts.block_cache_bytes = 256 << 10;
    opts
}

/// The two engines, the pinned one first.
struct Twin {
    db: [Db; 2],
    what: String,
}

impl Twin {
    fn new(faults: Faults) -> Self {
        let db = [true, false].map(|pinned| {
            let fs = Ext4Fs::new(Ext4Config::default().with_page_cache(8 << 20));
            if pinned {
                fs.pin_crash_horizon();
            }
            fs.set_fault_injector(InjectorHandle::new(Injector {
                faults,
                journal_writes: 0,
                flushes: 0,
            }));
            Db::open(fs, "db", opts(), Nanos::ZERO).unwrap()
        });
        Twin { db, what: format!("{faults:?}") }
    }

    /// Runs `op` on both engines; forgetting must not move its result.
    fn both<T: PartialEq + std::fmt::Debug>(&mut self, mut op: impl FnMut(&mut Db) -> T) -> T {
        let pinned = op(&mut self.db[0]);
        let following = op(&mut self.db[1]);
        assert_eq!(pinned, following, "{}: the two engines diverged", self.what);
        following
    }

    /// Every cut at or after the following engine's clock, on a grid and
    /// at every commit-window boundary, must leave the same disk on both
    /// sides. Returns how many cuts were compared.
    fn compare(&self, step: &str) -> usize {
        let [pinned, following] = [self.db[0].fs(), self.db[1].fs()];
        let from = self.db[1].clock().now();
        let windows = following.commit_windows();
        assert_eq!(windows, pinned.commit_windows(), "{}, {step}: commit windows", self.what);
        let last = windows.iter().map(|w| w.end).max().unwrap_or(from).max(from);
        let span = (last + Nanos::from_secs(1) - from).as_nanos();
        let mut cuts: BTreeSet<Nanos> =
            (0..=8).map(|i| from + Nanos::from_nanos(span * i / 8)).collect();
        for w in &windows {
            cuts.extend(
                [w.start, w.data_done, w.journal_done, w.end].into_iter().filter(|&b| b >= from),
            );
        }
        for &at in &cuts {
            let (a, b) = (disk(pinned, at), disk(following, at));
            assert!(
                a == b,
                "{}, {step}: crash at {at:?} (clock {from:?}): pinned [{}] but following [{}]",
                self.what,
                summary(&a),
                summary(&b)
            );
        }
        cuts.len()
    }
}

/// Every path a power cut at `at` leaves, with its bytes.
fn disk(fs: &Ext4Fs, at: Nanos) -> Vec<(String, Vec<u8>)> {
    let view = fs.crashed_view(at);
    view.list("")
        .into_iter()
        .map(|p| {
            let h = view.open(&p, at).unwrap();
            let len = view.file_size(&p).unwrap();
            let (bytes, _) = view.read_at(h, 0, len, at).unwrap();
            (p, bytes.to_vec())
        })
        .collect()
}

fn summary(files: &[(String, Vec<u8>)]) -> String {
    files.iter().map(|(p, b)| format!("{p}:{}", b.len())).collect::<Vec<_>>().join(" ")
}

/// Moves the clock two journal-commit plus reclamation intervals on, past
/// the pending reclamation polls, and drains there.
fn jump(db: &mut Db) -> Nanos {
    let wait = db.fs().config().commit_interval + db.options().reclaim_interval;
    db.clock().advance(wait + wait);
    db.wait_idle(db.clock().now()).unwrap()
}

fn key(i: u64) -> Vec<u8> {
    format!("key{i:08}").into_bytes()
}

/// Runs the seeded script on both engines, comparing after every step.
/// Returns the twin and how many cuts were compared.
fn run(seed: u64, faults: Faults) -> (Twin, usize) {
    let mut twin = Twin::new(faults);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut cuts = 0;
    for round in 0..ROUNDS {
        for _ in 0..PUTS_PER_ROUND {
            let k = key(rng.gen_range(0..KEYS));
            let v = vec![rng.gen::<u8>(); rng.gen_range(64..512)];
            twin.both(|db| {
                let mut batch = WriteBatch::new();
                batch.put(&k, &v);
                db.write(&WriteOptions::default(), batch).unwrap()
            });
        }
        twin.both(|db| db.wait_idle(db.clock().now()).unwrap());
        cuts += twin.compare(&format!("load round {round}"));
    }
    for q in 0..4 {
        let (lo, hi) = (key(q * KEYS / 4), key((q + 1) * KEYS / 4 - 1));
        twin.both(|db| db.compact_range(db.clock().now(), Some(&lo), Some(&hi)).unwrap());
        cuts += twin.compare(&format!("compact_range quarter {q}"));
    }
    let shadows = twin.db[1].stats().shadow_files;
    assert!(shadows > 0, "{}: the jump must pass pending reclamation polls", twin.what);
    twin.both(jump);
    assert!(
        twin.db[1].stats().shadow_files < shadows,
        "{}: the jump reclaimed no shadow",
        twin.what
    );
    cuts += twin.compare("jump");
    twin.both(|db| db.settle().unwrap());
    cuts += twin.compare("settle");
    (twin, cuts)
}

#[test]
fn forgetting_mid_drain_changes_no_crash_view() {
    for faults in [Faults::None, Faults::TornJournal, Faults::DroppedFlush] {
        let (twin, cuts) = run(46, faults);
        let what = &twin.what;
        assert!(cuts > 100, "{what}: only {cuts} cuts compared");
        let [pinned, following] = [twin.db[0].fs(), twin.db[1].fs()];
        assert!(twin.db[1].stats().major_compactions > 10, "{what}: the script must compact");
        if faults == Faults::TornJournal {
            assert!(pinned.journal_broken().is_some(), "{what}: the tear must break the chain");
        }
        assert!(
            following.retained_bytes() < pinned.retained_bytes(),
            "{what}: the following engine forgot nothing ({} bytes on both)",
            pinned.retained_bytes()
        );
    }
}
