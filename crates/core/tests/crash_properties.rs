//! Property tests for the engine's crash consistency — the paper's
//! central claim (§4.4): since the first time a KV pair is made durable,
//! it is never lost after a crash, in NobLSM mode exactly as in LevelDB
//! mode. Every property checks the recovered rows with
//! `nob_sim::oracle`, the one crash oracle.

mod common;

use nob_ext4::{Ext4Config, Ext4Fs};
use nob_sim::oracle::{Oracle, Verdict};
use nob_sim::Nanos;
use noblsm::{CompactionStyle, Db, Options, ReadOptions, ScanOptions, SyncMode};
use proptest::prelude::*;

/// The sync/structure configurations whose crash behaviour we verify.
fn config(sel: usize) -> Options {
    let mut o = opts(match sel {
        1 | 3 => SyncMode::NobLsm,
        _ => SyncMode::Always,
    });
    match sel {
        2 => o.style = CompactionStyle::Fragmented,
        3 => o.grouped_output = true,
        _ => {}
    }
    o
}

#[derive(Debug, Clone)]
enum Op {
    Put(u16, u16),
    Delete(u16),
    Flush,
    Sleep(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0u16..200, 0u16..1000).prop_map(|(k, v)| Op::Put(k, v)),
        2 => (0u16..200).prop_map(Op::Delete),
        1 => Just(Op::Flush),
        1 => (1u32..3_000_000).prop_map(Op::Sleep),
    ]
}

fn kname(k: u16) -> Vec<u8> {
    format!("key{k:05}").into_bytes()
}

fn vname(k: u16, v: u16) -> Vec<u8> {
    let mut out = format!("value-{k}-{v}-").into_bytes();
    out.resize(64, b'p');
    out
}

fn opts(mode: SyncMode) -> Options {
    let mut o = Options::default().with_sync_mode(mode).with_table_size(8 << 10);
    o.level1_max_bytes = 32 << 10;
    o
}

/// Applies `ops` from `now`, logging every write in `oracle` and
/// acknowledging what is logged at the end of each flush.
fn apply_ops(db: &mut Db, ops: &[Op], oracle: &mut Oracle, mut now: Nanos) -> Nanos {
    for op in ops {
        match op {
            Op::Put(k, v) => {
                let (key, value) = (kname(*k), vname(*k, *v));
                oracle.put(now, &key, &value);
                now = common::put(db, now, &key, &value).unwrap();
            }
            Op::Delete(k) => {
                let key = kname(*k);
                oracle.delete(now, &key);
                now = common::delete(db, now, &key).unwrap();
            }
            Op::Flush => {
                now = db.flush().unwrap();
                oracle.ack(.., now);
            }
            Op::Sleep(us) => {
                now += Nanos::from_micros(*us as u64);
                db.clock().advance_to(now);
                db.tick().unwrap();
            }
        }
    }
    now
}

/// Recovers what a crash at `at` leaves of `fs`, checks the engine's
/// invariants, and checks the recovered rows against `oracle` at `at`.
fn recover(fs: &Ext4Fs, opts: &Options, oracle: &Oracle, at: Nanos) -> Verdict {
    let mut rdb = Db::open(fs.crashed_view(at), "db", opts.clone(), at).unwrap();
    rdb.check_invariants().unwrap();
    let rows = rdb.scan(&ReadOptions::default(), &ScanOptions::all()).unwrap().rows;
    oracle.check(&rows, at)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After flushing everything and letting the journal settle, a crash
    /// loses nothing: every write is acknowledged, so the recovered
    /// database equals the logical model — for every sync discipline
    /// (volatile excluded: it makes no claim).
    #[test]
    fn settled_crash_recovers_exact_state(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        mode_sel in 0usize..4,
    ) {
        let fs = Ext4Fs::new(Ext4Config::default().with_page_cache(4 << 20));
        let mode = config(mode_sel);
        let mut db = Db::open(fs.clone(), "db", mode.clone(), Nanos::ZERO).unwrap();
        let mut oracle = Oracle::default();
        apply_ops(&mut db, &ops, &mut oracle, Nanos::ZERO);
        oracle.ack(.., db.flush().unwrap());
        // Two commit intervals make every metadata change durable.
        let now = db.settle().unwrap() + Nanos::from_secs(11);
        db.clock().advance_to(now);
        db.tick().unwrap();

        let verdict = recover(&fs, &mode, &oracle, now);
        prop_assert!(verdict.holds(), "config {}: {:?}", mode_sel, verdict);
    }

    /// Crash at ANY instant: recovery succeeds, invariants hold, every
    /// write acknowledged by a flush before the crash survives, and every
    /// recovered value is one the application wrote by then (no torn or
    /// fabricated data) — for every sync discipline.
    #[test]
    fn arbitrary_crash_yields_consistent_prefix(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        crash_frac in 0.05f64..1.0,
        mode_sel in 0usize..4,
    ) {
        let fs = Ext4Fs::new(Ext4Config::default().with_page_cache(4 << 20));
        fs.pin_crash_horizon();
        let mode = config(mode_sel);
        let mut db = Db::open(fs.clone(), "db", mode.clone(), Nanos::ZERO).unwrap();
        let mut oracle = Oracle::default();
        let end = apply_ops(&mut db, &ops, &mut oracle, Nanos::ZERO);
        let crash_at = Nanos::from_nanos((end.as_nanos() as f64 * crash_frac) as u64);

        let verdict = recover(&fs, &mode, &oracle, crash_at);
        prop_assert!(verdict.holds(), "config {}: {:?}", mode_sel, verdict);
    }

    /// NobLSM-specific (§4.4): once a KV pair reaches a *synced* L0 table,
    /// it survives any later crash even while major compactions are
    /// rewriting it with non-blocking writes. We flush mid-stream (the
    /// acknowledgement), keep writing (forcing major compactions), then
    /// crash without any further sync: each acknowledged key holds its
    /// acknowledged value or a newer one, never an older one.
    #[test]
    fn noblsm_never_loses_flushed_data_across_major_compactions(
        first in proptest::collection::vec((0u16..100, 0u16..1000), 20..200),
        second in proptest::collection::vec((0u16..100, 0u16..1000), 20..400),
    ) {
        let fs = Ext4Fs::new(Ext4Config::default().with_page_cache(4 << 20));
        let mut db = Db::open(fs.clone(), "db", opts(SyncMode::NobLsm), Nanos::ZERO).unwrap();
        let mut oracle = Oracle::default();
        // The flush syncs the L0 table of `first`; `second` (and its
        // compactions) is never synced again.
        let put = |(k, v): &(u16, u16)| Op::Put(*k, *v);
        let ops: Vec<Op> = first.iter().map(put).chain([Op::Flush]).chain(second.iter().map(put)).collect();
        let now = apply_ops(&mut db, &ops, &mut oracle, Nanos::ZERO);
        let now = db.wait_idle(now).unwrap();
        let verdict = recover(&fs, &opts(SyncMode::NobLsm), &oracle, now);
        prop_assert!(verdict.holds(), "{:?}", verdict);
    }
}

/// A delete outlives the value it shadows, live and after a crash, in
/// every configuration. A fragmented merge leaves the files of its target
/// level in place, so it may not drop a tombstone while one of them still
/// holds the key: `compact_range` pushes the put to the last level, then
/// the delete after it.
#[test]
fn a_compacted_delete_stays_deleted() {
    for sel in 0..4 {
        let fs = Ext4Fs::new(Ext4Config::default().with_page_cache(4 << 20));
        let mut db = Db::open(fs.clone(), "db", config(sel), Nanos::ZERO).unwrap();
        let mut oracle = Oracle::default();
        let mut now = Nanos::ZERO;
        for op in [Op::Put(1, 1), Op::Delete(1)] {
            now = apply_ops(&mut db, &[op], &mut oracle, now);
            now = db.compact_range(now, None, None).unwrap();
            oracle.ack(.., now);
        }
        let verdict = recover(&fs, &config(sel), &oracle, now);
        assert!(verdict.holds(), "config {sel}, recovered: {verdict:?}");
        let live = db.scan(&ReadOptions::default(), &ScanOptions::all()).unwrap().rows;
        assert!(oracle.check(&live, now).holds(), "config {sel}, live: {live:?}");
    }
}
