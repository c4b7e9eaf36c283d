//! Property tests for the engine's crash consistency — the paper's
//! central claim (§4.4): since the first time a KV pair is made durable,
//! it is never lost after a crash, in NobLSM mode exactly as in LevelDB
//! mode. Every property drives the harness's op stream
//! ([`nob_chaos::run_ops`]) and recovers through its recovery step
//! ([`nob_chaos::recover`]), whose rows `nob_sim::oracle`, the one crash
//! oracle, checks; none may need `Db::repair`.

use nob_chaos::{config_options, fresh_db, recover, run_ops, CaseResult, Op};
use nob_ext4::Ext4Fs;
use nob_sim::oracle::Oracle;
use nob_sim::Nanos;
use noblsm::{Options, ReadOptions, ScanOptions};
use proptest::prelude::*;

/// The value size of every property's puts.
const VALUE: usize = 64;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0u16..200, 0u16..1000).prop_map(|(k, v)| Op::Put(k, v)),
        2 => (0u16..200).prop_map(Op::Delete),
        1 => Just(Op::Flush),
        1 => (1u32..3_000_000).prop_map(Op::Sleep),
    ]
}

/// Recovers what a crash at `at` leaves of `fs` and checks it against
/// `oracle` at `at`.
fn crash(fs: &Ext4Fs, opts: &Options, oracle: &Oracle, at: Nanos) -> CaseResult {
    recover(&fs.crashed_view(at), opts, oracle, at)
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
        let mode = config_options(mode_sel);
        let (fs, mut db) = fresh_db(&mode);
        let mut oracle = Oracle::default();
        run_ops(&mut db, &ops, VALUE, &mut oracle, Nanos::ZERO);
        oracle.ack(.., db.flush().unwrap());
        // Two commit intervals make every metadata change durable.
        let now = db.settle().unwrap() + Nanos::from_secs(11);
        db.clock().advance_to(now);
        db.tick().unwrap();

        let r = crash(&fs, &mode, &oracle, now);
        prop_assert!(r.recovered_cleanly(), "config {}: {:?}", mode_sel, r);
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
        let mode = config_options(mode_sel);
        let (fs, mut db) = fresh_db(&mode);
        fs.pin_crash_horizon();
        let mut oracle = Oracle::default();
        let end = run_ops(&mut db, &ops, VALUE, &mut oracle, Nanos::ZERO);
        let crash_at = Nanos::from_nanos((end.as_nanos() as f64 * crash_frac) as u64);

        let r = crash(&fs, &mode, &oracle, crash_at);
        prop_assert!(r.recovered_cleanly(), "config {}: {:?}", mode_sel, r);
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
        let noblsm = config_options(1);
        let (fs, mut db) = fresh_db(&noblsm);
        let mut oracle = Oracle::default();
        // The flush syncs the L0 table of `first`; `second` (and its
        // compactions) is never synced again.
        let put = |&(k, v): &(u16, u16)| Op::Put(k, v);
        let ops: Vec<Op> = first.iter().map(put).chain([Op::Flush]).chain(second.iter().map(put)).collect();
        let now = run_ops(&mut db, &ops, VALUE, &mut oracle, Nanos::ZERO);
        let now = db.wait_idle(now).unwrap();
        let r = crash(&fs, &noblsm, &oracle, now);
        prop_assert!(r.recovered_cleanly(), "{:?}", r);
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
        let (fs, mut db) = fresh_db(&config_options(sel));
        let mut oracle = Oracle::default();
        let mut now = Nanos::ZERO;
        for op in [Op::Put(1, 1), Op::Delete(1)] {
            now = run_ops(&mut db, &[op], VALUE, &mut oracle, now);
            now = db.compact_range(now, None, None).unwrap();
            oracle.ack(.., now);
        }
        let r = crash(&fs, &config_options(sel), &oracle, now);
        assert!(r.recovered_cleanly(), "config {sel}, recovered: {r:?}");
        let live = db.scan(&ReadOptions::default(), &ScanOptions::all()).unwrap().rows;
        assert!(oracle.check(&live, now).holds(), "config {sel}, live: {live:?}");
    }
}
