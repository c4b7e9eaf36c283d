//! Property tests for the engine's crash consistency — the paper's
//! central claim (§4.4): since the first time a KV pair is made durable,
//! it is never lost after a crash, in NobLSM mode exactly as in LevelDB
//! mode.

mod common;

use std::collections::HashMap;

use nob_ext4::{Ext4Config, Ext4Fs};
use nob_sim::Nanos;
use noblsm::{CompactionStyle, Db, Options, SyncMode};
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

fn apply_ops(
    db: &mut Db,
    ops: &[Op],
    model: &mut HashMap<Vec<u8>, Option<Vec<u8>>>,
    history: &mut HashMap<Vec<u8>, Vec<Vec<u8>>>,
    mut now: Nanos,
) -> Nanos {
    for op in ops {
        match op {
            Op::Put(k, v) => {
                let (key, value) = (kname(*k), vname(*k, *v));
                now = common::put(db, now, &key, &value).unwrap();
                history.entry(key.clone()).or_default().push(value.clone());
                model.insert(key, Some(value));
            }
            Op::Delete(k) => {
                let key = kname(*k);
                now = common::delete(db, now, &key).unwrap();
                model.insert(key, None);
            }
            Op::Flush => {
                now = db.flush().unwrap();
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

/// Reads the full recovered state as a map.
fn dump(db: &mut Db, now: Nanos) -> HashMap<Vec<u8>, Vec<u8>> {
    let mut out = HashMap::new();
    let mut it = db.iter_at(now).unwrap();
    it.seek_to_first().unwrap();
    while it.valid() {
        out.insert(it.key().to_vec(), it.value().to_vec());
        it.next().unwrap();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After flushing everything and letting the journal settle, a crash
    /// loses nothing: the recovered database equals the logical model —
    /// for every sync discipline (volatile excluded: it makes no claim).
    #[test]
    fn settled_crash_recovers_exact_state(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        mode_sel in 0usize..4,
    ) {
        let fs = Ext4Fs::new(Ext4Config::default().with_page_cache(4 << 20));
        let mode = config(mode_sel);
        let mut db = Db::open(fs.clone(), "db", mode.clone(), Nanos::ZERO).unwrap();
        let mut model = HashMap::new();
        let mut history = HashMap::new();
        apply_ops(&mut db, &ops, &mut model, &mut history, Nanos::ZERO);
        db.flush().unwrap();
        // Two commit intervals make every metadata change durable.
        let now = db.settle().unwrap() + Nanos::from_secs(11);
        db.clock().advance_to(now);
        db.tick().unwrap();

        let crashed = fs.crashed_view(now);
        let mut rdb = Db::open(crashed, "db", mode.clone(), now).unwrap();
        rdb.check_invariants().unwrap();
        let got = dump(&mut rdb, now);
        let want: HashMap<Vec<u8>, Vec<u8>> = model
            .iter()
            .filter_map(|(k, v)| v.clone().map(|v| (k.clone(), v)))
            .collect();
        prop_assert_eq!(got, want, "config {}", mode_sel);
    }

    /// Crash at ANY instant: recovery succeeds, invariants hold, and every
    /// recovered value is one the application actually wrote for that key
    /// (no torn or fabricated data) — for every sync discipline.
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
        let mut model = HashMap::new();
        let mut history = HashMap::new();
        let end = apply_ops(&mut db, &ops, &mut model, &mut history, Nanos::ZERO);
        let crash_at = Nanos::from_nanos((end.as_nanos() as f64 * crash_frac) as u64);

        let crashed = fs.crashed_view(crash_at);
        let mut rdb = Db::open(crashed, "db", mode.clone(), crash_at).unwrap();
        rdb.check_invariants().unwrap();
        let got = dump(&mut rdb, crash_at);
        for (k, v) in &got {
            let versions = history.get(k);
            prop_assert!(
                versions.is_some_and(|vs| vs.iter().any(|w| w == v)),
                "config {}: recovered value for {:?} was never written",
                mode_sel,
                String::from_utf8_lossy(k)
            );
        }
    }

    /// NobLSM-specific (§4.4): once a KV pair reaches a *synced* L0 table,
    /// it survives any later crash even while major compactions are
    /// rewriting it with non-blocking writes. We flush mid-stream, record
    /// the acknowledged state, keep writing (forcing major compactions),
    /// then crash without any further sync.
    #[test]
    fn noblsm_never_loses_flushed_data_across_major_compactions(
        first in proptest::collection::vec((0u16..100, 0u16..1000), 20..200),
        second in proptest::collection::vec((0u16..100, 0u16..1000), 20..400),
    ) {
        let fs = Ext4Fs::new(Ext4Config::default().with_page_cache(4 << 20));
        let mut db = Db::open(fs.clone(), "db", opts(SyncMode::NobLsm), Nanos::ZERO).unwrap();
        let mut now = Nanos::ZERO;
        let mut acked: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        let mut history: HashMap<Vec<u8>, Vec<Vec<u8>>> = HashMap::new();
        for (k, v) in &first {
            let (key, value) = (kname(*k), vname(*k, *v));
            now = common::put(&mut db, now, &key, &value).unwrap();
            history.entry(key.clone()).or_default().push(value.clone());
            acked.insert(key, value);
        }
        // The flush syncs the L0 table: `acked` is now durable.
        now = db.flush().unwrap();
        // More writes + compactions, never synced again.
        for (k, v) in &second {
            let (key, value) = (kname(*k), vname(*k, *v));
            now = common::put(&mut db, now, &key, &value).unwrap();
            history.entry(key.clone()).or_default().push(value.clone());
        }
        now = db.wait_idle(now).unwrap();
        let crashed = fs.crashed_view(now);
        let mut rdb = Db::open(crashed, "db", opts(SyncMode::NobLsm), now).unwrap();
        let got = dump(&mut rdb, now);
        for (k, v) in &acked {
            let recovered = got.get(k);
            // The key must exist; its value is either the acked one or a
            // NEWER version from the second phase (also legitimately
            // recovered via WAL replay or durable tables).
            prop_assert!(
                recovered.is_some(),
                "acked key {:?} lost after crash",
                String::from_utf8_lossy(k)
            );
            let r = recovered.expect("checked");
            let newer = history.get(k).is_some_and(|vs| vs.iter().any(|w| w == r));
            prop_assert!(
                r == v || newer,
                "acked key {:?} has impossible value",
                String::from_utf8_lossy(k)
            );
        }
    }
}
