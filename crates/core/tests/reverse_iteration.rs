//! Tests for reverse iteration: `seek_to_last`/`prev` across memtable,
//! multi-level tables, tombstones, snapshots, and direction switches —
//! including a random walk, since a forward-moving iterator lends its
//! current pair out of the merge and a backward-moving one keeps a copy,
//! and every switch between the two has to hand the position over.

mod common;

use std::collections::BTreeMap;

use nob_ext4::{Ext4Config, Ext4Fs};
use nob_sim::Nanos;
use noblsm::{Db, Options, SyncMode};
use proptest::prelude::*;

fn small_db(mode: SyncMode) -> Db {
    let fs = Ext4Fs::new(Ext4Config::default().with_page_cache(8 << 20));
    let mut o = Options::default().with_sync_mode(mode).with_table_size(16 << 10);
    o.level1_max_bytes = 64 << 10;
    Db::open(fs, "db", o, Nanos::ZERO).unwrap()
}

fn key(i: u64) -> Vec<u8> {
    format!("key{i:08}").into_bytes()
}

#[test]
fn backward_equals_reversed_forward() {
    let mut db = small_db(SyncMode::NobLsm);
    let mut now = Nanos::ZERO;
    // Data spread over memtable + several table generations + deletes.
    for i in 0..1500u64 {
        now = common::put(&mut db, now, &key(i * 7919 % 1500), &[1u8; 64]).unwrap();
    }
    for i in (0..1500).step_by(5) {
        now = common::delete(&mut db, now, &key(i)).unwrap();
    }
    now = db.wait_idle(now).unwrap();

    let mut forward = Vec::new();
    {
        let mut it = db.iter_at(now).unwrap();
        it.seek_to_first().unwrap();
        while it.valid() {
            forward.push((it.key().to_vec(), it.value().to_vec()));
            it.next().unwrap();
        }
    }
    let mut backward = Vec::new();
    {
        let mut it = db.iter_at(now).unwrap();
        it.seek_to_last().unwrap();
        while it.valid() {
            backward.push((it.key().to_vec(), it.value().to_vec()));
            it.prev().unwrap();
        }
    }
    backward.reverse();
    assert_eq!(forward.len(), backward.len());
    assert_eq!(forward, backward);
}

#[test]
fn direction_switches_mid_stream() {
    let mut db = small_db(SyncMode::Always);
    let mut now = Nanos::ZERO;
    for i in 0..100u64 {
        now = common::put(&mut db, now, &key(i), format!("v{i}").as_bytes()).unwrap();
    }
    now = db.flush().unwrap();
    let mut it = db.iter_at(now).unwrap();
    it.seek(&key(50)).unwrap();
    assert_eq!(it.key(), key(50));
    it.next().unwrap();
    assert_eq!(it.key(), key(51));
    it.prev().unwrap();
    assert_eq!(it.key(), key(50));
    it.prev().unwrap();
    assert_eq!(it.key(), key(49));
    it.next().unwrap();
    assert_eq!(it.key(), key(50));
    it.next().unwrap();
    assert_eq!(it.key(), key(51));
}

#[test]
fn prev_from_first_invalidates_and_next_from_last_invalidates() {
    let mut db = small_db(SyncMode::Always);
    let mut now = Nanos::ZERO;
    for i in 0..10u64 {
        now = common::put(&mut db, now, &key(i), b"v").unwrap();
    }
    {
        let mut it = db.iter_at(now).unwrap();
        it.seek_to_first().unwrap();
        it.prev().unwrap();
        assert!(!it.valid());
    }
    let mut it = db.iter_at(now).unwrap();
    it.seek_to_last().unwrap();
    assert_eq!(it.key(), key(9));
    it.next().unwrap();
    assert!(!it.valid());
}

#[test]
fn backward_respects_snapshots() {
    let mut db = small_db(SyncMode::NobLsm);
    let mut now = Nanos::ZERO;
    for i in 0..50u64 {
        now = common::put(&mut db, now, &key(i), b"old").unwrap();
    }
    let snap = db.snapshot();
    for i in 0..50u64 {
        now = common::put(&mut db, now, &key(i), b"new").unwrap();
    }
    now = common::put(&mut db, now, &key(999), b"invisible").unwrap();
    db.wait_idle(now).unwrap();
    let mut it = db.iter(&noblsm::ReadOptions::at(&snap)).unwrap();
    it.seek_to_last().unwrap();
    assert_eq!(it.key(), key(49), "key 999 is invisible at the snapshot");
    let mut n = 0;
    while it.valid() {
        assert_eq!(it.value(), b"old");
        n += 1;
        it.prev().unwrap();
    }
    assert_eq!(n, 50);
    drop(it);
    db.release_snapshot(snap);
}

#[test]
fn empty_db_backward_is_invalid() {
    let mut db = small_db(SyncMode::Always);
    let mut it = db.iter_at(Nanos::ZERO).unwrap();
    it.seek_to_last().unwrap();
    assert!(!it.valid());
    it.prev().unwrap();
    assert!(!it.valid());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random workloads: backward iteration always equals the reversed
    /// forward view, which itself equals a BTreeMap model.
    #[test]
    fn backward_matches_model(
        ops in proptest::collection::vec((0u16..300, 0u8..4), 1..400),
    ) {
        let mut db = small_db(SyncMode::NobLsm);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut now = Nanos::ZERO;
        for (k, action) in ops {
            let kb = key(k as u64);
            if action == 0 {
                now = common::delete(&mut db, now, &kb).unwrap();
                model.remove(&kb);
            } else {
                let v = format!("val{k}-{action}").into_bytes();
                now = common::put(&mut db, now, &kb, &v).unwrap();
                model.insert(kb, v);
            }
        }
        now = db.wait_idle(now).unwrap();
        let mut it = db.iter_at(now).unwrap();
        it.seek_to_last().unwrap();
        for (k, v) in model.iter().rev() {
            prop_assert!(it.valid(), "ran out before {:?}", String::from_utf8_lossy(k));
            prop_assert_eq!(it.key(), k.as_slice());
            prop_assert_eq!(it.value(), v.as_slice());
            it.prev().unwrap();
        }
        prop_assert!(!it.valid());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A random walk — `seek`, `seek_to_first`, `seek_to_last`, `next`,
    /// `prev` in any order — under a snapshot, over overwrites and
    /// tombstones spread across a deep level, `L0` and the memtable, with
    /// later writes the snapshot must not see: after every step the
    /// iterator agrees with a `BTreeMap` cursor.
    #[test]
    fn random_walks_match_the_model(
        writes in proptest::collection::vec((0u16..48, 0u8..4), 30..160),
        late in proptest::collection::vec((0u16..48, 0u8..4), 0..40),
        steps in proptest::collection::vec((0u8..8, 0u16..50), 1..60),
    ) {
        let mut db = small_db(SyncMode::NobLsm);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut now = Nanos::ZERO;
        // The first third of the history is compacted below L0, the second
        // flushed into it, the third left in the memtable.
        let thirds = (writes.len() / 3, 2 * writes.len() / 3);
        for (i, (k, action)) in writes.iter().enumerate() {
            let kb = key(*k as u64);
            if *action == 0 {
                now = common::delete(&mut db, now, &kb).unwrap();
                model.remove(&kb);
            } else {
                let v = format!("val{k}-{i}").into_bytes();
                now = common::put(&mut db, now, &kb, &v).unwrap();
                model.insert(kb, v);
            }
            if i + 1 == thirds.0 {
                now = db.compact_range(now, None, None).unwrap();
            } else if i + 1 == thirds.1 {
                now = db.flush().unwrap();
            }
        }
        let levels = db.level_file_counts();
        prop_assert!(levels[0] >= 1 && levels[1..].iter().sum::<usize>() >= 1, "{levels:?}");
        let snap = db.snapshot();
        for (k, action) in late {
            let kb = key(k as u64);
            now = if action == 0 {
                common::delete(&mut db, now, &kb).unwrap()
            } else {
                common::put(&mut db, now, &kb, b"written after the snapshot").unwrap()
            };
        }

        let mut it = db.iter(&noblsm::ReadOptions::at(&snap)).unwrap();
        // The model's cursor: the key the iterator must be on, if any.
        let mut at: Option<Vec<u8>> = None;
        for (step, k) in steps {
            let target = key(k as u64);
            match step {
                0 | 1 => {
                    it.seek(&target).unwrap();
                    at = model.range(target..).next().map(|(k, _)| k.clone());
                }
                2 => {
                    it.seek_to_first().unwrap();
                    at = model.keys().next().cloned();
                }
                3 => {
                    it.seek_to_last().unwrap();
                    at = model.keys().next_back().cloned();
                }
                4 | 5 => {
                    it.next().unwrap();
                    at = at.and_then(|cur| {
                        let after = (std::ops::Bound::Excluded(cur), std::ops::Bound::Unbounded);
                        model.range(after).next().map(|(k, _)| k.clone())
                    });
                }
                _ => {
                    it.prev().unwrap();
                    at = at.and_then(|cur| model.range(..cur).next_back().map(|(k, _)| k.clone()));
                }
            }
            prop_assert_eq!(it.valid(), at.is_some(), "after step {} on {:?}", step, at);
            if let Some(cur) = &at {
                prop_assert_eq!(it.key(), cur.as_slice());
                prop_assert_eq!(it.value(), model[cur].as_slice());
            }
        }
        drop(it);
        db.release_snapshot(snap);
    }
}
