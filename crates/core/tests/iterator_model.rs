//! Tests the user-facing iterator against a `BTreeMap` model: a random
//! walk of seeks and steps under a snapshot, over data spread across a
//! deep level, `L0` and the memtable.

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A random walk — `seek`, `seek_to_first` and `next` in any order —
    /// under a snapshot, over overwrites and
    /// tombstones spread across a deep level, `L0` and the memtable, with
    /// later writes the snapshot must not see: after every step the
    /// iterator agrees with a `BTreeMap` cursor.
    #[test]
    fn random_walks_match_the_model(
        writes in proptest::collection::vec((0u16..48, 0u8..4), 30..160),
        late in proptest::collection::vec((0u16..48, 0u8..4), 0..40),
        steps in proptest::collection::vec((0u8..6, 0u16..50), 1..60),
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
                _ => {
                    it.next().unwrap();
                    at = at.and_then(|cur| {
                        let after = (std::ops::Bound::Excluded(cur), std::ops::Bound::Unbounded);
                        model.range(after).next().map(|(k, _)| k.clone())
                    });
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
