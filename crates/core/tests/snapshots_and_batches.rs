//! Tests for the engine-completeness APIs: snapshots (pinned read views
//! that survive compactions), atomic write batches, manual range
//! compaction, and introspection properties.

mod common;

use nob_ext4::{Ext4Config, Ext4Fs};
use nob_metrics::MetricsHub;
use nob_sim::Nanos;
use noblsm::{Db, Options, ReadOptions, SyncMode, WriteBatch, WriteOptions};

fn small_db(mode: SyncMode) -> (Db, Ext4Fs) {
    let fs = Ext4Fs::new(Ext4Config::default().with_page_cache(8 << 20));
    let mut o = Options::default().with_sync_mode(mode).with_table_size(16 << 10);
    o.level1_max_bytes = 64 << 10;
    (Db::open(fs.clone(), "db", o, Nanos::ZERO).unwrap(), fs)
}

fn key(i: u64) -> Vec<u8> {
    format!("key{i:08}").into_bytes()
}

#[test]
fn snapshot_pins_point_reads() {
    let (mut db, _fs) = small_db(SyncMode::NobLsm);
    let now = common::put(&mut db, Nanos::ZERO, b"k", b"v1").unwrap();
    let snap = db.snapshot();
    let now = common::put(&mut db, now, b"k", b"v2").unwrap();
    let now = common::delete(&mut db, now, b"other").unwrap();
    let (live, _) = db.get_at_time(now, b"k").unwrap();
    assert_eq!(live.as_deref(), Some(&b"v2"[..]));
    let pinned = db.get(&ReadOptions::at(&snap), b"k").unwrap();
    assert_eq!(pinned.as_deref(), Some(&b"v1"[..]), "snapshot must see the old value");
    db.release_snapshot(snap);
}

#[test]
fn snapshot_survives_compactions() {
    let (mut db, _fs) = small_db(SyncMode::Always);
    let mut now = Nanos::ZERO;
    for i in 0..200u64 {
        now = common::put(&mut db, now, &key(i), b"old").unwrap();
    }
    let snap = db.snapshot();
    // Heavy overwriting forces minor + major compactions; the snapshot's
    // versions must not be dropped by the dedup pass.
    for round in 0..10u64 {
        for i in 0..200u64 {
            now = common::put(&mut db, now, &key(i), format!("new{round}").as_bytes()).unwrap();
        }
    }
    db.settle().unwrap();
    assert!(db.stats().major_compactions > 0, "compactions must have happened");
    let pinned = db.get(&ReadOptions::at(&snap), &key(42)).unwrap();
    assert_eq!(pinned.as_deref(), Some(&b"old"[..]), "compaction dropped a pinned version");
    // A snapshot iterator sees the whole old state.
    let mut it = db.iter(&ReadOptions::at(&snap)).unwrap();
    it.seek_to_first().unwrap();
    let mut n = 0;
    while it.valid() {
        assert_eq!(it.value(), b"old");
        n += 1;
        it.next().unwrap();
    }
    assert_eq!(n, 200);
    drop(it);
    db.release_snapshot(snap);
}

#[test]
fn released_snapshot_versions_get_compacted_away() {
    let (mut db, _fs) = small_db(SyncMode::Always);
    let mut now = Nanos::ZERO;
    for i in 0..100u64 {
        now = common::put(&mut db, now, &key(i), b"old").unwrap();
    }
    let snap = db.snapshot();
    for i in 0..100u64 {
        now = common::put(&mut db, now, &key(i), b"new").unwrap();
    }
    db.release_snapshot(snap);
    now = db.settle().unwrap();
    now = db.compact_range(now, None, None).unwrap();
    // After release + full compaction, only the newest versions remain:
    // iterate internal state via a fresh snapshot of everything.
    let mut it = db.iter_at(now).unwrap();
    it.seek_to_first().unwrap();
    let mut n = 0;
    while it.valid() {
        assert_eq!(it.value(), b"new");
        n += 1;
        it.next().unwrap();
    }
    assert_eq!(n, 100);
}

#[test]
fn write_batch_is_atomic_across_crash() {
    let (mut db, fs) = small_db(SyncMode::NobLsm);
    let mut batch = WriteBatch::new();
    for i in 0..50u64 {
        batch.put(&key(i), b"batched");
    }
    batch.delete(&key(0));
    assert_eq!(batch.len(), 51);
    let now =
        common::write_batch_at(&mut db, Nanos::ZERO, &batch, &WriteOptions::synced()).unwrap();
    // Crash immediately: the synced batch must be fully present.
    let mut rdb = Db::open(fs.crashed_view(now), "db", db.options().clone(), now).unwrap();
    let mut t = now;
    let (gone, t2) = rdb.get_at_time(t, &key(0)).unwrap();
    t = t2;
    assert_eq!(gone, None, "tombstone in batch applies");
    for i in 1..50u64 {
        let (got, t2) = rdb.get_at_time(t, &key(i)).unwrap();
        t = t2;
        assert_eq!(got.as_deref(), Some(&b"batched"[..]), "batch entry {i} lost");
    }
}

#[test]
fn empty_batch_is_a_noop() {
    let (mut db, _fs) = small_db(SyncMode::Always);
    let batch = WriteBatch::new();
    let now =
        common::write_batch_at(&mut db, Nanos::ZERO, &batch, &WriteOptions::default()).unwrap();
    assert_eq!(now, Nanos::ZERO);
    assert_eq!(db.stats().writes, 0);
}

#[test]
fn compact_range_pushes_everything_down() {
    let (mut db, _fs) = small_db(SyncMode::Always);
    let mut now = Nanos::ZERO;
    for i in 0..2000u64 {
        now = common::put(&mut db, now, &key(i * 31 % 2000), &[7u8; 64]).unwrap();
    }
    now = db.compact_range(now, None, None).unwrap();
    let counts = db.level_file_counts();
    assert_eq!(counts[0], 0, "L0 must be empty after full compaction: {counts:?}");
    db.check_invariants().unwrap();
    // Everything still readable.
    let (got, _) = db.get_at_time(now, &key(1234)).unwrap();
    assert!(got.is_some());
}

#[test]
fn compact_range_respects_bounds() {
    let (mut db, _fs) = small_db(SyncMode::Always);
    let mut now = Nanos::ZERO;
    for i in 0..1000u64 {
        now = common::put(&mut db, now, &key(i), &[7u8; 64]).unwrap();
    }
    now = db.flush().unwrap();
    // Compacting an empty range is a no-op beyond the flush.
    let before = db.stats().major_compactions;
    now = db.compact_range(now, Some(b"zzz"), Some(b"zzzz")).unwrap();
    assert_eq!(db.stats().major_compactions, before, "nothing overlaps [zzz, zzzz]");
    let _ = now;
}

#[test]
fn properties_report_engine_state() {
    let (mut db, _fs) = small_db(SyncMode::NobLsm);
    let hub = MetricsHub::new().with_period(Nanos::from_millis(1));
    db.set_metrics_hub(hub.clone());
    let mut now = Nanos::ZERO;
    for i in 0..500u64 {
        now = common::put(&mut db, now, &key(i), &[1u8; 64]).unwrap();
    }
    now = db.flush().unwrap();
    // Single numbers come from typed accessors and the metrics hub.
    let l0 = db.level_file_counts()[0];
    assert!(l0 > 0);
    assert_eq!(db.current_version().files[0].len(), l0);
    let mem = hub.timeline().series("engine.mem_bytes").expect("sampled").values.clone();
    assert!(!mem.is_empty() && mem.iter().all(|&m| m < f64::from(1 << 20)), "{mem:?}");
    let stats = db.property("noblsm.stats").unwrap();
    assert!(stats.contains("engine.writes=500"), "{stats}");
    assert_eq!(db.property("noblsm.nope"), None);
    assert_eq!(db.property("noblsm.seq"), None, "a typed accessor's number has no name");
    // Force some majors, then the compaction-stats table must show them.
    for i in 0..3000u64 {
        now = common::put(&mut db, now, &key(i % 700), &[2u8; 64]).unwrap();
    }
    db.wait_idle(now).unwrap();
    let table = db.property("noblsm.compaction-stats").unwrap();
    assert!(table.contains("level"), "{table}");
    assert!(db.stats().per_level.iter().any(|l| l.count > 0));
    assert!(db.stats().per_level.iter().any(|l| l.bytes_written > 0));
}

#[test]
fn batched_and_single_writes_interleave_correctly() {
    let (mut db, _fs) = small_db(SyncMode::Always);
    let mut now = common::put(&mut db, Nanos::ZERO, b"a", b"1").unwrap();
    let mut batch = WriteBatch::new();
    batch.put(b"b", b"2");
    batch.put(b"a", b"3"); // overwrites the single put
    now = common::write_batch_at(&mut db, now, &batch, &WriteOptions::default()).unwrap();
    now = common::put(&mut db, now, b"b", b"4").unwrap();
    let (a, t) = db.get_at_time(now, b"a").unwrap();
    let (b, _) = db.get_at_time(t, b"b").unwrap();
    assert_eq!(a.as_deref(), Some(&b"3"[..]));
    assert_eq!(b.as_deref(), Some(&b"4"[..]));
}
