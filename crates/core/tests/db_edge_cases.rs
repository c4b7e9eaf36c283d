//! Edge-case tests for the engine: empty databases, synced writes, WAL
//! replay on clean reopen, seek compactions, file-space hygiene.

mod common;

use nob_ext4::{Ext4Config, Ext4Fs};
use nob_sim::Nanos;
use noblsm::{Db, Options, ReadOptions, ScanOptions, SyncMode, WriteOptions};

fn opts(mode: SyncMode) -> Options {
    let mut o = Options::default().with_sync_mode(mode).with_table_size(16 << 10);
    o.level1_max_bytes = 64 << 10;
    o
}

fn fs() -> Ext4Fs {
    Ext4Fs::new(Ext4Config::default().with_page_cache(8 << 20))
}

fn key(i: u64) -> Vec<u8> {
    format!("key{i:08}").into_bytes()
}

#[test]
fn empty_db_reads_cleanly() {
    let mut db = Db::open(fs(), "db", opts(SyncMode::NobLsm), Nanos::ZERO).unwrap();
    let (got, now) = db.get_at_time(Nanos::ZERO, b"anything").unwrap();
    assert_eq!(got, None);
    {
        let mut it = db.iter_at(now).unwrap();
        it.seek_to_first().unwrap();
        assert!(!it.valid());
    }
    let r = db.scan(&ReadOptions::default(), &ScanOptions::all().with_limit(10)).unwrap();
    assert!(r.rows.is_empty());
}

#[test]
fn synced_wal_write_survives_immediate_crash() {
    let fs = fs();
    let mut db = Db::open(fs.clone(), "db", opts(SyncMode::NobLsm), Nanos::ZERO).unwrap();
    // Write WITHOUT sync, then one WITH sync: the synced write (and, per
    // WAL ordering, everything before it in the log) must survive.
    let now = common::put(&mut db, Nanos::ZERO, &key(1), b"unsynced").unwrap();
    let now = common::put_with(&mut db, now, &key(2), b"synced", &WriteOptions::synced()).unwrap();
    let mut rdb = Db::open(fs.crashed_view(now), "db", opts(SyncMode::NobLsm), now).unwrap();
    let (v2, t) = rdb.get_at_time(now, &key(2)).unwrap();
    assert_eq!(v2.as_deref(), Some(&b"synced"[..]), "synced write lost");
    let (v1, _) = rdb.get_at_time(t, &key(1)).unwrap();
    assert_eq!(v1.as_deref(), Some(&b"unsynced"[..]), "earlier log record lost");
}

#[test]
fn clean_reopen_replays_wal_only_data() {
    // Data that never left the memtable must survive a CLEAN reopen (the
    // WAL is replayed), as opposed to a crash where the unsynced log can
    // be lost.
    let fs = fs();
    let mut now = Nanos::ZERO;
    {
        let mut db = Db::open(fs.clone(), "db", opts(SyncMode::Always), Nanos::ZERO).unwrap();
        for i in 0..10 {
            now = common::put(&mut db, now, &key(i), b"memtable-only").unwrap();
        }
        assert_eq!(db.level_file_counts().iter().sum::<usize>(), 0, "nothing flushed");
    }
    let mut db = Db::open(fs, "db", opts(SyncMode::Always), now).unwrap();
    for i in 0..10 {
        let (got, t) = db.get_at_time(now, &key(i)).unwrap();
        now = t;
        assert_eq!(got.as_deref(), Some(&b"memtable-only"[..]), "key {i} lost on reopen");
    }
}

#[test]
fn double_open_same_directory_recovers_not_clobbers() {
    let fs = fs();
    let mut now = Nanos::ZERO;
    {
        let mut db = Db::open(fs.clone(), "db", opts(SyncMode::Always), Nanos::ZERO).unwrap();
        for i in 0..500 {
            now = common::put(&mut db, now, &key(i), b"v").unwrap();
        }
        now = db.flush().unwrap();
    }
    // Second open must recover, not fail or wipe.
    let mut db = Db::open(fs, "db", opts(SyncMode::Always), now).unwrap();
    let (got, _) = db.get_at_time(now, &key(123)).unwrap();
    assert!(got.is_some());
}

#[test]
fn seek_compactions_fire_under_repeated_misses() {
    let fs = fs();
    let mut db = Db::open(fs, "db", opts(SyncMode::Always), Nanos::ZERO).unwrap();
    // Two overlapping generations with DISJOINT keys over the same range:
    // a lookup of an even key probes the odd-key table first (range
    // match, bloom miss) and only then hits — charging the first file's
    // seek budget, exactly LevelDB's seek-compaction trigger.
    let mut now = Nanos::ZERO;
    for i in (0..400u64).filter(|i| i % 2 == 0) {
        now = common::put(&mut db, now, &key(i), &[1u8; 64]).unwrap();
    }
    now = db.flush().unwrap();
    for i in (0..400u64).filter(|i| i % 2 == 1) {
        now = common::put(&mut db, now, &key(i), &[2u8; 64]).unwrap();
    }
    now = db.flush().unwrap();
    now = db.wait_idle(now).unwrap();
    // Hammer even-key lookups; allowed_seeks (min 100) eventually fires.
    for round in 0..600u64 {
        let (_, t) = db.get_at_time(now, &key((round * 2) % 400)).unwrap();
        now = t;
    }
    now = db.wait_idle(now).unwrap();
    let _ = now;
    // Either a seek compaction fired, or size compactions already merged
    // everything into one table per key range (then none is needed).
    let total_files: usize = db.level_file_counts().iter().sum();
    assert!(
        db.stats().seek_compactions > 0 || total_files <= 2,
        "seeks: {}, files: {:?}",
        db.stats().seek_compactions,
        db.level_file_counts()
    );
}

#[test]
fn seek_compactions_land_in_the_per_level_breakdown() {
    // Regression: seek-triggered majors used to bump the global
    // `major_compactions` counter without the `per_level` breakdown. All
    // paths now account through DbStats::record_major_compaction, so the
    // per-level counts must sum to the global counter — with seek
    // compactions included.
    let fs = fs();
    let mut db = Db::open(fs, "db", opts(SyncMode::Always), Nanos::ZERO).unwrap();
    let mut now = Nanos::ZERO;
    for i in (0..400u64).filter(|i| i % 2 == 0) {
        now = common::put(&mut db, now, &key(i), &[1u8; 64]).unwrap();
    }
    now = db.flush().unwrap();
    for i in (0..400u64).filter(|i| i % 2 == 1) {
        now = common::put(&mut db, now, &key(i), &[2u8; 64]).unwrap();
    }
    now = db.flush().unwrap();
    now = db.wait_idle(now).unwrap();
    let before_seek = db.stats().seek_compactions;
    for round in 0..600u64 {
        let (_, t) = db.get_at_time(now, &key((round * 2) % 400)).unwrap();
        now = t;
    }
    now = db.wait_idle(now).unwrap();
    let _ = now;
    let s = db.stats();
    let per_level_sum: u64 = s.per_level.iter().map(|l| l.count).sum();
    assert_eq!(
        per_level_sum, s.major_compactions,
        "per-level counts must sum to the global major counter (seek={})",
        s.seek_compactions
    );
    assert!(s.seek_compactions <= s.major_compactions, "seek majors are majors");
    if s.seek_compactions > before_seek {
        // The seek-triggered major charged its parent level too.
        assert!(per_level_sum > 0);
    }
    // Read amplification: the interleaved-generation lookups probed more
    // than one file per get on average until the merge landed.
    assert!(s.files_read_per_get > 0, "gets probed SSTables");
    assert!(s.read_amplification() > 0.0);
    let stats_line = db.property("noblsm.stats").unwrap();
    assert!(stats_line.contains("engine.files_read="), "{stats_line}");
}

#[test]
fn file_space_is_clean_after_settling() {
    // After settle(), the only .ldb files on disk are the live tables —
    // NobLSM's shadows have been reclaimed, BoLT-style refcounts released.
    for mode in [SyncMode::Always, SyncMode::NobLsm] {
        let fs = fs();
        let mut db = Db::open(fs.clone(), "db", opts(mode), Nanos::ZERO).unwrap();
        let mut now = Nanos::ZERO;
        for i in 0..3000u64 {
            now = common::put(&mut db, now, &key(i * 7919 % 3000), &[3u8; 128]).unwrap();
        }
        now = db.settle().unwrap();
        // A couple of commit intervals so deferred deletions land.
        now += Nanos::from_secs(11);
        db.clock().advance_to(now);
        db.tick().unwrap();
        let _ = db.settle().unwrap();
        let live: usize = db.level_file_counts().iter().sum();
        let on_disk = fs.list("db/").iter().filter(|p| p.ends_with(".ldb")).count();
        assert_eq!(on_disk, live, "{mode:?}: orphan table files left behind");
        assert_eq!(db.stats().shadow_files, 0, "{mode:?}");
    }
}

#[test]
fn overwrite_heavy_load_converges_and_stays_small() {
    // 50 keys overwritten 200 times each: compaction must keep the tree
    // from growing with dead versions.
    let fs = fs();
    let mut db = Db::open(fs, "db", opts(SyncMode::NobLsm), Nanos::ZERO).unwrap();
    let mut now = Nanos::ZERO;
    for round in 0..200u64 {
        for i in 0..50u64 {
            now = common::put(&mut db, now, &key(i), format!("r{round}").as_bytes()).unwrap();
        }
    }
    now = db.settle().unwrap();
    let mut it = db.iter_at(now).unwrap();
    it.seek_to_first().unwrap();
    let mut n = 0;
    while it.valid() {
        assert_eq!(it.value(), b"r199", "stale version visible");
        n += 1;
        it.next().unwrap();
    }
    assert_eq!(n, 50);
}

#[test]
fn values_of_every_size_round_trip() {
    let fs = fs();
    let mut db = Db::open(fs, "db", opts(SyncMode::Always), Nanos::ZERO).unwrap();
    let mut now = Nanos::ZERO;
    let sizes = [0usize, 1, 255, 4096, 70_000];
    for (i, len) in sizes.iter().enumerate() {
        now = common::put(&mut db, now, &key(i as u64), &vec![i as u8; *len]).unwrap();
    }
    now = db.flush().unwrap();
    for (i, len) in sizes.iter().enumerate() {
        let (got, t) = db.get_at_time(now, &key(i as u64)).unwrap();
        now = t;
        assert_eq!(got, Some(vec![i as u8; *len]), "size {len}");
    }
}

#[test]
fn only_an_iterator_at_rest_moving_forward_on_the_same_view_is_continued() {
    let mut db = Db::open(fs(), "db", opts(SyncMode::NobLsm), Nanos::ZERO).unwrap();
    let mut now = Nanos::ZERO;
    for i in 0..300 {
        now = common::put(&mut db, now, &key(i), &[b'v'; 100]).unwrap();
    }
    db.compact_range(now, None, None).unwrap();
    let ropts = ReadOptions::default();
    // What `iter_resume` surfaces from `key(10)` on, and how many states it
    // has continued so far.
    fn rest(db: &mut Db, ropts: &ReadOptions<'_>, state: noblsm::IterState) -> (Vec<Vec<u8>>, u64) {
        let mut it = db.iter_resume(ropts, state, &key(10)).unwrap();
        let mut keys = Vec::new();
        while it.valid() {
            keys.push(it.key().to_vec());
            it.next().unwrap();
        }
        drop(it);
        (keys, db.stats().iters_resumed)
    }
    let from_10: Vec<Vec<u8>> = (10..300).map(key).collect();

    // Never positioned: built and sought anew.
    let unpositioned = db.iter(&ropts).unwrap().detach();
    assert_eq!(rest(&mut db, &ropts, unpositioned), (from_10.clone(), 0));

    // At rest on the resume key: continued — unless the read options name
    // another view than the one the state read. A write moves the latest
    // view on; a pinned one stays.
    let at_10 = |db: &mut Db, ropts: &ReadOptions<'_>| {
        let mut it = db.iter(ropts).unwrap();
        it.seek(&key(10)).unwrap();
        it.detach()
    };
    let state = at_10(&mut db, &ropts);
    assert_eq!(rest(&mut db, &ropts, state), (from_10.clone(), 1));
    let state = at_10(&mut db, &ropts);
    assert_eq!(rest(&mut db, &ropts.without_fill_cache(), state), (from_10.clone(), 1));
    let snap = db.snapshot();
    let (latest, pinned) = (at_10(&mut db, &ropts), at_10(&mut db, &ReadOptions::at(&snap)));
    common::put(&mut db, now, &key(11), b"after the snapshot").unwrap();
    assert_eq!(rest(&mut db, &ropts, latest), (from_10.clone(), 1));
    assert_eq!(rest(&mut db, &ReadOptions::at(&snap), pinned), (from_10, 2));
    db.release_snapshot(snap);
}
