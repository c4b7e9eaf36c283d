//! End-to-end engine tests: write/read cycles through compactions,
//! recovery, and the NobLSM mode.

mod common;

use nob_ext4::{Ext4Config, Ext4Fs};
use nob_sim::Nanos;
use noblsm::{CompactionStyle, Db, Options, ReadOptions, ScanOptions, SyncMode};

/// Small options that force plenty of compactions with little data.
fn small_opts(mode: SyncMode) -> Options {
    let mut opts = Options::default().with_sync_mode(mode).with_table_size(32 << 10);
    opts.level1_max_bytes = 128 << 10;
    opts.block_cache_bytes = 256 << 10;
    opts
}

fn fs() -> Ext4Fs {
    Ext4Fs::new(Ext4Config::default().with_page_cache(8 << 20))
}

fn key(i: u64) -> Vec<u8> {
    format!("key{:08}", i).into_bytes()
}

fn value(i: u64, len: usize) -> Vec<u8> {
    let mut v = format!("value{:08}-", i).into_bytes();
    v.resize(len, b'x');
    v
}

/// Loads `n` keys (hash-shuffled order), returns the end time.
fn load(db: &mut Db, n: u64, vlen: usize, mut now: Nanos) -> Nanos {
    for i in 0..n {
        let k = (i * 2654435761) % n; // permutation-ish shuffle
        now = common::put(db, now, &key(k), &value(k, vlen)).unwrap();
    }
    now
}

#[test]
fn put_get_round_trip_small() {
    let fs = fs();
    let mut db = Db::open(fs, "db", small_opts(SyncMode::Always), Nanos::ZERO).unwrap();
    let mut now = Nanos::ZERO;
    for i in 0..100 {
        now = common::put(&mut db, now, &key(i), &value(i, 100)).unwrap();
    }
    for i in 0..100 {
        let (got, t) = db.get_at_time(now, &key(i)).unwrap();
        now = t;
        assert_eq!(got, Some(value(i, 100)), "key {i}");
    }
    let (missing, _) = db.get_at_time(now, b"nope").unwrap();
    assert_eq!(missing, None);
}

#[test]
fn compactions_preserve_all_data() {
    for mode in [SyncMode::Always, SyncMode::Never, SyncMode::NobLsm] {
        let fs = fs();
        let mut db = Db::open(fs, "db", small_opts(mode), Nanos::ZERO).unwrap();
        let n = 3000;
        let mut now = load(&mut db, n, 128, Nanos::ZERO);
        now = db.wait_idle(now).unwrap();
        assert!(db.stats().minor_compactions > 3, "mode {mode:?}: expected flushes");
        assert!(db.stats().major_compactions > 0, "mode {mode:?}: expected majors");
        db.check_invariants().unwrap();
        for i in (0..n).step_by(17) {
            let (got, t) = db.get_at_time(now, &key(i)).unwrap();
            now = t;
            assert_eq!(got, Some(value(i, 128)), "mode {mode:?}, key {i}");
        }
    }
}

#[test]
fn overwrites_return_newest() {
    let fs = fs();
    let mut db = Db::open(fs, "db", small_opts(SyncMode::NobLsm), Nanos::ZERO).unwrap();
    let mut now = Nanos::ZERO;
    for round in 0..5u64 {
        for i in 0..500u64 {
            now = common::put(&mut db, now, &key(i), &value(i * 1000 + round, 100)).unwrap();
        }
    }
    now = db.wait_idle(now).unwrap();
    for i in (0..500).step_by(13) {
        let (got, t) = db.get_at_time(now, &key(i)).unwrap();
        now = t;
        assert_eq!(got, Some(value(i * 1000 + 4, 100)), "key {i}");
    }
}

#[test]
fn deletes_hide_values_through_compaction() {
    let fs = fs();
    let mut db = Db::open(fs, "db", small_opts(SyncMode::Always), Nanos::ZERO).unwrap();
    let mut now = load(&mut db, 1000, 100, Nanos::ZERO);
    for i in (0..1000).step_by(3) {
        now = common::delete(&mut db, now, &key(i)).unwrap();
    }
    now = db.wait_idle(now).unwrap();
    for i in 0..1000 {
        let (got, t) = db.get_at_time(now, &key(i)).unwrap();
        now = t;
        if i % 3 == 0 {
            assert_eq!(got, None, "deleted key {i} resurfaced");
        } else {
            assert_eq!(got, Some(value(i, 100)), "key {i} lost");
        }
    }
}

#[test]
fn iterator_sees_sorted_live_view() {
    let fs = fs();
    let mut db = Db::open(fs, "db", small_opts(SyncMode::NobLsm), Nanos::ZERO).unwrap();
    let n = 2000u64;
    let mut now = load(&mut db, n, 64, Nanos::ZERO);
    now = common::delete(&mut db, now, &key(100)).unwrap();
    now = db.wait_idle(now).unwrap();
    let mut it = db.iter_at(now).unwrap();
    it.seek_to_first().unwrap();
    let mut count = 0u64;
    let mut last: Option<Vec<u8>> = None;
    while it.valid() {
        if let Some(prev) = &last {
            assert!(prev.as_slice() < it.key(), "iterator must be strictly sorted");
        }
        assert_ne!(it.key(), key(100).as_slice(), "deleted key visible");
        last = Some(it.key().to_vec());
        count += 1;
        it.next().unwrap();
    }
    assert_eq!(count, n - 1);
}

#[test]
fn scan_returns_range() {
    let fs = fs();
    let mut db = Db::open(fs, "db", small_opts(SyncMode::Always), Nanos::ZERO).unwrap();
    load(&mut db, 500, 64, Nanos::ZERO);
    let r = db
        .scan(&ReadOptions::default(), &ScanOptions::starting_at(&key(100)).with_limit(10))
        .unwrap();
    assert_eq!(r.rows.len(), 10);
    assert_eq!(r.rows[0].0, key(100));
    assert_eq!(r.rows[9].0, key(109));
}

#[test]
fn clean_reopen_preserves_data() {
    let fs = fs();
    let n = 2000u64;
    let mut now;
    {
        let mut db = Db::open(fs.clone(), "db", small_opts(SyncMode::Always), Nanos::ZERO).unwrap();
        now = load(&mut db, n, 100, Nanos::ZERO);
        now = db.wait_idle(now).unwrap();
    }
    // Reopen on the SAME (uncrashed) filesystem.
    let mut db = Db::open(fs, "db", small_opts(SyncMode::Always), now).unwrap();
    for i in (0..n).step_by(23) {
        let (got, t) = db.get_at_time(now, &key(i)).unwrap();
        now = t;
        assert_eq!(got, Some(value(i, 100)), "key {i} lost across reopen");
    }
}

#[test]
fn crash_recovery_preserves_synced_data_leveldb_mode() {
    let fs = fs();
    let mut db = Db::open(fs.clone(), "db", small_opts(SyncMode::Always), Nanos::ZERO).unwrap();
    let n = 2000u64;
    let mut now = load(&mut db, n, 100, Nanos::ZERO);
    now = db.wait_idle(now).unwrap();
    // Give the journal a couple of commit intervals to settle metadata.
    now += Nanos::from_secs(11);
    db.clock().advance_to(now);
    db.tick().unwrap();
    // Power off and recover.
    let crashed = fs.crashed_view(now);
    let mut rdb = Db::open(crashed, "db", small_opts(SyncMode::Always), now).unwrap();
    for i in (0..n).step_by(7) {
        let (got, t) = rdb.get_at_time(now, &key(i)).unwrap();
        now = t;
        assert_eq!(got, Some(value(i, 100)), "key {i} lost after crash");
    }
}

#[test]
fn crash_recovery_noblsm_mode_loses_nothing_synced() {
    let fs = fs();
    let mut db = Db::open(fs.clone(), "db", small_opts(SyncMode::NobLsm), Nanos::ZERO).unwrap();
    let n = 2000u64;
    let mut now = load(&mut db, n, 100, Nanos::ZERO);
    now = db.wait_idle(now).unwrap();
    now += Nanos::from_secs(11);
    db.clock().advance_to(now);
    db.tick().unwrap();
    let crashed = fs.crashed_view(now);
    let mut rdb = Db::open(crashed, "db", small_opts(SyncMode::NobLsm), now).unwrap();
    for i in (0..n).step_by(7) {
        let (got, t) = rdb.get_at_time(now, &key(i)).unwrap();
        now = t;
        assert_eq!(got, Some(value(i, 100)), "key {i} lost after crash");
    }
}

#[test]
fn crash_mid_load_noblsm_preserves_flushed_prefix() {
    // Crash at an arbitrary instant DURING the load: every key whose L0
    // flush completed must survive; log-tail keys may be lost (the
    // paper's §5.2 consistency behaviour).
    let fs = fs();
    let mut db = Db::open(fs.clone(), "db", small_opts(SyncMode::NobLsm), Nanos::ZERO).unwrap();
    let n = 2500u64;
    let mut now = Nanos::ZERO;
    // Sequential keys so "flushed prefix" is easy to reason about.
    let mut acked_through: Option<u64> = None;
    for i in 0..n {
        now = common::put(&mut db, now, &key(i), &value(i, 100)).unwrap();
        if db.stats().minor_compactions > 0 {
            // Everything written before the last completed flush is
            // durable only after that flush's sync; track a conservative
            // bound: keys written before the *previous* flush.
            acked_through = Some(i.saturating_sub(2 * 600)); // ~2 memtables of 100-byte rows
        }
    }
    let crash_at = now;
    let crashed = fs.crashed_view(crash_at);
    let mut rdb = Db::open(crashed, "db", small_opts(SyncMode::NobLsm), crash_at).unwrap();
    let mut t = crash_at;
    if let Some(upper) = acked_through {
        for i in 0..upper {
            let (got, t2) = rdb.get_at_time(t, &key(i)).unwrap();
            t = t2;
            assert_eq!(got, Some(value(i, 100)), "durably flushed key {i} lost");
        }
    }
    rdb.check_invariants().unwrap();
}

#[test]
fn noblsm_syncs_less_than_leveldb() {
    let run = |mode: SyncMode| {
        let fs = fs();
        let mut db = Db::open(fs.clone(), "db", small_opts(mode), Nanos::ZERO).unwrap();
        let now = load(&mut db, 4000, 128, Nanos::ZERO);
        db.wait_idle(now).unwrap();
        fs.stats()
    };
    let leveldb = run(SyncMode::Always);
    let noblsm = run(SyncMode::NobLsm);
    let volatile = run(SyncMode::Never);
    assert!(
        noblsm.sync_calls < leveldb.sync_calls / 2,
        "NobLSM {} vs LevelDB {} syncs",
        noblsm.sync_calls,
        leveldb.sync_calls
    );
    // NobLSM syncs only L0 data; LevelDB additionally syncs every major
    // output. The gap widens with depth; at this tiny scale (write amp
    // ≈2.5) we assert a strict reduction.
    assert!(
        noblsm.bytes_synced < leveldb.bytes_synced * 3 / 4,
        "NobLSM {} vs LevelDB {} bytes synced",
        noblsm.bytes_synced,
        leveldb.bytes_synced
    );
    // The volatile build's only sync is the one-off CURRENT creation.
    assert!(volatile.sync_calls <= 1, "volatile mode must not sync tables");
}

#[test]
fn noblsm_is_faster_than_leveldb_on_writes() {
    let run = |mode: SyncMode| {
        let fs = fs();
        let mut db = Db::open(fs, "db", small_opts(mode), Nanos::ZERO).unwrap();
        let now = load(&mut db, 4000, 512, Nanos::ZERO);
        db.wait_idle(now).unwrap();
        now
    };
    let t_leveldb = run(SyncMode::Always);
    let t_noblsm = run(SyncMode::NobLsm);
    let t_volatile = run(SyncMode::Never);
    assert!(t_noblsm < t_leveldb, "NobLSM ({t_noblsm}) should beat LevelDB ({t_leveldb})");
    assert!(t_volatile <= t_noblsm, "volatile is the lower bound");
}

#[test]
fn noblsm_reclaims_shadows() {
    let fs = fs();
    let mut db = Db::open(fs.clone(), "db", small_opts(SyncMode::NobLsm), Nanos::ZERO).unwrap();
    let mut now = load(&mut db, 4000, 128, Nanos::ZERO);
    now = db.wait_idle(now).unwrap();
    assert!(db.stats().major_compactions > 0);
    // Let several commit intervals and reclamation polls pass.
    for _ in 0..6 {
        now += Nanos::from_secs(5);
        db.clock().advance_to(now);
        db.tick().unwrap();
    }
    assert!(db.stats().reclaimed_files > 0, "shadow predecessors must eventually reclaim");
    assert_eq!(db.stats().shadow_files, 0, "no shadows should remain after settling");
}

/// The simulated disk forgets a deleted file once its deletion is durable
/// before the engine's present: after twenty overwrites of the key space,
/// what the filesystem holds tracks the live files, not every byte the
/// run ever wrote.
#[test]
fn overwriting_the_key_space_keeps_retained_bytes_near_the_live_files() {
    let fs = fs();
    let mut db = Db::open(fs.clone(), "db", small_opts(SyncMode::NobLsm), Nanos::ZERO).unwrap();
    let (keys, rounds) = (1_000, 20);
    let mut now = Nanos::ZERO;
    for _ in 0..rounds {
        now = load(&mut db, keys, 512, now);
    }
    now = db.settle().unwrap();
    // Two commit intervals later every deletion is durable and behind
    // the clock the next pump raises the horizon to.
    now += Nanos::from_secs(11);
    db.clock().advance_to(now);
    db.tick().unwrap();
    let live: u64 = fs.list("").iter().map(|p| fs.file_size(p).unwrap()).sum();
    let retained = fs.retained_bytes();
    let written = fs.stats().bytes_buffered;
    assert!(written > 20 * live, "the run must write far more than it keeps: {written} vs {live}");
    assert!(
        (live..=2 * live).contains(&retained),
        "retained {retained} bytes for {live} live bytes after writing {written}"
    );
}

#[test]
fn fragmented_style_works_end_to_end() {
    let fs = fs();
    let opts = Options { style: CompactionStyle::Fragmented, ..small_opts(SyncMode::Always) };
    let mut db = Db::open(fs, "db", opts, Nanos::ZERO).unwrap();
    let n = 3000u64;
    let mut now = load(&mut db, n, 128, Nanos::ZERO);
    now = db.wait_idle(now).unwrap();
    db.check_invariants().unwrap();
    for i in (0..n).step_by(29) {
        let (got, t) = db.get_at_time(now, &key(i)).unwrap();
        now = t;
        assert_eq!(got, Some(value(i, 128)), "key {i}");
    }
}

#[test]
fn grouped_output_bolt_works_end_to_end() {
    let fs = fs();
    let mut opts = small_opts(SyncMode::Always);
    opts.grouped_output = true;
    let mut db = Db::open(fs, "db", opts, Nanos::ZERO).unwrap();
    let n = 3000u64;
    let mut now = load(&mut db, n, 128, Nanos::ZERO);
    now = db.wait_idle(now).unwrap();
    for i in (0..n).step_by(31) {
        let (got, t) = db.get_at_time(now, &key(i)).unwrap();
        now = t;
        assert_eq!(got, Some(value(i, 128)), "key {i}");
    }
}

#[test]
fn multi_lane_compaction_works() {
    let fs = fs();
    let opts = small_opts(SyncMode::Always).with_lanes(4);
    let mut db = Db::open(fs, "db", opts, Nanos::ZERO).unwrap();
    let n = 4000u64;
    let mut now = load(&mut db, n, 128, Nanos::ZERO);
    now = db.wait_idle(now).unwrap();
    db.check_invariants().unwrap();
    for i in (0..n).step_by(37) {
        let (got, t) = db.get_at_time(now, &key(i)).unwrap();
        now = t;
        assert_eq!(got, Some(value(i, 128)), "key {i}");
    }
}

#[test]
fn hot_cold_style_preserves_data_under_skew() {
    let fs = fs();
    let mut opts = small_opts(SyncMode::Always);
    opts.hot_cold = true;
    let mut db = Db::open(fs, "db", opts, Nanos::ZERO).unwrap();
    let mut now = Nanos::ZERO;
    // Skewed overwrites: keys 0..50 hammered, 50..2000 written once.
    for i in 0..2000u64 {
        now = common::put(&mut db, now, &key(i), &value(i, 128)).unwrap();
        let hot = i % 50;
        now = common::put(&mut db, now, &key(hot), &value(hot * 7 + i, 128)).unwrap();
    }
    now = db.wait_idle(now).unwrap();
    db.check_invariants().unwrap();
    for i in (50..2000).step_by(41) {
        let (got, t) = db.get_at_time(now, &key(i)).unwrap();
        now = t;
        assert_eq!(got, Some(value(i, 128)), "cold key {i}");
    }
}

#[test]
fn flush_forces_memtable_out() {
    let fs = fs();
    let mut db = Db::open(fs, "db", small_opts(SyncMode::Always), Nanos::ZERO).unwrap();
    let mut now = Nanos::ZERO;
    for i in 0..10 {
        now = common::put(&mut db, now, &key(i), &value(i, 50)).unwrap();
    }
    assert_eq!(db.level_file_counts()[0], 0);
    now = db.flush().unwrap();
    assert_eq!(db.level_file_counts()[0], 1);
    let (got, _) = db.get_at_time(now, &key(5)).unwrap();
    assert_eq!(got, Some(value(5, 50)));
}

#[test]
fn tick_flush_and_settle_run_at_the_shared_clock() {
    let fs = fs();
    let mut db = Db::open(fs, "db", small_opts(SyncMode::NobLsm), Nanos::ZERO).unwrap();
    let loaded = load(&mut db, 4000, 128, Nanos::ZERO);
    db.wait_idle(loaded).unwrap();
    assert!(db.stats().shadow_files > 0, "majors left shadows to reclaim");

    // Idle time passes on the shared clock; `tick` applies what is due by
    // then and leaves the clock where it found it.
    let at = db.clock().now() + Nanos::from_secs(11);
    db.clock().advance_to(at);
    db.tick().unwrap();
    assert!(db.stats().reclaimed_files > 0, "the reclamation polls due by the clock ran");
    assert_eq!(db.clock().now(), at);

    // A flush starts at the clock, not at the last write's end.
    let written = common::put(&mut db, loaded, &key(1), &value(1, 128)).unwrap();
    assert!(written < at, "the put ran at its own instant, behind the clock");
    let later = at + Nanos::from_secs(1);
    db.clock().advance_to(later);
    let flushed = db.flush().unwrap();
    assert!(flushed > later, "the flush started at the clock: {flushed} vs {later}");
    assert_eq!(db.clock().now(), flushed, "and left it at its end");

    let later = flushed + Nanos::from_secs(1);
    db.clock().advance_to(later);
    let settled = db.settle().unwrap();
    assert!(settled >= later);
    assert_eq!(db.clock().now(), settled);
    assert_eq!(db.stats().shadow_files, 0);
}

#[test]
fn a_write_issued_before_the_open_ends_starts_at_the_open_end() {
    let open = || Db::open(fs(), "db", small_opts(SyncMode::Always), Nanos::ZERO).unwrap();
    let (mut db, mut twin) = (open(), open());
    let opened = db.clock().now();
    assert!(opened > Nanos::ZERO, "opening a database takes virtual time");
    let early = common::put(&mut db, Nanos::ZERO, &key(1), &value(1, 100)).unwrap();
    let on_time = common::put(&mut twin, opened, &key(1), &value(1, 100)).unwrap();
    assert_eq!(early, on_time, "the writer exists from the open's end");
}
