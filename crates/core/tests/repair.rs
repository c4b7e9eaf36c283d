//! Tests for `Db::repair`: rebuilding metadata from surviving files after
//! the MANIFEST/CURRENT are lost.

mod common;

use nob_ext4::{Ext4Config, Ext4Fs};
use nob_sim::Nanos;
use noblsm::{Db, DbError, Options, SyncMode};

fn opts() -> Options {
    let mut o = Options::default().with_sync_mode(SyncMode::Always).with_table_size(16 << 10);
    o.level1_max_bytes = 64 << 10;
    o
}

fn fs() -> Ext4Fs {
    Ext4Fs::new(Ext4Config::default().with_page_cache(8 << 20))
}

fn key(i: u64) -> Vec<u8> {
    format!("key{i:08}").into_bytes()
}

fn val(i: u64, round: u64) -> Vec<u8> {
    format!("value-{i}-round{round}-{}", "r".repeat(60)).into_bytes()
}

/// Builds a DB with two generations of values, flushes, and returns the
/// filesystem plus the end time.
fn build(fs: &Ext4Fs, n: u64) -> Nanos {
    let mut db = Db::open(fs.clone(), "db", opts(), Nanos::ZERO).unwrap();
    let mut now = Nanos::ZERO;
    for i in 0..n {
        now = common::put(&mut db, now, &key(i), &val(i, 0)).unwrap();
    }
    for i in 0..n / 2 {
        now = common::put(&mut db, now, &key(i), &val(i, 1)).unwrap();
    }
    db.flush().unwrap();
    db.settle().unwrap()
}

#[test]
fn repair_recovers_after_metadata_loss() {
    let fs = fs();
    let n = 1500u64;
    let mut now = build(&fs, n);
    // Destroy the metadata: CURRENT and every MANIFEST.
    for p in fs.list("db/") {
        if p.contains("MANIFEST") || p.ends_with("CURRENT") {
            fs.delete(&p, now).unwrap();
        }
    }
    // A normal open would create an EMPTY database (no CURRENT means
    // "fresh"), clobbering the tables — repair instead salvages them.
    now = Db::repair(&fs, "db", &opts(), now).unwrap().0;
    let mut db = Db::open(fs, "db", opts(), now).unwrap();
    db.check_invariants().unwrap();
    // Every key present; overwritten keys must show the NEWER round.
    for i in (0..n).step_by(13) {
        let (got, t) = db.get_at_time(now, &key(i)).unwrap();
        now = t;
        let want = if i < n / 2 { val(i, 1) } else { val(i, 0) };
        assert_eq!(got, Some(want), "key {i} wrong after repair");
    }
}

#[test]
fn repair_replays_surviving_wals() {
    let fs = fs();
    let mut db = Db::open(fs.clone(), "db", opts(), Nanos::ZERO).unwrap();
    let mut now = Nanos::ZERO;
    for i in 0..20u64 {
        now = common::put(&mut db, now, &key(i), &val(i, 0)).unwrap();
    }
    // Nothing flushed: the data lives only in the WAL. Kill the metadata.
    drop(db);
    for p in fs.list("db/") {
        if p.contains("MANIFEST") || p.ends_with("CURRENT") {
            fs.delete(&p, now).unwrap();
        }
    }
    now = Db::repair(&fs, "db", &opts(), now).unwrap().0;
    let mut rdb = Db::open(fs, "db", opts(), now).unwrap();
    for i in 0..20u64 {
        let (got, t) = rdb.get_at_time(now, &key(i)).unwrap();
        now = t;
        assert_eq!(got, Some(val(i, 0)), "WAL entry {i} lost by repair");
    }
}

#[test]
fn repair_skips_garbage_tables() {
    let fs = fs();
    let mut now = build(&fs, 500);
    for p in fs.list("db/") {
        if p.contains("MANIFEST") || p.ends_with("CURRENT") {
            fs.delete(&p, now).unwrap();
        }
    }
    // Drop a garbage .ldb file into the directory.
    let h = fs.create("db/999999.ldb", now).unwrap();
    now = fs.append(h, b"this is not a table", now).unwrap();
    now = Db::repair(&fs, "db", &opts(), now).unwrap().0;
    assert!(!fs.exists("db/999999.ldb"), "garbage file must be discarded");
    let mut db = Db::open(fs, "db", opts(), now).unwrap();
    let (got, _) = db.get_at_time(now, &key(42)).unwrap();
    assert!(got.is_some());
}

#[test]
fn open_without_current_would_lose_the_tables() {
    // Documents WHY repair exists: open() treats a missing CURRENT as a
    // fresh database and clears leftovers.
    let fs = fs();
    let now = build(&fs, 300);
    for p in fs.list("db/") {
        if p.ends_with("CURRENT") {
            fs.delete(&p, now).unwrap();
        }
    }
    let mut db = Db::open(fs, "db", opts(), now).unwrap();
    let (got, _) = db.get_at_time(now, &key(1)).unwrap();
    assert_eq!(got, None, "without repair the data is gone");
}

#[test]
fn repair_on_healthy_empty_dir_yields_empty_db() {
    let fs = fs();
    let now = Db::repair(&fs, "db", &opts(), Nanos::ZERO).unwrap().0;
    let mut db = Db::open(fs, "db", opts(), now).unwrap();
    let (got, _) = db.get_at_time(now, b"anything").unwrap();
    assert_eq!(got, None);
}

#[test]
fn corrupt_current_is_reported_then_repairable() {
    let fs = fs();
    let mut now = build(&fs, 300);
    // Point CURRENT at a manifest that does not exist.
    fs.delete("db/CURRENT", now).unwrap();
    let h = fs.create("db/CURRENT", now).unwrap();
    now = fs.append(h, b"MANIFEST-424242", now).unwrap();
    let err = Db::open(fs.clone(), "db", opts(), now).unwrap_err();
    assert!(matches!(err, DbError::InvalidDb(_)), "{err}");
    now = Db::repair(&fs, "db", &opts(), now).unwrap().0;
    let mut db = Db::open(fs, "db", opts(), now).unwrap();
    let (got, _) = db.get_at_time(now, &key(7)).unwrap();
    assert!(got.is_some());
}
