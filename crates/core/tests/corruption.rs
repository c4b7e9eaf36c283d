//! Read-path hardening: device-corrupted WAL bytes must surface as
//! *detected* corruption during recovery — counted in `DbStats` — never a
//! panic and never a silent skip.

mod common;

use nob_ext4::{Ext4Config, Ext4Fs};
use nob_sim::Nanos;
use nob_ssd::{FaultInjector, InjectorHandle, WriteClass, WriteCmd, WriteFault};
use noblsm::{Db, DbError, Options, SyncMode};

/// Corrupts every data-class write (WAL write-back included).
struct CorruptData;
impl FaultInjector for CorruptData {
    fn on_write(&mut self, cmd: &WriteCmd) -> WriteFault {
        if cmd.class == WriteClass::Data {
            WriteFault::Corrupt
        } else {
            WriteFault::None
        }
    }
}

fn opts() -> Options {
    Options::default().with_sync_mode(SyncMode::Always).with_table_size(8 << 10)
}

/// Builds a db whose surviving WAL is committed but damaged on media,
/// and returns the crash view holding it.
fn crashed_fs_with_corrupt_wal() -> (Ext4Fs, Nanos) {
    let fs = Ext4Fs::new(Ext4Config::default());
    let mut db = Db::open(fs.clone(), "db", opts(), Nanos::ZERO).unwrap();
    let mut now = Nanos::ZERO;
    // Buffered WAL appends only — small enough that nothing flushes.
    for i in 0..20 {
        now = common::put(&mut db, now, format!("k{i:04}").as_bytes(), b"v").unwrap();
    }
    // The WAL's write-back happens inside the next async commit, with the
    // device now corrupting data payloads.
    fs.set_fault_injector(InjectorHandle::new(CorruptData));
    let crash_at = now + Nanos::from_secs(6);
    fs.tick(crash_at);
    let view = fs.crashed_view(crash_at);
    (view, crash_at)
}

#[test]
fn corrupt_wal_is_counted_not_silently_skipped() {
    let (view, at) = crashed_fs_with_corrupt_wal();
    let db = Db::open(view, "db", opts(), at).unwrap();
    let s = db.stats();
    assert!(s.wal_corruptions_detected >= 1, "corruption must be detected: {s:?}");
    assert!(s.wal_bytes_dropped > 0, "dropped bytes must be accounted: {s:?}");
    assert_eq!(s.wal_records_recovered, 0, "every record sat behind the damage");
}

#[test]
fn repair_reports_detected_wal_corruption() {
    let (view, at) = crashed_fs_with_corrupt_wal();
    // Wipe the metadata so repair has to work from surviving files.
    view.delete("db/CURRENT", at).unwrap();
    let (t, report) = Db::repair(&view, "db", &opts(), at).unwrap();
    assert!(report.wal_corruptions_detected >= 1, "repair must report damage: {report:?}");
    assert!(report.wal_bytes_dropped > 0);
    // The repaired database opens cleanly afterwards.
    let db = Db::open(view, "db", opts(), t).unwrap();
    drop(db);
}

#[test]
fn clean_crash_recovery_reports_no_corruption() {
    let fs = Ext4Fs::new(Ext4Config::default());
    let mut db = Db::open(fs.clone(), "db", opts(), Nanos::ZERO).unwrap();
    let mut now = Nanos::ZERO;
    for i in 0..20 {
        now = common::put(&mut db, now, format!("k{i:04}").as_bytes(), b"v").unwrap();
    }
    let crash_at = now + Nanos::from_secs(6);
    fs.tick(crash_at);
    let view = fs.crashed_view(crash_at);
    let mut db = Db::open(view, "db", opts(), crash_at).unwrap();
    let s = db.stats().clone();
    assert_eq!(s.wal_corruptions_detected, 0);
    assert!(s.wal_records_recovered >= 1, "committed WAL replays: {s:?}");
    let (got, _) = db.get_at_time(crash_at, b"k0000").unwrap();
    assert_eq!(got.as_deref(), Some(&b"v"[..]));
}

/// Corrupts exactly one data-class write: the first one after arming.
struct CorruptOneDataWrite {
    fired: bool,
}
impl FaultInjector for CorruptOneDataWrite {
    fn on_write(&mut self, cmd: &WriteCmd) -> WriteFault {
        if cmd.class == WriteClass::Data && !self.fired {
            self.fired = true;
            WriteFault::Corrupt
        } else {
            WriteFault::None
        }
    }
}

#[test]
fn compaction_over_a_corrupt_input_fails_loudly_and_applies_nothing() {
    use noblsm::{ReadOptions, WriteOptions};

    // Synced puts keep the WAL clean on the device, so at each flush the
    // new table is the only file with dirty data.
    let synced = WriteOptions::synced();
    let fs = Ext4Fs::new(Ext4Config::default());
    let mut db = Db::open(fs.clone(), "db", opts(), Nanos::ZERO).unwrap();
    let mut now = Nanos::ZERO;
    for i in 0..40 {
        now = common::put_with(&mut db, now, format!("a{i:04}").as_bytes(), b"clean", &synced)
            .unwrap();
    }
    now = db.flush().unwrap();
    for i in 0..40 {
        now = common::put_with(&mut db, now, format!("b{i:04}").as_bytes(), b"doomed", &synced)
            .unwrap();
    }
    // The second L0 table's write-back is damaged on media.
    fs.set_fault_injector(InjectorHandle::new(CorruptOneDataWrite { fired: false }));
    now = db.flush().unwrap();
    assert_eq!(fs.stats().data_writebacks_corrupted, 1);
    assert_eq!(db.level_file_counts()[0], 2);
    drop(db);

    // Media damage shows once the page cache is gone: power-cycle.
    let at = now + Nanos::from_secs(6);
    fs.tick(at);
    let mut db = Db::open(fs.crashed_view(at), "db", opts(), at).unwrap();
    let files_before = db.level_file_counts();
    assert_eq!(files_before[0], 2, "both tables were committed: {files_before:?}");

    let err = db.compact_range(at, None, None).unwrap_err();
    assert!(matches!(err, DbError::Corruption(_)), "got {err:?}");
    assert_eq!(db.level_file_counts(), files_before, "a failed merge edits nothing");
    // Reads keep working, and the uncorrupted input lost nothing.
    for i in 0..40 {
        let got = db.get(&ReadOptions::default(), format!("a{i:04}").as_bytes()).unwrap();
        assert_eq!(got.as_deref(), Some(&b"clean"[..]), "a{i:04}");
    }
    // The failure is sticky for everything that changes the version.
    let mut batch = noblsm::WriteBatch::new();
    batch.put(b"c", b"late");
    assert_eq!(db.write(&WriteOptions::default(), batch).unwrap_err(), err);
    assert_eq!(db.flush().unwrap_err(), err);
    assert_eq!(db.wait_idle(db.clock().now()).unwrap_err(), err);
    assert_eq!(db.active_majors(), 0, "the failed job's lane and claim were released");
    assert_eq!(db.compaction_debt_bytes(), 0);
}

/// A small valid table image with its footer's index handle overwritten by
/// `index(image length)`, written to a fresh filesystem and opened.
fn open_with_index_handle(
    index: impl FnOnce(u64) -> noblsm::sstable::BlockHandle,
) -> noblsm::Result<std::sync::Arc<noblsm::sstable::Table>> {
    use noblsm::sstable::{Footer, Table, TableBuilder, FOOTER_SIZE};
    use noblsm::{InternalKey, ValueType};

    let mut builder = TableBuilder::new(&opts());
    for i in 0..200u64 {
        let key = InternalKey::new(format!("k{i:04}").as_bytes(), i + 1, ValueType::Value);
        builder.add(key.as_bytes(), b"value");
    }
    let mut image = builder.finish();
    let footer_at = image.len() - FOOTER_SIZE;
    let footer = Footer::decode(&image[footer_at..]).unwrap();
    let index = index(image.len() as u64);
    image.truncate(footer_at);
    image.extend_from_slice(&Footer { index, ..footer }.encode());

    let fs = Ext4Fs::new(Ext4Config::default());
    let h = fs.create("t.sst", Nanos::ZERO).unwrap();
    let mut now = fs.append(h, &image, Nanos::ZERO).unwrap();
    Table::open_file(fs, h, image.len() as u64, &opts(), &mut now)
}

#[test]
fn a_footer_handle_outside_the_table_is_an_error_not_a_panic() {
    use noblsm::sstable::BlockHandle;

    // The footer is the one part of a table no checksum covers: a flipped
    // bit lands in a handle unnoticed. Offsets and sizes that overflow
    // `offset + size + trailer`, or merely point past the file, must all
    // come back as errors.
    let handles: [fn(u64) -> BlockHandle; 4] = [
        |_| BlockHandle::new(u64::MAX - 3, 100),
        |_| BlockHandle::new(u64::MAX / 2, u64::MAX / 2 + 10),
        |_| BlockHandle::new(10, u64::MAX - 2),
        |len| BlockHandle::new(2 * len, 10),
    ];
    for (i, handle) in handles.into_iter().enumerate() {
        let err = open_with_index_handle(handle).map(|_| ()).unwrap_err();
        assert!(
            matches!(
                err,
                DbError::Corruption(_) | DbError::Fs(nob_ext4::FsError::ShortRead { .. })
            ),
            "index handle {i}: {err:?}"
        );
    }
}

/// A database whose MANIFEST holds several edits, each a flush of ten
/// synced keys, cut at a quiescent instant; returns the crash view, the
/// instant and the acked keys.
fn crashed_fs_with_flushed_edits() -> (Ext4Fs, Nanos, Vec<Vec<u8>>) {
    let fs = Ext4Fs::new(Ext4Config::default());
    let mut db = Db::open(fs.clone(), "db", opts(), Nanos::ZERO).unwrap();
    let mut now = Nanos::ZERO;
    let mut keys = Vec::new();
    for round in 0..4 {
        for i in 0..10 {
            let key = format!("r{round}k{i:02}").into_bytes();
            now = common::put(&mut db, now, &key, b"v").unwrap();
            keys.push(key);
        }
        now = db.flush().unwrap();
    }
    now = db.wait_idle(now).unwrap();
    drop(db);
    let at = now + Nanos::from_secs(6);
    fs.tick(at);
    (fs.crashed_view(at), at, keys)
}

/// Rewrites the MANIFEST that `CURRENT` names with `damage` applied to its
/// bytes, durably.
fn damage_manifest(view: &Ext4Fs, at: Nanos, damage: impl FnOnce(&mut Vec<u8>)) -> Nanos {
    let read = |path: &str| {
        let h = view.open(path, at).unwrap();
        view.read_at(h, 0, view.file_size(path).unwrap(), at).unwrap().0.to_vec()
    };
    let name = String::from_utf8(read("db/CURRENT")).unwrap();
    let path = format!("db/{}", name.trim());
    let mut bytes = read(&path);
    damage(&mut bytes);
    view.delete(&path, at).unwrap();
    let h = view.create(&path, at).unwrap();
    let t = view.append(h, bytes, at).unwrap();
    view.fsync(h, t).unwrap()
}

#[test]
fn a_corrupt_manifest_record_fails_the_open_and_repair_recovers_every_key() {
    use noblsm::wal::HEADER_SIZE;

    let (view, at, keys) = crashed_fs_with_flushed_edits();
    // Flip the first payload byte of the second record: its checksum
    // fails, and every edit behind it would be lost to an open that
    // stopped there as at a torn tail.
    let at = damage_manifest(&view, at, |bytes| {
        let first_len = u16::from_le_bytes([bytes[4], bytes[5]]) as usize;
        bytes[2 * HEADER_SIZE + first_len] ^= 0xff;
    });
    let err = Db::open(view.clone(), "db", opts(), at).map(|_| ()).unwrap_err();
    assert!(matches!(err, DbError::Corruption(_)), "got {err:?}");
    let (at, _) = Db::repair(&view, "db", &opts(), at).unwrap();
    let mut db = Db::open(view, "db", opts(), at).unwrap();
    for key in &keys {
        let (got, _) = db.get_at_time(at, key).unwrap();
        assert_eq!(got.as_deref(), Some(&b"v"[..]), "{}", String::from_utf8_lossy(key));
    }
}

#[test]
fn a_torn_manifest_tail_still_opens() {
    let (view, at, _) = crashed_fs_with_flushed_edits();
    let at = damage_manifest(&view, at, |bytes| bytes.truncate(bytes.len() - 3));
    assert!(Db::open(view, "db", opts(), at).is_ok(), "a torn last record is not corruption");
}
