//! Tests for the kernel-flusher model: streaming background write-back,
//! the two-class device behaviour seen through the filesystem, and the
//! sync-commit promotion of in-flight pages.

use nob_ext4::{Ext4Config, Ext4Fs};
use nob_sim::Nanos;

fn cfg(chunk: u64) -> Ext4Config {
    Ext4Config { writeback_chunk: chunk, ..Ext4Config::default() }
}

#[test]
fn streaming_writeback_drains_dirty_pages_without_commits() {
    let fs = Ext4Fs::new(cfg(64 << 10));
    let h = fs.create("a", Nanos::ZERO).unwrap();
    let mut now = Nanos::ZERO;
    for _ in 0..16 {
        now = fs.append(h, vec![0u8; 32 << 10], now).unwrap();
    }
    // 512 KiB written with a 64 KiB trigger: almost everything streamed.
    assert!(fs.dirty_bytes() < 64 << 10, "dirty residue: {}", fs.dirty_bytes());
    assert!(fs.stats().bytes_written_back >= 448 << 10);
    assert_eq!(fs.stats().async_commits, 0, "no commit was needed to write back");
    // Streamed ≠ durable: the metadata is still uncommitted.
    assert!(!fs.crashed_view(now + Nanos::from_secs(1)).exists("a"));
}

#[test]
fn writeback_below_chunk_stays_dirty() {
    let fs = Ext4Fs::new(cfg(1 << 20));
    let h = fs.create("a", Nanos::ZERO).unwrap();
    let now = fs.append(h, vec![0u8; 100 << 10], Nanos::ZERO).unwrap();
    assert_eq!(fs.dirty_bytes(), 100 << 10);
    let _ = now;
}

#[test]
fn fsync_after_streaming_waits_for_inflight_data() {
    // The file's data was issued to the background class; an immediate
    // fsync must still not return before that data is durable (promotion
    // re-submits it in the foreground).
    let fs = Ext4Fs::new(cfg(4 << 10));
    let h = fs.create("a", Nanos::ZERO).unwrap();
    let size = 64u64 << 20; // 64 MiB ≈ 123 ms of device time
    let now = fs.append(h, vec![0u8; size as usize], Nanos::ZERO).unwrap();
    let done = fs.fsync(h, now).unwrap();
    let min_transfer = Nanos::for_transfer(size, fs.config().ssd.seq_write_bw);
    assert!(
        done - now >= min_transfer / 2,
        "fsync returned in {} — faster than the device can write {} bytes",
        done - now,
        size
    );
    // And the data really is durable at that instant.
    let view = fs.crashed_view(done);
    assert_eq!(view.file_size("a").unwrap(), size);
}

#[test]
fn fsync_entanglement_with_fresh_txn_data_is_real_but_bounded() {
    // ext4's infamous fsync entanglement: a sync commit must persist ALL
    // of the running transaction's ordered data. A small file's fsync
    // right after 128 MiB of fresh foreign dirt therefore costs about one
    // 128 MiB transfer — no more (promotion re-submits the in-flight
    // pages at full speed instead of waiting behind an idle-capacity
    // background queue), and no less (the ordering contract).
    let run = |with_backlog: bool| {
        let fs = Ext4Fs::new(cfg(4 << 10));
        let mut now = Nanos::ZERO;
        if with_backlog {
            for i in 0..8 {
                let h = fs.create(&format!("big{i}"), now).unwrap();
                now = fs.append(h, vec![0u8; 16 << 20], now).unwrap();
            }
        }
        let h = fs.create("small", now).unwrap();
        let t = fs.append(h, vec![0u8; 64 << 10], now).unwrap();
        let done = fs.fsync(h, t).unwrap();
        (done - t, fs)
    };
    let (clean, _) = run(false);
    let (busy, fs) = run(true);
    let backlog_transfer = Nanos::for_transfer(128 << 20, fs.config().ssd.seq_write_bw);
    assert!(clean < Nanos::from_millis(5), "clean sync is quick: {clean}");
    assert!(
        busy >= backlog_transfer / 2,
        "ordered contract: fsync cannot finish before the txn data ({busy})"
    );
    assert!(
        busy <= backlog_transfer * 2 + Nanos::from_millis(10),
        "promotion bounds the wait to ≈ one transfer of the txn data ({busy})"
    );
    // After the fsync, the entangled bystanders are durable too.
    let view = fs.crashed_view(Nanos::from_secs(60));
    assert!(view.exists("big0"));
}

#[test]
fn crash_between_stream_and_commit_loses_only_metadata() {
    let fs = Ext4Fs::new(cfg(4 << 10));
    let h = fs.create("a", Nanos::ZERO).unwrap();
    let now = fs.append(h, vec![7u8; 256 << 10], Nanos::ZERO).unwrap();
    // Give the device time to complete the streamed write-back, but stay
    // before the 5 s commit.
    let mid = now + Nanos::from_secs(2);
    fs.tick(mid);
    assert!(!fs.crashed_view(mid).exists("a"), "data persisted but inode uncommitted");
    let late = now + Nanos::from_secs(6);
    fs.tick(late);
    let view = fs.crashed_view(late);
    assert_eq!(view.file_size("a").unwrap(), 256 << 10, "commit flips durability");
    // And the committed data is exactly what was written.
    let h2 = view.open("a", late).unwrap();
    let (data, _) = view.read_at(h2, 100, 8, late).unwrap();
    assert_eq!(*data, vec![7u8; 8]);
}

#[test]
fn deleted_files_elide_remaining_writeback() {
    // Short-lived files (WALs, quickly recompacted tables) that die in the
    // page cache never cost device bandwidth for their un-streamed tail.
    let fs = Ext4Fs::new(cfg(u64::MAX)); // streaming off: all dirt retained
    let h = fs.create("wal", Nanos::ZERO).unwrap();
    let now = fs.append(h, vec![0u8; 8 << 20], Nanos::ZERO).unwrap();
    let written_before = fs.io_stats().bytes_written;
    fs.delete("wal", now).unwrap();
    fs.tick(now + Nanos::from_secs(6)); // commit fires; nothing to write back
    let written_after = fs.io_stats().bytes_written;
    assert!(
        written_after - written_before < 64 << 10,
        "deleted dirty data must not be written back ({} bytes were)",
        written_after - written_before
    );
}
