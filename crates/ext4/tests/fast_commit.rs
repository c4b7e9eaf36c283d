//! Tests for the fast-commit path (the paper's §3 alternative): `fsync`
//! commits only the target inode, avoiding compound-transaction
//! entanglement — with the same durability guarantee for the target.

use nob_ext4::{Ext4Config, Ext4Fs};
use nob_sim::Nanos;

fn fc_fs() -> Ext4Fs {
    // Disable streaming write-back so entanglement effects are visible.
    let cfg = Ext4Config { fast_commit: true, writeback_chunk: u64::MAX, ..Ext4Config::default() };
    Ext4Fs::new(cfg)
}

fn ordered_fs() -> Ext4Fs {
    let cfg = Ext4Config { writeback_chunk: u64::MAX, ..Ext4Config::default() };
    Ext4Fs::new(cfg)
}

#[test]
fn fast_commit_makes_target_durable() {
    let fs = fc_fs();
    let h = fs.create("a", Nanos::ZERO).unwrap();
    let now = fs.append(h, vec![7u8; 100_000].as_slice(), Nanos::ZERO).unwrap();
    let done = fs.fsync(h, now).unwrap();
    let view = fs.crashed_view(done);
    assert!(view.exists("a"));
    assert_eq!(view.file_size("a").unwrap(), 100_000);
}

#[test]
fn fast_commit_does_not_commit_bystanders() {
    let fs = fc_fs();
    let a = fs.create("a", Nanos::ZERO).unwrap();
    let b = fs.create("b", Nanos::ZERO).unwrap();
    let now = fs.append(a, b"target", Nanos::ZERO).unwrap();
    let now = fs.append(b, b"bystander", now).unwrap();
    let done = fs.fsync(a, now).unwrap();
    let view = fs.crashed_view(done);
    assert!(view.exists("a"), "target durable");
    assert!(!view.exists("b"), "fast commit must not drag the bystander along");
    // Contrast: an ordered-mode full commit *does* entangle the bystander.
    let fs = ordered_fs();
    let a = fs.create("a", Nanos::ZERO).unwrap();
    let b = fs.create("b", Nanos::ZERO).unwrap();
    let now = fs.append(a, b"target", Nanos::ZERO).unwrap();
    let now = fs.append(b, b"bystander", now).unwrap();
    let done = fs.fsync(a, now).unwrap();
    let view = fs.crashed_view(done);
    assert!(view.exists("b"), "ordered-mode compound commit covers everything");
}

#[test]
fn fast_commit_is_cheaper_under_entanglement_load() {
    // A large dirty bystander makes the ordered-mode fsync pay its
    // write-back; the fast commit does not.
    let cost = |fs: Ext4Fs| {
        let a = fs.create("a", Nanos::ZERO).unwrap();
        let b = fs.create("big", Nanos::ZERO).unwrap();
        let now = fs.append(b, vec![0u8; 32 << 20].as_slice(), Nanos::ZERO).unwrap();
        let now = fs.append(a, b"tiny", now).unwrap();
        let done = fs.fsync(a, now).unwrap();
        done - now
    };
    let fast = cost(fc_fs());
    let ordered = cost(ordered_fs());
    assert!(
        fast.as_nanos() * 4 < ordered.as_nanos(),
        "fast commit {fast} should be far cheaper than ordered {ordered}"
    );
}

#[test]
fn fast_commit_serves_the_noblsm_tables() {
    // check_commit/is_committed work identically with fast commits.
    let fs = fc_fs();
    let h = fs.create("sst", Nanos::ZERO).unwrap();
    let now = fs.append(h, b"data", Nanos::ZERO).unwrap();
    let ino = fs.inode_of("sst").unwrap();
    fs.check_commit(&[ino], now);
    assert!(!fs.is_committed(ino, now));
    let done = fs.fsync(h, now).unwrap();
    assert!(fs.is_committed(ino, done));
}

#[test]
fn timer_commits_still_cover_everything_in_fast_commit_mode() {
    let fs = fc_fs();
    let h = fs.create("a", Nanos::ZERO).unwrap();
    fs.append(h, b"x", Nanos::ZERO).unwrap();
    let later = Nanos::from_secs(6);
    fs.tick(later);
    assert!(fs.crashed_view(later).exists("a"), "the 5 s compound commit still runs");
}
