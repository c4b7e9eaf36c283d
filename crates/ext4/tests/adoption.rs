//! Adopting an appended buffer changes nothing anyone can observe.
//!
//! `Ext4Fs::append` given an owned buffer and an empty file makes the
//! buffer the file's content instead of copying it. One script runs on two
//! filesystems: one appends every payload as an owned `Vec`, the other the
//! same bytes as a slice. The script adopts (a table image into a fresh
//! file, one with spare capacity, one after an empty owned append) and
//! copies an owned buffer into a file that already has bytes; the page
//! cache is small, so appends stream write-back, commit early and evict.
//! After every step both sides must give the same instant, counters, dirty
//! and page-cache state (seen as read costs), journal history and file
//! bytes; at the end, every crash view on a grid and at every commit-window
//! boundary must leave the same disk.
//!
//! A read hands back the same bytes without copying them: an adopted image
//! is read where it lies, an append under a live read copies the file
//! first so the read keeps what it saw, and with no read alive an append
//! into spare capacity moves nothing.
//!
//! A crash view shares the bytes it keeps the same way: a file that
//! survives whole and clean is the live file's bytes, and an append on
//! either side afterwards splits them copy-on-write. A file cut to its
//! committed prefix, or with a damaged range to mask, is a copy.

use std::collections::BTreeSet;

use nob_ext4::{Ext4Config, Ext4Fs, Extent};
use nob_sim::Nanos;
use nob_ssd::{
    FaultInjector, FlushCmd, FlushFault, InjectorHandle, WriteClass, WriteCmd, WriteFault,
};

/// One operation of the script.
enum Op {
    Create(&'static str),
    /// Appends `len` bytes of `fill`, in a buffer of `capacity` when owned.
    Append {
        path: &'static str,
        len: usize,
        capacity: usize,
        fill: u8,
    },
    Fsync(&'static str),
    Delete(&'static str),
    /// Lets `secs` of virtual time pass.
    Wait(u64),
    DropCaches,
}

const SCRIPT: &[Op] = &[
    Op::Create("t1"),
    Op::Append { path: "t1", len: 40 << 10, capacity: 40 << 10, fill: 1 },
    Op::Create("t2"),
    Op::Append { path: "t2", len: 100, capacity: 100, fill: 2 },
    // Owned, but the file has bytes already: copied.
    Op::Append { path: "t2", len: 30 << 10, capacity: 30 << 10, fill: 3 },
    Op::Create("t3"),
    // Past the dirty trigger and the page cache: streams, commits, evicts.
    Op::Append { path: "t3", len: 300 << 10, capacity: 300 << 10, fill: 4 },
    Op::Fsync("t2"),
    Op::Wait(6),
    Op::Create("t4"),
    // An empty owned buffer leaves the file empty, so the next is adopted.
    Op::Append { path: "t4", len: 0, capacity: 64, fill: 5 },
    Op::Append { path: "t4", len: 10 << 10, capacity: 10 << 10, fill: 6 },
    Op::Create("t5"),
    // Spare capacity: adopted with it, and used by the later append.
    Op::Append { path: "t5", len: 5 << 10, capacity: 1 << 20, fill: 7 },
    Op::Delete("t1"),
    Op::Wait(6),
    Op::DropCaches,
    Op::Append { path: "t5", len: 2 << 10, capacity: 2 << 10, fill: 8 },
    Op::Fsync("t5"),
];

/// Runs the script, appending owned buffers or slices, and returns what
/// was observable after each step and, last, at each crash cut.
fn run(owned: bool) -> Vec<String> {
    let cfg = Ext4Config { writeback_chunk: 32 << 10, ..Ext4Config::default() }
        .with_page_cache(256 << 10);
    let fs = Ext4Fs::new(cfg.clone());
    let mut now = Nanos::ZERO;
    let mut seen = Vec::new();
    let mut device_reads = 0;
    for op in SCRIPT {
        now = match *op {
            Op::Create(path) => {
                fs.create(path, now).unwrap();
                now
            }
            Op::Append { path, len, capacity, fill } => {
                let h = fs.open(path, now).unwrap();
                let mut bytes = Vec::with_capacity(capacity);
                bytes.resize(len, fill);
                if owned {
                    fs.append(h, bytes, now).unwrap()
                } else {
                    fs.append(h, bytes.as_slice(), now).unwrap()
                }
            }
            Op::Fsync(path) => fs.fsync(fs.open(path, now).unwrap(), now).unwrap(),
            Op::Delete(path) => fs.delete(path, now).unwrap(),
            Op::Wait(secs) => {
                let later = now + Nanos::from_secs(secs);
                fs.tick(later);
                later
            }
            Op::DropCaches => {
                fs.drop_caches();
                now
            }
        };
        seen.push(format!(
            "at {now:?}: {:?} {:?} dirty {} retained {} running {} device {:?}/{:?} {:?}",
            fs.stats(),
            fs.io_stats(),
            fs.dirty_bytes(),
            fs.retained_bytes(),
            fs.running_txn_inodes(),
            fs.device_free_at(),
            fs.device_background_free_at(),
            fs.commit_windows(),
        ));
        // A cached file reads at memory cost, an evicted one from the device.
        for path in fs.list("") {
            let h = fs.open(&path, now).unwrap();
            let len = fs.file_size(&path).unwrap();
            let (bytes, done) = fs.read_at(h, 0, len, now).unwrap();
            device_reads += usize::from(done - now > cfg.ssd.mem_cost(len));
            seen.push(format!("{path}: {len} bytes, sum {}, read done {done:?}", sum(&bytes)));
        }
    }
    // The script reached what it is meant to: early and timed commits,
    // streaming write-back and evicted files.
    let stats = fs.stats();
    assert!(stats.async_commits >= 2 && stats.bytes_written_back > 0, "{stats:?}");
    assert!(device_reads > 0, "no read missed the page cache");
    let windows = fs.commit_windows();
    let mut cuts: BTreeSet<Nanos> = (0..=24).map(|i| Nanos::from_millis(i * 500)).collect();
    for w in &windows {
        cuts.extend([w.start, w.data_done, w.journal_done, w.end]);
    }
    for at in cuts {
        let view = fs.crashed_view(at);
        let files: Vec<String> = view
            .list("")
            .into_iter()
            .map(|p| {
                let len = view.file_size(&p).unwrap();
                let (bytes, _) = view.read_at(view.open(&p, at).unwrap(), 0, len, at).unwrap();
                format!("{p}:{len}:{}", sum(&bytes))
            })
            .collect();
        seen.push(format!("crash at {at:?}: {files:?}, {:?}", view.stats()));
    }
    seen
}

/// A position-sensitive digest of a file's bytes.
fn sum(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0u64, |acc, &b| acc.wrapping_mul(31).wrapping_add(u64::from(b)))
}

#[test]
fn an_adopted_buffer_is_observed_exactly_as_a_copied_one() {
    let (owned, copied) = (run(true), run(false));
    assert_eq!(owned.len(), copied.len());
    for (i, (o, c)) in owned.iter().zip(&copied).enumerate() {
        assert_eq!(o, c, "observation {i} differs");
    }
}

#[test]
fn a_read_is_a_snapshot_that_shares_the_file_bytes() {
    let fs = Ext4Fs::new(Ext4Config::default());
    let h = fs.create("t", Nanos::ZERO).unwrap();
    let mut image = Vec::with_capacity(8 << 10);
    image.resize(4 << 10, 1u8);
    let adopted = image.as_ptr();
    let now = fs.append(h, image, Nanos::ZERO).unwrap();

    // The adopted image is read where it lies, not copied out.
    let (first, _) = fs.read_at(h, 0, 4 << 10, now).unwrap();
    assert_eq!(first.as_ptr(), adopted, "the read copied the file");
    let (tail, _) = fs.read_exact_at(h, 1 << 10, 16, now).unwrap();
    assert_eq!(tail.as_ptr(), adopted.wrapping_add(1 << 10));

    // An append while an extent is alive leaves the extent's bytes as
    // they were read; the file moves to a copy.
    let now = fs.append(h, [2u8; 100].as_slice(), now).unwrap();
    assert_eq!(first.len(), 4 << 10);
    assert!(first.iter().all(|&b| b == 1), "an extent saw a later append");
    assert_eq!(first.as_ptr(), adopted);
    let (grown, _) = fs.read_at(h, 0, (4 << 10) + 100, now).unwrap();
    assert_ne!(grown.as_ptr(), adopted, "the append wrote under a live extent");
    assert_eq!(&grown[4 << 10..], &[2u8; 100][..]);

    // With no extent alive, an append that fits the spare capacity the
    // copy grew leaves the bytes where they are.
    let moved = grown.as_ptr();
    drop((first, tail, grown));
    let now = fs.append(h, [3u8; 10].as_slice(), now).unwrap();
    let (last, _) = fs.read_at(h, 0, (4 << 10) + 110, now).unwrap();
    assert_eq!(last.as_ptr(), moved, "an append with no extent alive moved the bytes");
    assert_eq!(&last[(4 << 10) + 100..], &[3u8; 10][..]);
}

/// Reads all of `path` from `fs`.
fn whole(fs: &Ext4Fs, path: &str, now: Nanos) -> Extent {
    let len = fs.file_size(path).unwrap();
    fs.read_exact_at(fs.open(path, now).unwrap(), 0, len, now).unwrap().0
}

/// Corrupts every data write-back; journal writes and FLUSHes succeed.
struct CorruptData;

impl FaultInjector for CorruptData {
    fn on_write(&mut self, cmd: &WriteCmd) -> WriteFault {
        if cmd.class == WriteClass::Data {
            WriteFault::Corrupt
        } else {
            WriteFault::None
        }
    }

    fn on_flush(&mut self, _cmd: &FlushCmd) -> FlushFault {
        FlushFault::None
    }
}

#[test]
fn a_crash_view_shares_the_bytes_it_keeps() {
    let fs = Ext4Fs::new(Ext4Config::default());
    let mut now = Nanos::ZERO;
    for (path, fill) in [("a", 1u8), ("b", 2), ("c", 3)] {
        let h = fs.create(path, now).unwrap();
        now = fs.append(h, vec![fill; 8 << 10], now).unwrap();
        now = fs.fsync(h, now).unwrap();
    }
    // `c` gains a tail no commit covers.
    now = fs.append(fs.open("c", now).unwrap(), [4u8; 100].as_slice(), now).unwrap();

    // A settled file is the live file's bytes, not a copy of them.
    let view = fs.crashed_view(now);
    for path in ["a", "b"] {
        let (kept, live) = (whole(&view, path, now), whole(&fs, path, now));
        assert_eq!(kept.as_ptr(), live.as_ptr(), "{path}: the view copied a settled file");
        assert_eq!(kept.len(), 8 << 10);
    }

    // An append on either side leaves the other's bytes and length alone.
    now = view.append(view.open("a", now).unwrap(), [9u8; 10].as_slice(), now).unwrap();
    now = fs.append(fs.open("b", now).unwrap(), [9u8; 10].as_slice(), now).unwrap();
    for (grown, other, path, fill) in [(&view, &fs, "a", 1u8), (&fs, &view, "b", 2)] {
        let bytes = whole(other, path, now);
        assert_eq!(bytes.len(), 8 << 10, "{path}: an append on one side grew the other");
        assert!(bytes.iter().all(|&b| b == fill), "{path}: an append on one side wrote the other");
        let bytes = whole(grown, path, now);
        assert_eq!(&bytes[8 << 10..], &[9u8; 10][..]);
        assert_ne!(bytes.as_ptr(), whole(other, path, now).as_ptr());
    }

    // A file with an uncommitted tail comes back as its committed prefix,
    // in bytes of its own.
    let (prefix, live) = (whole(&view, "c", now), whole(&fs, "c", now));
    assert_eq!((prefix.len(), live.len()), (8 << 10, (8 << 10) + 100));
    assert!(prefix.iter().all(|&b| b == 3));
    assert_ne!(prefix.as_ptr(), live.as_ptr(), "a committed prefix shares the live file");

    // A damaged range comes back masked in the view and clean in the live
    // filesystem.
    let fs = Ext4Fs::new(Ext4Config::default());
    fs.set_fault_injector(InjectorHandle::new(CorruptData));
    let h = fs.create("d", Nanos::ZERO).unwrap();
    let now = fs.append(h, vec![5u8; 8 << 10], Nanos::ZERO).unwrap();
    let now = fs.fsync(h, now).unwrap();
    let view = fs.crashed_view(now);
    let (masked, live) = (whole(&view, "d", now), whole(&fs, "d", now));
    assert!(live.iter().all(|&b| b == 5), "masking reached the live filesystem");
    assert_eq!(masked.len(), live.len());
    assert!(masked.iter().all(|&b| b == 5 ^ 0x5A), "the damaged range was not masked");
}
