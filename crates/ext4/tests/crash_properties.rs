//! Crash properties of the Ext4 simulation, on ordered and on fast-commit
//! Ext4.
//!
//! The one contract NobLSM relies on: **a committed inode implies its
//! ordered data is durable.** Every property drives the same op script
//! (`run_ops`) into the same model of what the application did
//! (`Model`), cuts power somewhere, and asks the same three questions of
//! the view (`check_view`): does every file read back to its size; is
//! every file an inode that held its path, holding a prefix of what that
//! inode was given; and is every acknowledgement dated by the cut still
//! there.

use std::collections::HashMap;

use nob_ext4::{CommitWindow, Ext4Config, Ext4Fs, FileHandle, InodeId};
use nob_sim::Nanos;
use nob_ssd::{FaultInjector, InjectorHandle, WriteClass, WriteCmd, WriteFault};
use proptest::prelude::*;

/// One application call, over six paths.
#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    Append(u8, u16),
    Fsync(u8),
    Delete(u8),
    /// Renames the first path over the second, replacing what it held.
    Rename(u8, u8),
    Sleep(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        1 => (0u8..6).prop_map(Op::Create),
        3 => (0u8..6, 1u16..4096).prop_map(|(f, n)| Op::Append(f, n)),
        1 => (0u8..6).prop_map(Op::Fsync),
        1 => (0u8..6).prop_map(Op::Delete),
        1 => (0u8..6, 0u8..6).prop_map(|(a, b)| Op::Rename(a, b)),
        1 => (1u32..8_000_000).prop_map(Op::Sleep),
    ]
}

fn path(f: u8) -> String {
    format!("f{f}")
}

/// One inode the application created.
#[derive(Debug)]
struct Inode {
    /// Its inode number, which a crash keeps.
    id: InodeId,
    /// Every byte appended to it, in order.
    content: Vec<u8>,
    /// Every path it held.
    paths: Vec<String>,
    /// When it was deleted or renamed over.
    unlinked: Option<Nanos>,
}

/// An acknowledgement — an fsync's, or a full journal commit's: by `at`,
/// inode `ino` was durable with its first `len` bytes.
#[derive(Debug)]
struct Ack {
    at: Nanos,
    ino: usize,
    len: usize,
}

/// What the application did, as far as the filesystem acknowledged it.
#[derive(Debug, Default)]
struct Model {
    /// Every inode, in creation order.
    inodes: Vec<Inode>,
    /// The live paths, with their handles and inodes.
    live: HashMap<String, (FileHandle, usize)>,
    acks: Vec<Ack>,
}

impl Model {
    fn unlink(&mut self, p: &str, at: Nanos) {
        if let Some((_, ino)) = self.live.remove(p) {
            self.inodes[ino].unlinked = Some(at);
        }
    }
}

/// Applies `ops` to `fs`, recording each acknowledged call in `model`;
/// returns the instant the script ended.
///
/// Besides each fsync, every full journal commit is an acknowledgement:
/// in `data=ordered` mode it covers every live inode, data first, at the
/// length the inode had when the commit was issued — before the op whose
/// tick or fsync issued it. A fast commit covers only its fsync's inode.
fn run_ops(fs: &Ext4Fs, ops: &[Op], model: &mut Model) -> Nanos {
    let fast_commit = fs.config().fast_commit;
    let mut now = Nanos::ZERO;
    let mut fill = 0u8;
    for op in ops {
        let live: Vec<(usize, usize)> =
            model.live.values().map(|&(_, ino)| (ino, model.inodes[ino].content.len())).collect();
        let seen = fs.commit_windows().len();
        match *op {
            Op::Create(f) => {
                let p = path(f);
                if let Ok(h) = fs.create(&p, now) {
                    let ino = model.inodes.len();
                    let id = fs.inode_of(&p).expect("just created");
                    let paths = vec![p.clone()];
                    model.inodes.push(Inode { id, content: Vec::new(), paths, unlinked: None });
                    model.live.insert(p, (h, ino));
                }
            }
            Op::Append(f, n) => {
                if let Some(&(h, ino)) = model.live.get(&path(f)) {
                    fill = fill.wrapping_add(1);
                    let data = vec![fill; n as usize];
                    if let Ok(t) = fs.append(h, &data, now) {
                        now = t;
                        model.inodes[ino].content.extend_from_slice(&data);
                    }
                }
            }
            Op::Fsync(f) => {
                if let Some(&(h, ino)) = model.live.get(&path(f)) {
                    if let Ok(t) = fs.fsync(h, now) {
                        now = t;
                        model.acks.push(Ack { at: t, ino, len: model.inodes[ino].content.len() });
                    }
                }
            }
            Op::Delete(f) => {
                let p = path(f);
                if fs.delete(&p, now).is_ok() {
                    model.unlink(&p, now);
                }
            }
            Op::Rename(a, b) => {
                let (pa, pb) = (path(a), path(b));
                if pa != pb && fs.rename(&pa, &pb, now).is_ok() {
                    let moved = model.live.remove(&pa).expect("renamed a live path");
                    model.unlink(&pb, now);
                    model.inodes[moved.1].paths.push(pb.clone());
                    model.live.insert(pb, moved);
                }
            }
            Op::Sleep(us) => {
                now += Nanos::from_micros(us as u64);
                fs.tick(now);
            }
        }
        for w in &fs.commit_windows()[seen..] {
            if !(fast_commit && w.sync) {
                model.acks.extend(live.iter().map(|&(ino, len)| Ack { at: w.end, ino, len }));
            }
        }
    }
    now
}

/// Runs `ops` on a fresh filesystem with a 1 MiB page cache, with or
/// without fast commits; returns it, its model and the end.
fn run(fast_commit: bool, ops: &[Op]) -> (Ext4Fs, Model, Nanos) {
    let cfg = Ext4Config { fast_commit, ..Ext4Config::default().with_page_cache(1 << 20) };
    let fs = Ext4Fs::new(cfg);
    let mut model = Model::default();
    let end = run_ops(&fs, ops, &mut model);
    (fs, model, end)
}

/// Asserts the crash contract on the view a power cut at `at` left: no
/// ordered-mode violation; every file reads back to its size and is an
/// inode that held its path, holding a prefix of what that inode was
/// given; and every acknowledgement dated by `at` is present, that inode
/// under a path it held, unless the inode was deleted or renamed over by
/// then.
fn check_view(view: &Ext4Fs, at: Nanos, model: &Model) {
    assert_eq!(view.stats().ordered_violations, 0, "ordered-mode violation at {at}");
    let files: HashMap<String, (InodeId, Vec<u8>)> = view
        .list("")
        .into_iter()
        .map(|p| {
            let size = view.file_size(&p).unwrap();
            let h = view.open(&p, at).unwrap();
            let (data, _) = view.read_at(h, 0, size, at).unwrap();
            assert_eq!(data.len() as u64, size, "{p} reads short at {at}");
            let file = (view.inode_of(&p).unwrap(), data.to_vec());
            (p, file)
        })
        .collect();
    for (p, (id, data)) in &files {
        let inode = model.inodes.iter().find(|i| i.id == *id && i.paths.contains(p));
        let inode =
            inode.unwrap_or_else(|| panic!("{p} is inode {id}, which never held it, at {at}"));
        assert!(inode.content.starts_with(data), "{p} holds bytes never written to it, at {at}");
    }
    for ack in model.acks.iter().filter(|a| a.at <= at) {
        let inode = &model.inodes[ack.ino];
        if inode.unlinked.is_some_and(|u| u <= at) {
            continue;
        }
        let want = &inode.content[..ack.len];
        let kept = inode.paths.iter().any(|p| {
            files.get(p).is_some_and(|(id, data)| *id == inode.id && data.starts_with(want))
        });
        assert!(
            kept,
            "inode {} acknowledged with {} bytes at {} under {:?}, missing at {at}",
            inode.id, ack.len, ack.at, inode.paths
        );
    }
}

/// Crash instants inside a commit window: every phase boundary and the
/// midpoint of each phase.
fn probes(w: &CommitWindow) -> [Nanos; 7] {
    let mid = |a: Nanos, b: Nanos| Nanos::from_nanos((a.as_nanos() + b.as_nanos()) / 2);
    [
        w.start,
        mid(w.start, w.data_done),
        w.data_done,
        mid(w.data_done, w.journal_done),
        w.journal_done,
        mid(w.journal_done, w.end),
        w.end,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A crash at any instant, up to 20 % past the script's end, leaves a
    /// view that keeps the contract.
    #[test]
    fn crash_never_exposes_unpersisted_data(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        crash_frac in 0.0f64..1.2,
    ) {
        for fast_commit in [false, true] {
            let (fs, model, end) = run(fast_commit, &ops);
            let at = Nanos::from_nanos((end.as_nanos() as f64 * crash_frac) as u64);
            check_view(&fs.crashed_view(at), at, &model);
        }
    }

    /// A crash at the script's end keeps every fsync it acknowledged.
    #[test]
    fn fsynced_data_survives_crash(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        for fast_commit in [false, true] {
            let (fs, model, end) = run(fast_commit, &ops);
            check_view(&fs.crashed_view(end), end, &model);
        }
    }

    /// `is_committed` never answers true for an inode whose latest state a
    /// crash at that instant would not keep whole.
    #[test]
    fn is_committed_implies_durable(
        ops in proptest::collection::vec(op_strategy(), 1..50),
        probe_us in 0u64..20_000_000,
    ) {
        for fast_commit in [false, true] {
            let (fs, model, end) = run(fast_commit, &ops);
            let probe = end + Nanos::from_micros(probe_us);
            let live = fs.list("");
            let inos: Vec<_> = live.iter().filter_map(|p| fs.inode_of(p)).collect();
            fs.check_commit(&inos, probe);
            let view = fs.crashed_view(probe);
            check_view(&view, probe, &model);
            for (p, ino) in live.iter().zip(&inos) {
                if fs.is_committed(*ino, probe) {
                    prop_assert!(view.exists(p), "{} committed but missing after crash", p);
                    prop_assert_eq!(view.file_size(p).unwrap(), fs.file_size(p).unwrap());
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A crash at every phase boundary and inside every phase of every
    /// commit window the script produced — in particular between a
    /// window's data write-back and its commit record — keeps the
    /// contract.
    #[test]
    fn crash_inside_any_commit_window_preserves_the_contract(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        for fast_commit in [false, true] {
            let (fs, model, _) = run(fast_commit, &ops);
            for w in fs.commit_windows() {
                prop_assert!(!w.faulted, "no faults were injected");
                for at in probes(&w) {
                    check_view(&fs.crashed_view(at), at, &model);
                }
            }
        }
    }

    /// The same check at instants drawn uniformly, up to 10 % past the
    /// script's end and aligned to no window, as a control that the window
    /// probes are not special-cased.
    #[test]
    fn crash_at_random_instants_preserves_the_contract(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        frac in 0.0f64..1.1,
    ) {
        for fast_commit in [false, true] {
            let (fs, model, end) = run(fast_commit, &ops);
            let at = Nanos::from_nanos((end.as_nanos() as f64 * frac) as u64);
            check_view(&fs.crashed_view(at), at, &model);
        }
    }
}

/// A file renamed over is deleted, and its deletion is journalled like
/// any other: once a commit covers it, no crash view brings the old file
/// back at its path, and the crash horizon forgets its bytes.
#[test]
fn renamed_over_file_is_deleted_durably() {
    // Write `p` and fsync; rename `a` over `p` and fsync; rename `p` to
    // `q` and fsync; then sleep past the timer commit.
    let (p, a, q) = (0, 1, 2);
    let ops = [
        Op::Create(p),
        Op::Append(p, 4),
        Op::Fsync(p),
        Op::Create(a),
        Op::Append(a, 2),
        Op::Rename(a, p),
        Op::Fsync(p),
        Op::Rename(p, q),
        Op::Fsync(q),
        Op::Sleep(6_000_000),
    ];
    for fast_commit in [false, true] {
        let (fs, model, end) = run(fast_commit, &ops);
        let view = fs.crashed_view(end);
        check_view(&view, end, &model);
        assert_eq!(view.list(""), [path(q)], "fast_commit {fast_commit}: the old `p` is back");
        assert_eq!(fs.retained_bytes(), 6, "nothing is forgotten below the horizon");
        fs.advance_crash_horizon(end);
        assert_eq!(fs.retained_bytes(), 2, "fast_commit {fast_commit}: the old `p` is kept");
    }
}

/// Tears every write of one class: a torn commit record dies on the media
/// while the kernel keeps believing it.
struct TearClass(WriteClass);

impl FaultInjector for TearClass {
    fn on_write(&mut self, cmd: &WriteCmd) -> WriteFault {
        if cmd.class == self.0 {
            WriteFault::Torn { keep: 0 }
        } else {
            WriteFault::None
        }
    }
}

/// With a faulted journal the commit is *not* durable: a crash after the
/// window's end must roll the file back rather than expose a committed
/// inode backed by a broken chain — and the break must be visible, never
/// silent.
#[test]
fn faulted_commit_window_rolls_back_and_is_accounted() {
    let fs = Ext4Fs::new(Ext4Config::default());
    let h = fs.create("f", Nanos::ZERO).unwrap();
    let now = fs.append(h, &[7u8; 2048], Nanos::ZERO).unwrap();
    fs.set_fault_injector(InjectorHandle::new(TearClass(WriteClass::Journal)));
    let now = fs.fsync(h, now).unwrap();
    let windows = fs.commit_windows();
    let w = windows.iter().find(|w| w.sync).expect("the fsync logged a window");
    assert!(w.faulted, "the torn journal write must mark its window");
    assert!(fs.journal_broken().is_some(), "the chain break must be recorded");
    let at = now + Nanos::from_secs(1);
    let view = fs.crashed_view(at);
    // The commit never became durable: the file's creation and data are
    // gone with it (rollback), not half-present.
    assert!(
        !view.exists("f") || view.file_size("f").unwrap() == 0,
        "a broken commit chain must roll the inode back, got {:?}",
        view.file_size("f")
    );
}

/// A torn fast-commit record loses its own fsync and nothing else: the
/// fast-commit area is separate from the main journal, so replay still
/// reaches every later main-journal commit.
#[test]
fn torn_fast_commit_loses_only_that_fsync() {
    let cfg = Ext4Config { fast_commit: true, writeback_chunk: u64::MAX, ..Ext4Config::default() };
    let fs = Ext4Fs::new(cfg);
    fs.set_fault_injector(InjectorHandle::new(TearClass(WriteClass::FastCommit)));
    let h = fs.create("a", Nanos::ZERO).unwrap();
    let now = fs.append(h, b"aaaa", Nanos::ZERO).unwrap();
    let done = fs.fsync(h, now).unwrap();
    assert!(!fs.crashed_view(done).exists("a"), "the torn record's fsync is lost");
    assert_eq!(fs.journal_broken(), None);
    fs.append(h, b"bbbb", done).unwrap();
    let later = Nanos::from_secs(6);
    fs.tick(later);
    assert_eq!(fs.crashed_view(later).file_size("a").unwrap(), 8, "the timer commit recovers");
}
