//! Regression tests for unified compaction-debt accounting under
//! concurrent lanes.
//!
//! `Db::compaction_debt_bytes` must report over-threshold work *net of
//! what in-flight lanes have already claimed* — a naive gauge would
//! count a major's input bytes once in the version and again per lane
//! working them off, inflating `compact.debt_bytes=` in `noblsm.stats` whenever more
//! than one major is in flight.
//!
//! Synchronous single-writer workloads self-pace (each level is drained
//! the moment it goes over budget), so concurrent majors need staging:
//! settle a deep tree under generous thresholds, then reopen with tight
//! ones so several disjoint levels are over budget at once while fresh
//! writes push L0 through the admission triggers.

mod common;

use nob_ext4::{Ext4Config, Ext4Fs};
use nob_sim::Nanos;
use noblsm::{Db, Options, SyncMode};

fn opts(level1_max: u64, triggers: (usize, usize, usize), lanes: usize) -> Options {
    let mut opts = Options::default().with_sync_mode(SyncMode::NobLsm).with_table_size(32 << 10);
    opts.write_buffer_size = 8 << 10;
    opts.level1_max_bytes = level1_max;
    opts.l0_compaction_trigger = triggers.0;
    opts.l0_slowdown_trigger = triggers.1;
    opts.l0_stop_trigger = triggers.2;
    opts.compaction_lanes = lanes;
    opts
}

fn key(i: u64) -> Vec<u8> {
    format!("key{:08}", (i * 2654435761) % 4096).into_bytes()
}

fn value(i: u64) -> Vec<u8> {
    let mut v = format!("value{i:08}-").into_bytes();
    v.resize(1024, b'x');
    v
}

struct Observed {
    peak_inflight: usize,
    peak_debt: u64,
    settled_debt: u64,
}

/// Two-phase fixed workload: settle a deep tree, reopen with tight
/// thresholds and `lanes` lanes, write hot while sampling the gauge.
/// Also asserts, at every op, that the `compact.debt_bytes=` field of `noblsm.stats`
/// agrees with the gauge — including while several majors hold claims.
fn run(lanes: usize) -> Observed {
    let fs = Ext4Fs::new(Ext4Config::default().with_page_cache(8 << 20));
    let mut db = Db::open(fs.clone(), "db", opts(64 << 10, (4, 8, 12), 1), Nanos::ZERO).unwrap();
    let mut now = Nanos::ZERO;
    for i in 0..2000 {
        now = common::put(&mut db, now, &key(i), &value(i)).unwrap();
    }
    now = db.wait_idle(now).unwrap();
    drop(db);

    let mut db = Db::open(fs, "db", opts(8 << 10, (2, 4, 6), lanes), now).unwrap();
    let mut obs = Observed { peak_inflight: 0, peak_debt: 0, settled_debt: 0 };
    for i in 0..800 {
        now = common::put(&mut db, now, &key(i), &value(i)).unwrap();
        obs.peak_inflight = obs.peak_inflight.max(db.active_majors());
        obs.peak_debt = obs.peak_debt.max(db.compaction_debt_bytes());
        let stats = db.property("noblsm.stats").unwrap();
        let debt_field: u64 = stats
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("compact.debt_bytes="))
            .expect("stats exposes compact.debt_bytes=")
            .parse()
            .unwrap();
        assert_eq!(debt_field, db.compaction_debt_bytes(), "lanes {lanes}, op {i}: {stats}");
    }
    db.wait_idle(now).unwrap();
    obs.settled_debt = db.compaction_debt_bytes();
    assert_eq!(db.active_majors(), 0, "lanes {lanes}: majors left in flight after idle");
    db.check_invariants().unwrap();
    obs
}

#[test]
fn concurrent_lanes_do_not_inflate_debt() {
    let single = run(1);
    let multi = run(4);

    // The scenario is only meaningful if the 4-lane run actually held
    // more than one major in flight at once.
    assert!(
        multi.peak_inflight >= 2,
        "expected concurrent majors, peak in-flight was {}",
        multi.peak_inflight
    );

    // Double-counting shows up as the multi-lane gauge peaking above the
    // single-lane one on the same workload: extra lanes can only claim
    // (and drain) debt faster, never report more of it.
    assert!(
        multi.peak_debt <= single.peak_debt,
        "multi-lane peak debt {} exceeds single-lane peak {}",
        multi.peak_debt,
        single.peak_debt
    );

    // Once every lane has applied, the ledger must be fully released:
    // both runs settle with no outstanding over-threshold work, not a
    // residue of unreleased claims.
    assert_eq!(single.settled_debt, 0, "single-lane debt did not settle");
    assert_eq!(multi.settled_debt, 0, "multi-lane debt did not settle");
}
