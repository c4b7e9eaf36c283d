//! Workspace-level integration tests: every crate working together —
//! variants from `nob-baselines`, workloads from `nob-workloads`, crash
//! injection from `nob-ext4`, all over the `noblsm` engine. The paper's
//! orderings (NobLSM against LevelDB and the volatile build, Table 1's
//! sync ratios, §5.2's zero-corruption crash) are invariants of the
//! golden-pinned `paper_*` sweeps in `crates/bench`, not tests here.

use nob_baselines::Variant;
use nob_ext4::{Ext4Config, Ext4Fs};
use nob_sim::Nanos;
use nob_workloads::dbbench;
use nob_workloads::keys::key;
use nob_workloads::ycsb::{self, YcsbWorkload};
use noblsm::{Db, Options};

fn base() -> Options {
    let mut o = Options::default().with_table_size(64 << 10);
    o.level1_max_bytes = 256 << 10;
    o
}

fn fs() -> Ext4Fs {
    Ext4Fs::new(Ext4Config::default().with_page_cache(16 << 20))
}

fn open(variant: Variant, fs: Ext4Fs, now: Nanos) -> Db {
    Db::open(fs, "db", variant.options(&base()), now).unwrap()
}

#[test]
fn all_variants_survive_the_full_dbbench_sequence() {
    for variant in Variant::paper_seven() {
        let fs = fs();
        let mut db = open(variant, fs, Nanos::ZERO);
        let n = 3000;
        let fill = dbbench::fillrandom(&mut db, n, 256, 1, Nanos::ZERO).unwrap();
        let t = db.wait_idle(fill.finished).unwrap();
        let over = dbbench::overwrite(&mut db, n, 256, 2, t).unwrap();
        let t = db.wait_idle(over.finished).unwrap();
        let rs = dbbench::readseq(&mut db, t).unwrap();
        assert_eq!(rs.ops, n, "{variant}: readseq must see each key once");
        let rr = dbbench::readrandom(&mut db, 500, n, 3, rs.finished).unwrap();
        assert!(rr.finished > rr.started, "{variant}");
        db.check_invariants().unwrap();
    }
}

#[test]
fn ycsb_full_sequence_on_noblsm_with_crash_at_the_end() {
    let fs = fs();
    let mut db = open(Variant::NobLsm, fs.clone(), Nanos::ZERO);
    let records = 4000;
    let load = ycsb::load(&mut db, records, 256, 1, Nanos::ZERO).unwrap();
    let mut now = db.wait_idle(load.finished).unwrap();
    for w in YcsbWorkload::paper_order() {
        let r = ycsb::run(&mut db, w, 800, records, 256, 2, 7, now).unwrap();
        now = db.wait_idle(r.finished).unwrap();
    }
    // Flush, settle, then crash: the recovered DB serves every record.
    db.flush().unwrap();
    now = db.settle().unwrap() + Nanos::from_secs(11);
    db.clock().advance_to(now);
    db.tick().unwrap();
    let mut recovered = open(Variant::NobLsm, fs.crashed_view(now), now);
    let mut t = now;
    let mut found = 0;
    for i in (0..records).step_by(59) {
        let (got, t2) = recovered.get_at_time(t, &key(i)).unwrap();
        t = t2;
        if got.is_some() {
            found += 1;
        }
    }
    assert_eq!(found, (0..records).step_by(59).count(), "all loaded records recoverable");
}

#[test]
fn multithreaded_ycsb_reads_scale_down_wall_time() {
    let fs = fs();
    let mut db = open(Variant::NobLsm, fs, Nanos::ZERO);
    let records = 3000;
    let load = ycsb::load(&mut db, records, 256, 1, Nanos::ZERO).unwrap();
    let t0 = db.wait_idle(load.finished).unwrap();
    let one = ycsb::run(&mut db, YcsbWorkload::C, 2000, records, 256, 1, 5, t0).unwrap();
    let four = ycsb::run(&mut db, YcsbWorkload::C, 2000, records, 256, 4, 5, one.finished).unwrap();
    assert!(four.wall() < one.wall(), "read-only work should parallelize");
}
