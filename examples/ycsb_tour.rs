//! A tour of the YCSB core workloads on NobLSM: load a data set, then run
//! A–F with their real operation mixes and request distributions, single-
//! and multi-threaded.
//!
//! Run with: `cargo run --release --example ycsb_tour`

use nob_baselines::Variant;
use nob_ext4::{Ext4Config, Ext4Fs};
use nob_sim::Nanos;
use nob_workloads::ycsb::{self, YcsbWorkload};
use noblsm::{Db, Options};

fn main() -> Result<(), noblsm::DbError> {
    let records = 20_000u64;
    let ops = 10_000u64;
    let base = {
        let mut o = Options::default().with_table_size(256 << 10);
        o.level1_max_bytes = 1 << 20;
        o
    };
    let fs = Ext4Fs::new(Ext4Config::default());
    let mut db = Db::open(fs, "db", Variant::NobLsm.options(&base), Nanos::ZERO)?;

    println!("loading {records} records of 1 KB…");
    let load = ycsb::load(&mut db, records, 1024, 1, Nanos::ZERO)?;
    println!("Load phase: {:.1} us/op\n", load.mean_us_per_op());
    let mut now = db.wait_idle(load.finished)?;

    println!("{:<10}{:<42}{:>14}{:>14}", "workload", "mix", "1 thread", "4 threads");
    let mixes = [
        (YcsbWorkload::A, "50% read / 50% update, zipfian"),
        (YcsbWorkload::B, "95% read / 5% update, zipfian"),
        (YcsbWorkload::C, "100% read, zipfian"),
        (YcsbWorkload::D, "95% read-latest / 5% insert"),
        (YcsbWorkload::E, "95% scan / 5% insert"),
        (YcsbWorkload::F, "50% read / 50% read-modify-write"),
    ];
    for (w, mix) in mixes {
        let single = ycsb::run(&mut db, w, ops, records, 1024, 1, 7, now)?;
        now = db.wait_idle(single.finished)?;
        let quad = ycsb::run(&mut db, w, ops, records, 1024, 4, 7, now)?;
        now = db.wait_idle(quad.finished)?;
        println!(
            "{:<10}{:<42}{:>11.1} us{:>11.1} us",
            w.name(),
            mix,
            single.mean_us_per_op(),
            quad.mean_us_per_op()
        );
    }
    println!("\ntotal virtual time: {now}");
    println!("level files: {:?}", db.level_file_counts());
    Ok(())
}
