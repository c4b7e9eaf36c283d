//! The paper's headline in one screen: the same random-write workload on
//! original LevelDB (sync always), NobLSM, and the unsafe 'volatile'
//! LevelDB (no syncs), with execution time and sync counts side by side.
//!
//! Run with: `cargo run --release --example compare_sync_modes`

use nob_baselines::Variant;
use nob_ext4::{Ext4Config, Ext4Fs};
use nob_sim::Nanos;
use nob_workloads::dbbench;
use noblsm::{Db, Options};

fn main() -> Result<(), noblsm::DbError> {
    let ops = 20_000u64;
    let base = {
        let mut o = Options::default().with_table_size(256 << 10);
        o.level1_max_bytes = 1 << 20;
        o
    };
    println!(
        "{:<16}{:>12}{:>12}{:>10}{:>14}{:>12}",
        "system", "time/op", "total", "syncs", "bytes synced", "consistent?"
    );
    let mut leveldb_time = 0.0f64;
    for variant in [Variant::LevelDb, Variant::NobLsm, Variant::VolatileLevelDb] {
        let fs = Ext4Fs::new(Ext4Config::default());
        let mut db = Db::open(fs.clone(), "db", variant.options(&base), Nanos::ZERO)?;
        fs.reset_stats();
        let report = dbbench::fillrandom(&mut db, ops, 1024, 7, Nanos::ZERO)?;
        let stats = fs.stats();
        let us = report.mean_us_per_op();
        if variant == Variant::LevelDb {
            leveldb_time = us;
        }
        println!(
            "{:<16}{:>10.1}us{:>12}{:>10}{:>14}{:>12}",
            variant.name(),
            us,
            report.wall().to_string(),
            stats.sync_calls,
            stats.bytes_synced,
            if variant == Variant::VolatileLevelDb { "NO" } else { "yes" },
        );
        if variant == Variant::NobLsm {
            println!(
                "{:<16}  → {:.1}% less execution time than LevelDB, same consistency",
                "",
                (1.0 - us / leveldb_time) * 100.0
            );
        }
    }
    println!("\n(the paper reports 43.6–47.5% reduction at full 10M-request scale)");
    Ok(())
}
