//! Workload generators and drivers for the NobLSM reproduction.
//!
//! Two benchmark families, mirroring the paper's §5:
//!
//! * [`dbbench`] — LevelDB's `db_bench` micro-benchmarks: `fillrandom`,
//!   `overwrite`, `readseq`, `readrandom`, with 16-byte keys and
//!   configurable value sizes.
//! * [`ycsb`] — the YCSB core workloads A–F plus the Load phases, with
//!   zipfian / latest / uniform request distributions and a
//!   multi-threaded virtual-time driver.
//!
//! All drivers operate on a [`noblsm::Db`] and report virtual-time
//! results as a [`Report`].
//!
//! # Examples
//!
//! ```
//! use nob_ext4::{Ext4Config, Ext4Fs};
//! use nob_sim::Nanos;
//! use nob_workloads::dbbench;
//! use noblsm::{Db, Options};
//!
//! # fn main() -> Result<(), noblsm::DbError> {
//! let fs = Ext4Fs::new(Ext4Config::default());
//! let mut opts = Options::default().with_table_size(32 << 10);
//! opts.level1_max_bytes = 128 << 10;
//! let mut db = Db::open(fs, "db", opts, Nanos::ZERO)?;
//! let report = dbbench::fillrandom(&mut db, 1000, 100, 42, Nanos::ZERO)?;
//! assert_eq!(report.ops, 1000);
//! assert!(report.mean_us_per_op() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod dbbench;
pub mod keys;
pub mod report;
pub mod ycsb;

pub use report::{LatencyHistogram, Report};

/// Canonical-API single-key write shared by the drivers: advance the
/// engine's clock to `now` (writer threads carry their own timelines),
/// then issue a one-entry batch through [`noblsm::Db::write`]. Returns
/// the instant the write completed.
pub(crate) fn put_at(
    db: &mut noblsm::Db,
    now: nob_sim::Nanos,
    key: &[u8],
    value: &[u8],
) -> noblsm::Result<nob_sim::Nanos> {
    db.clock().advance_to(now);
    let mut batch = noblsm::WriteBatch::new();
    batch.put(key, value);
    db.write(&noblsm::WriteOptions::default(), batch)
}

/// Canonical-API range scan shared by the drivers: advance the engine's
/// clock to `now`, then scan up to `limit` rows from `start` through
/// [`noblsm::Db::scan`]. Returns the rows and the instant the scan
/// completed.
#[allow(clippy::type_complexity)]
pub(crate) fn scan_at(
    db: &mut noblsm::Db,
    now: nob_sim::Nanos,
    start: &[u8],
    limit: usize,
) -> noblsm::Result<(Vec<(Vec<u8>, Vec<u8>)>, nob_sim::Nanos)> {
    db.clock().advance_to(now);
    let sopts = noblsm::ScanOptions::starting_at(start).with_limit(limit);
    let r = db.scan(&noblsm::ReadOptions::default(), &sopts)?;
    Ok((r.rows, db.clock().now()))
}
