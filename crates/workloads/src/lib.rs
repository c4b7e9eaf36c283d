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

pub use report::Report;

/// A driver thread's single-key write, issued at the thread's own instant
/// `now` through [`noblsm::Db::write_at`]: a thread that lags the shared
/// clock (another thread's operation pushed it on) still starts here.
/// Returns the instant the write completed.
pub(crate) fn put_at(
    db: &mut noblsm::Db,
    now: nob_sim::Nanos,
    key: &[u8],
    value: &[u8],
) -> noblsm::Result<nob_sim::Nanos> {
    let mut batch = noblsm::WriteBatch::new();
    batch.put(key, value);
    db.write_at(now, &noblsm::WriteOptions::default(), batch)
}

/// A driver thread's forward scan of up to `limit` rows from `start`,
/// issued at the thread's own instant `now` through
/// [`noblsm::Db::iter_at`] with the seek / next sequence of
/// [`noblsm::Db::scan_with`]. The shared clock is raised to the scan's
/// end afterwards, never before. Returns the rows found and that end.
pub(crate) fn scan_at(
    db: &mut noblsm::Db,
    now: nob_sim::Nanos,
    start: &[u8],
    limit: usize,
) -> noblsm::Result<(usize, nob_sim::Nanos)> {
    let mut it = db.iter_at(now)?;
    it.seek(start)?;
    let mut rows = 0;
    while it.valid() && rows < limit {
        rows += 1;
        it.next()?;
    }
    let end = it.now();
    drop(it);
    db.clock().advance_to(end);
    Ok((rows, end))
}
