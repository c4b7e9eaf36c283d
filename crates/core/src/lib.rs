//! `noblsm` — an LSM-tree key-value store with non-blocking writes.
//!
//! This crate reproduces, from scratch, both a LevelDB-class storage engine
//! and the NobLSM contribution of Dang et al. (DAC 2022): substituting the
//! blocking `fsync`s on the critical path of major compactions with Ext4's
//! asynchronous journal commits, tracked through two added syscalls, while
//! preserving crash consistency.
//!
//! # Architecture
//!
//! * [`memtable`] — a skiplist-backed in-memory table.
//! * [`wal`] — the write-ahead log (LevelDB's 32 KiB-block record format
//!   with CRC32C).
//! * [`sstable`] — sorted tables: prefix-compressed blocks with restart
//!   points, a bloom filter, an index block and a fixed footer.
//! * [`version`] — the MANIFEST-backed version set: level metadata,
//!   compaction picking, recovery.
//! * [`db`] — the engine: write path with LevelDB's slowdown/stop
//!   triggers, background minor/major compactions on virtual time,
//!   iterators, and the NobLSM mode.
//! * [`noblsm`] — the global predecessor/successor dependency tracker and
//!   shadow-SSTable reclamation described in §4 of the paper.
//! * [`iterator`] — the user-facing [`DbIterator`] over a merged,
//!   snapshot-filtered view of memtables and tables.
//! * [`util`] — the CRC32C checksum the on-disk formats share.
//!
//! All I/O flows through [`nob_ext4::Ext4Fs`] and is priced in virtual
//! time. Every operation is timed on the engine's shared
//! [`nob_sim::SharedClock`]; the canonical entry points are
//! [`Db::write`]`(&WriteOptions, WriteBatch)` and
//! [`Db::get`]`(&ReadOptions, key)`. [`Db::flush`], [`Db::settle`] and
//! [`Db::tick`] run at the shared clock's present. The methods that take
//! an explicit `now` are not leftovers of an older API:
//! [`Db::write_at`], [`Db::get_at_time`] and [`Db::iter_at`] let a
//! multi-threaded driver act at one thread's own instant, and the
//! lifecycle calls ([`Db::open`], [`Db::wait_idle`],
//! [`Db::compact_range`], [`Db::repair`]) run at an instant their harness
//! chooses — a crash instant, the end of a load phase. Those that return
//! an instant leave the shared clock at or past it.
//!
//! # Examples
//!
//! ```
//! use nob_ext4::{Ext4Config, Ext4Fs};
//! use nob_sim::Nanos;
//! use noblsm::{Db, Options, ReadOptions, SyncMode, WriteBatch, WriteOptions};
//!
//! # fn main() -> Result<(), noblsm::Error> {
//! let fs = Ext4Fs::new(Ext4Config::default());
//! let opts = Options::default().with_sync_mode(SyncMode::NobLsm);
//! let mut db = Db::open(fs, "db", opts, Nanos::ZERO)?;
//! let mut batch = WriteBatch::new();
//! batch.put(b"key", b"value");
//! db.write(&WriteOptions::default(), batch)?;
//! let found = db.get(&ReadOptions::default(), b"key")?;
//! assert_eq!(found.as_deref(), Some(&b"value"[..]));
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![deny(unreachable_pub)]

pub mod db;
pub mod iterator;
pub mod memtable;
pub mod noblsm;
pub mod sstable;
pub mod version;
pub mod wal;

mod cache;
mod compaction;
mod error;
mod options;
mod sched;
mod stats;
mod types;
pub mod util;

pub use db::{Db, RepairReport, ScanCollector, ScanResult, Snapshot, WriteBatch};
pub use error::{DbError, Error};
pub use iterator::{DbIterator, IterState};
pub use options::{
    CompactionStyle, CpuCosts, Options, ReadOptions, ScanOptions, SyncMode, WriteOptions,
};
pub use sched::LaneStats;
pub use stats::{DbStats, LevelCompactionStats};
pub(crate) use types::SequenceNumber;
pub use types::{InternalKey, ValueType};

/// Convenient alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, DbError>;
