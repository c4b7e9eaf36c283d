//! A user-space simulation of Ext4 ordered-mode journaling (JBD2), including
//! the two syscalls the NobLSM paper adds to the kernel.
//!
//! # What is modelled
//!
//! * **Files and inodes** — an append-only file namespace (create, append,
//!   read, rename, delete), which is all an LSM-tree needs.
//! * **Page cache** — buffered appends land in DRAM; dirty bytes are
//!   tracked; clean residents are evicted LRU under a capacity limit.
//! * **JBD2 journaling, `data=ordered`** — a *running transaction* absorbs
//!   every metadata change. A commit (asynchronous every 5 virtual seconds
//!   or at a 10 % dirty-page threshold, synchronous on `fsync`) first writes
//!   back all dirty *data* of the transaction's inodes, then writes the
//!   journal blocks, then issues a device FLUSH. Hence the contract NobLSM
//!   relies on: **a committed inode implies durable data**.
//! * **`fsync`/`fdatasync`** — force a commit and block the caller until
//!   the FLUSH completes; counted for the paper's Table 1.
//! * **The NobLSM syscalls** — [`Ext4Fs::check_commit`] registers inodes in
//!   the kernel-space *Pending Table*; when the transaction covering them
//!   commits they move to the *Committed Table*, queried via
//!   [`Ext4Fs::is_committed`]. Deleting a file erases its entry.
//! * **Crashes** — [`Ext4Fs::crashed_view`] reconstructs the state a real
//!   power failure at any virtual instant would leave: files exist with the
//!   size of their last committed inode, data is the persisted prefix, and
//!   uncommitted creations/renames/deletions are rolled back. Instants
//!   before the *crash horizon* ([`Ext4Fs::advance_crash_horizon`]) are
//!   off limits: a deleted file whose deletion was durable by then is
//!   forgotten. A driver that cuts power in its own past pins the horizon
//!   first ([`Ext4Fs::pin_crash_horizon`]).
//!
//! # Examples
//!
//! ```
//! use nob_ext4::{Ext4Config, Ext4Fs};
//! use nob_sim::Nanos;
//!
//! # fn main() -> Result<(), nob_ext4::FsError> {
//! let fs = Ext4Fs::new(Ext4Config::default());
//! let mut now = Nanos::ZERO;
//! let file = fs.create("sst/000001.ldb", now)?;
//! now = fs.append(file, b"key-value data", now)?;
//! // Buffered data is not yet durable...
//! assert!(!fs.crashed_view(now).exists("sst/000001.ldb"));
//! // ...but an fsync makes it so.
//! now = fs.fsync(file, now)?;
//! assert!(fs.crashed_view(now).exists("sst/000001.ldb"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

mod config;
mod error;
mod fs;
mod inode;
mod stats;
mod types;

pub use config::Ext4Config;
pub use error::FsError;
pub use fs::{CommitWindow, Ext4Fs, METRICS};
pub use stats::FsStats;
pub use types::{Extent, FileHandle, InodeId};

/// Convenient alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, FsError>;
