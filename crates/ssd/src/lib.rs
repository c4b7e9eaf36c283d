//! A virtual-time SSD device model.
//!
//! The model captures exactly the properties the NobLSM paper's evaluation
//! depends on:
//!
//! * **Bandwidth** — data transfers cost `bytes / bandwidth`.
//! * **Command latency** — every command pays a fixed setup cost.
//! * **FIFO queue** — commands serialize in issue order on a
//!   [`nob_sim::Timeline`], so a slow command delays everything behind it.
//! * **Two service classes** — a write or FLUSH names its class as an
//!   argument: foreground (syncs, direct I/O) or background
//!   (asynchronous write-back), which drains in the capacity the
//!   foreground leaves over.
//! * **Faults** — every write and FLUSH asks the installed
//!   [`FaultInjector`] for a verdict and returns it to the caller.
//! * **FLUSH barriers** — a flush cannot start before all previously issued
//!   writes complete (guaranteed by FIFO order) and adds a large fixed
//!   latency. This is what makes `fsync` expensive and what NobLSM removes
//!   from the critical path of major compactions.
//! * **Accounting** — bytes written/read and command counts, so the harness
//!   can regenerate Table 1 (number of syncs, size of data synced).
//!
//! Default parameters are calibrated to a PM883-class SATA SSD such that the
//! paper's Fig. 2a ratios (Async ≪ Direct < Sync, ≈13× Async→Sync) emerge;
//! see `SsdConfig::pm883`.
//!
//! # Examples
//!
//! ```
//! use nob_sim::Nanos;
//! use nob_ssd::{Ssd, SsdConfig, WriteClass};
//!
//! let mut ssd = Ssd::new(SsdConfig::pm883());
//! // A 2 MiB sequential foreground write, then a foreground FLUSH.
//! let (w, _) = ssd.write(Nanos::ZERO, 2 << 20, WriteClass::Data, false);
//! let (f, _) = ssd.flush(w.end, false);
//! assert!(f.end > w.end); // the flush costs real time
//! assert_eq!(ssd.stats().bytes_written, 2 << 20);
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

mod config;
mod device;
pub mod fault;
mod stats;

pub use config::SsdConfig;
pub use device::Ssd;
pub use fault::{
    FaultInjector, FlushCmd, FlushFault, InjectorHandle, WriteClass, WriteCmd, WriteFault,
};
pub use stats::IoStats;
