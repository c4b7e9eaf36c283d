//! Deterministic device-fault injection.
//!
//! The fault plane models the ways a real SSD betrays the software above
//! it, as catalogued in the crash-consistency literature the chaos
//! harness reproduces:
//!
//! * **Torn writes** — a multi-sector write is interrupted and only a
//!   prefix of the payload reaches stable media, even though the command
//!   completed at the interface.
//! * **Silent corruption** — the command completes but the payload is
//!   damaged on media (firmware bug, bit rot); nothing reports an error
//!   until something reads the data back.
//! * **Dropped-but-acknowledged FLUSH** — the device acknowledges a FLUSH
//!   without actually draining its volatile cache, so "durable" data is
//!   lost by a later power cut. This is the exact lie that breaks
//!   fsync-based durability reasoning.
//!
//! Verdicts are produced here, at the device boundary, but *consumed* by
//! the filesystem layer above, which knows what each command meant
//! (ordered data, journal block, fast-commit record) and turns the
//! verdict into the right durability outcome. Injection is strictly
//! deterministic: an injector sees every command in issue order with its
//! virtual-time instant and returns a verdict from its own seeded state,
//! so a campaign seed reproduces the same fault schedule bit-for-bit.
//!
//! When no injector is installed the hot path costs one `Option`
//! discriminant test per command.

use std::fmt;
use std::sync::{Arc, Mutex};

use nob_sim::Nanos;

/// What a write command is carrying, from the issuing layer's view.
///
/// Injectors use the class to target specific windows — e.g. corrupt only
/// journal blocks to simulate a torn commit record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteClass {
    /// Ordered file data (page-cache write-back or direct I/O).
    Data,
    /// JBD2 journal blocks (descriptor/metadata/commit record).
    Journal,
    /// An Ext4 fast-commit record.
    FastCommit,
    /// Anything the issuing layer did not classify.
    Other,
}

/// One write command as the injector sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteCmd {
    /// Virtual-time instant the command was issued.
    pub at: Nanos,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Foreground or background service class.
    pub background: bool,
    /// What the payload is.
    pub class: WriteClass,
}

/// One FLUSH command as the injector sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushCmd {
    /// Virtual-time instant the command was issued.
    pub at: Nanos,
    /// Foreground or background service class.
    pub background: bool,
}

/// Injector verdict for a write command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// The write lands intact.
    None,
    /// Only the first `keep` bytes reach stable media; the tail is lost
    /// if power fails before the region is rewritten. `keep` is clamped
    /// to the payload size by the device.
    Torn {
        /// Durable prefix length in bytes.
        keep: u64,
    },
    /// The payload lands but is silently damaged; reads succeed at the
    /// device level and return garbage for checksums to catch.
    Corrupt,
}

/// Injector verdict for a FLUSH command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushFault {
    /// The flush drains the cache as promised.
    None,
    /// The device acknowledges completion without draining; everything
    /// the flush claimed to make durable is still volatile.
    DroppedAcked,
}

/// A deterministic source of device faults.
///
/// Implementations must be pure functions of their own state and the
/// command stream: given the same seed and the same virtual-time command
/// sequence they must return the same verdicts. The default methods
/// inject nothing, so an injector can override only the command kind it
/// cares about.
pub trait FaultInjector: Send {
    /// Verdict for a write command.
    fn on_write(&mut self, cmd: &WriteCmd) -> WriteFault {
        let _ = cmd;
        WriteFault::None
    }

    /// Verdict for a FLUSH command.
    fn on_flush(&mut self, cmd: &FlushCmd) -> FlushFault {
        let _ = cmd;
        FlushFault::None
    }
}

/// Shared, clonable handle to an injector.
///
/// The device is `Clone` (snapshots of the timeline are cheap and the
/// crash harness relies on them), so the injector sits behind an `Arc`:
/// clones of a device share one fault stream, which is what a campaign
/// wants — the fault schedule belongs to the *run*, not to any one
/// snapshot.
#[derive(Clone)]
pub struct InjectorHandle(Arc<Mutex<dyn FaultInjector>>);

impl InjectorHandle {
    /// Wraps an injector.
    pub fn new<I: FaultInjector + 'static>(injector: I) -> Self {
        InjectorHandle(Arc::new(Mutex::new(injector)))
    }

    /// Asks the injector for a write verdict.
    pub(crate) fn on_write(&self, cmd: &WriteCmd) -> WriteFault {
        self.0.lock().unwrap_or_else(|p| p.into_inner()).on_write(cmd)
    }

    /// Asks the injector for a flush verdict.
    pub(crate) fn on_flush(&self, cmd: &FlushCmd) -> FlushFault {
        self.0.lock().unwrap_or_else(|p| p.into_inner()).on_flush(cmd)
    }
}

impl fmt::Debug for InjectorHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("InjectorHandle(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ssd, SsdConfig};

    struct EveryOtherWriteTorn {
        n: u64,
    }

    impl FaultInjector for EveryOtherWriteTorn {
        fn on_write(&mut self, cmd: &WriteCmd) -> WriteFault {
            self.n += 1;
            if self.n.is_multiple_of(2) {
                WriteFault::Torn { keep: cmd.bytes / 2 }
            } else {
                WriteFault::None
            }
        }
    }

    #[test]
    fn injector_sees_commands_in_order_and_is_shared_by_clones() {
        let mut a = Ssd::new(SsdConfig::pm883());
        a.set_injector(InjectorHandle::new(EveryOtherWriteTorn { n: 0 }));
        let mut b = a.clone();
        let (_, f1) = a.write(Nanos::ZERO, 100, WriteClass::Data, false);
        let (_, f2) = b.write(Nanos::ZERO, 100, WriteClass::Data, false);
        assert_eq!(f1, WriteFault::None);
        assert_eq!(f2, WriteFault::Torn { keep: 50 });
    }

    #[test]
    fn verdicts_update_fault_stats() {
        struct AlwaysBad;
        impl FaultInjector for AlwaysBad {
            fn on_write(&mut self, _cmd: &WriteCmd) -> WriteFault {
                WriteFault::Corrupt
            }
            fn on_flush(&mut self, _cmd: &FlushCmd) -> FlushFault {
                FlushFault::DroppedAcked
            }
        }
        let mut d = Ssd::new(SsdConfig::pm883());
        d.set_injector(InjectorHandle::new(AlwaysBad));
        d.write(Nanos::ZERO, 64, WriteClass::Journal, false);
        d.flush(Nanos::ZERO, false);
        assert_eq!(d.stats().corrupt_writes, 1);
        assert_eq!(d.stats().dropped_flushes, 1);
        assert_eq!(d.stats().faults_injected(), 2);
    }

    #[test]
    fn no_injector_means_no_faults() {
        let mut d = Ssd::new(SsdConfig::pm883());
        let (_, wf) = d.write(Nanos::ZERO, 64, WriteClass::Data, false);
        let (_, ff) = d.flush(Nanos::ZERO, false);
        assert_eq!(wf, WriteFault::None);
        assert_eq!(ff, FlushFault::None);
        assert_eq!(d.stats().faults_injected(), 0);
    }

    #[test]
    fn torn_keep_is_clamped_to_payload() {
        struct KeepTooMuch;
        impl FaultInjector for KeepTooMuch {
            fn on_write(&mut self, _cmd: &WriteCmd) -> WriteFault {
                WriteFault::Torn { keep: u64::MAX }
            }
        }
        let mut d = Ssd::new(SsdConfig::pm883());
        d.set_injector(InjectorHandle::new(KeepTooMuch));
        let (_, wf) = d.write(Nanos::ZERO, 512, WriteClass::Data, false);
        assert_eq!(wf, WriteFault::Torn { keep: 512 });
    }
}
