//! Fault plans: deterministic, seedable schedules of device faults.
//!
//! A [`FaultPlan`] describes *which* commands to betray and *how*; a
//! [`ChaosInjector`] executes the plan as a [`FaultInjector`] installed on
//! the simulated SSD, recording every injected fault into an
//! [`InjectionLog`] so the harness can later separate explained loss from
//! silent loss. All randomness flows from the plan's seed through a
//! dedicated RNG consumed in command order, so the same plan over the
//! same workload reproduces the same fault schedule bit-for-bit.

use std::sync::{Arc, Mutex};

use nob_sim::Nanos;
use nob_ssd::{FaultInjector, FlushCmd, FlushFault, WriteClass, WriteCmd, WriteFault};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The three lies the fault plane can tell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Only a prefix of a write reaches stable media.
    TornWrite,
    /// A write lands but its payload is silently damaged.
    CorruptWrite,
    /// A FLUSH is acknowledged without draining the volatile cache.
    DroppedFlush,
}

impl FaultKind {
    /// Stable lowercase name, used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::TornWrite => "torn_write",
            FaultKind::CorruptWrite => "corrupt_write",
            FaultKind::DroppedFlush => "dropped_flush",
        }
    }
}

/// One explicitly scheduled fault: betray the `nth` (0-based) command of
/// the matching kind — writes for torn/corrupt, FLUSHes for dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// 0-based index among commands of the targeted kind.
    pub nth: u64,
    /// What to do to that command.
    pub kind: FaultKind,
}

/// A deterministic fault schedule.
///
/// Faults come from two sources, checked in order:
///
/// 1. **Explicit schedule** — [`ScheduledFault`]s pinned to command
///    indices, for reproducing a specific scenario exactly.
/// 2. **Seeded probabilities** — per-mille rates drawn from the plan's
///    own RNG, for campaign-scale coverage.
///
/// `max_faults` caps both sources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the probability draws.
    pub seed: u64,
    /// Per-mille chance a matching write is torn.
    pub torn_write_pm: u32,
    /// Per-mille chance a matching write is corrupted.
    pub corrupt_write_pm: u32,
    /// Per-mille chance a matching FLUSH is dropped-but-acked.
    pub dropped_flush_pm: u32,
    /// Stop injecting after this many faults (0 = unlimited).
    pub max_faults: u64,
    /// Explicitly scheduled faults.
    pub scheduled: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// A plan that injects nothing — the pure power-cut baseline.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            torn_write_pm: 0,
            corrupt_write_pm: 0,
            dropped_flush_pm: 0,
            max_faults: 0,
            scheduled: Vec::new(),
        }
    }

    /// A moderate seeded plan: a few per-mille of every lie, any class,
    /// capped so a long run is degraded rather than annihilated.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            torn_write_pm: 8,
            corrupt_write_pm: 8,
            dropped_flush_pm: 20,
            max_faults: 6,
            scheduled: Vec::new(),
        }
    }

    /// Whether this plan can ever inject anything.
    pub fn is_none(&self) -> bool {
        self.scheduled.is_empty()
            && self.torn_write_pm == 0
            && self.corrupt_write_pm == 0
            && self.dropped_flush_pm == 0
    }

    /// Adds an explicitly scheduled fault.
    pub fn with_scheduled(mut self, nth: u64, kind: FaultKind) -> Self {
        self.scheduled.push(ScheduledFault { nth, kind });
        self
    }
}

/// One injected fault, as recorded for the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// Virtual instant of the betrayed command.
    pub at: Nanos,
    /// What was done.
    pub kind: FaultKind,
    /// The betrayed write's class (`None` for FLUSH faults).
    pub class: Option<WriteClass>,
    /// Payload size of the betrayed write (0 for FLUSH faults).
    pub bytes: u64,
    /// Durable prefix kept by a torn write (0 otherwise).
    pub keep: u64,
}

/// Shared record of everything a [`ChaosInjector`] did, readable by the
/// harness after the run.
pub type InjectionLog = Arc<Mutex<Vec<Injection>>>;

/// Creates an empty injection log.
pub fn new_log() -> InjectionLog {
    Arc::new(Mutex::new(Vec::new()))
}

/// Executes a [`FaultPlan`] against the device command stream.
#[derive(Debug)]
pub struct ChaosInjector {
    plan: FaultPlan,
    rng: SmallRng,
    writes_seen: u64,
    flushes_seen: u64,
    injected: u64,
    log: InjectionLog,
}

impl ChaosInjector {
    /// Builds an injector for `plan`, recording into `log`.
    pub fn new(plan: FaultPlan, log: InjectionLog) -> Self {
        let rng = SmallRng::seed_from_u64(plan.seed ^ 0xC0FF_EE00_C0FF_EE00);
        ChaosInjector { plan, rng, writes_seen: 0, flushes_seen: 0, injected: 0, log }
    }

    fn capped(&self) -> bool {
        self.plan.max_faults != 0 && self.injected >= self.plan.max_faults
    }

    fn record(&mut self, inj: Injection) {
        self.injected += 1;
        self.log.lock().unwrap_or_else(|p| p.into_inner()).push(inj);
    }
}

impl FaultInjector for ChaosInjector {
    fn on_write(&mut self, cmd: &WriteCmd) -> WriteFault {
        let idx = self.writes_seen;
        self.writes_seen += 1;
        // Consume the probability draw unconditionally so verdict choices
        // never shift the RNG stream for later commands.
        let roll: u32 = self.rng.gen_range(0..1000);
        let tear_keep: u64 = if cmd.bytes > 0 { self.rng.gen_range(0..cmd.bytes) } else { 0 };
        if self.capped() {
            return WriteFault::None;
        }
        let scheduled = self.plan.scheduled.iter().find(|s| {
            s.nth == idx && matches!(s.kind, FaultKind::TornWrite | FaultKind::CorruptWrite)
        });
        let kind = if let Some(s) = scheduled {
            Some(s.kind)
        } else if roll < self.plan.torn_write_pm {
            Some(FaultKind::TornWrite)
        } else if roll < self.plan.torn_write_pm + self.plan.corrupt_write_pm {
            Some(FaultKind::CorruptWrite)
        } else {
            None
        };
        match kind {
            Some(FaultKind::TornWrite) => {
                self.record(Injection {
                    at: cmd.at,
                    kind: FaultKind::TornWrite,
                    class: Some(cmd.class),
                    bytes: cmd.bytes,
                    keep: tear_keep,
                });
                WriteFault::Torn { keep: tear_keep }
            }
            Some(FaultKind::CorruptWrite) => {
                self.record(Injection {
                    at: cmd.at,
                    kind: FaultKind::CorruptWrite,
                    class: Some(cmd.class),
                    bytes: cmd.bytes,
                    keep: 0,
                });
                WriteFault::Corrupt
            }
            _ => WriteFault::None,
        }
    }

    fn on_flush(&mut self, cmd: &FlushCmd) -> FlushFault {
        let idx = self.flushes_seen;
        self.flushes_seen += 1;
        let roll: u32 = self.rng.gen_range(0..1000);
        if self.capped() {
            return FlushFault::None;
        }
        let scheduled =
            self.plan.scheduled.iter().any(|s| s.nth == idx && s.kind == FaultKind::DroppedFlush);
        if scheduled || roll < self.plan.dropped_flush_pm {
            self.record(Injection {
                at: cmd.at,
                kind: FaultKind::DroppedFlush,
                class: None,
                bytes: 0,
                keep: 0,
            });
            FlushFault::DroppedAcked
        } else {
            FlushFault::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wcmd(at: u64, bytes: u64) -> WriteCmd {
        WriteCmd { at: Nanos::from_nanos(at), bytes, background: false, class: WriteClass::Data }
    }

    fn fcmd(at: u64) -> FlushCmd {
        FlushCmd { at: Nanos::from_nanos(at), background: false }
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed| {
            let log = new_log();
            let mut inj = ChaosInjector::new(FaultPlan::seeded(seed), log.clone());
            let mut verdicts = Vec::new();
            for i in 0..500u64 {
                verdicts.push(inj.on_write(&wcmd(i, 4096)));
                if i % 7 == 0 {
                    inj.on_flush(&fcmd(i));
                }
            }
            let injections = log.lock().unwrap().clone();
            (verdicts, injections)
        };
        assert_eq!(run(7), run(7), "fixed seed must reproduce bit-for-bit");
        assert_ne!(run(7).1, run(8).1, "different seeds must differ");
    }

    #[test]
    fn scheduled_fault_hits_exact_command() {
        let log = new_log();
        let plan = FaultPlan::none().with_scheduled(2, FaultKind::CorruptWrite);
        let mut inj = ChaosInjector::new(plan, log.clone());
        let verdicts: Vec<_> = (0..4).map(|i| inj.on_write(&wcmd(i, 64))).collect();
        assert_eq!(verdicts[0], WriteFault::None);
        assert_eq!(verdicts[1], WriteFault::None);
        assert_eq!(verdicts[2], WriteFault::Corrupt);
        assert_eq!(verdicts[3], WriteFault::None);
        assert_eq!(log.lock().unwrap().len(), 1);
    }

    #[test]
    fn max_faults_caps_injection() {
        let log = new_log();
        let mut plan = FaultPlan::seeded(3);
        plan.dropped_flush_pm = 1000; // every flush
        plan.max_faults = 2;
        let mut inj = ChaosInjector::new(plan, log.clone());
        for i in 0..10 {
            inj.on_flush(&fcmd(i));
        }
        assert_eq!(log.lock().unwrap().len(), 2);
    }
}
