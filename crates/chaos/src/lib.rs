//! `nob-chaos` — deterministic fault injection and crash-recovery
//! validation for the NobLSM stack.
//!
//! The crate threads a seedable fault plane through the simulated SSD
//! and Ext4 layers and validates the engine's recovery against the
//! paper's §4.4 durability claim:
//!
//! * [`plan`] — [`FaultPlan`]s (seeded probabilities or explicit
//!   schedules) executed by a [`ChaosInjector`] installed on the device,
//!   every injected lie recorded in an [`InjectionLog`].
//! * [`harness`] — replay a deterministic workload with faults live
//!   ([`prepare_run`], one run), cut power at any virtual instant of it
//!   (optionally snapped to journal-commit phase boundaries), recover
//!   through `Db::open` with fallback to `Db::repair`, and check the
//!   recovered rows with [`nob_sim::oracle`] ([`validate_crash`], one
//!   cut): fabricated data is *never* tolerated; lost
//!   acknowledged-durable data must have a cause recovery detected (a
//!   repair, WAL corruption) or the device stack exposed (a broken
//!   journal chain, a dropped FLUSH).
//!   Its op stream ([`run_ops`]) and recovery step ([`recover`]) are the
//!   ones the crash property tests drive too.
//! * [`failover`] — leader kills over the replication stack: kill the
//!   leader at a chosen instant, promote the follower, and check that it
//!   holds exactly the acked writes (the same oracle), follower reads
//!   never go backwards, and changefeeds resume across the failover
//!   without gaps or duplicates.
//!
//! The sweeps over these cases (seeds × crash points × configurations,
//! seeds × kill points) are `nob-bench`'s `fig_chaos` and `fig_failover`
//! documents, golden-pinned like every other sweep.
//!
//! # Example
//!
//! ```
//! use nob_chaos::{prepare_run, validate_crash, ChaosCase, FaultPlan};
//!
//! let mut case = ChaosCase::new(42, 1); // seed 42, NobLSM mode
//! case.ops = 60;
//! case.plan = FaultPlan::seeded(42);
//! let run = prepare_run(&case);
//! let result = validate_crash(&run, 500, false); // cut half-way through
//! assert_eq!(result.undetected_values, 0, "no silent corruption");
//! assert!(result.pass);
//! ```

#![forbid(unsafe_code)]

pub mod failover;
pub mod harness;
pub mod plan;

pub use failover::{run_failover_case, FailoverCase, FailoverOutcome};
pub use harness::{
    config_name, config_options, fresh_db, prepare_run, recover, run_ops, validate_crash,
    CaseResult, ChaosCase, Op, PreparedRun, CONFIGS,
};
pub use plan::{
    new_log, ChaosInjector, FaultKind, FaultPlan, Injection, InjectionLog, ScheduledFault,
};
