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
//! * [`harness`] — replay a deterministic workload with faults live, cut
//!   power at any virtual instant (optionally snapped to journal-commit
//!   phase boundaries), recover through `Db::open` with fallback to
//!   `Db::repair`, and check the recovered rows with [`nob_sim::oracle`]:
//!   fabricated data is *never* tolerated; lost acknowledged-durable data
//!   must be explained by the injection log.
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
//! use nob_chaos::{ChaosCase, FaultPlan, run_case};
//!
//! let mut case = ChaosCase::new(42, 1); // seed 42, NobLSM mode
//! case.ops = 60;
//! case.plan = FaultPlan::seeded(42);
//! let result = run_case(&case);
//! assert_eq!(result.undetected_values, 0, "no silent corruption");
//! assert!(result.pass);
//! ```

#![forbid(unsafe_code)]

pub mod failover;
pub mod harness;
pub mod plan;

pub use failover::{run_failover_case, FailoverCase, FailoverOutcome};
pub use harness::{
    config_name, config_options, prepare_run, run_case, validate_crash, CaseResult, ChaosCase,
    PreparedRun, CONFIGS,
};
pub use plan::{
    new_log, ChaosInjector, FaultKind, FaultPlan, Injection, InjectionLog, ScheduledFault,
};
