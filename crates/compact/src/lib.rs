//! nob-compact — parallel, stall-aware compaction scheduling primitives.
//!
//! The engine (`noblsm`) runs background compactions *logically* at their
//! schedule instant and applies the results through an event queue when the
//! foreground clock catches up. This crate provides the pure scheduling
//! arithmetic that makes those compactions parallel and stall-aware, with
//! no dependency on the engine itself:
//!
//! * [`LaneSet`] — N virtual compaction lanes per shard, each a device-style
//!   timeline with a free instant and per-lane attribution counters.
//! * [`StagePlan`] — a major compaction decomposed into per-output-granule
//!   read / merge / write stage durations, with the classic three-stage
//!   pipeline recurrence giving the overlapped completion instant.
//! * [`PriorityPolicy`] — L0-pressure-driven lane admission: preempt toward
//!   L0→L1 work as the slowdown/stop triggers approach, back off to a single
//!   lane when write pressure is low.
//! * [`DebtLedger`] — per-level claims of in-flight compaction input bytes,
//!   so concurrent lanes never double-count compaction debt.
//! * [`Scheduler`] — the one owner of the four above plus the busy-level
//!   set and in-flight count: the engine asks it whether a major is
//!   admitted and where it runs, and hands each job's books back exactly
//!   once.
//!
//! # Examples
//!
//! ```
//! use nob_compact::{Granule, LaneSet, StagePlan};
//! use nob_sim::Nanos;
//!
//! let mut plan = StagePlan::default();
//! plan.push(Granule::new(Nanos::from_micros(10), Nanos::from_micros(5), Nanos::from_micros(20), 4096));
//! plan.push(Granule::new(Nanos::from_micros(10), Nanos::from_micros(5), Nanos::from_micros(20), 4096));
//! // Overlapping the second granule's read with the first one's write beats
//! // running everything back to back.
//! assert!(plan.pipelined_duration() < plan.serial_duration());
//!
//! let mut lanes = LaneSet::new(2, Nanos::ZERO);
//! let (lane, start) = lanes.pick(Nanos::ZERO);
//! lanes.occupy(lane, start, start + plan.pipelined_duration(), 8192);
//! assert_eq!(lanes.pick(Nanos::ZERO).0, 1 - lane);
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

mod debt;
mod lanes;
mod pipeline;
mod policy;
mod scheduler;

pub use debt::{DebtClaim, DebtLedger};
pub use lanes::{LaneSet, LaneStats};
pub use pipeline::{Granule, Stage, StageInterval, StagePlan};
pub use policy::PriorityPolicy;
pub use scheduler::{MajorJob, Scheduler};
