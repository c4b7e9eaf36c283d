//! # nob-trace — cross-layer event tracing for the NobLSM simulation
//!
//! NobLSM's argument is temporal: fsync-driven journal commits serialize
//! the device and stall the engine's write path. End-of-run counters
//! (`DbStats`, `FsStats`, `SsdStats`) cannot show *where* a stall
//! happened or what it waited on. This crate is the missing substrate:
//!
//! * [`EventClass`] — a typed taxonomy of spans across all three layers
//!   (SSD commands, Ext4 journal commits / checkpoints / writeback,
//!   engine puts / gets / compactions / stalls, injected faults);
//! * [`Histogram`] — HDR-style log-bucketed latency histograms
//!   (p50/p95/p99/p999/max, ≤ 3.1% bucketing error over the full `u64`
//!   nanosecond range) kept per event class;
//! * a bounded ring of recent spans, kept by the sink, for JSON and
//!   Chrome-trace (`chrome://tracing`) export;
//! * [`TraceSink`] — the cloneable handle the SSD, Ext4 and engine
//!   layers emit into; layers hold `Option<TraceSink>` so the disabled
//!   path is one branch and allocation-free;
//! * [`TraceSummary`] — a deterministic, integer-nanosecond snapshot
//!   embedded in bench JSON output and diffed byte-for-byte by the CI
//!   bench-regression gate;
//! * [`TraceCtx`] — causal identity (`trace / span / parent`) minted per
//!   request and threaded through every layer, so the ring reconstructs
//!   full span trees ([`TraceNode`]);
//! * [`CriticalPath`] / [`CriticalSummary`] — per-request critical-path
//!   decomposition: each traced commit's send→durable(→replicated)
//!   window partitioned into named segments (admission, group wait, WAL
//!   write, journal wait, FLUSH, ship, apply, ack) that sum exactly.
//!
//! Everything is priced in virtual time ([`nob_sim::Nanos`]); fixed-seed
//! runs therefore produce bit-identical summaries, which is what makes
//! golden-file tests and exact CI baselines possible.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

pub mod critical;
pub mod event;
mod hist;
mod ring;
pub mod sink;
pub mod summary;

pub use critical::{CriticalPath, CriticalSummary, SegmentStats, TraceForest, TraceNode, SEGMENTS};
pub use event::{EventClass, SpanEvent, StallKind, StallRecord, TraceCtx};
pub use hist::Histogram;
pub use sink::{SpanLink, SpanScope, TraceSink};
pub use summary::{ClassStats, TraceSummary};
