//! The compaction scheduler: one owner for everything that decides
//! *whether* and *where* a background job runs.
//!
//! The engine picks *which* compaction it wants (size-, seek- or
//! manually-triggered); the [`Scheduler`] answers whether the lanes may
//! take another major at the current L0 count, which lane and instant the
//! job gets, and keeps the books that must stay consistent while it is in
//! flight — the busy-level set, the debt claim, the in-flight count and
//! the stage intervals stall spans are attributed to. A job's books are
//! opened by [`Scheduler::begin`] and closed by [`Scheduler::finish`],
//! which consumes the [`MajorJob`]: a claim cannot be released twice or
//! leak, whether the job applied or failed.

use std::collections::HashSet;

use nob_sim::Nanos;

use crate::{DebtClaim, DebtLedger, LaneSet, LaneStats, PriorityPolicy, StageInterval};

/// One admitted major compaction: the lane and start instant it was
/// given and the books [`Scheduler::finish`] closes.
#[derive(Debug)]
pub struct MajorJob {
    /// Lane the job runs on.
    pub lane: usize,
    /// Instant the job starts (the lane's free instant, or `ready`).
    pub start: Nanos,
    level: usize,
    claim: DebtClaim,
}

/// Lanes, admission policy and in-flight bookkeeping of one engine.
#[derive(Debug)]
pub struct Scheduler {
    policy: PriorityPolicy,
    lanes: LaneSet,
    /// Pipelined stage intervals of the major occupying each lane (`None`
    /// when idle) — what stall spans attribute their wait to.
    lane_jobs: Vec<Option<Vec<StageInterval>>>,
    /// Per-level debt claimed by in-flight majors, so concurrent lanes
    /// never double-count the unified debt.
    ledger: DebtLedger,
    busy_levels: HashSet<usize>,
    inflight_major: usize,
}

impl Scheduler {
    /// A scheduler with `lanes` lanes, all free at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(policy: PriorityPolicy, lanes: usize, now: Nanos) -> Self {
        Scheduler {
            policy,
            lanes: LaneSet::new(lanes, now),
            lane_jobs: vec![None; lanes],
            ledger: DebtLedger::default(),
            busy_levels: HashSet::new(),
            inflight_major: 0,
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Grows or shrinks the lane set. A major
    /// in flight on a dropped lane still completes; its books close
    /// normally in [`Scheduler::finish`].
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn resize(&mut self, n: usize, now: Nanos) {
        self.lanes.resize(n, now);
        self.lane_jobs.resize(n, None);
    }

    /// Per-lane attribution: jobs run, busy time, bytes written.
    pub fn lane_stats(&self) -> &[LaneStats] {
        self.lanes.stats()
    }

    /// Lanes whose free instant is at or before `now`.
    pub fn idle_lanes(&self, now: Nanos) -> usize {
        self.lanes.idle_at(now)
    }

    /// Major compactions currently in flight.
    pub fn active_majors(&self) -> usize {
        self.inflight_major
    }

    /// Levels an in-flight major reads or writes; the picker must not
    /// choose a compaction touching one.
    pub fn busy_levels(&self) -> &HashSet<usize> {
        &self.busy_levels
    }

    /// L0 write pressure in `[0, 1]`: zero at (or below) the compaction
    /// trigger, one at the stop trigger.
    pub fn pressure(&self, l0: usize) -> f64 {
        self.policy.pressure(l0)
    }

    /// Whether another major may start at this L0 count: pressure decides
    /// how many lanes majors may fill — one when calm, all but the flush
    /// lane as L0 approaches the stop trigger.
    pub fn admits(&self, l0: usize) -> bool {
        self.inflight_major < self.policy.max_active(l0, self.lanes.len())
    }

    /// Whether the picker should preempt toward L0→L1 work.
    pub fn prefer_l0(&self, l0: usize) -> bool {
        self.policy.prefer_l0(l0)
    }

    /// Whether admission is holding major-capable lanes idle at this L0
    /// count (low pressure — bandwidth saved for the foreground). The
    /// flush lane is reserved, never backed off.
    pub fn backed_off(&self, l0: usize) -> bool {
        let lanes = self.lanes.len();
        let budget = self.policy.max_active(l0, lanes);
        budget < self.policy.major_capacity(lanes) && self.inflight_major >= budget
    }

    /// The earliest-free lane for a flush ready at `ready`, and the
    /// instant it can start.
    pub fn pick(&self, ready: Nanos) -> (usize, Nanos) {
        self.lanes.pick(ready)
    }

    /// Occupies `lane` for a flush spanning `[start, end]`.
    pub fn occupy(&mut self, lane: usize, start: Nanos, end: Nanos, bytes_written: u64) {
        self.lanes.occupy(lane, start, end, bytes_written);
    }

    /// Opens the books of a major compacting `level` into `level + 1`,
    /// ready at `ready`: picks its lane, marks both levels busy, counts it
    /// in flight and claims `claim_bytes` of `level`'s debt, so concurrent
    /// lanes do not re-count the same input bytes until the job applies.
    pub fn begin(&mut self, level: usize, ready: Nanos, claim_bytes: u64) -> MajorJob {
        let (lane, start) = self.lanes.pick(ready);
        self.busy_levels.insert(level);
        self.busy_levels.insert(level + 1);
        self.inflight_major += 1;
        MajorJob { lane, start, level, claim: self.ledger.claim(level, claim_bytes) }
    }

    /// Occupies `job`'s lane until `end` and records the stage intervals
    /// stalls are attributed to while it runs.
    pub fn occupy_major(
        &mut self,
        job: &MajorJob,
        end: Nanos,
        bytes_written: u64,
        stages: Vec<StageInterval>,
    ) {
        self.lanes.occupy(job.lane, job.start, end, bytes_written);
        self.lane_jobs[job.lane] = Some(stages);
    }

    /// Closes `job`'s books — when its results apply, or at once when it
    /// failed: frees both levels, the debt claim, the in-flight slot and
    /// the lane's stall attribution.
    pub fn finish(&mut self, job: MajorJob) {
        // `get_mut`: the lane may have been dropped by a shrink while the
        // job was in flight.
        if let Some(slot) = self.lane_jobs.get_mut(job.lane) {
            *slot = None;
        }
        self.ledger.release(job.claim);
        self.busy_levels.remove(&job.level);
        self.busy_levels.remove(&(job.level + 1));
        self.inflight_major -= 1;
    }

    /// Compaction debt net of in-flight claims (see
    /// [`DebtLedger::unified`]).
    pub fn unified_debt(&self, raw_per_level: &[u64]) -> u64 {
        self.ledger.unified(raw_per_level)
    }

    /// The in-flight stage activity overlapping `[lo, hi]`, clipped to the
    /// window: what the background was doing while the foreground waited.
    pub fn stall_activity(&self, lo: Nanos, hi: Nanos) -> impl Iterator<Item = StageInterval> + '_ {
        self.lane_jobs.iter().flatten().flatten().filter_map(move |iv| iv.clip(lo, hi))
    }
}
