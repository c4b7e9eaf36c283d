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
//!
//! **Lanes.** A lane models one background compaction worker: a
//! device-style timeline with a "free from" instant plus attribution
//! counters. A job takes the earliest-free lane, ties broken by the lowest
//! index, so a run is reproducible for any lane count.
//!
//! **Admission.** The distance of the L0 file count from the compaction
//! trigger to the stop trigger decides how many lanes majors may fill —
//! one while calm, all but the flush lane at the stop trigger — and
//! whether the picker should preempt toward L0→L1 work.
//!
//! **Debt.** With N lanes a level's input bytes sit in the version until
//! the compaction *applies*, so a naive over-threshold gauge would count
//! every lane in flight again. Each major claims the bytes it works off
//! its level; [`Scheduler::unified_debt`] nets them out.
//!
//! **Stages.** A major is decomposed into *granules* — one per output
//! table — each with a read (input I/O), merge (CPU) and write (output
//! I/O) stage. Run staged, granule `i+1`'s read overlaps granule `i`'s
//! merge and write, the classic three-stage pipeline recurrence:
//!
//! ```text
//! read_done[i]  = max(start, read_done[i-1]) + read[i]
//! merge_done[i] = max(read_done[i], merge_done[i-1]) + merge[i]
//! write_done[i] = max(merge_done[i], write_done[i-1]) + write[i]
//! ```
//!
//! The engine prices every stage on the serial device timeline (so I/O
//! cost stays honest) and *completes* the compaction at the pipelined
//! end, which is what frees the lane and publishes the version edit.

use std::collections::HashSet;

use nob_sim::Nanos;
use nob_trace::EventClass;

use crate::options::Options;

/// Attribution counters for one compaction lane, as surfaced by
/// `noblsm.stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Instant the lane becomes free.
    pub(crate) free: Nanos,
    /// Jobs this lane has run (minor + major compactions).
    pub(crate) jobs: u64,
    /// Total virtual time the lane spent occupied.
    pub busy: Nanos,
    /// Total bytes the lane's jobs wrote.
    pub(crate) bytes_written: u64,
}

/// One output granule's stage durations and the bytes it wrote.
#[derive(Debug, Clone)]
pub(crate) struct Granule {
    read: Nanos,
    merge: Nanos,
    write: Nanos,
    bytes: u64,
}

impl Granule {
    pub(crate) fn new(read: Nanos, merge: Nanos, write: Nanos, bytes: u64) -> Self {
        Granule { read, merge, write, bytes }
    }
}

/// A stage occupancy interval on the virtual timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StageInterval {
    /// The stage's trace class: `CompactRead`, `CompactMerge` or
    /// `CompactWrite`.
    pub(crate) class: EventClass,
    pub(crate) start: Nanos,
    pub(crate) end: Nanos,
    /// Output bytes of a `CompactWrite` interval, zero otherwise.
    pub(crate) bytes: u64,
}

/// The staged decomposition of one major compaction.
#[derive(Debug, Clone, Default)]
pub(crate) struct StagePlan {
    granules: Vec<Granule>,
}

impl StagePlan {
    /// Appends a granule (one output table's worth of work).
    pub(crate) fn push(&mut self, g: Granule) {
        self.granules.push(g);
    }

    /// Per-stage totals `(read, merge, write)` across all granules.
    pub(crate) fn stage_totals(&self) -> (Nanos, Nanos, Nanos) {
        self.granules.iter().fold((Nanos::ZERO, Nanos::ZERO, Nanos::ZERO), |(r, m, w), g| {
            (r + g.read, m + g.merge, w + g.write)
        })
    }

    /// The compaction started at `start`, pipelined: its completion
    /// instant and its stage occupancy intervals in (granule, stage)
    /// order. The end never exceeds the serial sum and never undercuts
    /// the busiest single stage; zero-length stages get no interval.
    pub(crate) fn pipeline(&self, start: Nanos) -> (Nanos, Vec<StageInterval>) {
        let mut out = Vec::with_capacity(self.granules.len() * 3);
        let (mut rd, mut md, mut wd) = (start, start, start);
        for g in &self.granules {
            let rs = rd;
            rd += g.read;
            let ms = rd.max(md);
            md = ms + g.merge;
            let ws = md.max(wd);
            wd = ws + g.write;
            for (class, s, e, bytes) in [
                (EventClass::CompactRead, rs, rd, 0),
                (EventClass::CompactMerge, ms, md, 0),
                (EventClass::CompactWrite, ws, wd, g.bytes),
            ] {
                if e > s {
                    out.push(StageInterval { class, start: s, end: e, bytes });
                }
            }
        }
        (wd, out)
    }
}

/// One admitted major compaction: the lane and start instant it was
/// given and the books [`Scheduler::finish`] closes.
#[derive(Debug)]
pub(crate) struct MajorJob {
    lane: usize,
    /// The lane's free instant, or `ready` if later.
    pub(crate) start: Nanos,
    level: usize,
    claim: u64,
}

/// Lanes, admission and in-flight bookkeeping of one engine.
#[derive(Debug)]
pub(crate) struct Scheduler {
    lanes: Vec<LaneStats>,
    /// Pipelined stage intervals of the major occupying each lane (`None`
    /// when idle) — what stall spans attribute their wait to.
    lane_jobs: Vec<Option<Vec<StageInterval>>>,
    /// Debt bytes in-flight majors claimed, per level.
    claimed: Vec<u64>,
    busy_levels: HashSet<usize>,
    inflight_major: usize,
    l0_compaction_trigger: usize,
    l0_stop_trigger: usize,
}

impl Scheduler {
    /// A scheduler with `opts.compaction_lanes` lanes, all free at `now`,
    /// admitting by `opts`' L0 triggers (which `Db::open` checked).
    pub(crate) fn new(opts: &Options, now: Nanos) -> Self {
        let n = opts.compaction_lanes;
        Scheduler {
            lanes: vec![LaneStats { free: now, ..LaneStats::default() }; n],
            lane_jobs: vec![None; n],
            claimed: Vec::new(),
            busy_levels: HashSet::new(),
            inflight_major: 0,
            l0_compaction_trigger: opts.l0_compaction_trigger,
            l0_stop_trigger: opts.l0_stop_trigger,
        }
    }

    pub(crate) fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Grows or shrinks the lane set to `n`. New lanes are free at `now`;
    /// shrinking drops the highest-indexed lanes and their attribution. A
    /// major in flight on a dropped lane still completes; its books close
    /// normally in [`Scheduler::finish`].
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub(crate) fn resize(&mut self, n: usize, now: Nanos) {
        assert!(n > 0, "at least one compaction lane is required");
        self.lanes.resize(n, LaneStats { free: now, ..LaneStats::default() });
        self.lane_jobs.resize(n, None);
    }

    pub(crate) fn lane_stats(&self) -> &[LaneStats] {
        &self.lanes
    }

    /// Lanes whose free instant is at or before `now`.
    pub(crate) fn idle_lanes(&self, now: Nanos) -> usize {
        self.lanes.iter().filter(|s| s.free <= now).count()
    }

    pub(crate) fn active_majors(&self) -> usize {
        self.inflight_major
    }

    /// Levels an in-flight major reads or writes; the picker must not
    /// choose a compaction touching one.
    pub(crate) fn busy_levels(&self) -> &HashSet<usize> {
        &self.busy_levels
    }

    /// L0 write pressure in `[0, 1]`: zero at (or below) the compaction
    /// trigger, one at the stop trigger.
    pub(crate) fn pressure(&self, l0: usize) -> f64 {
        let span = (self.l0_stop_trigger - self.l0_compaction_trigger) as f64;
        let over = l0.saturating_sub(self.l0_compaction_trigger) as f64;
        (over / span).clamp(0.0, 1.0)
    }

    /// Lanes majors may ever occupy: all of them for a single lane, all
    /// but one otherwise. The spare lane keeps flush latency out of the
    /// majors' queue — a flush that waits behind a major stalls the next
    /// memtable switch, which is exactly the foreground pause the lanes
    /// exist to remove.
    fn major_capacity(&self) -> usize {
        self.lanes.len().max(2) - 1
    }

    /// How many lanes may hold majors at this L0 count: one while calm,
    /// scaling linearly to the major capacity at the stop trigger.
    fn max_active(&self, l0: usize) -> usize {
        let cap = self.major_capacity();
        let span = self.l0_stop_trigger - self.l0_compaction_trigger;
        let over = l0.saturating_sub(self.l0_compaction_trigger).min(span);
        // Rounds up: any pressure at all adds lanes before the stall hits.
        let extra = ((cap - 1) * over).div_ceil(span);
        (1 + extra).min(cap)
    }

    /// Whether another major may start at this L0 count.
    pub(crate) fn admits(&self, l0: usize) -> bool {
        self.inflight_major < self.max_active(l0)
    }

    /// Whether the picker should preempt toward L0→L1 work: the L0 count
    /// has crossed the midpoint between the compaction and stop triggers
    /// (the slowdown trigger, under LevelDB's default spacing).
    pub(crate) fn prefer_l0(&self, l0: usize) -> bool {
        2 * l0 >= self.l0_compaction_trigger + self.l0_stop_trigger
    }

    /// Whether admission is holding major-capable lanes idle at this L0
    /// count (low pressure — bandwidth saved for the foreground). The
    /// flush lane is reserved, never backed off.
    pub(crate) fn backed_off(&self, l0: usize) -> bool {
        let budget = self.max_active(l0);
        budget < self.major_capacity() && self.inflight_major >= budget
    }

    /// The earliest-free lane for a job ready at `ready`, and the instant
    /// it can start.
    pub(crate) fn pick(&self, ready: Nanos) -> (usize, Nanos) {
        let (lane, s) =
            self.lanes.iter().enumerate().min_by_key(|(_, s)| s.free).expect("at least one lane");
        (lane, s.free.max(ready))
    }

    /// Occupies `lane` for a job spanning `[start, end]` that wrote
    /// `bytes_written`.
    pub(crate) fn occupy(&mut self, lane: usize, start: Nanos, end: Nanos, bytes_written: u64) {
        let s = &mut self.lanes[lane];
        s.free = s.free.max(end);
        s.jobs += 1;
        s.busy += end.saturating_sub(start);
        s.bytes_written += bytes_written;
    }

    /// Opens the books of a major compacting `level` into `level + 1`,
    /// ready at `ready`: picks its lane, marks both levels busy, counts it
    /// in flight and claims `claim_bytes` of `level`'s debt, so concurrent
    /// lanes do not re-count the same input bytes until the job applies.
    pub(crate) fn begin(&mut self, level: usize, ready: Nanos, claim_bytes: u64) -> MajorJob {
        let (lane, start) = self.pick(ready);
        self.busy_levels.insert(level);
        self.busy_levels.insert(level + 1);
        self.inflight_major += 1;
        if self.claimed.len() <= level {
            self.claimed.resize(level + 1, 0);
        }
        self.claimed[level] += claim_bytes;
        MajorJob { lane, start, level, claim: claim_bytes }
    }

    /// Occupies `job`'s lane until `end` and records the stage intervals
    /// stalls are attributed to while it runs.
    pub(crate) fn occupy_major(
        &mut self,
        job: &MajorJob,
        end: Nanos,
        bytes_written: u64,
        stages: Vec<StageInterval>,
    ) {
        self.occupy(job.lane, job.start, end, bytes_written);
        self.lane_jobs[job.lane] = Some(stages);
    }

    /// Closes `job`'s books — when its results apply, or at once when it
    /// failed: frees both levels, the debt claim, the in-flight slot and
    /// the lane's stall attribution.
    pub(crate) fn finish(&mut self, job: MajorJob) {
        // `get_mut`: the lane may have been dropped by a shrink while the
        // job was in flight.
        if let Some(slot) = self.lane_jobs.get_mut(job.lane) {
            *slot = None;
        }
        self.claimed[job.level] -= job.claim;
        self.busy_levels.remove(&job.level);
        self.busy_levels.remove(&(job.level + 1));
        self.inflight_major -= 1;
    }

    /// The unified debt: per-level raw over-threshold bytes minus what
    /// in-flight majors claimed, floored at zero per level.
    pub(crate) fn unified_debt(&self, raw_per_level: &[u64]) -> u64 {
        raw_per_level
            .iter()
            .enumerate()
            .map(|(level, raw)| raw.saturating_sub(self.claimed.get(level).copied().unwrap_or(0)))
            .sum()
    }

    /// The in-flight stage activity overlapping `[lo, hi]`, clipped to the
    /// window: what the background was doing while the foreground waited.
    pub(crate) fn stall_activity(
        &self,
        lo: Nanos,
        hi: Nanos,
    ) -> impl Iterator<Item = StageInterval> + '_ {
        self.lane_jobs.iter().flatten().flatten().filter_map(move |iv| {
            let (start, end) = (iv.start.max(lo), iv.end.min(hi));
            (start < end).then_some(StageInterval { start, end, ..*iv })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn us(n: u64) -> Nanos {
        Nanos::from_micros(n)
    }

    /// A scheduler over `lanes` lanes with LevelDB's L0 triggers (4, 8, 12).
    fn sched(lanes: usize) -> Scheduler {
        Scheduler::new(&Options { compaction_lanes: lanes, ..Options::default() }, Nanos::ZERO)
    }

    fn plan(gs: &[(u64, u64, u64)]) -> StagePlan {
        let mut p = StagePlan::default();
        for &(r, m, w) in gs {
            p.push(Granule::new(us(r), us(m), us(w), 1024));
        }
        p
    }

    fn pipelined(p: &StagePlan) -> Nanos {
        p.pipeline(Nanos::ZERO).0
    }

    fn serial(p: &StagePlan) -> Nanos {
        let (r, m, w) = p.stage_totals();
        r + m + w
    }

    fn interval(class: EventClass, start: u64, end: u64, bytes: u64) -> StageInterval {
        StageInterval { class, start: us(start), end: us(end), bytes }
    }

    // Lanes.

    #[test]
    fn pick_prefers_earliest_free_then_lowest_index() {
        let mut s = sched(3);
        assert_eq!(s.pick(Nanos::ZERO), (0, Nanos::ZERO));
        s.occupy(0, Nanos::ZERO, us(10), 1);
        s.occupy(1, Nanos::ZERO, us(5), 1);
        // Lane 2 is still free at zero.
        assert_eq!(s.pick(Nanos::ZERO).0, 2);
        s.occupy(2, Nanos::ZERO, us(10), 1);
        // Now lane 1 frees first; a job ready later starts at its ready time.
        assert_eq!(s.pick(us(7)), (1, us(7)));
    }

    #[test]
    fn occupy_accumulates_attribution() {
        let mut s = sched(1);
        s.occupy(0, us(1), us(4), 100);
        s.occupy(0, us(4), us(6), 50);
        let l = s.lane_stats()[0];
        assert_eq!(l.jobs, 2);
        assert_eq!(l.busy, us(5));
        assert_eq!(l.bytes_written, 150);
        assert_eq!(l.free, us(6));
    }

    #[test]
    fn resize_adds_fresh_lanes_and_drops_tail() {
        let mut s = sched(1);
        s.occupy(0, Nanos::ZERO, us(10), 1);
        s.resize(3, us(2));
        assert_eq!(s.lanes(), 3);
        assert_eq!(s.pick(us(2)), (1, us(2)));
        s.resize(1, us(2));
        assert_eq!(s.lanes(), 1);
        assert_eq!(s.lane_stats()[0].jobs, 1);
    }

    #[test]
    #[should_panic(expected = "at least one compaction lane")]
    fn zero_lanes_is_rejected() {
        sched(1).resize(0, Nanos::ZERO);
    }

    #[test]
    fn idle_counts_lanes_free_by_now() {
        let mut s = sched(2);
        s.occupy(0, Nanos::ZERO, us(10), 1);
        assert_eq!(s.idle_lanes(us(5)), 1);
        assert_eq!(s.idle_lanes(us(10)), 2);
    }

    // Debt.

    #[test]
    fn concurrent_claims_never_double_count() {
        let mut s = sched(3);
        let a = s.begin(0, Nanos::ZERO, 400);
        let b = s.begin(0, Nanos::ZERO, 400);
        // Raw debt of 600 on L0 is fully covered by the two lanes in flight.
        assert_eq!(s.unified_debt(&[600]), 0);
        s.finish(a);
        assert_eq!(s.unified_debt(&[600]), 200);
        s.finish(b);
        assert_eq!(s.unified_debt(&[600]), 600);
    }

    #[test]
    fn claims_are_per_level() {
        let mut s = sched(1);
        let _job = s.begin(2, Nanos::ZERO, 100);
        assert_eq!(s.claimed, [0, 0, 100]);
        assert_eq!(s.unified_debt(&[50, 50, 50]), 100);
    }

    // Admission.

    #[test]
    fn pressure_is_clamped_and_linear() {
        let s = sched(1);
        assert_eq!(s.pressure(0), 0.0);
        assert_eq!(s.pressure(4), 0.0);
        assert!((s.pressure(8) - 0.5).abs() < 1e-12);
        assert_eq!(s.pressure(12), 1.0);
        assert_eq!(s.pressure(40), 1.0);
    }

    #[test]
    fn admission_backs_off_when_calm_and_opens_up_under_pressure() {
        let s = sched(4);
        assert_eq!(s.max_active(0), 1);
        assert_eq!(s.max_active(4), 1);
        assert_eq!(s.max_active(6), 2);
        assert_eq!(s.max_active(8), 2);
        assert_eq!(s.max_active(12), 3);
        assert_eq!(s.max_active(20), 3);
        // Two lanes: one for majors, one kept clear for flushes.
        for l0 in 0..24 {
            assert_eq!(sched(2).max_active(l0), 1);
        }
        // Monotone in l0 and capped at the major capacity, for every
        // lane count.
        for lanes in 1..=8 {
            let s = sched(lanes);
            let mut last = 0;
            for l0 in 0..24 {
                let a = s.max_active(l0);
                assert!(a >= last && a >= 1 && a <= s.major_capacity().max(1));
                last = a;
            }
        }
    }

    #[test]
    fn single_lane_is_always_one() {
        let s = sched(1);
        for l0 in 0..20 {
            assert_eq!(s.max_active(l0), 1);
        }
    }

    #[test]
    fn preemption_kicks_in_at_the_midpoint() {
        let s = sched(1);
        assert!(!s.prefer_l0(7));
        assert!(s.prefer_l0(8));
        // Non-default spacing still uses the midpoint.
        let opts = Options {
            l0_compaction_trigger: 2,
            l0_slowdown_trigger: 3,
            l0_stop_trigger: 10,
            ..Options::default()
        };
        let q = Scheduler::new(&opts, Nanos::ZERO);
        assert!(!q.prefer_l0(5));
        assert!(q.prefer_l0(6));
    }

    // Stages.

    #[test]
    fn single_granule_pipelines_to_its_serial_sum() {
        let p = plan(&[(10, 5, 20)]);
        assert_eq!(pipelined(&p), us(35));
        assert_eq!(serial(&p), us(35));
    }

    #[test]
    fn pipeline_overlaps_across_granules() {
        // Three identical granules: steady state is write-bound, so the
        // pipeline finishes at read+merge+3*write.
        let p = plan(&[(10, 5, 20), (10, 5, 20), (10, 5, 20)]);
        assert_eq!(serial(&p), us(105));
        assert_eq!(pipelined(&p), us(75));
    }

    #[test]
    fn pipelined_never_beats_the_busiest_stage_or_exceeds_serial() {
        for gs in [
            vec![(1, 1, 1)],
            vec![(7, 3, 2), (1, 9, 4), (5, 5, 5)],
            vec![(0, 0, 3), (3, 0, 0), (0, 3, 0)],
        ] {
            let p = plan(&gs);
            let (r, m, w) = p.stage_totals();
            let busiest = r.max(m).max(w);
            assert!(pipelined(&p) >= busiest);
            assert!(pipelined(&p) <= serial(&p));
        }
    }

    #[test]
    fn empty_plan_takes_no_time() {
        let (end, intervals) = StagePlan::default().pipeline(us(9));
        assert_eq!(end, us(9));
        assert!(intervals.is_empty());
    }

    #[test]
    fn intervals_cover_the_pipelined_window_and_respect_ordering() {
        let start = us(100);
        let p = plan(&[(10, 5, 20), (4, 8, 2)]);
        let (pipelined_end, iv) = p.pipeline(start);
        // Last write ends exactly at the pipelined end.
        let end = iv.iter().map(|i| i.end).max().unwrap();
        assert_eq!(end, pipelined_end);
        // Within a granule (no stage is empty, so each granule is one
        // read, merge, write triple): a stage starts only after its input
        // stage ends.
        assert_eq!(iv.len(), 3 * p.granules.len());
        for g in iv.chunks(3) {
            assert!(g[1].start >= g[0].end);
            assert!(g[2].start >= g[1].end);
        }
        // Stage lanes never self-overlap across granules.
        for st in [EventClass::CompactRead, EventClass::CompactMerge, EventClass::CompactWrite] {
            let mut last = Nanos::ZERO;
            for i in iv.iter().filter(|i| i.class == st) {
                assert!(i.start >= last, "{st:?} overlaps itself");
                last = i.end;
            }
        }
    }

    #[test]
    fn clip_intersects_or_drops() {
        let mut s = sched(1);
        let job = s.begin(0, Nanos::ZERO, 0);
        let i = interval(EventClass::CompactRead, 10, 20, 0);
        s.occupy_major(&job, us(20), 0, vec![i]);
        let clip = |lo, hi| s.stall_activity(us(lo), us(hi)).next();
        assert_eq!(clip(12, 15).unwrap().start, us(12));
        assert_eq!(clip(12, 15).unwrap().end, us(15));
        assert_eq!(clip(0, 30).unwrap(), i);
        assert!(clip(20, 30).is_none());
        assert!(clip(0, 10).is_none());
    }

    // The scheduler's contract, without a filesystem: admission stays
    // inside the budget, one lane stays free for flushes, and a job's
    // books close exactly once whether it applies or fails.

    #[test]
    fn admission_books_and_debt_in_one_walk() {
        let mut s = sched(2);
        assert!(s.admits(4));
        let job = s.begin(0, Nanos::ZERO, 4096);
        s.occupy_major(&job, us(50), 4096, Vec::new());
        // Two lanes: one major at most, the other lane stays free for flushes.
        assert!(!s.admits(12));
        assert_eq!(s.pick(Nanos::ZERO), (1, Nanos::ZERO));
        assert_eq!(s.unified_debt(&[6000]), 6000 - 4096);
        s.finish(job);
        assert!(s.admits(4) && s.busy_levels().is_empty());
    }

    #[test]
    fn one_lane_stays_free_for_flushes_at_full_pressure() {
        for lanes in 2..=6 {
            let mut s = sched(lanes);
            let mut jobs = Vec::new();
            while s.admits(12) {
                let job = s.begin(jobs.len() * 2, Nanos::ZERO, 0);
                s.occupy_major(&job, us(100), 1, Vec::new());
                jobs.push(job);
            }
            assert_eq!(jobs.len(), lanes - 1);
            assert_eq!(s.idle_lanes(Nanos::ZERO), 1);
            assert_eq!(s.pick(us(1)).1, us(1), "a flush never queues behind a major");
        }
    }

    #[test]
    fn a_failed_job_leaves_no_trace() {
        let mut s = sched(2);
        let job = s.begin(1, us(3), 700);
        assert_eq!(s.unified_debt(&[0, 1000]), 300);
        assert!(s.busy_levels().contains(&1) && s.busy_levels().contains(&2));
        // The job failed before it could occupy its lane.
        s.finish(job);
        assert_eq!(s.unified_debt(&[0, 1000]), 1000);
        assert!(s.busy_levels().is_empty());
        assert_eq!(s.active_majors(), 0);
        assert_eq!(s.lane_stats().iter().map(|l| l.jobs).sum::<u64>(), 0);
        assert_eq!(s.pick(us(3)), (0, us(3)));
    }

    #[test]
    fn shrinking_under_an_inflight_job_is_safe() {
        let mut s = sched(3);
        let a = s.begin(0, Nanos::ZERO, 10);
        s.occupy_major(&a, us(10), 1, Vec::new());
        let b = s.begin(2, Nanos::ZERO, 10);
        assert_eq!(b.lane, 1);
        s.occupy_major(&b, us(20), 1, vec![interval(EventClass::CompactWrite, 0, 20, 5)]);
        s.resize(1, us(5));
        assert_eq!(s.lanes(), 1);
        // The dropped lane's activity went with it; its job still closes.
        assert_eq!(s.stall_activity(us(0), us(30)).count(), 0);
        s.finish(b);
        s.finish(a);
        assert_eq!(s.active_majors(), 0);
        assert!(s.busy_levels().is_empty());
        assert_eq!(s.unified_debt(&[10, 0, 10]), 20);
    }

    #[test]
    fn stall_activity_is_clipped_to_the_window() {
        let mut s = sched(1);
        let job = s.begin(0, Nanos::ZERO, 0);
        let stages = vec![
            interval(EventClass::CompactRead, 0, 10, 0),
            interval(EventClass::CompactMerge, 10, 20, 0),
            interval(EventClass::CompactWrite, 20, 30, 0),
        ];
        s.occupy_major(&job, us(30), 0, stages);
        let seen: Vec<_> =
            s.stall_activity(us(5), us(12)).map(|i| (i.class, i.start, i.end)).collect();
        assert_eq!(
            seen,
            vec![
                (EventClass::CompactRead, us(5), us(10)),
                (EventClass::CompactMerge, us(10), us(12))
            ]
        );
        s.finish(job);
        assert_eq!(s.stall_activity(us(0), us(30)).count(), 0);
    }

    proptest! {
        /// Under any interleaving of admissions, completions, failures and
        /// resizes: a major is admitted only inside the budget for the L0
        /// count, the books always balance, and unified debt equals a
        /// reference computed from a plain list of the open claims.
        #[test]
        fn books_balance_under_any_interleaving(
            ops in proptest::collection::vec((0u8..4, 0usize..16, 1usize..6), 1..80),
        ) {
            let mut s = sched(2);
            // (job, level, claimed bytes) of every job in flight.
            let mut open: Vec<(MajorJob, usize, u64)> = Vec::new();
            let mut now = Nanos::ZERO;
            // Every job gets a level pair of its own.
            let mut levels = (0usize..).step_by(2);
            for (op, l0, n) in ops {
                now += us(1);
                match op {
                    // Admit as many majors as the budget allows at `l0`.
                    0 => {
                        while s.admits(l0) {
                            let level = levels.next().expect("unbounded");
                            let job = s.begin(level, now, 100 * n as u64);
                            prop_assert!(job.start >= now && job.lane < s.lanes());
                            s.occupy_major(&job, job.start + us(n as u64), 1, Vec::new());
                            open.push((job, level, 100 * n as u64));
                            prop_assert!(s.active_majors() <= s.max_active(l0));
                        }
                    }
                    // A job fails right after admission (never occupies).
                    1 => {
                        if s.admits(l0) {
                            let job = s.begin(levels.next().expect("unbounded"), now, 7);
                            s.finish(job);
                        }
                    }
                    // Some in-flight job applies.
                    2 => {
                        if !open.is_empty() {
                            let (job, _, _) = open.remove(l0 % open.len());
                            s.finish(job);
                        }
                    }
                    _ => s.resize(n, now),
                }
                prop_assert_eq!(s.active_majors(), open.len());
                prop_assert_eq!(s.busy_levels().len(), 2 * open.len());
                let raw: Vec<u64> = (0..700).map(|l| 50 * l as u64).collect();
                let reference: u64 = raw
                    .iter()
                    .enumerate()
                    .map(|(level, r)| {
                        let claimed: u64 =
                            open.iter().filter(|(_, l, _)| *l == level).map(|(_, _, b)| b).sum();
                        r.saturating_sub(claimed)
                    })
                    .sum();
                prop_assert_eq!(s.unified_debt(&raw), reference);
            }
            for (job, _, _) in open {
                s.finish(job);
            }
            prop_assert_eq!(s.active_majors(), 0);
            prop_assert!(s.busy_levels().is_empty());
            prop_assert_eq!(s.unified_debt(&[9, 9, 9]), 27);
        }
    }
}
