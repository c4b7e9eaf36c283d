//! Staged compaction pipeline arithmetic.
//!
//! A major compaction is decomposed into *granules* — one per output table —
//! each with a read (input I/O), merge (CPU), and write (output I/O) stage.
//! Run serially the stages sum; run staged, granule `i+1`'s read overlaps
//! granule `i`'s merge and write, exactly the classic three-stage pipeline
//! recurrence:
//!
//! ```text
//! read_done[i]  = max(start, read_done[i-1]) + read[i]
//! merge_done[i] = max(read_done[i], merge_done[i-1]) + merge[i]
//! write_done[i] = max(merge_done[i], write_done[i-1]) + write[i]
//! ```
//!
//! The engine prices every stage on the serial device timeline (so I/O cost
//! stays honest) and then *completes* the compaction at the pipelined end,
//! which is what frees the lane and publishes the version edit.

use nob_sim::Nanos;

/// A pipeline stage of a major compaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Input-table reads feeding the merge.
    Read,
    /// Merge/compare CPU.
    Merge,
    /// Output-table build and write-out.
    Write,
}

/// One output granule's stage durations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Granule {
    /// Input read I/O charged to this granule.
    pub(crate) read: Nanos,
    /// Merge CPU charged to this granule.
    pub(crate) merge: Nanos,
    /// Output write I/O charged to this granule.
    pub(crate) write: Nanos,
    /// Bytes this granule wrote.
    pub bytes: u64,
}

impl Granule {
    /// Bundles the three stage durations and the output byte count.
    pub fn new(read: Nanos, merge: Nanos, write: Nanos, bytes: u64) -> Self {
        Granule { read, merge, write, bytes }
    }
}

/// A stage occupancy interval on the virtual timeline, for trace emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageInterval {
    /// Which stage ran.
    pub stage: Stage,
    /// Index of the granule the stage belongs to.
    pub granule: usize,
    /// Interval start.
    pub start: Nanos,
    /// Interval end.
    pub end: Nanos,
    /// Bytes attributed to the interval (output bytes for `Write`, zero
    /// otherwise).
    pub bytes: u64,
}

impl StageInterval {
    /// The interval clipped to `[lo, hi]`, or `None` if disjoint or empty.
    pub(crate) fn clip(self, lo: Nanos, hi: Nanos) -> Option<StageInterval> {
        let start = self.start.max(lo);
        let end = self.end.min(hi);
        if start >= end {
            return None;
        }
        Some(StageInterval { start, end, ..self })
    }
}

/// The staged decomposition of one major compaction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StagePlan {
    granules: Vec<Granule>,
}

impl StagePlan {
    /// Appends a granule (one output table's worth of work).
    pub fn push(&mut self, g: Granule) {
        self.granules.push(g);
    }

    /// Serial (unpipelined) duration: every stage back to back.
    pub fn serial_duration(&self) -> Nanos {
        self.granules.iter().map(|g| g.read + g.merge + g.write).sum()
    }

    /// Pipelined duration under the three-stage recurrence. Never exceeds
    /// [`StagePlan::serial_duration`], and never undercuts the busiest
    /// single stage.
    pub fn pipelined_duration(&self) -> Nanos {
        self.pipelined_end(Nanos::ZERO)
    }

    /// Completion instant of the pipelined compaction started at `start`.
    pub fn pipelined_end(&self, start: Nanos) -> Nanos {
        let (mut rd, mut md, mut wd) = (start, start, start);
        for g in &self.granules {
            rd += g.read;
            md = rd.max(md) + g.merge;
            wd = md.max(wd) + g.write;
        }
        wd
    }

    /// Per-stage totals `(read, merge, write)` across all granules.
    pub fn stage_totals(&self) -> (Nanos, Nanos, Nanos) {
        self.granules.iter().fold((Nanos::ZERO, Nanos::ZERO, Nanos::ZERO), |(r, m, w), g| {
            (r + g.read, m + g.merge, w + g.write)
        })
    }

    /// The pipelined stage occupancy intervals for a compaction started at
    /// `start`, in deterministic (granule, stage) order. Zero-length stages
    /// are omitted.
    pub fn intervals(&self, start: Nanos) -> Vec<StageInterval> {
        let mut out = Vec::with_capacity(self.granules.len() * 3);
        let (mut rd, mut md, mut wd) = (start, start, start);
        for (i, g) in self.granules.iter().enumerate() {
            let rs = rd;
            rd += g.read;
            let ms = rd.max(md);
            md = ms + g.merge;
            let ws = md.max(wd);
            wd = ws + g.write;
            for (stage, s, e, bytes) in [
                (Stage::Read, rs, rd, 0),
                (Stage::Merge, ms, md, 0),
                (Stage::Write, ws, wd, g.bytes),
            ] {
                if e > s {
                    out.push(StageInterval { stage, granule: i, start: s, end: e, bytes });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> Nanos {
        Nanos::from_micros(n)
    }

    fn plan(gs: &[(u64, u64, u64)]) -> StagePlan {
        let mut p = StagePlan::default();
        for &(r, m, w) in gs {
            p.push(Granule::new(us(r), us(m), us(w), 1024));
        }
        p
    }

    #[test]
    fn single_granule_pipelines_to_its_serial_sum() {
        let p = plan(&[(10, 5, 20)]);
        assert_eq!(p.pipelined_duration(), us(35));
        assert_eq!(p.serial_duration(), us(35));
    }

    #[test]
    fn pipeline_overlaps_across_granules() {
        // Three identical granules: steady state is write-bound, so the
        // pipeline finishes at read+merge+3*write.
        let p = plan(&[(10, 5, 20), (10, 5, 20), (10, 5, 20)]);
        assert_eq!(p.serial_duration(), us(105));
        assert_eq!(p.pipelined_duration(), us(75));
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
            assert!(p.pipelined_duration() >= busiest);
            assert!(p.pipelined_duration() <= p.serial_duration());
        }
    }

    #[test]
    fn empty_plan_takes_no_time() {
        let p = StagePlan::default();
        assert_eq!(p.pipelined_end(us(9)), us(9));
        assert!(p.intervals(us(9)).is_empty());
    }

    #[test]
    fn intervals_cover_the_pipelined_window_and_respect_ordering() {
        let start = us(100);
        let p = plan(&[(10, 5, 20), (4, 8, 2)]);
        let iv = p.intervals(start);
        // Last write ends exactly at the pipelined end.
        let end = iv.iter().map(|i| i.end).max().unwrap();
        assert_eq!(end, p.pipelined_end(start));
        // Within a granule: a stage starts only after its input stage ends.
        for g in 0..p.granules.len() {
            let of = |st: Stage| iv.iter().find(|i| i.granule == g && i.stage == st).unwrap();
            assert!(of(Stage::Merge).start >= of(Stage::Read).end);
            assert!(of(Stage::Write).start >= of(Stage::Merge).end);
        }
        // Stage lanes never self-overlap across granules.
        for st in [Stage::Read, Stage::Merge, Stage::Write] {
            let mut last = Nanos::ZERO;
            for i in iv.iter().filter(|i| i.stage == st) {
                assert!(i.start >= last, "{st:?} overlaps itself");
                last = i.end;
            }
        }
    }

    #[test]
    fn clip_intersects_or_drops() {
        let i =
            StageInterval { stage: Stage::Read, granule: 0, start: us(10), end: us(20), bytes: 0 };
        assert_eq!(i.clip(us(12), us(15)).unwrap().start, us(12));
        assert_eq!(i.clip(us(12), us(15)).unwrap().end, us(15));
        assert_eq!(i.clip(us(0), us(30)).unwrap(), i);
        assert!(i.clip(us(20), us(30)).is_none());
        assert!(i.clip(us(0), us(10)).is_none());
    }
}
