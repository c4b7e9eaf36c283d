//! The scheduler's contract, without a filesystem: admission stays inside
//! the policy's budget, one lane stays free for flushes, and a job's books
//! close exactly once whether it applies or fails.

use nob_compact::{
    DebtClaim, DebtLedger, MajorJob, PriorityPolicy, Scheduler, Stage, StageInterval,
};
use nob_sim::Nanos;
use proptest::prelude::*;

fn us(n: u64) -> Nanos {
    Nanos::from_micros(n)
}

fn policy() -> PriorityPolicy {
    PriorityPolicy::new(4, 8, 12)
}

#[test]
fn admission_books_and_debt_in_one_walk() {
    let mut s = Scheduler::new(policy(), 2, Nanos::ZERO);
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
        let mut s = Scheduler::new(policy(), lanes, Nanos::ZERO);
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
    let mut s = Scheduler::new(policy(), 2, Nanos::ZERO);
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
    let mut s = Scheduler::new(policy(), 3, Nanos::ZERO);
    let a = s.begin(0, Nanos::ZERO, 10);
    s.occupy_major(&a, us(10), 1, Vec::new());
    let b = s.begin(2, Nanos::ZERO, 10);
    assert_eq!(b.lane, 1);
    let stage =
        StageInterval { stage: Stage::Write, granule: 0, start: us(0), end: us(20), bytes: 5 };
    s.occupy_major(&b, us(20), 1, vec![stage]);
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
    let mut s = Scheduler::new(policy(), 1, Nanos::ZERO);
    let job = s.begin(0, Nanos::ZERO, 0);
    let iv = |stage, a, b| StageInterval { stage, granule: 0, start: us(a), end: us(b), bytes: 0 };
    s.occupy_major(
        &job,
        us(30),
        0,
        vec![iv(Stage::Read, 0, 10), iv(Stage::Merge, 10, 20), iv(Stage::Write, 20, 30)],
    );
    let seen: Vec<_> = s.stall_activity(us(5), us(12)).map(|i| (i.stage, i.start, i.end)).collect();
    assert_eq!(seen, vec![(Stage::Read, us(5), us(10)), (Stage::Merge, us(10), us(12))]);
    s.finish(job);
    assert_eq!(s.stall_activity(us(0), us(30)).count(), 0);
}

proptest! {
    /// Under any interleaving of admissions, completions, failures and
    /// resizes: a major is admitted only inside the policy's budget for
    /// the L0 count, the books always balance, and unified debt equals a
    /// bare `DebtLedger` fed the same claims.
    #[test]
    fn books_balance_under_any_interleaving(
        ops in proptest::collection::vec((0u8..4, 0usize..16, 1usize..6), 1..80),
    ) {
        let mut s = Scheduler::new(policy(), 2, Nanos::ZERO);
        let mut reference = DebtLedger::default();
        let mut open: Vec<(MajorJob, DebtClaim)> = Vec::new();
        let mut now = Nanos::ZERO;
        // Every job gets a level pair of its own.
        let mut levels = (0usize..).step_by(2);
        for (op, l0, n) in ops {
            now += us(1);
            match op {
                // Admit as many majors as the policy allows at `l0`.
                0 => {
                    while s.admits(l0) {
                        let level = levels.next().expect("unbounded");
                        let job = s.begin(level, now, 100 * n as u64);
                        let claim = reference.claim(level, 100 * n as u64);
                        prop_assert!(job.start >= now && job.lane < s.lanes());
                        s.occupy_major(&job, job.start + us(n as u64), 1, Vec::new());
                        open.push((job, claim));
                        prop_assert!(s.active_majors() <= policy().max_active(l0, s.lanes()));
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
                        let (job, claim) = open.remove(l0 % open.len());
                        s.finish(job);
                        reference.release(claim);
                    }
                }
                _ => s.resize(n, now),
            }
            prop_assert_eq!(s.active_majors(), open.len());
            prop_assert_eq!(s.busy_levels().len(), 2 * open.len());
            let raw: Vec<u64> = (0..700).map(|l| 50 * l as u64).collect();
            prop_assert_eq!(s.unified_debt(&raw), reference.unified(&raw));
        }
        for (job, _) in open {
            s.finish(job);
        }
        prop_assert_eq!(s.active_majors(), 0);
        prop_assert!(s.busy_levels().is_empty());
        prop_assert_eq!(s.unified_debt(&[9, 9, 9]), 27);
    }
}
