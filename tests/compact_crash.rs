//! Crash safety under concurrent compaction lanes.
//!
//! The staged-lane scheduler may hold several majors in flight when the
//! machine dies. Whatever those lanes had half-written must vanish at
//! recovery — a partially materialised output table is not reachable
//! from any durable manifest, so the recovered state may contain only
//! values the application actually wrote (nothing fabricated) and must
//! retain every acknowledged-durable pair. These tests drive the
//! nob-chaos harness at lane counts 1/2/4: a property sweep over random
//! seeds and crash points, plus a deterministic probe that aims the cut
//! *inside* recorded major-compaction spans.

use nob_chaos::{prepare_run, validate_crash, ChaosCase, FaultPlan};
use nob_trace::EventClass;
use proptest::prelude::*;

const LANE_COUNTS: [usize; 3] = [1, 2, 4];

fn case(seed: u64, config: usize, lanes: usize) -> ChaosCase {
    ChaosCase { seed, config, ops: 160, value_size: 256, lanes, plan: FaultPlan::none() }
}

/// Fails the test if a crash at `pm` per-mille of the run violates the
/// durability or no-fabrication invariants.
fn check_point(run: &nob_chaos::PreparedRun, lanes: usize, pm: u32) {
    let r = validate_crash(run, pm, false);
    assert!(
        r.recovery_failed.is_none(),
        "lanes {lanes}, crash {pm}‰: recovery failed: {:?}",
        r.recovery_failed
    );
    assert!(
        r.invariant_error.is_none(),
        "lanes {lanes}, crash {pm}‰: invariants broken after recovery: {:?}",
        r.invariant_error
    );
    // No fabricated values: a partial compaction output that leaked into
    // the recovered state would surface values never written.
    assert_eq!(
        r.undetected_values, 0,
        "lanes {lanes}, crash {pm}‰: recovered values never written"
    );
    // No fault plan is active, so every acknowledged pair must survive.
    assert_eq!(
        r.lost_acked, 0,
        "lanes {lanes}, crash {pm}‰: lost {} of {} acked pairs",
        r.lost_acked, r.acked_pairs
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random workloads, random crash points, every lane count: committed
    /// data survives and recovery never surfaces partial lane output.
    #[test]
    fn crash_mid_lane_loses_nothing(
        seed in 0u64..1_000,
        config in 0usize..4,
        pms in proptest::collection::vec(50u32..950, 3),
    ) {
        for lanes in LANE_COUNTS {
            let run = prepare_run(&case(seed, config, lanes));
            for &pm in &pms {
                check_point(&run, lanes, pm);
            }
        }
    }
}

/// Deterministic aimed probe: crash *inside* major-compaction spans, the
/// instants where lanes hold half-written output tables, at every lane
/// count. (The property test above covers random cuts; this one makes
/// sure mid-major cuts are exercised even if the random per-mille points
/// all land between compactions.)
#[test]
fn aimed_mid_major_crashes_recover_cleanly() {
    for lanes in LANE_COUNTS {
        let run = prepare_run(&case(7, 1, lanes));
        let (spans, _) = run.trace.snapshot();
        let majors: Vec<_> =
            spans.iter().filter(|s| s.class == EventClass::MajorCompaction).collect();
        assert!(!majors.is_empty(), "lanes {lanes}: workload ran no majors");
        let end = run.end.as_nanos().max(1);
        for m in majors.iter().take(8) {
            // Midpoint of the span, expressed as per-mille of the run.
            let mid = (m.start.as_nanos() + m.end.as_nanos()) / 2;
            let pm = ((mid as u128 * 1000) / end as u128) as u32;
            check_point(&run, lanes, pm.clamp(1, 999));
        }
    }
}
