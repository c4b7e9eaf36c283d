//! A workload's run: repetitions in one process, the determinism
//! self-check across them, and the reduction to named metrics.

use std::time::Instant;

use nob_baselines::Variant;
use nob_metrics::MetricsHub;
use nob_trace::TraceSink;

use crate::layers::{self, Layered, Traced};
use crate::measure::{median, spread};
use crate::primitives;
use crate::workload::{rep, replay, Entry, PerOp, Plan, Rep, Scenario};

/// Spans the trace ring holds: every span from the opening of the trace
/// window to settled, on every workload (`trace.dropped_spans` = 0).
const RING: usize = 1 << 21;
/// Replays per lower entry point of the layered drive (median taken).
const REPLAYS: usize = 3;

/// How many repetitions a run makes.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// At least this many.
    pub min_reps: usize,
    /// Then more until the timed phases sum to this many host seconds.
    pub seconds: f64,
}

impl Budget {
    /// Hard stops, so a slow machine still answers well inside the
    /// driver's per-run limit.
    const MAX_REPS: usize = 12;
    const MAX_WALL_S: f64 = 25.0;

    fn wants_more(&self, reps: &[Rep], started: Instant) -> bool {
        let timed: f64 = reps.iter().map(|r| r.timed_s).sum();
        reps.len() < self.min_reps
            || (timed < self.seconds
                && reps.len() < Self::MAX_REPS
                && started.elapsed().as_secs_f64() < Self::MAX_WALL_S)
    }
}

/// One workload's reported result.
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Repetitions made.
    pub reps: usize,
    /// Operations attempted: timed operations of every repetition plus
    /// the comparisons of the checks.
    pub attempted: u64,
    /// Operations failed: error or `-BUSY` replies, values differing
    /// from the reference, keys lost in a crash check — plus one per
    /// determinism violation.
    pub failed: u64,
    /// The metrics, in spec order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Repetition-to-repetition spread (IQR / median) of host metrics.
    pub spread: Vec<(&'static str, f64)>,
    /// Human-readable detail read from the virtual clock or exact
    /// counts: percentiles with sample counts, sizing facts, determinism
    /// violations.
    pub notes: Vec<String>,
    /// Human-readable detail read from the host clock.
    pub host_notes: Vec<String>,
}

/// `VmHWM` of this process in MB (0 where `/proc` is absent).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.map_or(0.0, |kb| kb / 1024.0)
}

/// Checks `other` reproduced `first`'s virtual results and counts.
fn same_virtual(first: &Rep, other: &Rep, what: &str, notes: &mut Vec<String>) -> u64 {
    let mut violations = 0;
    if other.virt != first.virt {
        notes.push(format!(
            "NOT DETERMINISTIC: {what} moved a virtual metric: {:?} vs {:?}",
            other.virt, first.virt
        ));
        violations += 1;
    }
    for (name, v) in &first.counts {
        if other.counts.get(name) != Some(v) {
            notes.push(format!(
                "NOT DETERMINISTIC: {what} moved count {name}: {:?} vs {v}",
                other.counts.get(name)
            ));
            violations += 1;
        }
    }
    violations
}

fn sizing_notes(first: &Rep, notes: &mut Vec<String>) {
    let v = &first.virt;
    notes.extend(first.detail.clone());
    let mut class = |label: &str, l: &crate::measure::Latency| {
        let (high, ns) = l.highest();
        notes.push(format!(
            "{label}: n={} mean={:.0} p50={} {high}={ns} slowest-10%-mean={:.0} (virtual ns)",
            l.n, l.mean_ns, l.p50_ns, l.tail_ns
        ));
    };
    class("primary op", &v.primary);
    if let Some(other) = &v.other {
        class("other op", other);
    }
    let c = |name: &str| first.counts.get(name).copied().unwrap_or(0);
    notes.push(format!(
        "window: majors={} minors={} stalls={} slowdowns={} levels={} files={} cache hit/miss={}/{} \
         groups={} batches={} scan pages={}",
        c("core.major_compactions"),
        c("core.minor_compactions"),
        c("core.stalls"),
        c("core.slowdowns"),
        c("end.core.levels"),
        c("end.core.level_files"),
        c("core.cache_hits"),
        c("core.cache_misses"),
        c("store.groups"),
        c("store.batches"),
        c("server.scan_pages"),
    ));
}

/// The untraced run: every end-to-end metric.
pub fn run<S: Scenario>(workload: &'static str, sc: &S, gen_s: f64, budget: Budget) -> Outcome {
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while budget.wants_more(&reps, started) {
        // The checks run once, after the first repetition's settle.
        reps.push(rep(sc, &Plan { checks: reps.is_empty(), ..Plan::PLAIN }));
    }
    let first = &reps[0];
    let checks = first.checks.as_ref().expect("the first repetition runs the checks");
    let mut notes = Vec::new();
    sizing_notes(first, &mut notes);
    let mut failed = checks.failed + reps.iter().map(|r| r.failed).sum::<u64>();
    for (i, r) in reps.iter().enumerate().skip(1) {
        failed += same_virtual(first, r, &format!("repetition {}", i + 1), &mut notes);
    }
    // A process's first repetition grows the heap from nothing and runs
    // 10–50 % slow: it warms the process up and carries the checks, and
    // the host medians are taken over the repetitions after it.
    let warm = if reps.len() > 1 { &reps[1..] } else { &reps[..] };
    let setups: Vec<f64> = warm.iter().map(|r| gen_s + r.setup_s).collect();
    let per_op: Vec<f64> = warm.iter().map(|r| r.timed_s * 1e9 / r.ops as f64).collect();
    let v = &first.virt;
    let host_notes = vec![format!(
        "host ns/op per repetition after the first ({:.0}): {per_op:.0?}; setup s: {setups:.2?}",
        first.timed_s * 1e9 / first.ops as f64
    )];
    Outcome {
        workload,
        reps: reps.len(),
        attempted: checks.attempted + reps.iter().map(|r| r.ops).sum::<u64>(),
        failed,
        metrics: vec![
            ("setup_s", median(&setups)),
            ("host_ns_per_op", median(&per_op)),
            ("host_peak_rss_mb", peak_rss_mb()),
            ("virt_ops_per_s", v.ops_per_s),
            ("virt_lat_mean_ns", v.primary.mean_ns),
            ("virt_lat_tail_ns", v.primary.tail_ns),
            ("virt_readback_ns", checks.readback_ns),
            ("write_amp", v.write_amp),
            ("space_amp", v.space_amp),
        ],
        spread: vec![("setup_s", spread(&setups)), ("host_ns_per_op", spread(&per_op))],
        notes,
        host_notes,
    }
}

/// The traced run: every per-layer metric. A plain repetition (with the
/// checks), one traced, one with a metrics hub, and a second plain one.
/// The first repetition of a process runs ≈ 10 % slow (a cold heap), so
/// the overheads are taken against the second plain one; all four must
/// agree on every virtual result. Then the layered drive, the LevelDB
/// baseline and the primitives where they apply.
pub fn trace<S: Scenario>(workload: &'static str, sc: &S) -> Outcome {
    let plain = rep(sc, &Plan { checks: true, ..Plan::PLAIN });
    let sink = TraceSink::with_ring_capacity(RING);
    let traced = rep(sc, &Plan { sink: Some(&sink), ..Plan::PLAIN });
    // The hub's gauge closures keep the repetition's filesystems (every
    // byte they ever stored) alive; drop it with the repetition.
    let sampled = {
        let hub = MetricsHub::new();
        rep(sc, &Plan { hub: Some(&hub), ..Plan::PLAIN })
    };
    let plain_again = rep(sc, &Plan::PLAIN);
    let layered = S::LAYERED.then(|| {
        // Allocation counts are exact and the same on every pass; only
        // the host time needs the median.
        let at = |entry| {
            let passes: Vec<PerOp> = (0..REPLAYS).map(|_| replay(sc, entry)).collect();
            let ns: Vec<f64> = passes.iter().map(|p| p.ns).collect();
            PerOp { ns: median(&ns), ..passes[0] }
        };
        Layered { store: at(Entry::Store), db: at(Entry::Db) }
    });
    let leveldb = S::BASELINE.then(|| rep(sc, &Plan { variant: Variant::LevelDb, ..Plan::PLAIN }));

    let checks = plain.checks.as_ref().expect("the plain repetition runs the checks");
    let mut notes = Vec::new();
    sizing_notes(&plain, &mut notes);
    let failed = checks.failed
        + plain.failed
        + same_virtual(&plain, &traced, "tracing", &mut notes)
        + same_virtual(&plain, &sampled, "metrics sampling", &mut notes)
        + same_virtual(&plain, &plain_again, "repeating", &mut notes);
    let attempted = checks.attempted + plain.ops;
    let metrics = layers::assemble(&Traced {
        plain: &plain,
        plain_again: &plain_again,
        traced: &traced,
        sampled: &sampled,
        sink: &sink,
        layered,
        leveldb: leveldb.as_ref(),
        scans: sc.scans(),
        primitives: primitives::all(),
        checked: (checks.attempted, checks.failed),
        fail_share: failed as f64 / attempted as f64,
    });
    Outcome {
        workload,
        reps: 4,
        attempted,
        failed,
        metrics,
        spread: Vec::new(),
        notes,
        host_notes: Vec::new(),
    }
}
