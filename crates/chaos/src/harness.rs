//! The recovery-validation harness: replay a deterministic workload with
//! faults live on the device, cut power at a chosen virtual instant,
//! recover through the engine's normal open path (falling back to
//! repair), and check the paper's §4.4 invariant — every KV pair
//! acknowledged durable before the cut is still there afterwards — plus
//! the stricter meta-invariant that *no* loss is ever silent: a missing
//! acked pair must be explained by the injection log, and a recovered
//! value must be one the application actually wrote.

use std::collections::HashMap;

use nob_ext4::{Ext4Config, Ext4Fs};
use nob_sim::Nanos;
use nob_trace::TraceSink;
use noblsm::{CompactionStyle, Db, DbStats, Options, SyncMode};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::plan::{new_log, ChaosInjector, FaultPlan, Injection, InjectionLog};
use nob_ssd::InjectorHandle;

/// Directory the harness keeps its database under.
const DB_DIR: &str = "db";

/// The four sync/layout configurations the sweeps cover, mirroring the
/// crash property tests: 0 = Always, 1 = NobLsm, 2 = Always+Fragmented,
/// 3 = NobLsm+grouped-output.
pub const CONFIGS: usize = 4;

/// One durability acknowledgement: the instant a `flush` returned and the
/// full key → value state acknowledged durable at that instant.
pub type AckSnapshot = (Nanos, HashMap<Vec<u8>, Vec<u8>>);

/// What [`try_recover`] yields: post-recovery stats, any invariant-check
/// error, and the full recovered key → value dump.
type Recovered = (DbStats, Option<String>, HashMap<Vec<u8>, Vec<u8>>);

/// Stable name for a configuration selector.
pub fn config_name(sel: usize) -> &'static str {
    match sel % CONFIGS {
        0 => "always",
        1 => "noblsm",
        2 => "always_fragmented",
        _ => "noblsm_grouped",
    }
}

/// Engine options for a configuration selector: small tables and levels
/// so short workloads still exercise compactions.
pub fn config_options(sel: usize) -> Options {
    let mode = match sel % CONFIGS {
        1 | 3 => SyncMode::NobLsm,
        _ => SyncMode::Always,
    };
    let mut o = Options::default().with_sync_mode(mode).with_table_size(8 << 10);
    o.level1_max_bytes = 32 << 10;
    match sel % CONFIGS {
        2 => o.style = CompactionStyle::Fragmented,
        3 => o.grouped_output = true,
        _ => {}
    }
    o
}

/// One fully specified chaos experiment.
#[derive(Debug, Clone)]
pub struct ChaosCase {
    /// Workload seed; also salts the fault plan.
    pub seed: u64,
    /// Configuration selector (see [`config_options`]).
    pub config: usize,
    /// Number of workload operations.
    pub ops: usize,
    /// Value payload size in bytes.
    pub value_size: usize,
    /// Crash instant as per-mille of the run's virtual duration.
    pub crash_pm: u32,
    /// Snap the crash instant to the nearest earlier journal-commit phase
    /// boundary (start / data-done / journal-done / end), to aim the cut
    /// precisely at the windows the Ext4 ordered contract protects.
    pub snap_to_commit_phase: bool,
    /// Compaction lanes for the engine under test; >1 aims crashes at
    /// runs with several majors in flight at once.
    pub lanes: usize,
    /// The fault schedule.
    pub plan: FaultPlan,
}

impl ChaosCase {
    /// A baseline case: moderate workload, mid-run crash, no faults.
    pub fn new(seed: u64, config: usize) -> Self {
        ChaosCase {
            seed,
            config,
            ops: 120,
            value_size: 64,
            crash_pm: 500,
            snap_to_commit_phase: false,
            lanes: 1,
            plan: FaultPlan::none(),
        }
    }
}

/// A workload run held open so several crash points can be probed
/// without re-running it: the original (never crashed) filesystem plus
/// everything the harness learned while driving it.
pub struct PreparedRun {
    /// The live filesystem; `crashed_view` is non-destructive.
    pub fs: Ext4Fs,
    /// Engine options used (recovery must reuse them).
    pub opts: Options,
    /// Every value ever written per key.
    pub history: HashMap<Vec<u8>, Vec<Vec<u8>>>,
    /// Start instant of every delete issued per key.
    pub deletes: HashMap<Vec<u8>, Vec<Nanos>>,
    /// Durability acknowledgements: after each completed `flush`, the
    /// instant it returned and the full acknowledged state.
    pub acks: Vec<AckSnapshot>,
    /// Virtual end of the run.
    pub end: Nanos,
    /// Everything the injector did.
    pub log: InjectionLog,
    /// Engine stats at end of run (shadow accounting lives here).
    pub final_stats: DbStats,
    /// Journal-commit windows observed, for phase-aligned crash points.
    pub windows: Vec<nob_ext4::CommitWindow>,
    /// First broken journal commit, if a fault severed the chain.
    pub journal_broken: Option<Nanos>,
    /// Operations actually applied.
    pub ops_applied: usize,
    /// Trace of the whole run (all three layers, fault classes
    /// included); campaigns merge these into per-class histograms.
    pub trace: TraceSink,
}

/// Key for workload slot `k`.
fn kname(k: u16) -> Vec<u8> {
    format!("key{k:05}").into_bytes()
}

/// Value for slot `k`, version `v`, padded to `size`.
fn vname(k: u16, v: u16, size: usize) -> Vec<u8> {
    let mut out = format!("value-{k}-{v}-").into_bytes();
    let target = size.max(out.len());
    out.resize(target, b'p');
    out
}

/// Replays the case's workload against a fresh stack with the fault plan
/// live on the device, recording history and durability acks.
pub fn prepare_run(case: &ChaosCase) -> PreparedRun {
    let fs = Ext4Fs::new(Ext4Config::default().with_page_cache(4 << 20));
    // Every crash point is probed after the run: keep every instant.
    fs.pin_crash_horizon();
    let mut opts = config_options(case.config);
    opts.compaction_lanes = case.lanes.max(1);
    let mut db =
        Db::open(fs.clone(), DB_DIR, opts.clone(), Nanos::ZERO).expect("fresh open cannot fail");
    let trace = TraceSink::new();
    db.set_trace_sink(trace.clone());
    let log = new_log();
    if !case.plan.is_none() {
        fs.set_fault_injector(InjectorHandle::new(ChaosInjector::new(
            case.plan.clone(),
            log.clone(),
        )));
    }

    let mut rng = SmallRng::seed_from_u64(case.seed);
    let mut model: HashMap<Vec<u8>, Option<Vec<u8>>> = HashMap::new();
    let mut history: HashMap<Vec<u8>, Vec<Vec<u8>>> = HashMap::new();
    let mut deletes: HashMap<Vec<u8>, Vec<Nanos>> = HashMap::new();
    let mut acks: Vec<AckSnapshot> = Vec::new();
    let mut now = Nanos::ZERO;
    let mut applied = 0usize;
    for _ in 0..case.ops {
        let roll: u32 = rng.gen_range(0..12);
        let k: u16 = rng.gen_range(0..200);
        let v: u16 = rng.gen_range(0..1000);
        let us: u64 = rng.gen_range(1..3_000_000);
        match roll {
            0..=7 => {
                let (key, value) = (kname(k), vname(k, v, case.value_size));
                let mut batch = noblsm::WriteBatch::new();
                batch.put(&key, &value);
                now = db
                    .write_at(now, &noblsm::WriteOptions::default(), batch)
                    .expect("live put cannot fail");
                history.entry(key.clone()).or_default().push(value.clone());
                model.insert(key, Some(value));
            }
            8 | 9 => {
                let key = kname(k);
                let started = now;
                let mut batch = noblsm::WriteBatch::new();
                batch.delete(&key);
                now = db
                    .write_at(now, &noblsm::WriteOptions::default(), batch)
                    .expect("live delete cannot fail");
                deletes.entry(key.clone()).or_default().push(started);
                model.insert(key, None);
            }
            10 => {
                now = db.flush().expect("live flush cannot fail");
                let snapshot: HashMap<Vec<u8>, Vec<u8>> =
                    model.iter().filter_map(|(k, v)| v.clone().map(|v| (k.clone(), v))).collect();
                acks.push((now, snapshot));
            }
            _ => {
                now += Nanos::from_micros(us);
                db.clock().advance_to(now);
                db.tick().expect("live tick cannot fail");
            }
        }
        applied += 1;
    }
    let final_stats = db.stats().clone();
    drop(db);
    PreparedRun {
        opts,
        history,
        deletes,
        acks,
        end: now,
        log,
        final_stats,
        windows: fs.commit_windows(),
        journal_broken: fs.journal_broken(),
        ops_applied: applied,
        trace,
        fs,
    }
}

/// How a crash point was validated, with everything needed to audit the
/// verdict.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Workload seed.
    pub seed: u64,
    /// Configuration selector.
    pub config: usize,
    /// Requested crash point (per-mille of run).
    pub crash_pm: u32,
    /// Actual crash instant after optional phase snapping.
    pub crash_at: Nanos,
    /// Virtual end of the run.
    pub run_end: Nanos,
    /// Whether the case carried a fault plan at all.
    pub faulted_plan: bool,
    /// Injections whose command predates the crash.
    pub injections: Vec<Injection>,
    /// Durable-acked pairs expected to survive this crash point.
    pub acked_pairs: usize,
    /// Acked pairs missing or rolled back after recovery.
    pub lost_acked: usize,
    /// Recovered values never written by the application.
    pub undetected_values: usize,
    /// Keys recovered.
    pub recovered_keys: usize,
    /// First open failed and the repair path was engaged.
    pub repaired: bool,
    /// Error text of the first open, if it failed.
    pub open_error: Option<String>,
    /// Recovery ultimately failed even after repair.
    pub recovery_failed: Option<String>,
    /// Engine invariant check failure after recovery, if any.
    pub invariant_error: Option<String>,
    /// WAL corruption detections during recovery (open stats or repair).
    pub wal_corruptions_detected: u64,
    /// WAL bytes dropped behind damage or torn tails.
    pub wal_bytes_dropped: u64,
    /// WAL batches replayed.
    pub wal_records_recovered: u64,
    /// Table files repair had to discard as unparseable.
    pub tables_skipped: u64,
    /// Ordered-mode contract violations visible in the crash view.
    pub ordered_violations: u64,
    /// The journal chain was severed before the crash instant.
    pub journal_broken: bool,
    /// Shadow SSTables still held at end of run (NobLSM accounting).
    pub shadow_files: u64,
    /// Shadow SSTables reclaimed during the run.
    pub reclaimed_files: u64,
    /// Any acked loss is explained by pre-crash injections.
    pub explained: bool,
    /// Overall verdict.
    pub pass: bool,
}

/// Snaps `raw` to the latest commit-phase boundary at or before it, if
/// any; otherwise returns `raw`.
fn snap_to_phase(windows: &[nob_ext4::CommitWindow], raw: Nanos) -> Nanos {
    let mut best: Option<Nanos> = None;
    for w in windows {
        for b in [w.start, w.data_done, w.journal_done, w.end] {
            if b <= raw && best.is_none_or(|x| b > x) {
                best = Some(b);
            }
        }
    }
    best.unwrap_or(raw)
}

/// Reads the full recovered state; an `Err` means the read path itself
/// detected corruption.
fn dump(db: &mut Db, now: Nanos) -> noblsm::Result<HashMap<Vec<u8>, Vec<u8>>> {
    let mut out = HashMap::new();
    let mut it = db.iter_at(now)?;
    it.seek_to_first()?;
    while it.valid() {
        out.insert(it.key().to_vec(), it.value().to_vec());
        it.next()?;
    }
    Ok(out)
}

/// Opens + sanity-checks + dumps a recovered database in one step.
fn try_recover(view: &Ext4Fs, opts: &Options, at: Nanos) -> noblsm::Result<Recovered> {
    let mut db = Db::open(view.clone(), DB_DIR, opts.clone(), at)?;
    let inv = db.check_invariants().err().map(|e| e.to_string());
    let got = dump(&mut db, at)?;
    Ok((db.stats().clone(), inv, got))
}

/// Cuts power at the case's crash point and validates recovery.
pub fn validate_crash(run: &PreparedRun, crash_pm: u32, snap: bool) -> CaseResult {
    let raw = Nanos::from_nanos((run.end.as_nanos() as u128 * crash_pm as u128 / 1000) as u64);
    let crash_at = if snap { snap_to_phase(&run.windows, raw) } else { raw };
    let view = run.fs.crashed_view(crash_at);
    let ordered_violations = view.stats().ordered_violations;
    let injections: Vec<Injection> = run
        .log
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .iter()
        .filter(|i| i.at <= crash_at)
        .copied()
        .collect();
    let journal_broken = run.journal_broken.is_some_and(|b| b <= crash_at);

    // Recovery: the normal open path first; any failure engages repair,
    // exactly as an operator would.
    let mut repaired = false;
    let mut open_error = None;
    let mut recovery_failed = None;
    let mut tables_skipped = 0u64;
    let mut wal_corruptions = 0u64;
    let mut wal_dropped = 0u64;
    let mut wal_recovered = 0u64;
    let mut invariant_error = None;
    let mut got: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
    match try_recover(&view, &run.opts, crash_at) {
        Ok((stats, inv, state)) => {
            wal_corruptions = stats.wal_corruptions_detected;
            wal_dropped = stats.wal_bytes_dropped;
            wal_recovered = stats.wal_records_recovered;
            invariant_error = inv;
            got = state;
        }
        Err(first) => {
            open_error = Some(first.to_string());
            repaired = true;
            match Db::repair(&view, DB_DIR, &run.opts, crash_at) {
                Ok((t, report)) => {
                    tables_skipped = report.tables_skipped;
                    wal_corruptions = report.wal_corruptions_detected;
                    wal_dropped = report.wal_bytes_dropped;
                    wal_recovered = report.wal_records_recovered;
                    match try_recover(&view, &run.opts, t) {
                        Ok((_, inv, state)) => {
                            invariant_error = inv;
                            got = state;
                        }
                        Err(e) => recovery_failed = Some(e.to_string()),
                    }
                }
                Err(e) => recovery_failed = Some(e.to_string()),
            }
        }
    }

    // The acknowledged-durable state as of the cut: the last flush that
    // completed before it.
    let empty = HashMap::new();
    let (ack_t, acked): (Nanos, &HashMap<Vec<u8>, Vec<u8>>) = run
        .acks
        .iter()
        .rev()
        .find(|(t, _)| *t <= crash_at)
        .map_or((Nanos::ZERO, &empty), |(t, s)| (*t, s));

    // Invariant A — no fabricated data, ever: each recovered value must
    // have been written by the application for that key.
    let mut undetected_values = 0usize;
    for (k, v) in &got {
        let written = run.history.get(k).is_some_and(|vs| vs.iter().any(|w| w == v));
        if !written {
            undetected_values += 1;
        }
    }

    // Invariant B — durability: every acked pair survives, as itself or
    // as a later legitimately written version. A pair the application
    // itself deleted between the ack and the cut may legitimately be
    // gone (its tombstone recovered).
    let mut lost_acked = 0usize;
    for (k, v) in acked {
        let deleted_after_ack =
            run.deletes.get(k).is_some_and(|ts| ts.iter().any(|&t| t >= ack_t && t <= crash_at));
        match got.get(k) {
            Some(r) if r == v => {}
            Some(r) if run.history.get(k).is_some_and(|vs| vs.iter().any(|w| w == r)) => {}
            None if deleted_after_ack => {}
            _ => lost_acked += 1,
        }
    }

    let explained = !injections.is_empty();
    let pass = recovery_failed.is_none()
        && invariant_error.is_none()
        && undetected_values == 0
        && (lost_acked == 0 || explained);

    CaseResult {
        seed: 0, // stamped by the caller, which knows the case identity
        config: 0,
        crash_pm,
        crash_at,
        run_end: run.end,
        faulted_plan: false,
        injections,
        acked_pairs: acked.len(),
        lost_acked,
        undetected_values,
        recovered_keys: got.len(),
        repaired,
        open_error,
        recovery_failed,
        invariant_error,
        wal_corruptions_detected: wal_corruptions,
        wal_bytes_dropped: wal_dropped,
        wal_records_recovered: wal_recovered,
        tables_skipped,
        ordered_violations,
        journal_broken,
        shadow_files: run.final_stats.shadow_files,
        reclaimed_files: run.final_stats.reclaimed_files,
        explained,
        pass,
    }
}

/// Runs one complete case end to end.
pub fn run_case(case: &ChaosCase) -> CaseResult {
    let run = prepare_run(case);
    let mut r = validate_crash(&run, case.crash_pm, case.snap_to_commit_phase);
    r.seed = case.seed;
    r.config = case.config;
    r.faulted_plan = !case.plan.is_none();
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultKind;

    #[test]
    fn faultless_mid_crash_passes_durability() {
        for config in 0..CONFIGS {
            let case = ChaosCase { ops: 80, ..ChaosCase::new(11, config) };
            let r = run_case(&case);
            assert!(r.pass, "config {} failed: {r:?}", config_name(config));
            assert_eq!(r.undetected_values, 0);
            assert_eq!(r.lost_acked, 0, "pure power-cut may not lose acked data");
        }
    }

    #[test]
    fn faultless_end_crash_recovers_everything_acked() {
        let mut case = ChaosCase::new(3, 1);
        case.crash_pm = 1000;
        case.ops = 100;
        let r = run_case(&case);
        assert!(r.pass, "{r:?}");
        assert!(r.recovered_keys > 0, "a 100-op run must leave durable data");
    }

    #[test]
    fn seeded_faults_never_cause_silent_loss() {
        for seed in [5u64, 6, 7] {
            let mut case = ChaosCase::new(seed, 1);
            case.ops = 100;
            case.crash_pm = 900;
            case.plan = FaultPlan::seeded(seed);
            let r = run_case(&case);
            assert!(r.pass, "seed {seed}: {r:?}");
            assert_eq!(r.undetected_values, 0, "seed {seed}: fabricated data recovered");
            if r.lost_acked > 0 {
                assert!(r.explained, "seed {seed}: loss with empty injection log");
            }
        }
    }

    #[test]
    fn scheduled_dropped_flush_is_logged_and_explained() {
        let mut case = ChaosCase::new(9, 0);
        case.ops = 100;
        case.crash_pm = 1000;
        // Drop the first few FLUSHes outright: any durability ack in that
        // span is a device lie.
        case.plan = FaultPlan::none()
            .with_scheduled(0, FaultKind::DroppedFlush)
            .with_scheduled(1, FaultKind::DroppedFlush)
            .with_scheduled(2, FaultKind::DroppedFlush);
        let r = run_case(&case);
        assert!(!r.injections.is_empty(), "scheduled flush faults must fire");
        assert!(r.pass, "{r:?}");
        // `chaos case` prints this document: it lists every injection.
        let doc = nob_sim::json::Json::parse(&r.to_json().to_string()).expect("the case parses");
        let logged = doc.get("injections").and_then(|i| i.as_array()).map(<[_]>::len);
        assert_eq!(logged, Some(r.injections.len()));
    }

    #[test]
    fn phase_snapped_crash_points_land_on_boundaries() {
        let case = ChaosCase { snap_to_commit_phase: true, ..ChaosCase::new(21, 0) };
        let run = prepare_run(&case);
        assert!(!run.windows.is_empty(), "a run with flushes must log commit windows");
        let r = validate_crash(&run, 700, true);
        let on_boundary = run
            .windows
            .iter()
            .any(|w| [w.start, w.data_done, w.journal_done, w.end].contains(&r.crash_at));
        assert!(on_boundary || r.crash_at == Nanos::ZERO, "crash_at {:?}", r.crash_at);
        assert!(r.pass, "{r:?}");
    }

    #[test]
    fn fixed_case_is_bit_for_bit_reproducible() {
        let mut case = ChaosCase::new(33, 3);
        case.plan = FaultPlan::seeded(33);
        case.ops = 90;
        let a = run_case(&case);
        let b = run_case(&case);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
