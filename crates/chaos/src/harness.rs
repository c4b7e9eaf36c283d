//! The recovery-validation harness: replay a deterministic workload with
//! faults live on the device, cut power at a chosen virtual instant,
//! recover through the engine's normal open path (falling back to
//! repair), and check the recovered rows against the crash contract of
//! [`nob_sim::oracle`] — the paper's §4.4 invariant — with the stricter
//! meta-invariant that *no* loss is ever silent: a lost acked pair must
//! have a cause recovery detected or the device stack exposed (see
//! [`CaseResult::explained`]), and a fabricated value fails the case
//! unconditionally.
//!
//! Every crash check of the engine drives its writes through one op
//! stream ([`Op`], [`run_ops`]) and recovers through one step
//! ([`recover`]): the seeded runs here, the crash property tests and the
//! lane crash tests.

use nob_ext4::{Ext4Config, Ext4Fs};
use nob_sim::json::Json;
use nob_sim::oracle::Oracle;
use nob_sim::Nanos;
use nob_trace::TraceSink;
use noblsm::{
    CompactionStyle, Db, DbStats, Options, ReadOptions, ScanOptions, SyncMode, WriteBatch,
    WriteOptions,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::plan::{new_log, ChaosInjector, FaultKind, FaultPlan, Injection, InjectionLog};
use nob_ssd::InjectorHandle;

/// Directory the harness keeps its database under.
const DB_DIR: &str = "db";

/// The four sync/layout configurations the sweeps and the crash property
/// tests cover: 0 = Always, 1 = NobLsm, 2 = Always+Fragmented,
/// 3 = NobLsm+grouped-output.
pub const CONFIGS: usize = 4;

/// What [`try_recover`] yields: post-recovery stats, any invariant-check
/// error, and every recovered row.
type Recovered = (DbStats, Option<String>, Vec<(Vec<u8>, Vec<u8>)>);

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

/// One chaos workload run: what is driven and under which faults. Where
/// it is cut is [`validate_crash`]'s business.
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
    /// Compaction lanes for the engine under test; >1 aims crashes at
    /// runs with several majors in flight at once.
    pub lanes: usize,
    /// The fault schedule.
    pub plan: FaultPlan,
}

impl ChaosCase {
    /// A baseline case: moderate workload, no faults.
    pub fn new(seed: u64, config: usize) -> Self {
        ChaosCase { seed, config, ops: 120, value_size: 64, lanes: 1, plan: FaultPlan::none() }
    }
}

/// One workload operation on slot keys `key{k:05}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Puts version `v` of slot `k`.
    Put(u16, u16),
    /// Deletes slot `k`.
    Delete(u16),
    /// Flushes: acknowledges every write issued so far.
    Flush,
    /// Advances the clock by this many microseconds and ticks.
    Sleep(u32),
}

/// A workload run held open so several crash points can be probed
/// without re-running it: the original (never crashed) filesystem plus
/// everything the harness learned while driving it.
pub struct PreparedRun {
    /// The live filesystem; `crashed_view` is non-destructive.
    pub fs: Ext4Fs,
    /// Engine options used (recovery must reuse them).
    pub opts: Options,
    /// Every put and delete issued, each acknowledged at the end of the
    /// first `flush` after it.
    pub oracle: Oracle,
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
    /// Trace of the whole run (all three layers, fault classes
    /// included).
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

/// A fresh filesystem and a database opened on it at instant zero.
pub fn fresh_db(opts: &Options) -> (Ext4Fs, Db) {
    let fs = Ext4Fs::new(Ext4Config::default().with_page_cache(4 << 20));
    let db =
        Db::open(fs.clone(), DB_DIR, opts.clone(), Nanos::ZERO).expect("fresh open cannot fail");
    (fs, db)
}

/// Applies `ops` from `now` with values of `value_size` bytes, logging
/// every write in `oracle` and acknowledging what is logged at the end of
/// each flush; returns the instant after the last op.
pub fn run_ops(
    db: &mut Db,
    ops: &[Op],
    value_size: usize,
    oracle: &mut Oracle,
    mut now: Nanos,
) -> Nanos {
    for &op in ops {
        let mut batch = WriteBatch::new();
        match op {
            Op::Put(k, v) => {
                let (key, value) = (kname(k), vname(k, v, value_size));
                batch.put(&key, &value);
                oracle.put(now, &key, &value);
            }
            Op::Delete(k) => {
                let key = kname(k);
                batch.delete(&key);
                oracle.delete(now, &key);
            }
            Op::Flush => {
                now = db.flush().expect("live flush cannot fail");
                oracle.ack(.., now);
                continue;
            }
            Op::Sleep(us) => {
                now += Nanos::from_micros(us.into());
                db.clock().advance_to(now);
                db.tick().expect("live tick cannot fail");
                continue;
            }
        }
        now = db.write_at(now, &WriteOptions::default(), batch).expect("live write cannot fail");
    }
    now
}

/// The case's `ops` operations, drawn from its seed: 8 puts, 2 deletes,
/// 1 flush and 1 sleep in 12, over 200 slots and 1 000 versions.
fn draw_ops(case: &ChaosCase) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(case.seed);
    (0..case.ops)
        .map(|_| {
            let roll: u32 = rng.gen_range(0..12);
            let k: u16 = rng.gen_range(0..200);
            let v: u16 = rng.gen_range(0..1000);
            let us: u64 = rng.gen_range(1..3_000_000);
            match roll {
                0..=7 => Op::Put(k, v),
                8 | 9 => Op::Delete(k),
                10 => Op::Flush,
                _ => Op::Sleep(us as u32), // < 3 000 000: lossless
            }
        })
        .collect()
}

/// Replays the case's workload against a fresh stack with the fault plan
/// live on the device, logging every write and its acknowledgement.
pub fn prepare_run(case: &ChaosCase) -> PreparedRun {
    let mut opts = config_options(case.config);
    opts.compaction_lanes = case.lanes.max(1);
    let (fs, mut db) = fresh_db(&opts);
    // Every crash point is probed after the run: keep every instant.
    fs.pin_crash_horizon();
    let trace = TraceSink::new();
    db.set_trace_sink(trace.clone());
    let log = new_log();
    if !case.plan.is_none() {
        fs.set_fault_injector(InjectorHandle::new(ChaosInjector::new(
            case.plan.clone(),
            log.clone(),
        )));
    }

    let mut oracle = Oracle::default();
    let end = run_ops(&mut db, &draw_ops(case), case.value_size, &mut oracle, Nanos::ZERO);
    let final_stats = db.stats().clone();
    drop(db);
    PreparedRun {
        opts,
        oracle,
        end,
        log,
        final_stats,
        windows: fs.commit_windows(),
        journal_broken: fs.journal_broken(),
        trace,
        fs,
    }
}

/// How one cut of a run was validated, with everything needed to audit
/// the verdict.
#[derive(Debug, Clone, Default)]
pub struct CaseResult {
    /// Requested crash point (per-mille of run).
    pub crash_pm: u32,
    /// Actual crash instant after optional phase snapping.
    pub crash_at: Nanos,
    /// Injections whose command predates the crash.
    pub injections: Vec<Injection>,
    /// Durable-acked pairs expected to survive this crash point.
    pub acked_pairs: usize,
    /// Acked keys missing or rolled back after recovery.
    pub lost_acked: usize,
    /// Recovered values never written to their key by the cut.
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
    /// Any acked loss has a detected cause: repair ran, recovery found WAL
    /// corruption, or the journal chain broke or a FLUSH was dropped
    /// before the cut. An injection alone explains nothing.
    pub explained: bool,
    /// Overall verdict.
    pub pass: bool,
}

impl CaseResult {
    /// The cut as a JSON object.
    pub fn to_json(&self) -> Json {
        let error = |e: &Option<String>| e.as_deref().map_or(Json::Null, Json::from);
        Json::object([
            ("crash_pm", self.crash_pm.into()),
            ("crash_at_ns", self.crash_at.as_nanos().into()),
            ("injections", Json::Array(self.injections.iter().map(Injection::to_json).collect())),
            ("acked_pairs", self.acked_pairs.into()),
            ("lost_acked", self.lost_acked.into()),
            ("undetected_values", self.undetected_values.into()),
            ("recovered_keys", self.recovered_keys.into()),
            ("repaired", self.repaired.into()),
            ("open_error", error(&self.open_error)),
            ("recovery_failed", error(&self.recovery_failed)),
            ("invariant_error", error(&self.invariant_error)),
            ("wal_corruptions_detected", self.wal_corruptions_detected.into()),
            ("wal_bytes_dropped", self.wal_bytes_dropped.into()),
            ("wal_records_recovered", self.wal_records_recovered.into()),
            ("tables_skipped", self.tables_skipped.into()),
            ("ordered_violations", self.ordered_violations.into()),
            ("journal_broken", self.journal_broken.into()),
            ("explained", self.explained.into()),
            ("pass", self.pass.into()),
        ])
    }

    /// Whether the first open recovered a consistent database that keeps
    /// the crash contract: no repair, invariants hold, nothing acked lost
    /// and nothing fabricated. A cut of a fault-free run must meet it.
    pub fn recovered_cleanly(&self) -> bool {
        self.open_error.is_none()
            && self.invariant_error.is_none()
            && self.lost_acked == 0
            && self.undetected_values == 0
    }
}

impl Injection {
    /// The injection as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("at_ns", self.at.as_nanos().into()),
            ("kind", self.kind.name().into()),
            ("bytes", self.bytes.into()),
            ("keep", self.keep.into()),
        ])
    }
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

/// Opens, sanity-checks and scans a recovered database in one step; an
/// `Err` from the scan means the read path itself detected corruption.
fn try_recover(view: &Ext4Fs, opts: &Options, at: Nanos) -> noblsm::Result<Recovered> {
    let mut db = Db::open(view.clone(), DB_DIR, opts.clone(), at)?;
    let inv = db.check_invariants().err().map(|e| e.to_string());
    let rows = db.scan(&ReadOptions::default(), &ScanOptions::all())?.rows;
    Ok((db.stats().clone(), inv, rows))
}

/// Recovers the database a crash at `at` left in `view` and checks the
/// recovered rows against `oracle`: the normal open path first; any
/// failure engages repair, exactly as an operator would. Fills the cut's
/// instant and everything recovery found; the per-mille point, the
/// injections and the verdict are [`validate_crash`]'s.
pub fn recover(view: &Ext4Fs, opts: &Options, oracle: &Oracle, at: Nanos) -> CaseResult {
    let mut r = CaseResult { crash_at: at, ..CaseResult::default() };
    let mut rows = Vec::new();
    match try_recover(view, opts, at) {
        Ok((stats, inv, state)) => {
            r.wal_corruptions_detected = stats.wal_corruptions_detected;
            r.wal_bytes_dropped = stats.wal_bytes_dropped;
            r.wal_records_recovered = stats.wal_records_recovered;
            r.invariant_error = inv;
            rows = state;
        }
        Err(first) => {
            r.open_error = Some(first.to_string());
            r.repaired = true;
            match Db::repair(view, DB_DIR, opts, at) {
                Ok((t, report)) => {
                    r.tables_skipped = report.tables_skipped;
                    r.wal_corruptions_detected = report.wal_corruptions_detected;
                    r.wal_bytes_dropped = report.wal_bytes_dropped;
                    r.wal_records_recovered = report.wal_records_recovered;
                    match try_recover(view, opts, t) {
                        Ok((_, inv, state)) => {
                            r.invariant_error = inv;
                            rows = state;
                        }
                        Err(e) => r.recovery_failed = Some(e.to_string()),
                    }
                }
                Err(e) => r.recovery_failed = Some(e.to_string()),
            }
        }
    }
    let verdict = oracle.check(&rows, at);
    r.acked_pairs = verdict.acked.len();
    r.lost_acked = verdict.lost.len();
    r.undetected_values = verdict.fabricated.len();
    r.recovered_keys = rows.len();
    r
}

/// Cuts power `crash_pm` per-mille of the way through the run (snapped
/// to the latest journal-commit phase boundary before it when `snap`
/// holds) and validates recovery.
pub fn validate_crash(run: &PreparedRun, crash_pm: u32, snap: bool) -> CaseResult {
    let raw = Nanos::from_nanos((run.end.as_nanos() as u128 * crash_pm as u128 / 1000) as u64);
    let crash_at = if snap { snap_to_phase(&run.windows, raw) } else { raw };
    let view = run.fs.crashed_view(crash_at);
    let ordered_violations = view.stats().ordered_violations;
    let mut r = recover(&view, &run.opts, &run.oracle, crash_at);
    let log = run.log.lock().unwrap_or_else(|p| p.into_inner());
    r.injections = log.iter().filter(|i| i.at <= crash_at).copied().collect();
    drop(log);
    r.crash_pm = crash_pm;
    r.ordered_violations = ordered_violations;
    r.journal_broken = run.journal_broken.is_some_and(|b| b <= crash_at);
    // Repair is a cause whatever it skipped: the failed open detected it,
    // and a repair can lose acked pairs without discarding a table.
    let dropped_flush = r.injections.iter().any(|i| i.kind == FaultKind::DroppedFlush);
    r.explained = r.repaired || r.wal_corruptions_detected > 0 || r.journal_broken || dropped_flush;
    r.pass = r.recovery_failed.is_none()
        && r.invariant_error.is_none()
        && r.undetected_values == 0
        && (r.lost_acked == 0 || r.explained);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faultless_mid_crash_passes_durability() {
        for config in 0..CONFIGS {
            let case = ChaosCase { ops: 80, ..ChaosCase::new(11, config) };
            let r = validate_crash(&prepare_run(&case), 500, false);
            assert!(r.pass, "config {} failed: {r:?}", config_name(config));
            assert_eq!(r.undetected_values, 0);
            assert_eq!(r.lost_acked, 0, "pure power-cut may not lose acked data");
        }
    }

    #[test]
    fn faultless_end_crash_recovers_everything_acked() {
        let mut case = ChaosCase::new(3, 1);
        case.ops = 100;
        let r = validate_crash(&prepare_run(&case), 1000, false);
        assert!(r.pass, "{r:?}");
        assert!(r.recovered_keys > 0, "a 100-op run must leave durable data");
    }

    #[test]
    fn seeded_faults_never_cause_silent_loss() {
        for seed in [5u64, 6, 7] {
            let mut case = ChaosCase::new(seed, 1);
            case.ops = 100;
            case.plan = FaultPlan::seeded(seed);
            let r = validate_crash(&prepare_run(&case), 900, false);
            assert!(r.pass, "seed {seed}: {r:?}");
            assert_eq!(r.undetected_values, 0, "seed {seed}: fabricated data recovered");
            if r.lost_acked > 0 {
                assert!(r.explained, "seed {seed}: loss with no detected cause");
            }
        }
    }

    #[test]
    fn scheduled_dropped_flush_is_logged_and_explained() {
        let mut case = ChaosCase::new(9, 0);
        case.ops = 100;
        // Drop the first few FLUSHes outright: any durability ack in that
        // span is a device lie.
        case.plan = FaultPlan::none()
            .with_scheduled(0, FaultKind::DroppedFlush)
            .with_scheduled(1, FaultKind::DroppedFlush)
            .with_scheduled(2, FaultKind::DroppedFlush);
        let r = validate_crash(&prepare_run(&case), 1000, false);
        assert!(!r.injections.is_empty(), "scheduled flush faults must fire");
        assert!(r.pass, "{r:?}");
        // `chaos case` prints this document: it lists every injection.
        let doc = nob_sim::json::Json::parse(&r.to_json().to_string()).expect("the case parses");
        let logged = doc.get("injections").and_then(|i| i.as_array()).map(<[_]>::len);
        assert_eq!(logged, Some(r.injections.len()));
    }

    #[test]
    fn phase_snapped_crash_points_land_on_boundaries() {
        let run = prepare_run(&ChaosCase::new(21, 0));
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
        let a = validate_crash(&prepare_run(&case), 500, false);
        let b = validate_crash(&prepare_run(&case), 500, false);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
