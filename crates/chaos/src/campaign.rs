//! Sweep campaigns: N seeds × M crash points × K configurations, each
//! workload run once and crashed at every requested instant, with a
//! machine-readable JSON report. Everything is derived from the spec's
//! seeds over virtual time, so a fixed spec reproduces its report
//! bit-for-bit.

use crate::harness::{config_name, prepare_run, validate_crash, CaseResult, ChaosCase, CONFIGS};
use crate::plan::{FaultPlan, Injection};
use nob_sim::json::Json;
use nob_trace::{EventClass, Histogram, TraceSink};

/// Which fault schedules a campaign applies per case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultProfile {
    /// Pure power cuts — strict durability everywhere.
    PowerCut,
    /// Seeded device lies on every run.
    DeviceLies,
    /// Alternate by seed: even seeds power-cut, odd seeds device lies.
    Mixed,
}

impl FaultProfile {
    /// Stable lowercase name, used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            FaultProfile::PowerCut => "power_cut",
            FaultProfile::DeviceLies => "device_lies",
            FaultProfile::Mixed => "mixed",
        }
    }

    /// Parses a profile name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "power_cut" => Some(FaultProfile::PowerCut),
            "device_lies" => Some(FaultProfile::DeviceLies),
            "mixed" => Some(FaultProfile::Mixed),
            _ => None,
        }
    }
}

/// A full sweep specification.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Workload seeds; one run per (seed, config).
    pub seeds: Vec<u64>,
    /// Crash points in per-mille of each run's duration.
    pub crash_points_pm: Vec<u32>,
    /// Configuration selectors (see [`crate::harness::config_options`]).
    pub configs: Vec<usize>,
    /// Operations per workload.
    pub ops: usize,
    /// Value payload size.
    pub value_size: usize,
    /// Fault schedule policy.
    pub profile: FaultProfile,
    /// Snap crash points to journal-commit phase boundaries.
    pub snap_to_commit_phase: bool,
}

impl CampaignSpec {
    /// The acceptance sweep: 5 seeds × 10 crash points × all 4 configs =
    /// 200 cases, mixed fault profile.
    pub fn full() -> Self {
        CampaignSpec {
            seeds: (1..=5).collect(),
            crash_points_pm: (1..=10).map(|i| i * 100).collect(),
            configs: (0..CONFIGS).collect(),
            ops: 120,
            value_size: 64,
            profile: FaultProfile::Mixed,
            snap_to_commit_phase: false,
        }
    }

    /// A CI-sized smoke sweep: 2 seeds × 3 crash points × all 4 configs.
    pub fn smoke() -> Self {
        CampaignSpec {
            seeds: vec![1, 2],
            crash_points_pm: vec![250, 600, 950],
            configs: (0..CONFIGS).collect(),
            ops: 60,
            value_size: 64,
            profile: FaultProfile::Mixed,
            snap_to_commit_phase: false,
        }
    }

    /// Number of cases this spec expands to.
    pub fn cases(&self) -> usize {
        self.seeds.len() * self.crash_points_pm.len() * self.configs.len()
    }

    /// The fault plan for one (seed, config) run. Independent of the
    /// crash point so every crash instant probes the *same* execution.
    fn plan_for(&self, seed: u64, config: usize) -> FaultPlan {
        let fault = match self.profile {
            FaultProfile::PowerCut => false,
            FaultProfile::DeviceLies => true,
            FaultProfile::Mixed => seed % 2 == 1,
        };
        if fault {
            // Mix config into the plan seed so layouts see distinct lies.
            FaultPlan::seeded(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ config as u64)
        } else {
            FaultPlan::none()
        }
    }
}

/// Per-class latency histograms merged across a group of runs, in
/// `EventClass` discriminant order.
pub type ClassHists = Vec<(EventClass, Histogram)>;

/// Folds one run's trace into a group's merged per-class histograms.
fn merge_run(into: &mut ClassHists, sink: &TraceSink) {
    for class in EventClass::ALL {
        let h = sink.histogram(class);
        if h.is_empty() {
            continue;
        }
        match into.iter_mut().find(|(c, _)| *c == class) {
            Some((_, acc)) => acc.merge(&h),
            None => {
                let at = into.partition_point(|(c, _)| (*c as u8) < (class as u8));
                into.insert(at, (class, h));
            }
        }
    }
}

/// The outcome of a sweep.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The spec the sweep ran.
    pub spec: CampaignSpec,
    /// Every case, in deterministic (config, seed, crash point) order.
    pub results: Vec<CaseResult>,
    /// Per-class latency histograms merged across fault-free runs.
    pub clean_hists: ClassHists,
    /// The same, across runs whose device carried a fault plan — the
    /// fault classes (torn/corrupt writes, dropped FLUSHes) only appear
    /// here, alongside the operation latencies they distorted.
    pub faulted_hists: ClassHists,
}

impl CampaignResult {
    /// Cases that passed.
    pub fn passed(&self) -> usize {
        self.results.iter().filter(|r| r.pass).count()
    }

    /// Cases that failed.
    pub fn failed(&self) -> usize {
        self.results.len() - self.passed()
    }

    /// Total fabricated values recovered anywhere — must be zero.
    pub fn undetected_total(&self) -> usize {
        self.results.iter().map(|r| r.undetected_values).sum()
    }

    /// Acked losses that the injection log could not explain.
    pub fn unexplained_losses(&self) -> usize {
        self.results.iter().filter(|r| r.lost_acked > 0 && !r.explained).map(|r| r.lost_acked).sum()
    }

    /// The sweep as JSON (stable field order, no timestamps, so
    /// identical sweeps yield identical bytes).
    pub fn to_json(&self) -> Json {
        let spec = &self.spec;
        let configs = spec.configs.iter().map(|&c| config_name(c).into());
        // One histogram group: an object of per-class percentile entries.
        let group = |hists: &ClassHists| {
            Json::object(hists.iter().map(|(class, h)| {
                let (p50, p95, p99, p999) = h.percentiles();
                let stats = Json::object([
                    ("count", h.count().into()),
                    ("min_ns", h.min().into()),
                    ("max_ns", h.max().into()),
                    ("p50_ns", p50.into()),
                    ("p95_ns", p95.into()),
                    ("p99_ns", p99.into()),
                    ("p999_ns", p999.into()),
                ]);
                (class.name(), stats)
            }))
        };
        Json::object([
            ("profile", spec.profile.name().into()),
            ("seeds", Json::Array(spec.seeds.iter().map(|&s| s.into()).collect())),
            (
                "crash_points_pm",
                Json::Array(spec.crash_points_pm.iter().map(|&c| c.into()).collect()),
            ),
            ("configs", Json::Array(configs.collect())),
            ("ops", spec.ops.into()),
            ("value_size", spec.value_size.into()),
            ("cases", self.results.len().into()),
            ("passed", self.passed().into()),
            ("failed", self.failed().into()),
            ("undetected_values", self.undetected_total().into()),
            ("unexplained_losses", self.unexplained_losses().into()),
            (
                "latency_histograms",
                Json::object([
                    ("clean", group(&self.clean_hists)),
                    ("faulted", group(&self.faulted_hists)),
                ]),
            ),
            ("results", Json::Array(self.results.iter().map(CaseResult::to_json).collect())),
        ])
    }
}

/// Runs a sweep: each (config, seed) workload executes once; every crash
/// point probes it via a fresh crash view.
pub fn run_campaign(spec: &CampaignSpec) -> CampaignResult {
    let mut results = Vec::with_capacity(spec.cases());
    let mut clean_hists = ClassHists::new();
    let mut faulted_hists = ClassHists::new();
    for &config in &spec.configs {
        for &seed in &spec.seeds {
            let case = ChaosCase {
                seed,
                config,
                ops: spec.ops,
                value_size: spec.value_size,
                crash_pm: 0,
                snap_to_commit_phase: spec.snap_to_commit_phase,
                lanes: 1,
                plan: spec.plan_for(seed, config),
            };
            let run = prepare_run(&case);
            let group = if case.plan.is_none() { &mut clean_hists } else { &mut faulted_hists };
            merge_run(group, &run.trace);
            for &pm in &spec.crash_points_pm {
                let mut r = validate_crash(&run, pm, spec.snap_to_commit_phase);
                r.seed = seed;
                r.config = config;
                r.faulted_plan = !case.plan.is_none();
                results.push(r);
            }
        }
    }
    CampaignResult { spec: spec.clone(), results, clean_hists, faulted_hists }
}

impl CaseResult {
    /// The case as a JSON object.
    pub fn to_json(&self) -> Json {
        let injection = |i: &Injection| {
            Json::object([
                ("at_ns", i.at.as_nanos().into()),
                ("kind", i.kind.name().into()),
                ("bytes", i.bytes.into()),
                ("keep", i.keep.into()),
            ])
        };
        let error = |e: &Option<String>| e.as_deref().map_or(Json::Null, Json::from);
        Json::object([
            ("seed", self.seed.into()),
            ("config", config_name(self.config).into()),
            ("crash_pm", self.crash_pm.into()),
            ("crash_at_ns", self.crash_at.as_nanos().into()),
            ("run_end_ns", self.run_end.as_nanos().into()),
            ("faulted_plan", self.faulted_plan.into()),
            ("injections", Json::Array(self.injections.iter().map(injection).collect())),
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
            ("shadow_files", self.shadow_files.into()),
            ("reclaimed_files", self.reclaimed_files.into()),
            ("explained", self.explained.into()),
            ("pass", self.pass.into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke sweep and the 200-case acceptance sweep, each run twice.
    #[test]
    fn smoke_campaign_passes_and_reproduces() {
        for spec in [CampaignSpec::smoke(), CampaignSpec::full()] {
            let a = run_campaign(&spec);
            assert_eq!(a.results.len(), spec.cases());
            assert_eq!(a.failed(), 0, "the sweep must be green: {}", a.to_json());
            assert_eq!(a.undetected_total(), 0);
            assert_eq!(a.unexplained_losses(), 0);
            let b = run_campaign(&spec);
            let (a, b) = (a.to_json().to_string(), b.to_json().to_string());
            assert_eq!(a, b, "fixed-seed sweep must be bit-for-bit stable");
        }
    }

    #[test]
    fn campaign_reports_clean_vs_faulted_latency_histograms() {
        let a = run_campaign(&CampaignSpec::smoke());
        // Mixed profile: even seeds run clean, odd seeds carry faults —
        // both groups must have merged engine/device latency histograms.
        assert!(!a.clean_hists.is_empty(), "clean runs must trace");
        assert!(!a.faulted_hists.is_empty(), "faulted runs must trace");
        let has = |hs: &ClassHists, c: EventClass| hs.iter().any(|(k, _)| *k == c);
        assert!(has(&a.clean_hists, EventClass::EnginePut));
        assert!(has(&a.faulted_hists, EventClass::EnginePut));
        // Fault classes may only ever appear in the faulted group.
        for c in [
            EventClass::FaultTornWrite,
            EventClass::FaultCorruptWrite,
            EventClass::FaultDroppedFlush,
        ] {
            assert!(!has(&a.clean_hists, c), "{} in clean group", c.name());
        }
        assert!(
            has(&a.faulted_hists, EventClass::FaultTornWrite)
                || has(&a.faulted_hists, EventClass::FaultCorruptWrite)
                || has(&a.faulted_hists, EventClass::FaultDroppedFlush),
            "seeded fault plans must inject at least one device fault"
        );
        let hists = a.to_json().get("latency_histograms").cloned().expect("histogram groups");
        assert!(hists.get("clean").and_then(|g| g.get("engine_put")).is_some());
        assert!(hists.get("faulted").and_then(|g| g.get("engine_put")).is_some());
    }
}
