//! Sweep campaigns: N seeds × M crash points × K configurations, each
//! workload run once and crashed at every requested instant, with a
//! machine-readable JSON report. Everything is derived from the spec's
//! seeds over virtual time, so a fixed spec reproduces its report
//! bit-for-bit.

use crate::harness::{config_name, prepare_run, validate_crash, CaseResult, ChaosCase, CONFIGS};
use crate::plan::FaultPlan;
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

    /// Serializes the sweep to JSON (stable field order, no timestamps,
    /// so identical sweeps yield identical bytes).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096 + 512 * self.results.len());
        out.push_str("{\n");
        out.push_str(&format!("  \"profile\": {},\n", json_str(self.spec.profile.name())));
        out.push_str(&format!("  \"seeds\": {},\n", json_u64s(&self.spec.seeds)));
        out.push_str(&format!(
            "  \"crash_points_pm\": {},\n",
            json_u64s(&self.spec.crash_points_pm.iter().map(|&c| c as u64).collect::<Vec<_>>())
        ));
        out.push_str(&format!(
            "  \"configs\": [{}],\n",
            self.spec
                .configs
                .iter()
                .map(|&c| json_str(config_name(c)))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!("  \"ops\": {},\n", self.spec.ops));
        out.push_str(&format!("  \"value_size\": {},\n", self.spec.value_size));
        out.push_str(&format!("  \"cases\": {},\n", self.results.len()));
        out.push_str(&format!("  \"passed\": {},\n", self.passed()));
        out.push_str(&format!("  \"failed\": {},\n", self.failed()));
        out.push_str(&format!("  \"undetected_values\": {},\n", self.undetected_total()));
        out.push_str(&format!("  \"unexplained_losses\": {},\n", self.unexplained_losses()));
        out.push_str("  \"latency_histograms\": {\n");
        out.push_str(&hists_json("clean", &self.clean_hists, "    "));
        out.push_str(",\n");
        out.push_str(&hists_json("faulted", &self.faulted_hists, "    "));
        out.push_str("\n  },\n");
        out.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(&case_json(r, "    "));
            out.push_str(if i + 1 < self.results.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
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

/// Serializes one histogram group as a named JSON object of per-class
/// percentile entries.
fn hists_json(name: &str, hists: &ClassHists, indent: &str) -> String {
    let mut s = format!("{indent}\"{name}\": {{");
    for (i, (class, h)) in hists.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let (p50, p95, p99, p999) = h.percentiles();
        s.push_str(&format!(
            "\n{indent}  \"{}\": {{\"count\": {}, \"min_ns\": {}, \"max_ns\": {}, \
             \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}}}",
            class.name(),
            h.count(),
            h.min(),
            h.max(),
            p50,
            p95,
            p99,
            p999
        ));
    }
    if !hists.is_empty() {
        s.push('\n');
        s.push_str(indent);
    }
    s.push('}');
    s
}

/// Serializes one case result as a JSON object.
pub fn case_json(r: &CaseResult, indent: &str) -> String {
    let mut s = String::with_capacity(512);
    s.push_str(indent);
    s.push('{');
    s.push_str(&format!("\"seed\": {}, ", r.seed));
    s.push_str(&format!("\"config\": {}, ", json_str(config_name(r.config))));
    s.push_str(&format!("\"crash_pm\": {}, ", r.crash_pm));
    s.push_str(&format!("\"crash_at_ns\": {}, ", r.crash_at.as_nanos()));
    s.push_str(&format!("\"run_end_ns\": {}, ", r.run_end.as_nanos()));
    s.push_str(&format!("\"faulted_plan\": {}, ", r.faulted_plan));
    s.push_str(&format!(
        "\"injections\": [{}], ",
        r.injections
            .iter()
            .map(|i| format!(
                "{{\"at_ns\": {}, \"kind\": {}, \"bytes\": {}, \"keep\": {}}}",
                i.at.as_nanos(),
                json_str(i.kind.name()),
                i.bytes,
                i.keep
            ))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    s.push_str(&format!("\"acked_pairs\": {}, ", r.acked_pairs));
    s.push_str(&format!("\"lost_acked\": {}, ", r.lost_acked));
    s.push_str(&format!("\"undetected_values\": {}, ", r.undetected_values));
    s.push_str(&format!("\"recovered_keys\": {}, ", r.recovered_keys));
    s.push_str(&format!("\"repaired\": {}, ", r.repaired));
    s.push_str(&format!(
        "\"open_error\": {}, ",
        r.open_error.as_deref().map_or("null".to_string(), json_str)
    ));
    s.push_str(&format!(
        "\"recovery_failed\": {}, ",
        r.recovery_failed.as_deref().map_or("null".to_string(), json_str)
    ));
    s.push_str(&format!(
        "\"invariant_error\": {}, ",
        r.invariant_error.as_deref().map_or("null".to_string(), json_str)
    ));
    s.push_str(&format!("\"wal_corruptions_detected\": {}, ", r.wal_corruptions_detected));
    s.push_str(&format!("\"wal_bytes_dropped\": {}, ", r.wal_bytes_dropped));
    s.push_str(&format!("\"wal_records_recovered\": {}, ", r.wal_records_recovered));
    s.push_str(&format!("\"tables_skipped\": {}, ", r.tables_skipped));
    s.push_str(&format!("\"ordered_violations\": {}, ", r.ordered_violations));
    s.push_str(&format!("\"journal_broken\": {}, ", r.journal_broken));
    s.push_str(&format!("\"shadow_files\": {}, ", r.shadow_files));
    s.push_str(&format!("\"reclaimed_files\": {}, ", r.reclaimed_files));
    s.push_str(&format!("\"explained\": {}, ", r.explained));
    s.push_str(&format!("\"pass\": {}", r.pass));
    s.push('}');
    s
}

/// `s` as a quoted JSON string.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", nob_sim::json_escape(s))
}

/// Serializes a slice of integers as a JSON array.
fn json_u64s(v: &[u64]) -> String {
    let items: Vec<String> = v.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_campaign_passes_and_reproduces() {
        let spec = CampaignSpec::smoke();
        let a = run_campaign(&spec);
        assert_eq!(a.results.len(), spec.cases());
        assert_eq!(a.failed(), 0, "smoke sweep must be green: {}", a.to_json());
        assert_eq!(a.undetected_total(), 0);
        assert_eq!(a.unexplained_losses(), 0);
        let b = run_campaign(&spec);
        assert_eq!(a.to_json(), b.to_json(), "fixed-seed sweep must be bit-for-bit stable");
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
        let json = a.to_json();
        assert!(json.contains("\"latency_histograms\""));
        assert!(json.contains("\"clean\""));
        assert!(json.contains("\"faulted\""));
    }

    #[test]
    fn json_escaping_is_sound() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }
}
