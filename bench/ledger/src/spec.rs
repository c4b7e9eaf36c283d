//! The benchmark's contract, read from the one place it is written: the
//! `BENCHMARK.json` at the repository root, compiled in and parsed once.
//! Workload names, metric names, units, directions and bounds all come
//! from there; the reports take units from here and `compare` its bounds.

use std::sync::OnceLock;

use nob_bench::json::Json;

/// Which clock a number is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// What the modelled Ext4/SSD stack would take: deterministic, a
    /// pure function of the seed.
    Virtual,
    /// What this Rust code costs to run here: noisy, a median of
    /// in-process repetitions.
    Host,
}

impl Clock {
    /// Lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Clock::Virtual => "virtual",
            Clock::Host => "host",
        }
    }

    /// The clock of the metric called `name`. Host-side metrics say so
    /// in their names: `setup_s`, `host_*`, and the suffixes `host_ns`,
    /// `allocs_per_op`, `alloc_bytes_per_op`, `overhead_pct`. Everything
    /// else is virtual or an exact count.
    pub fn of(name: &str) -> Clock {
        let host = name == "setup_s"
            || name.starts_with("host_")
            || ["host_ns", "allocs_per_op", "alloc_bytes_per_op", "overhead_pct"]
                .iter()
                .any(|suffix| name.ends_with(suffix));
        if host {
            Clock::Host
        } else {
            Clock::Virtual
        }
    }
}

/// One metric of the contract.
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; 0 for per-layer metrics, which have no bound.
    pub bound: f64,
}

/// `BENCHMARK.json`, parsed.
pub struct Spec {
    /// Seconds of timed phase a driver run asks for (`run_seconds`).
    pub run_seconds: f64,
    /// `(name, why)` of the workloads.
    pub workloads: Vec<(String, String)>,
    /// The end-to-end metrics, every one reported by every workload.
    ///
    /// Virtual metrics repeat exactly for a seed; their bounds cover the
    /// spread *across* seeds (stall timing is chaotic in the key order),
    /// so a model change that moves one past its bound must say so.
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics, layer = crate. All are reported by every
    /// workload (0 where a layer does no work).
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// The metric called `name`, end-to-end or per-layer.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end.iter().chain(&self.per_layer).find(|m| m.name == name)
    }
}

fn parse(text: &str) -> Option<Spec> {
    let doc = Json::parse(text)?;
    let text_of = |entry: &Json, key: &str| Some(entry.get(key)?.as_str()?.to_string());
    let metrics = |section: &str| {
        let entries = doc.get(section)?.as_array()?.iter();
        let metric = |m: &Json| {
            Some(Metric {
                name: text_of(m, "name")?,
                unit: text_of(m, "unit")?,
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
            })
        };
        entries.map(metric).collect::<Option<Vec<Metric>>>()
    };
    let workloads = doc.get("workloads")?.as_array()?.iter();
    Some(Spec {
        run_seconds: doc.get("run_seconds")?.as_f64()?,
        workloads: workloads
            .map(|w| Some((text_of(w, "name")?, text_of(w, "why")?)))
            .collect::<Option<Vec<_>>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// The contract this binary was built against.
///
/// # Panics
///
/// Panics if the checked-in `BENCHMARK.json` is malformed.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        parse(include_str!("../../../BENCHMARK.json")).expect("BENCHMARK.json is malformed")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_stays_inside_the_contract() {
        let s = spec();
        let names: Vec<&str> = s
            .end_to_end
            .iter()
            .chain(&s.per_layer)
            .map(|m| m.name.as_str())
            .chain(s.workloads.iter().map(|w| w.0.as_str()))
            .collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        assert!(names.iter().all(|n| !n.is_empty() && n.len() <= 64));
        assert!((2..=8).contains(&s.workloads.len()));
        assert!((1..=16).contains(&s.end_to_end.len()) && (1..=128).contains(&s.per_layer.len()));
        assert!(s.end_to_end.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(s.end_to_end.iter().chain(&s.per_layer).all(|m| m.unit.len() <= 16));
        assert!(s.workloads.iter().all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!((1.0..=60.0).contains(&s.run_seconds) && s.run_seconds.fract() == 0.0);
        let setup = s.metric("setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.lower_is_better);
    }

    #[test]
    fn clocks_follow_the_names() {
        for host in ["setup_s", "host_ns_per_op", "host_peak_rss_mb", "core.host_ns"] {
            assert_eq!(Clock::of(host), Clock::Host, "{host}");
        }
        for host in ["store.allocs_per_op", "core.alloc_bytes_per_op", "trace.overhead_pct"] {
            assert_eq!(Clock::of(host), Clock::Host, "{host}");
        }
        for virt in ["virt_ops_per_s", "write_amp", "core.stalls", "ssd.flush_ns_p99"] {
            assert_eq!(Clock::of(virt), Clock::Virtual, "{virt}");
        }
    }
}
