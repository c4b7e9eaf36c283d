//! Per-run trace summaries: per-class latency stats plus the top stalls
//! with their causal chain, in a byte-stable JSON form.

use crate::event::{EventClass, SpanEvent, StallRecord};
use nob_sim::json::Json;
use nob_sim::Nanos;

/// Latency statistics for one event class. All durations are integer
/// nanoseconds so the JSON form is bit-for-bit reproducible under fixed
/// seeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassStats {
    /// The class these stats describe.
    pub(crate) class: EventClass,
    /// Spans recorded.
    pub count: u64,
    /// Total payload bytes across the class's spans.
    pub(crate) bytes: u64,
    /// Sum of span durations.
    pub(crate) total_ns: u64,
    /// Exact minimum span duration.
    pub(crate) min_ns: u64,
    /// Exact maximum span duration.
    pub max_ns: u64,
    /// Median (log-bucketed, ≤ 3.1% high).
    pub p50_ns: u64,
    /// 95th percentile.
    pub p95_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Trace id of the slowest *traced* span of this class (0 when the
    /// class recorded no traced spans) — the exemplar linking the
    /// histogram tail to a concrete span tree.
    pub(crate) exemplar_trace: u64,
}

/// A complete, serialisable snapshot of a sink at end of run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total spans emitted.
    pub(crate) events: u64,
    /// Spans evicted from the ring (still counted in histograms).
    pub dropped: u64,
    /// Non-empty classes, in discriminant order.
    pub(crate) classes: Vec<ClassStats>,
    /// Total foreground stalls.
    pub stall_count: u64,
    /// Total time spent stalled.
    pub(crate) stall_total_ns: u64,
    /// Longest stalls, longest first (at most [`TraceSummary::TOP_STALLS`]).
    pub top_stalls: Vec<StallRecord>,
}

impl TraceSummary {
    /// How many stalls a summary retains.
    pub const TOP_STALLS: usize = 10;

    /// Stats for one class, if it recorded any spans.
    pub fn class(&self, class: EventClass) -> Option<&ClassStats> {
        self.classes.iter().find(|c| c.class == class)
    }

    /// Deterministic JSON (integer nanoseconds only; classes in
    /// discriminant order) — the form `fig_smoke` pins.
    pub fn to_json(&self) -> Json {
        let class = |c: &ClassStats| {
            Json::object([
                ("count", c.count.into()),
                ("bytes", c.bytes.into()),
                ("total_ns", c.total_ns.into()),
                ("min_ns", c.min_ns.into()),
                ("max_ns", c.max_ns.into()),
                ("p50_ns", c.p50_ns.into()),
                ("p95_ns", c.p95_ns.into()),
                ("p99_ns", c.p99_ns.into()),
                ("p999_ns", c.p999_ns.into()),
                ("exemplar_trace", c.exemplar_trace.into()),
            ])
        };
        // A stall's cause, `null` when it had none.
        let cause = |cause: Option<SpanEvent>| {
            cause.map_or(Json::Null, |c| {
                Json::object([
                    ("class", c.class.name().into()),
                    ("seq", c.seq.into()),
                    ("start_ns", c.start.as_nanos().into()),
                    ("end_ns", c.end.as_nanos().into()),
                ])
            })
        };
        let stall = |s: &StallRecord| {
            Json::object([
                ("kind", s.kind.name().into()),
                ("start_ns", s.start.as_nanos().into()),
                ("end_ns", s.end.as_nanos().into()),
                ("dur_ns", s.duration().as_nanos().into()),
                ("cause_commit", cause(s.cause_commit)),
                ("cause_flush", cause(s.cause_flush)),
            ])
        };
        Json::object([
            ("events", self.events.into()),
            ("dropped", self.dropped.into()),
            ("classes", Json::object(self.classes.iter().map(|c| (c.class.name(), class(c))))),
            (
                "stalls",
                Json::object([
                    ("count", self.stall_count.into()),
                    ("total_ns", self.stall_total_ns.into()),
                    ("top", Json::Array(self.top_stalls.iter().map(stall).collect())),
                ]),
            ),
        ])
    }

    /// Human-readable report: a per-class percentile table followed by
    /// the top stalls with their causal chain.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace: {} events ({} evicted from ring), {} stalls totalling {}\n\n",
            self.events,
            self.dropped,
            self.stall_count,
            Nanos::from_nanos(self.stall_total_ns)
        ));
        if self.dropped > 0 {
            out.push_str(&format!(
                "warning: {} spans were evicted from the ring; span trees and \
                 exports may be incomplete (raise the ring capacity)\n\n",
                self.dropped
            ));
        }
        out.push_str(&format!(
            "| {:<20} | {:>8} | {:>10} | {:>10} | {:>10} | {:>10} | {:>10} |\n",
            "class", "count", "p50", "p95", "p99", "p999", "max"
        ));
        out.push_str(&format!(
            "|{:-<22}|{:-<10}|{:-<12}|{:-<12}|{:-<12}|{:-<12}|{:-<12}|\n",
            "", "", "", "", "", "", ""
        ));
        for c in &self.classes {
            out.push_str(&format!(
                "| {:<20} | {:>8} | {:>10} | {:>10} | {:>10} | {:>10} | {:>10} |\n",
                c.class.name(),
                c.count,
                format!("{}", Nanos::from_nanos(c.p50_ns)),
                format!("{}", Nanos::from_nanos(c.p95_ns)),
                format!("{}", Nanos::from_nanos(c.p99_ns)),
                format!("{}", Nanos::from_nanos(c.p999_ns)),
                format!("{}", Nanos::from_nanos(c.max_ns)),
            ));
        }
        if self.top_stalls.is_empty() {
            out.push_str("\nno write stalls recorded\n");
            return out;
        }
        out.push_str(&format!("\ntop {} stalls (longest first):\n", self.top_stalls.len()));
        for (i, s) in self.top_stalls.iter().enumerate() {
            out.push_str(&format!(
                "{:>3}. {:<9} {:>10} at t={}",
                i + 1,
                s.kind.name(),
                format!("{}", s.duration()),
                s.start
            ));
            if let Some(c) = &s.cause_commit {
                out.push_str(&format!(
                    "  <- {} #{} [t={}, {}]",
                    c.class.name(),
                    c.seq,
                    c.start,
                    c.duration()
                ));
            }
            if let Some(f) = &s.cause_flush {
                out.push_str(&format!(
                    "  <- {} #{} [t={}, {}]",
                    f.class.name(),
                    f.seq,
                    f.start,
                    f.duration()
                ));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::StallKind;

    fn sample() -> TraceSummary {
        TraceSummary {
            events: 3,
            dropped: 0,
            classes: vec![ClassStats {
                class: EventClass::SsdWrite,
                count: 2,
                bytes: 8192,
                total_ns: 3000,
                min_ns: 1000,
                max_ns: 2000,
                p50_ns: 1000,
                p95_ns: 2000,
                p99_ns: 2000,
                p999_ns: 2000,
                exemplar_trace: 0,
            }],
            stall_count: 1,
            stall_total_ns: 500,
            top_stalls: vec![StallRecord {
                kind: StallKind::Memtable,
                start: Nanos::from_nanos(100),
                end: Nanos::from_nanos(600),
                cause_commit: Some(SpanEvent {
                    seq: 1,
                    class: EventClass::Checkpoint,
                    start: Nanos::from_nanos(50),
                    end: Nanos::from_nanos(90),
                    bytes: 0,
                    trace: 0,
                    span: 0,
                    parent: 0,
                }),
                cause_flush: None,
            }],
        }
    }

    #[test]
    fn json_is_deterministic_and_integer_only() {
        let s = sample();
        let a = s.to_json();
        assert_eq!(a, s.to_json());
        let class = a.get("classes").and_then(|c| c.get("ssd_write")).expect("class keyed by name");
        assert_eq!(class.num("p99_ns"), Some(2000.0));
        let top = a.get("stalls").and_then(|s| s.get("top")).and_then(Json::as_array).unwrap();
        assert_eq!(top[0].text("kind"), Some("memtable"));
        assert_eq!(top[0].get("cause_flush"), Some(&Json::Null));
        let text = a.to_string();
        assert!(!text.contains('.'), "summary JSON must not contain floats:\n{text}");
    }

    #[test]
    fn render_mentions_percentiles_and_causes() {
        let text = sample().render();
        assert!(text.contains("p999"));
        assert!(text.contains("ssd_write"));
        assert!(text.contains("memtable"));
        assert!(text.contains("checkpoint"));
    }

    #[test]
    fn empty_summary_renders_and_serialises() {
        let s = TraceSummary {
            events: 0,
            dropped: 0,
            classes: vec![],
            stall_count: 0,
            stall_total_ns: 0,
            top_stalls: vec![],
        };
        assert!(s.to_json().to_string().contains("\"classes\": {}"));
        assert!(s.render().contains("no write stalls"));
    }
}
