//! The `fig_timeline` experiment: fixed-seed fillrandom under Sync
//! (LevelDB), Async (LevelDB-nosync) and NobLSM, with a [`MetricsHub`]
//! sampling every layer's gauges on one shared virtual-time grid and a
//! [`TraceSink`] recording the same run's stalls. The three timelines are
//! emitted side by side, each stall cross-referenced onto its run's grid
//! by timestamp — so "dirty pages crossed the threshold here" and "the
//! foreground stalled here" line up visually in the report.

use nob_baselines::Variant;
use nob_metrics::{MetricsHub, Timeline};
use nob_sim::Nanos;
use nob_trace::{StallRecord, TraceSink};

use crate::Scale;

/// One variant's metered run: its gauge timeline plus the trace's top
/// stalls for cross-referencing.
struct TimelineRun {
    /// Paper-facing series name (`Sync`, `Async`, `NobLSM`).
    name: &'static str,
    /// Every layer's gauges on the shared grid.
    timeline: Timeline,
    /// The run's top stalls, longest first (nob-trace's top-10 ring).
    stalls: Vec<StallRecord>,
}

/// Sampling period: 100 ms of virtual time at paper scale, divided like
/// every other time-like constant, so a scaled run crosses the same
/// number of grid instants as a full-scale one would.
pub fn sample_period(scale: Scale) -> Nanos {
    scale.duration(nob_metrics::DEFAULT_PERIOD)
}

/// One metered run of the bench-smoke fill shape
/// ([`crate::scenarios::fig4_fill`]: 6 000 ops of 256 B fillrandom at
/// seed 42, paper-shaped options).
fn metered_fill(variant: Variant, scale: Scale) -> TimelineRun {
    let hub = MetricsHub::new().with_period(sample_period(scale));
    let sink = TraceSink::new();
    crate::scenarios::fig4_fill(variant, scale.fresh_fs(), scale, |db| {
        db.set_metrics_hub(hub.clone());
        db.set_trace_sink(sink.clone());
    });
    let name = match variant {
        Variant::LevelDb => "Sync",
        Variant::VolatileLevelDb => "Async",
        other => other.name(),
    };
    TimelineRun { name, timeline: hub.timeline(), stalls: sink.summary().top_stalls }
}

/// Runs the three strategies side by side at a fixed scale.
fn runs(scale: Scale) -> Vec<TimelineRun> {
    [Variant::LevelDb, Variant::VolatileLevelDb, Variant::NobLsm]
        .into_iter()
        .map(|v| metered_fill(v, scale))
        .collect()
}

/// The `fig_timeline` document: the `"timeline_runs"` key is the schema
/// marker `report` dispatches on. Deterministic under the fixed seed —
/// the golden test pins these exact bytes.
pub fn document(scale: Scale) -> String {
    to_json(&runs(scale), scale)
}

fn to_json(runs: &[TimelineRun], scale: Scale) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"figure\": \"fig_timeline\",\n");
    out.push_str(&format!("  \"scale\": {},\n", scale.factor));
    out.push_str("  \"timeline_runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        out.push_str("      \"stalls\": [\n");
        for (j, s) in r.stalls.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"kind\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"grid_index\": {}}}",
                s.kind.name(),
                s.start.as_nanos(),
                s.end.as_nanos(),
                r.timeline.grid_index(s.start).map_or(-1, |g| g as i64),
            ));
            out.push_str(if j + 1 < r.stalls.len() { ",\n" } else { "\n" });
        }
        out.push_str("      ],\n");
        out.push_str(&format!("      \"timeline\": {}\n", r.timeline.to_json_indented(3)));
        out.push_str(if i + 1 < runs.len() { "    },\n" } else { "    }\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_runs_share_one_grid_and_schema() {
        let scale = Scale::new(512);
        let runs = runs(scale);
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].name, "Sync");
        assert_eq!(runs[1].name, "Async");
        assert_eq!(runs[2].name, "NobLSM");
        for r in &runs {
            assert_eq!(r.timeline.period, sample_period(scale), "{} off-grid", r.name);
            assert!(r.timeline.samples > 2, "{} sampled {} instants", r.name, r.timeline.samples);
            // All three layers contribute to every run.
            for series in ["engine.mem_bytes", "ext4.dirty_bytes", "ssd.flush_commands"] {
                assert!(r.timeline.series(series).is_some(), "{} missing {series}", r.name);
            }
        }
        // Stalls cross-reference onto the grid; a stall mid-run maps to a
        // mid-run index, and the JSON embeds it.
        let doc = to_json(&runs, scale);
        assert!(doc.contains("\"timeline_runs\""));
        assert!(doc.contains("\"grid_index\""));
        assert!(crate::json::Json::parse(&doc).is_some(), "document must parse");
    }
}
