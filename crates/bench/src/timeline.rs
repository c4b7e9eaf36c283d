//! The `fig_timeline` sweep: fixed-seed fillrandom under Sync
//! (LevelDB), Async (LevelDB-nosync) and NobLSM, with a [`MetricsHub`]
//! sampling every layer's gauges on one shared virtual-time grid and a
//! [`TraceSink`] recording the same run's stalls. The three timelines are
//! emitted side by side, each stall cross-referenced onto its run's grid
//! by timestamp — so "dirty pages crossed the threshold here" and "the
//! foreground stalled here" line up visually in the report.

use std::fmt::Write as _;

use nob_baselines::Variant;
use nob_metrics::MetricsHub;
use nob_sim::json::Json;
use nob_sim::Nanos;
use nob_trace::TraceSink;

use crate::output::Pivot;
use crate::report::fmt_ns;
use crate::sweep::{Axis, Grid, Row, Sweep};
use crate::Scale;

/// The three strategies: paper-facing series name and engine.
const VARIANTS: [(&str, Variant); 3] =
    [("Sync", Variant::LevelDb), ("Async", Variant::VolatileLevelDb), ("NobLSM", Variant::NobLsm)];

/// Series every run must sample: one gauge per layer.
const LAYERS: [&str; 3] = ["engine.mem_bytes", "ext4.dirty_bytes", "ssd.flush_commands"];

/// The sweep: one axis over the three strategies.
pub const SWEEP: Sweep = Sweep {
    figure: "fig_timeline",
    title: "cross-layer gauge timelines",
    cells_key: "timeline_runs",
    header: &[],
    golden_scale: 512,
    axes: &[Axis { name: "variant", values: &[0, 1, 2] }],
    run_cell,
    note: "the fig4-style fill (6 000 ops of 256 B fillrandom, seed 42) per strategy; one row \
           per gauge, bucket maxima",
    tables,
    footer,
    invariants,
};

/// Sampling period: 100 ms of virtual time at paper scale, divided like
/// every other time-like constant, so a scaled run crosses the same
/// number of grid instants as a full-scale one would.
fn sample_period(scale: Scale) -> Nanos {
    scale.duration(nob_metrics::DEFAULT_PERIOD)
}

/// One metered run of the fig4-style fill
/// ([`crate::scenarios::fig4_fill`]): its gauge timeline plus the
/// trace's top stalls (longest first), each placed on the timeline's
/// grid.
fn run_cell(point: &[u64], scale: Scale) -> Row {
    let (name, variant) = VARIANTS[point[0] as usize];
    let hub = MetricsHub::new().with_period(sample_period(scale));
    let sink = TraceSink::new();
    crate::scenarios::fig4_fill(variant, scale.fresh_fs(), scale, |db| {
        db.set_metrics_hub(hub.clone());
        db.set_trace_sink(sink.clone());
    });
    let timeline = hub.timeline();
    let stall = |s: &nob_trace::StallRecord| {
        Json::object([
            ("kind", s.kind.name().into()),
            ("start_ns", s.start.as_nanos().into()),
            ("end_ns", s.end.as_nanos().into()),
            ("grid_index", timeline.grid_index(s.start).map_or(-1, |g| g as i64).into()),
        ])
    };
    let stalls = sink.summary().top_stalls.iter().map(stall).collect();
    vec![("name", name.into()), ("stalls", Json::Array(stalls)), ("timeline", timeline.to_json())]
}

/// One row per strategy: how long its grid is and how often it stalled.
fn tables(cells: &[Json]) -> Option<Vec<Pivot>> {
    let mut table = Pivot::new("strategy");
    for c in cells {
        let (name, timeline) = (c.text("name")?, c.get("timeline")?);
        table.push(name, "samples", timeline.num("samples")?.to_string());
        table.push(name, "period", fmt_ns(timeline.num("period_ns")?));
        table.push(name, "stalls", c.get("stalls")?.as_array()?.len().to_string());
    }
    Some(vec![table])
}

/// Each strategy's gauges as sparklines, then its stalls on the grid.
fn footer(cells: &[Json]) -> Option<String> {
    let mut out = String::new();
    for run in cells {
        let _ = writeln!(out, "### {}\n", run.text("name")?);
        let series = run.get("timeline")?.get("series")?.as_array()?;
        let name_w = series.iter().filter_map(|s| s.text("name")).map(str::len).max().unwrap_or(0);
        let _ = writeln!(out, "```");
        for s in series {
            let sname = s.text("name").unwrap_or("?");
            let values: Vec<f64> =
                s.get("values")?.as_array()?.iter().filter_map(Json::as_f64).collect();
            let peak = values.iter().copied().fold(0.0f64, f64::max);
            let _ = writeln!(
                out,
                "{sname:name_w$}  {}  peak {peak}",
                nob_metrics::sparkline(&values, 64)
            );
        }
        let _ = writeln!(out, "```");
        let stalls = run.get("stalls")?.as_array()?;
        if stalls.is_empty() {
            let _ = writeln!(out, "\nno write stalls recorded\n");
            continue;
        }
        let _ = writeln!(out, "\nstalls on this grid:\n");
        for s in stalls {
            let kind = s.text("kind").unwrap_or("?");
            let start = s.num("start_ns").unwrap_or(0.0);
            let end = s.num("end_ns").unwrap_or(0.0);
            let idx = s.num("grid_index").unwrap_or(-1.0) as i64;
            let _ = writeln!(
                out,
                "- {kind} {} at t={} (grid index {idx})",
                fmt_ns(end - start),
                fmt_ns(start)
            );
        }
        let _ = writeln!(out);
    }
    Some(out)
}

/// The three runs share one sampling grid, each sampled every layer more
/// than twice, and every stall lands on its run's grid.
fn invariants(g: &Grid<'_>) {
    let period = |c: &Json| c.get("timeline").and_then(|t| t.num("period_ns"));
    for c in g.cells() {
        let name = c.text("name").unwrap_or("?");
        assert_eq!(period(c), period(&g.cells()[0]), "{name} is off the shared grid");
        let timeline = c.get("timeline").expect("a run has a timeline");
        let samples = timeline.num("samples").unwrap_or(0.0);
        assert!(samples > 2.0, "{name} sampled {samples} instants");
        let series = timeline.get("series").and_then(Json::as_array).unwrap_or(&[]);
        for layer in LAYERS {
            let sampled = series.iter().any(|s| s.text("name") == Some(layer));
            assert!(sampled, "{name} lacks `{layer}`");
        }
        for s in c.get("stalls").and_then(Json::as_array).unwrap_or(&[]) {
            let index = s.num("grid_index").unwrap_or(-1.0);
            assert!((0.0..samples).contains(&index), "{name}: a stall off the grid: {s:?}");
        }
    }
}
