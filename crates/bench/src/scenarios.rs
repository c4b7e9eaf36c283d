//! The `fig_smoke` sweep: five fixed-seed scenarios, one per layer of
//! the stack, each reporting a throughput, the p99 of its dominant trace
//! class and the whole trace summary behind both — plus the raw-file
//! strategies of Fig. 2a and the fig4-style fill that `paper_fig2a`,
//! `fig_timeline` and the trace-overhead guard share.
//!
//! Everything here runs over virtual time, so a cell is bit-for-bit
//! reproducible across machines and the golden pins it exactly: a
//! change that moves one scenario's throughput, tail or trace by one
//! digit fails Tier-1, not a tolerance band in CI.

use std::fmt::Write as _;

use nob_baselines::Variant;
use nob_ext4::{Ext4Config, Ext4Fs};
use nob_sim::json::Json;
use nob_sim::Nanos;
use nob_trace::{EventClass, TraceSink};
use nob_workloads::dbbench;

use crate::output::Pivot;
use crate::report::fmt_ns;
use crate::shards::store_options;
use crate::sweep::{Axis, Grid, Row, Sweep};
use crate::Scale;

/// Runs one fig2a write strategy: `total` bytes in `file_size` files.
///
/// Strategies are the paper's three: `"Async"` (buffered), `"Direct"`
/// (O_DIRECT) and `"Sync"` (buffered + per-file fsync).
///
/// # Panics
///
/// Panics on an unknown strategy name or filesystem error (the harness
/// controls both).
pub fn fig2a_strategy(fs: &Ext4Fs, strategy: &str, total: u64, file_size: u64) -> Nanos {
    let files = total / file_size;
    let data = vec![0x5au8; file_size as usize];
    let mut now = Nanos::ZERO;
    for i in 0..files {
        let path = format!("out/{strategy}-{i:06}.dat");
        let h = fs.create(&path, now).expect("fresh path");
        now = match strategy {
            "Async" => fs.append(h, &data, now).expect("buffered write"),
            "Direct" => fs.append_direct(h, &data, now).expect("direct write"),
            "Sync" => {
                let t = fs.append(h, &data, now).expect("buffered write");
                fs.fsync(h, t).expect("fsync")
            }
            _ => unreachable!("unknown strategy"),
        };
    }
    now
}

/// A paper-platform filesystem for raw-file scenarios (page cache large
/// enough to never evict).
pub fn raw_fs() -> Ext4Fs {
    Ext4Fs::new(Ext4Config::default().with_page_cache(64 << 30))
}

/// Operations in the fig4-style fill.
pub const FIG4_OPS: u64 = 6_000;

/// The fig4-style fill shared by the `fig4_fillrandom` scenario, the
/// trace-overhead guard and `fig_timeline`: [`FIG4_OPS`] of 256 B
/// fillrandom at seed 42 on paper-shaped options, with `instrument`
/// attaching whatever sinks the caller wants before the first write.
/// Returns the fill's virtual wall time.
pub fn fig4_fill(
    variant: Variant,
    fs: Ext4Fs,
    scale: Scale,
    instrument: impl FnOnce(&mut noblsm::Db),
) -> Nanos {
    let opts = scale.base_options(crate::PAPER_TABLE_LARGE);
    let mut db = noblsm::Db::open(fs, "db", variant.options(&opts), Nanos::ZERO).expect("open db");
    instrument(&mut db);
    let fill = dbbench::fillrandom(&mut db, FIG4_OPS, 256, 42, Nanos::ZERO).expect("fillrandom");
    let t = db.wait_idle(fill.finished).expect("drain");
    // Fire the journal timer so asynchronous checkpoints reach the trace
    // and the timeline before they are cut. The 6 s paper-scale settle
    // window scales like every other time-like constant (an unscaled
    // window would fire hundreds of scaled commit intervals and skew the
    // trace relative to the run it belongs to).
    db.clock().advance_to(t + scale.duration(Nanos::from_secs(6)));
    db.tick().expect("tick");
    fill.wall()
}

/// One smoke scenario: what its throughput counts, the event class
/// whose p99 is its tail signal, the classes its trace must contain
/// (the layers it exists to exercise) and its body, which runs traced
/// into the given sink and returns the throughput.
struct Scenario {
    name: &'static str,
    unit: &'static str,
    p99_class: EventClass,
    traces: &'static [EventClass],
    run: fn(Scale, &TraceSink) -> f64,
}

/// The scenarios, in sweep order (the axis holds positions here).
const SCENARIOS: [Scenario; 5] = [
    Scenario {
        name: "fig2a_sync",
        unit: "MiB/s",
        p99_class: EventClass::JournalCommit,
        traces: &[EventClass::SsdFlush],
        run: fig2a_sync,
    },
    Scenario {
        name: "fig4_fillrandom",
        unit: "ops/s",
        p99_class: EventClass::EnginePut,
        traces: &[EventClass::EnginePut, EventClass::MinorCompaction],
        run: fig4_fillrandom,
    },
    Scenario {
        name: "repl_follower",
        unit: "reads/s",
        p99_class: EventClass::ReplApply,
        traces: &[EventClass::ReplShip, EventClass::ReplAck],
        run: repl_follower,
    },
    Scenario {
        name: "scan",
        unit: "rows/s",
        p99_class: EventClass::ServerScan,
        traces: &[EventClass::ServerScan],
        run: scan,
    },
    Scenario {
        name: "compact",
        unit: "ops/s",
        p99_class: EventClass::MajorCompaction,
        traces: &[EventClass::MajorCompaction],
        run: compact,
    },
];

/// The sweep: one axis over the five scenarios.
pub const SWEEP: Sweep = Sweep {
    figure: "fig_smoke",
    title: "fixed-seed smoke scenarios, traced",
    cells_key: "smoke_cells",
    header: &[],
    golden_scale: 512,
    axes: &[Axis { name: "scenario", values: &[0, 1, 2, 3, 4] }],
    run_cell,
    note: "throughput per virtual second; p99 of each scenario's dominant trace class",
    tables,
    footer,
    invariants,
};

/// Fig. 2a's Sync strategy, 64 MiB in 2 MiB fsynced files: the strategy
/// the figure is about and the one the FLUSH barrier dominates. MiB/s.
fn fig2a_sync(_: Scale, sink: &TraceSink) -> f64 {
    let total: u64 = 64 << 20;
    let fs = raw_fs();
    fs.set_trace_sink(sink.clone());
    let elapsed = fig2a_strategy(&fs, "Sync", total, 2 << 20);
    total as f64 / (1 << 20) as f64 / elapsed.as_secs_f64()
}

/// The fig4-style fill under NobLSM. Operations per second.
fn fig4_fillrandom(scale: Scale, sink: &TraceSink) -> f64 {
    let wall = fig4_fill(Variant::NobLsm, scale.fresh_fs(), scale, |db| {
        db.set_trace_sink(sink.clone());
    });
    FIG4_OPS as f64 / wall.as_secs_f64()
}

/// The `fig_repl` workload on a 2-shard leader/follower pair, shipped in
/// bursts of 4, then a timed follower-read phase. Follower reads per
/// second; the tail is the apply path's.
fn repl_follower(scale: Scale, sink: &TraceSink) -> f64 {
    let opts = store_options(Variant::LevelDb, 2, scale);
    crate::repl::replicate(opts, 4, 1_200, 600, Some(sink)).read_throughput
}

/// The `fig_scan` ranges as cursor-paged scans through the whole serving
/// stack (wire protocol → cursor leases → the store's snapshot-pinned
/// shard merge) over a table-resident keyspace. Rows per second.
fn scan(scale: Scale, sink: &TraceSink) -> f64 {
    use nob_server::{shared, Client, LoopbackTransport, ServerCore, ServerOptions};

    let (keys, scans, range) = (1_024u64, 48u64, 64u64);
    let store = store_options(Variant::LevelDb, 2, scale);
    let mut core =
        ServerCore::open(ServerOptions { store, ..ServerOptions::default() }).expect("open core");
    core.set_trace_sink(sink.clone());
    let core = shared(core);
    let clock = core.borrow().clock().clone();
    let mut client = Client::new(LoopbackTransport::connect(&core));
    for i in 0..keys {
        let (key, value) = crate::scan::dense_record(i, 256);
        client.set(&key, &value).expect("SET");
    }
    crate::scan::flush_shards(core.borrow_mut().store_mut());
    let (rows, elapsed) = crate::scan::timed_scans(&clock, keys, range, scans, |start, end| {
        client.scan_all(start, end, range).expect("SCAN").len() as u64
    });
    rows as f64 / elapsed.as_secs_f64()
}

/// The `fig_compact` workload's NobLSM × 2 shards × 4 lanes cell:
/// bursty-fill operations per second; the tail is the major
/// compactions' under the lane scheduler.
fn compact(scale: Scale, sink: &TraceSink) -> f64 {
    let ops = 2_000u64;
    let opts = crate::compact::lane_store_options(Variant::NobLsm, 2, 4, scale);
    let mut store = nob_store::Store::open(opts).expect("open store");
    store.set_trace_sink(sink.clone());
    let (elapsed, _) =
        crate::compact::bursty_fill(&mut store, &noblsm::WriteOptions::buffered(), ops);
    ops as f64 / elapsed.as_secs_f64()
}

fn run_cell(point: &[u64], scale: Scale) -> Row {
    let s = &SCENARIOS[point[0] as usize];
    let sink = TraceSink::new();
    let throughput = (s.run)(scale, &sink);
    let summary = sink.summary();
    vec![
        ("scenario", s.name.into()),
        ("throughput", Json::fixed(throughput, 3)),
        ("unit", s.unit.into()),
        ("p99_ns", Json::from(summary.class(s.p99_class).map_or(0, |c| c.p99_ns))),
        ("p99_class", s.p99_class.name().into()),
        ("trace", summary.to_json()),
    ]
}

/// One row per scenario: throughput and the tail of its dominant class.
fn tables(cells: &[Json]) -> Option<Vec<Pivot>> {
    let mut table = Pivot::new("scenario");
    for c in cells {
        let row = c.text("scenario")?;
        table.push(row, "throughput", format!("{:.2}", c.num("throughput")?));
        table.push(row, "unit", c.text("unit")?.to_string());
        table.push(row, "p99", fmt_ns(c.num("p99_ns")?));
        table.push(row, "class", c.text("p99_class")?.to_string());
    }
    Some(vec![table])
}

/// Each scenario's trace: the per-class percentile table and its stalls.
fn footer(cells: &[Json]) -> Option<String> {
    let mut out = String::new();
    for c in cells {
        let _ = writeln!(out, "### {} trace\n", c.text("scenario")?);
        render_trace(c.get("trace")?, &mut out)?;
    }
    Some(out)
}

/// Renders one stall's causal chain (`<- class #seq [t=…, dur]`).
fn stall_cause(s: &Json, key: &str) -> String {
    match s.get(key) {
        Some(c) if c.get("class").is_some() => {
            let class = c.text("class").unwrap_or("?");
            let seq = c.num("seq").unwrap_or(0.0) as u64;
            let start = c.num("start_ns").unwrap_or(0.0);
            let end = c.num("end_ns").unwrap_or(0.0);
            format!(" ← {class} #{seq} [t={}, {}]", fmt_ns(start), fmt_ns(end - start))
        }
        _ => String::new(),
    }
}

/// The per-class latency percentile table (nothing for no classes).
fn class_table(classes: &[(String, Json)], out: &mut String) {
    if classes.is_empty() {
        return;
    }
    let _ = writeln!(out, "| class | count | p50 | p95 | p99 | p999 | max |");
    let _ = writeln!(out, "|---|---|---|---|---|---|---|");
    for (name, c) in classes {
        let ns = |k: &str| fmt_ns(c.num(k).unwrap_or(0.0));
        let _ = writeln!(
            out,
            "| {name} | {} | {} | {} | {} | {} | {} |",
            c.num("count").unwrap_or(0.0) as u64,
            ns("p50_ns"),
            ns("p95_ns"),
            ns("p99_ns"),
            ns("p999_ns"),
            ns("max_ns"),
        );
    }
    let _ = writeln!(out);
}

/// Renders an embedded nob-trace summary: the per-class latency
/// percentile table and the top stalls with their causal chain.
fn render_trace(trace: &Json, out: &mut String) -> Option<()> {
    let Some(Json::Object(classes)) = trace.get("classes") else { return None };
    let events = trace.num("events")? as u64;
    let _ = writeln!(out, "*trace: {events} events*\n");
    class_table(classes, out);
    let stalls = trace.get("stalls")?;
    let count = stalls.num("count").unwrap_or(0.0) as u64;
    let total = stalls.num("total_ns").unwrap_or(0.0);
    let top = stalls.get("top").and_then(Json::as_array).unwrap_or(&[]);
    if count == 0 {
        let _ = writeln!(out, "no write stalls recorded\n");
        return Some(());
    }
    let _ = writeln!(
        out,
        "**{count} write stalls totalling {}; top {} (longest first):**\n",
        fmt_ns(total),
        top.len()
    );
    for (i, s) in top.iter().enumerate() {
        let kind = s.text("kind").unwrap_or("?");
        let start = s.num("start_ns").unwrap_or(0.0);
        let dur = s.num("dur_ns").unwrap_or(0.0);
        let _ = writeln!(
            out,
            "{}. {kind} {} at t={}{}{}",
            i + 1,
            fmt_ns(dur),
            fmt_ns(start),
            stall_cause(s, "cause_commit"),
            stall_cause(s, "cause_flush"),
        );
    }
    let _ = writeln!(out);
    Some(())
}

/// What one scenario's cell must show: a positive throughput, a traced
/// tail, and every class the scenario exists to exercise in its trace.
fn check_cell(s: &Scenario, cell: &Json) {
    let throughput = cell.num("throughput").unwrap_or(0.0);
    assert!(throughput.is_finite() && throughput > 0.0, "{}: throughput {throughput}", s.name);
    let tail = s.p99_class.name();
    assert!(cell.num("p99_ns") > Some(0.0), "{}: the {tail} tail must be traced", s.name);
    let classes = cell.get("trace").and_then(|t| t.get("classes"));
    for class in s.traces {
        let traced = classes.and_then(|c| c.get(class.name())).is_some();
        assert!(traced, "{}: the trace lacks `{}`", s.name, class.name());
    }
}

fn invariants(g: &Grid<'_>) {
    for (&i, cell) in g.axis(0).iter().zip(g.cells()) {
        check_cell(&SCENARIOS[i as usize], cell);
    }
}

/// One run for the trace-overhead guard: `fills` fig4-style fillrandom
/// fills back to back, each on a fresh stack, optionally traced; returns
/// their *wall-clock* (host) nanoseconds. Virtual time is identical
/// either way — pinned by the trace-stack integration tests — so any
/// wall-clock delta is the real CPU cost of span recording.
fn overhead_run(traced: bool, fills: usize) -> u64 {
    let scale = Scale::new(512);
    let wall = std::time::Instant::now();
    for _ in 0..fills {
        fig4_fill(Variant::NobLsm, scale.fresh_fs(), scale, |db| {
            if traced {
                db.set_trace_sink(TraceSink::new());
            }
        });
    }
    wall.elapsed().as_nanos() as u64
}

/// Measures tracing's wall-clock overhead: `rounds` interleaved
/// traced/untraced runs of `fills` fig4-style fills each (plus one
/// discarded warm-up), returning the median host nanoseconds of each
/// mode as `(traced, untraced)`. Interleaving and the median keep the
/// guard robust against machine noise; the `trace_overhead` binary
/// compares the two.
///
/// One fill is ≈ 10 ms of host time, and a scheduler hiccup on a shared
/// runner is a few milliseconds: `fills` is what lifts the measured
/// interval clear of that, without touching the fill `fig_smoke` and
/// `fig_timeline` pin.
pub fn trace_overhead(rounds: usize, fills: usize) -> (u64, u64) {
    let fills = fills.max(1);
    let _ = overhead_run(false, 1); // warm-up: page in the code and allocator
    let mut traced = Vec::with_capacity(rounds);
    let mut untraced = Vec::with_capacity(rounds);
    for _ in 0..rounds.max(1) {
        traced.push(overhead_run(true, fills));
        untraced.push(overhead_run(false, fills));
    }
    traced.sort_unstable();
    untraced.sort_unstable();
    (traced[traced.len() / 2], untraced[untraced.len() / 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scenario `i`'s cell, run twice: the runs must agree byte for byte
    /// (the sweep's own check reruns only the last cell) and the cell
    /// must hold the sweep's per-scenario invariant.
    fn reproducible_cell(i: usize) {
        let run = || Json::object(run_cell(&[i as u64], Scale::new(SWEEP.golden_scale)));
        let (a, b) = (run(), run());
        assert_eq!(a, b, "{} must be deterministic", SCENARIOS[i].name);
        check_cell(&SCENARIOS[i], &a);
    }

    #[test]
    fn fig2a_smoke_is_deterministic_and_traced() {
        reproducible_cell(0);
    }

    #[test]
    fn fig4_smoke_traces_the_engine() {
        reproducible_cell(1);
    }

    #[test]
    fn repl_smoke_is_deterministic_and_traces_the_apply_path() {
        reproducible_cell(2);
    }

    #[test]
    fn scan_smoke_is_deterministic_and_traces_the_scan_path() {
        reproducible_cell(3);
    }

    #[test]
    fn trace_overhead_measures_both_modes() {
        // One round keeps the test cheap; the ratio itself is asserted
        // only by the `trace_overhead` binary (wall-clock is too noisy
        // for unit tests).
        let (traced, untraced) = trace_overhead(1, 1);
        assert!(traced > 0 && untraced > 0);
    }
}
