//! The `fig_breakdown` experiment: commit critical-path decomposition
//! across the three write disciplines (Sync, Async, NobLSM) × shard
//! counts, through `nob-store`'s group-commit queue.
//!
//! Every operation is a *traced request*: the harness mints a root
//! context per enqueue (standing in for the server's per-request root),
//! the group-commit leader parents its span under it, and the engine /
//! journal / FLUSH work nests beneath — so each cell's
//! [`nob_trace::CriticalSummary`] partitions every request's send→durable window
//! into the named segments (admission, group_wait, wal_write,
//! journal_wait, flush, …) that sum to its latency exactly.
//!
//! The figure answers the paper's "where does commit latency go"
//! question per discipline: under Sync the `flush` segment dominates
//! (every group fsyncs the WAL through the journal), under Async and
//! NobLSM the device barrier leaves the critical path and `wal_write` /
//! `admission` take over. Everything runs on one shared virtual clock
//! per store, so the grid is bit-for-bit deterministic and
//! golden-pinned.

use nob_sim::json::Json;
use nob_sim::Nanos;
use nob_store::{Store, StoreOptions, Ticket};
use nob_trace::{EventClass, TraceCtx, TraceSink, SEGMENTS};
use noblsm::WriteBatch;

use crate::output::Pivot;
use crate::report::fmt_ns;
use crate::shards::{disciplines, store_options};
use crate::sweep::{self, Axis, Grid, KeyStream, Row, Sweep, DISCIPLINES, NOBLSM, SYNC};
use crate::Scale;

/// Fixed workload shape: every cell writes the same `OPS` keys from the
/// same seed-42 LCG stream. Divisible by every lane count in the sweep
/// (4, 8, 16) so no cell rounds its op count.
const OPS: u64 = 480;
const VALUE: usize = 256;
const KEYSPACE: u64 = 100_000;
/// Logical writers per shard: enough that group commit coalesces and
/// follower requests spend real time in `group_wait`.
const WRITERS: u64 = 4;
/// Slowest requests kept per cell in the JSON document.
const TOP_N: usize = 1;
/// Ring capacity comfortably above the sweep's span count, so no tree
/// loses spans to eviction.
const RING: usize = 1 << 15;

/// The sweep: discipline × shard count, every request causally traced.
pub const SWEEP: Sweep = Sweep {
    figure: "fig_breakdown",
    title: "commit critical-path decomposition",
    cells_key: "breakdown_cells",
    header: &[("ops", OPS), ("writers", WRITERS)],
    golden_scale: 512,
    axes: &[DISCIPLINES, Axis { name: "shards", values: &[1, 2, 4] }],
    run_cell,
    note: "{ops} traced requests per cell, {writers} writers per shard; each request's \
           send→durable window is partitioned into segments that sum exactly — shares are segment \
           time over total request time",
    tables,
    footer,
    invariants,
};

/// Runs one cell: `shards × WRITERS` logical writers each enqueue one
/// traced single-record batch per round, the round-robin pump commits
/// one coalesced group per shard, and each request's `server_write`
/// root span closes when its ticket resolves durable.
fn run_cell(point: &[u64], scale: Scale) -> Row {
    let [discipline, shards] = *point else { unreachable!("two axes") };
    let (name, variant, wopts) = disciplines()[discipline as usize];
    let opts = StoreOptions {
        // Cap the group size below the writer count so a round needs
        // more than one group per shard: requests in later groups wait
        // in the queue while earlier groups commit, which is exactly
        // the admission time the decomposition is meant to expose.
        group_budget_count: WRITERS as usize / 2,
        ..store_options(variant, shards as usize, scale)
    };
    let mut store = Store::open(opts).expect("open store");
    let sink = TraceSink::with_ring_capacity(RING);
    store.set_trace_sink(sink.clone());
    let lanes = shards * WRITERS;
    let rounds = OPS / lanes;
    assert_eq!(rounds * lanes, OPS, "sweep shape must divide the op count");
    let mut keys = KeyStream::new(KEYSPACE);
    let mut inflight: Vec<(Ticket, TraceCtx, Nanos, u64)> = Vec::new();
    for _ in 0..rounds {
        for _ in 0..lanes {
            let (key, value) = sweep::record(keys.draw(), 8, VALUE);
            let mut batch = WriteBatch::new();
            batch.put(&key, &value);
            let ctx = sink.child_ctx(TraceCtx::NONE);
            let start = store.clock().now();
            let bytes = (key.len() + VALUE) as u64;
            inflight.push((store.enqueue_ctx(&wopts, &batch, ctx), ctx, start, bytes));
        }
        store.pump().expect("pump");
        resolve(&mut store, &sink, &mut inflight);
    }
    store.drain().expect("drain");
    resolve(&mut store, &sink, &mut inflight);
    assert!(inflight.is_empty(), "every ticket must resolve after drain");
    vec![
        ("name", name.into()),
        ("shards", shards.into()),
        ("ops", OPS.into()),
        // Per-segment decomposition across all `OPS` requests.
        ("critical", sink.critical_summary(TOP_N).to_json()),
    ]
}

/// Emits the `server_write` root span (enqueue → durable) for every
/// ticket that resolved since the last call.
fn resolve(
    store: &mut Store,
    sink: &TraceSink,
    inflight: &mut Vec<(Ticket, TraceCtx, Nanos, u64)>,
) {
    inflight.retain(|&(ticket, ctx, start, bytes)| match store.take_outcome(ticket) {
        Some(durable) => {
            sink.emit_ctx(EventClass::ServerWrite, start, durable, bytes, ctx);
            false
        }
        None => true,
    });
}

/// The total time of segment `name` in a cell, if the cell recorded it.
fn segment_ns(cell: &Json, name: &str) -> Option<f64> {
    cell.get("critical")?.get("segments")?.get(name)?.num("total_ns")
}

/// Per-cell critical-path segment shares (each request's send→durable
/// window partitioned into named segments that sum exactly).
fn tables(cells: &[Json]) -> Option<Vec<Pivot>> {
    // Only segments some cell actually recorded become columns; a cell
    // that never entered one shows a dash there.
    let recorded = |s: &&&str| cells.iter().any(|c| segment_ns(c, s).is_some());
    let active: Vec<&str> = SEGMENTS.iter().filter(recorded).copied().collect();
    let mut table = Pivot::new("discipline × shards");
    for c in cells {
        let label = format!("{} × {}", c.text("name")?, c.num("shards")?);
        let crit = c.get("critical")?;
        let (paths, total) = (crit.num("paths")?, crit.num("total_ns")?);
        table.push(&label, "mean latency", fmt_ns(if paths > 0.0 { total / paths } else { 0.0 }));
        for s in &active {
            let share = segment_ns(c, s).map(|t| if total > 0.0 { t * 100.0 / total } else { 0.0 });
            table.push(&label, s, share.map_or("–".to_string(), |p| format!("{p:.1}%")));
        }
    }
    Some(vec![table])
}

/// Each cell's slowest request.
fn footer(cells: &[Json]) -> Option<String> {
    let mut out = String::new();
    for c in cells {
        if let Some(slowest) = c.get("critical")?.get("slowest")?.as_array()?.first() {
            out.push_str(&format!(
                "- slowest request in {} × {}: trace {} at {}\n",
                c.text("name")?,
                c.num("shards")?,
                slowest.num("trace")?,
                fmt_ns(slowest.num("total_ns")?)
            ));
        }
    }
    Some(out + "\n")
}

fn invariants(g: &Grid<'_>) {
    for c in g.cells() {
        // Every request is decomposed and its segments sum exactly.
        let crit = c.get("critical").expect("cell carries its decomposition");
        assert_eq!(crit.num("paths"), Some(OPS as f64), "every op must be traced: {c:?}");
        let Some(Json::Object(segments)) = crit.get("segments") else { panic!("segments: {c:?}") };
        let sum: f64 = segments.iter().filter_map(|(_, s)| s.num("total_ns")).sum();
        assert_eq!(Some(sum), crit.num("total_ns"), "segments must partition the windows: {c:?}");
    }
    let total = |p: &[u64]| g.at(p).get("critical").and_then(|k| k.num("total_ns"));
    for &shards in g.axis(1) {
        assert!(
            segment_ns(g.at(&[SYNC, shards]), "flush") > Some(0.0),
            "Sync at {shards} shards must spend critical-path time in FLUSH"
        );
        assert!(
            total(&[SYNC, shards]) > total(&[NOBLSM, shards]),
            "Sync commits must be slower end-to-end than NobLSM at {shards} shards"
        );
    }
    // With 4 writers per shard, follower requests spend time between
    // enqueue and their group's engine write; that queue wait is the
    // request's own self-time (admission). The engine write itself
    // must be attributed separately.
    let c = g.at(&[SYNC, 1]);
    assert!(segment_ns(c, "admission") > Some(0.0), "queued requests accrue admission time");
    assert!(segment_ns(c, "wal_write").is_some(), "engine writes must be attributed");
}
