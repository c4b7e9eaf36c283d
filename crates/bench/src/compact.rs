//! The `fig_compact` experiment: staged-lane compaction swept over
//! compaction lanes × shard count under the three write disciplines
//! (Sync, Async, NobLSM).
//!
//! Every cell writes the same fixed-seed bursty fillrandom stream
//! through `nob-store` with a quarter-table write buffer, so flushes are
//! frequent and short while majors are long, and the `L0` slowdown/stop
//! triggers engage during bursts. The sweep then shows the point of the
//! lane scheduler:
//!
//! 1. **Lanes absorb compaction backlog.** With more lanes, flushes stop
//!    queueing behind majors, majors on disjoint level pairs overlap,
//!    and the priority policy widens the active budget as `L0` pressure
//!    climbs — so foreground stall-time share and p99 write latency are
//!    monotone non-increasing from 1→2→4 lanes at every gated cell, and
//!    drop sharply where a single lane was the bottleneck (NobLSM's
//!    2-shard p99 falls by more than half from one lane to two).
//! 2. **Lanes are a scheduling change, not a data change.** The final
//!    LSM contents hash identically across lane counts: under virtual
//!    time the multi-lane schedule is deterministic and loses nothing.
//!
//! The sync disciplines split exactly as the paper predicts: `Sync`
//! never stalls (its slow foreground lets one lane keep up), and `Async`
//! benefits less than NobLSM because its flush fsyncs entangle with the
//! journal — extra lanes cannot relieve what the sync discipline
//! serializes. Everything runs on one shared virtual clock per store, so
//! the grid is bit-for-bit deterministic and golden-pinned.

use nob_baselines::Variant;
use nob_sim::json::Json;
use nob_sim::Nanos;
use nob_store::{Store, StoreOptions};
use noblsm::{ScanOptions, WriteOptions};

use crate::output::Pivot;
use crate::shards::{disciplines, store_options};
use crate::sweep::{self, Axis, Grid, KeyStream, Row, Sweep, DISCIPLINES};
use crate::Scale;

/// Fixed workload shape: every cell writes the same `OPS` keys from the
/// same seed-42 LCG stream, one batch per pump, so per-operation write
/// latency is a clean clock delta around each operation. Writes arrive
/// in bursts of [`BURST_OPS`] separated by [`IDLE_GAP`] of think time:
/// a burst builds compaction backlog faster than any lane set can drain
/// it, and the gap is what multi-lane scheduling exploits — concurrent
/// majors clear the backlog before the next burst while a single lane
/// carries it forward until the L0 triggers throttle the foreground.
const OPS: u64 = 6_000;
/// Operations per burst (fills the write buffer several times over on
/// every shard, even in the widest configuration).
const BURST_OPS: u64 = 600;
/// Think time between bursts.
const IDLE_GAP: Nanos = Nanos::from_millis(2);
const VALUE: usize = 1_024;
const KEYSPACE: u64 = 100_000;

/// The sweep: discipline × shard count × compaction lanes per shard.
pub const SWEEP: Sweep = Sweep {
    figure: "fig_compact",
    title: "staged compaction lanes",
    cells_key: "compact_cells",
    header: &[("ops", OPS)],
    golden_scale: 512,
    axes: &[
        DISCIPLINES,
        Axis { name: "shards", values: &[1, 2, 4] },
        Axis { name: "lanes", values: &[1, 2, 4] },
    ],
    run_cell,
    note: "{ops} bursty fillrandom ops per cell; each cell is `stall share / p99 write ns`",
    tables,
    footer,
    invariants,
};

/// The store a cell opens (also the `compact` smoke scenario's).
pub fn lane_store_options(
    variant: Variant,
    shards: usize,
    lanes: usize,
    scale: Scale,
) -> StoreOptions {
    let mut opts = store_options(variant, shards, scale);
    // The large paper table (64 MB/S) with a quarter-table write buffer:
    // flushes are frequent and short while majors are long, so a single
    // background lane is usually mid-major when the next flush arrives
    // and the L0 triggers — the thing the sweep measures — engage.
    opts.db.write_buffer_size = (opts.db.table_size / 4).max(16 << 10);
    // Tight L0 triggers (scaled-down trees hold far fewer L0 files than
    // the paper's full-size runs): the slowdown/stop machinery — and with
    // it the lane-admission policy — engages within a single burst.
    opts.db.l0_compaction_trigger = 4;
    opts.db.l0_slowdown_trigger = 6;
    opts.db.l0_stop_trigger = 8;
    opts.db.compaction_lanes = lanes;
    opts
}

/// The bursty fill (also the `compact` smoke scenario's workload):
/// `ops` single-record batches, one pump per operation so each write's
/// latency is the clock delta across its enqueue + commit (including
/// any slowdown or stall the `L0` triggers impose), then drain and let
/// the background settle. Returns the fill's virtual duration (open to
/// drain) and every write's latency in nanoseconds.
pub fn bursty_fill(store: &mut Store, wopts: &WriteOptions, ops: u64) -> (Nanos, Vec<u64>) {
    // Exclude the per-shard open/recovery cost from the fill measurement.
    let started = store.clock().now();
    let mut keys = KeyStream::new(KEYSPACE);
    let mut latencies = Vec::with_capacity(ops as usize);
    for op in 0..ops {
        if op > 0 && op % BURST_OPS == 0 {
            // Think time between bursts: background lanes keep working
            // while the foreground is quiet.
            store.clock().advance(IDLE_GAP);
            store.tick().expect("tick");
        }
        let batch = sweep::put_batch(keys.draw(), 8, VALUE);
        let t0 = store.clock().now();
        store.enqueue(wopts, &batch);
        store.pump().expect("pump");
        latencies.push((store.clock().now() - t0).as_nanos());
    }
    let elapsed = store.drain().expect("drain") - started;
    store.wait_idle().expect("wait idle");
    (elapsed, latencies)
}

/// FNV-1a over the store's full logical contents, keys and values
/// length-delimited so row boundaries cannot alias.
fn content_hash(store: &mut Store) -> u64 {
    let result = store
        .scan(&noblsm::ReadOptions::default(), &ScanOptions::all())
        .expect("full content scan");
    let mut image = Vec::new();
    for field in result.rows.iter().flat_map(|(k, v)| [k, v]) {
        image.extend_from_slice(&(field.len() as u64).to_le_bytes());
        image.extend_from_slice(field);
    }
    nob_sim::fnv1a(&image)
}

fn run_cell(point: &[u64], scale: Scale) -> Row {
    let [discipline, shards, lanes] = *point else { unreachable!("three axes") };
    let (name, variant, wopts) = disciplines()[discipline as usize];
    let opts = lane_store_options(variant, shards as usize, lanes as usize, scale);
    let mut store = Store::open(opts).expect("open store");
    let (elapsed, mut latencies) = bursty_fill(&mut store, &wopts, OPS);
    let mut stall = 0u128;
    let mut majors = 0u64;
    let mut preempt_l0 = 0u64;
    for i in 0..store.shards() {
        let s = store.shard_db(i).stats();
        stall += u128::from(s.stall_time.as_nanos());
        majors += s.major_compactions;
        preempt_l0 += s.l0_preempts;
    }
    let shard_time = u128::from(elapsed.as_nanos()) * u128::from(shards);
    vec![
        ("name", name.into()),
        ("shards", shards.into()),
        ("lanes", lanes.into()),
        ("ops", OPS.into()),
        ("throughput_ops_s", Json::fixed(OPS as f64 / elapsed.as_secs_f64(), 3)),
        ("p99_write_ns", Json::from(sweep::quantile_ns(&mut latencies, 99))),
        // Foreground stall time as a share of shard-time
        // (`Σ stall_time / (elapsed × shards)`).
        (
            "stall_share",
            Json::fixed(if shard_time == 0 { 0.0 } else { stall as f64 / shard_time as f64 }, 6),
        ),
        ("majors", majors.into()),
        // Lane-scheduler preemptions toward `L0`→`L1` work.
        ("preempt_l0", preempt_l0.into()),
        // Hash of the final logical contents; must be identical across
        // lane counts within a (discipline, shards) pair.
        ("content_hash", format!("{:016x}", content_hash(&mut store)).into()),
    ]
}

/// One grid per write discipline (shards down, compaction lanes
/// across), each cell showing foreground stall-time share and p99 write
/// latency — the lane scheduler's acceptance pair.
fn tables(cells: &[Json]) -> Option<Vec<Pivot>> {
    let mut tables: Vec<Pivot> = Vec::new();
    for c in cells {
        let name = c.text("name")?;
        let known = tables.iter().position(|t| t.heading.as_deref() == Some(name));
        let table = known.unwrap_or_else(|| {
            tables.push(Pivot::new("shards").headed(name));
            tables.len() - 1
        });
        tables[table].push(
            &c.num("shards")?.to_string(),
            &format!("{} lane(s)", c.num("lanes")?),
            format!("{:.4} / {:.0}", c.num("stall_share")?, c.num("p99_write_ns")?),
        );
    }
    Some(tables)
}

/// A trailing note: whether final contents hashed identically across
/// the grid.
fn footer(cells: &[Json]) -> Option<String> {
    let mut hashes: Vec<&str> =
        cells.iter().map(|c| c.text("content_hash")).collect::<Option<_>>()?;
    hashes.sort_unstable();
    hashes.dedup();
    Some(format!(
        "*final LSM contents: {} distinct hash(es) across the grid — lane count never changes \
         what the tree holds*\n\n",
        hashes.len()
    ))
}

fn invariants(g: &Grid<'_>) {
    let lanes = g.axis(2);
    for &d in g.axis(0) {
        // The acceptance property: at 4 shards, stall-time share and p99
        // write latency are monotone non-increasing from 1→2→4 lanes.
        for key in ["stall_share", "p99_write_ns"] {
            let by_lanes: Vec<f64> = lanes.iter().map(|&l| g.num(&[d, 4, l], key)).collect();
            assert!(
                by_lanes.windows(2).all(|w| w[1] <= w[0]),
                "discipline {d}: {key} must not rise with lanes at 4 shards: {by_lanes:?}"
            );
        }
        // Determinism under virtual time: multi-lane scheduling changes
        // when compactions run, never what the tree contains.
        for &shards in g.axis(1) {
            let hash = |l: u64| g.at(&[d, shards, l]).text("content_hash").map(str::to_string);
            for &l in &lanes[1..] {
                assert_eq!(
                    hash(l),
                    hash(lanes[0]),
                    "discipline {d} × {shards} shards: {l}-lane contents diverged from 1-lane"
                );
            }
        }
    }
    // The figure must not be vacuous: some single-lane cell actually
    // stalls, so the lanes have backlog to relieve.
    let single = g.cells().iter().filter(|c| c.num("lanes") == Some(1.0));
    assert!(
        single.clone().any(|c| c.num("stall_share") > Some(0.0)),
        "no single-lane cell stalled; the workload is too gentle"
    );
    let majors: f64 = g.cells().iter().filter_map(|c| c.num("majors")).sum();
    assert!(majors > 0.0, "the sweep must exercise major compactions");
}
