//! The `fig_shards` experiment: sharded fillrandom through `nob-store`'s
//! group-commit queue, swept over shard count × logical writers per shard
//! under the three write disciplines (Sync, Async, NobLSM).
//!
//! The sweep shows two things on one fixed-seed grid:
//!
//! 1. **Group commit amortizes sync cost.** Under Sync every WAL write
//!    fsyncs; with W writers feeding a shard's queue the leader coalesces
//!    ~W batches into one engine write, so the per-operation FLUSH cost
//!    drops roughly W-fold — aggregate throughput climbs monotonically
//!    from 1→4 writers per shard.
//! 2. **NobLSM keeps its ordering at every shard count.** NobLSM beats
//!    stock LevelDB's default discipline (Async: buffered WAL writes,
//!    but every compaction output still fsynced) which in turn beats the
//!    fully durable Sync discipline, whether the keyspace lives on one
//!    engine or is hash-partitioned over four.
//!
//! 3. **Shards add devices, and devices add throughput.** Each shard owns
//!    its SSD, and a scheduler round commits its shards' groups side by
//!    side, so at a fixed writer count per shard Sync throughput rises
//!    with the shard count. The buffered disciplines rise too, for a
//!    different reason — the per-call CPU constant is overlapped across
//!    shards as if each had a core of its own (DESIGN §4) — which says
//!    nothing about NobLSM.
//!
//! Everything runs on one shared virtual clock per store, so the grid is
//! bit-for-bit deterministic and golden-pinned.

use nob_baselines::Variant;
use nob_sim::json::Json;
use nob_store::{Store, StoreOptions};
use noblsm::WriteOptions;

use crate::output::Pivot;
use crate::sweep::{self, Axis, Grid, KeyStream, Row, Sweep, ASYNC, DISCIPLINES, NOBLSM, SYNC};
use crate::Scale;

/// Fixed workload shape: every cell writes the same `OPS` keys from the
/// same seed-42 LCG stream, in the same order — only the queueing
/// (shards × writers) differs. `OPS` is divisible by every lane count in
/// the sweep (1·1 … 4·4) so no cell rounds its op count.
const OPS: u64 = 2_400;
const VALUE: usize = 256;
const KEYSPACE: u64 = 100_000;

/// The sweep: discipline × shard count × logical writers per shard.
pub const SWEEP: Sweep = Sweep {
    figure: "fig_shards",
    title: "sharded group commit",
    cells_key: "shard_cells",
    header: &[("ops", OPS)],
    golden_scale: 512,
    axes: &[
        DISCIPLINES,
        Axis { name: "shards", values: &[1, 2, 4] },
        Axis { name: "writers", values: &[1, 2, 4] },
    ],
    run_cell,
    note: "{ops} fillrandom ops per cell; throughput in ops/s, `batches/groups` is the \
           coalescing factor",
    tables,
    footer: sweep::no_footer,
    invariants,
};

/// The three write disciplines of the sweep, as (label, engine variant,
/// per-batch options):
///
/// - `Sync`: LevelDB engine, WAL fsynced on every group — the fully
///   durable discipline whose FLUSH cost group commit amortizes.
/// - `Async`: the same LevelDB engine with db_bench's default buffered
///   writes — compaction outputs are still fsynced (LevelDB always syncs
///   new SSTables regardless of write options), only the WAL is not.
/// - `NobLSM`: buffered writes on the NobLSM engine — L0 synced once at
///   minor compaction, majors ride Ext4's asynchronous commits.
pub fn disciplines() -> [(&'static str, Variant, WriteOptions); 3] {
    [
        ("Sync", Variant::LevelDb, WriteOptions::synced()),
        ("Async", Variant::LevelDb, WriteOptions::buffered()),
        ("NobLSM", Variant::NobLsm, WriteOptions::buffered()),
    ]
}

/// The store every discipline sweep opens: `shards` hash partitions of
/// the discipline's engine at the paper's large table size.
pub fn store_options(variant: Variant, shards: usize, scale: Scale) -> StoreOptions {
    StoreOptions {
        shards,
        fs: scale.fs_config(),
        db: variant.options(&scale.base_options(crate::PAPER_TABLE_LARGE)),
        ..StoreOptions::default()
    }
}

/// Runs one cell: `shards × writers` logical writers each enqueue one
/// single-record batch per round, then the round-robin pump commits one
/// coalesced group per shard; repeat until `OPS` operations are in.
fn run_cell(point: &[u64], scale: Scale) -> Row {
    let [discipline, shards, writers] = *point else { unreachable!("three axes") };
    let (name, variant, wopts) = disciplines()[discipline as usize];
    let mut store =
        Store::open(store_options(variant, shards as usize, scale)).expect("open store");
    let lanes = shards * writers;
    let rounds = OPS / lanes;
    assert_eq!(rounds * lanes, OPS, "sweep shape must divide the op count");
    // Exclude the per-shard open/recovery cost from the fill measurement.
    let started = store.clock().now();
    let mut keys = KeyStream::new(KEYSPACE);
    for _ in 0..rounds {
        for _ in 0..lanes {
            store.enqueue(&wopts, &sweep::put_batch(keys.draw(), 8, VALUE));
        }
        store.pump().expect("pump");
    }
    let elapsed = store.drain().expect("drain") - started;
    let stats = store.stats();
    vec![
        ("name", name.into()),
        ("shards", shards.into()),
        ("writers", writers.into()),
        ("ops", OPS.into()),
        ("throughput_ops_s", Json::fixed(OPS as f64 / elapsed.as_secs_f64(), 3)),
        // Coalesced groups committed (engine writes issued) and writer
        // batches retired; `batches / groups` is the amortization.
        ("groups", stats.groups.into()),
        ("batches", stats.batches.into()),
    ]
}

/// One throughput grid (shards × writers down, disciplines across) with
/// the amortization ratio the group-commit queue achieved.
fn tables(cells: &[Json]) -> Option<Vec<Pivot>> {
    sweep::pivot(cells, "shards × writers", |c| {
        Some((
            format!("{} × {}", c.num("shards")?, c.num("writers")?),
            c.text("name")?.to_string(),
            format!("{:.0} ({:.1}×)", c.num("throughput_ops_s")?, sweep::coalescing(c)?),
        ))
    })
}

fn invariants(g: &Grid<'_>) {
    let throughput = |p: &[u64]| g.num(p, "throughput_ops_s");
    for &shards in g.axis(1) {
        // Group commit amortizes Sync's per-group FLUSH monotonically.
        let by_writers: Vec<f64> =
            g.axis(2).iter().map(|&w| throughput(&[SYNC, shards, w])).collect();
        assert!(
            by_writers.windows(2).all(|w| w[0] < w[1]),
            "Sync throughput must climb with writers at {shards} shards: {by_writers:?}"
        );
        for &writers in g.axis(2) {
            let t = [SYNC, ASYNC, NOBLSM].map(|d| throughput(&[d, shards, writers]));
            assert!(
                t[2] >= t[1] && t[1] >= t[0],
                "NobLSM >= Async >= Sync must hold at {shards}x{writers}: {t:?}"
            );
        }
    }
    // Shards commit side by side, each on its own device: four of them
    // must buy Sync well over twice what one does (in series they bought
    // about a fifth more).
    for &writers in g.axis(2) {
        let (one, four) = (throughput(&[SYNC, 1, writers]), throughput(&[SYNC, 4, writers]));
        assert!(four > 2.0 * one, "4 shards x {writers} writers: {four} vs {one} on one shard");
    }
    // Coalescing matches the writer count: one writer cannot coalesce,
    // four must, and the workload is the same either way.
    let (lone, four) = ([SYNC, 1, 1], [SYNC, 1, 4]);
    assert_eq!(g.num(&lone, "groups"), g.num(&lone, "batches"), "one writer cannot coalesce");
    assert!(
        g.num(&four, "groups") * 3.0 <= g.num(&four, "batches"),
        "four writers must coalesce substantially"
    );
    assert_eq!(g.num(&lone, "batches"), g.num(&four, "batches"), "same workload either way");
}
