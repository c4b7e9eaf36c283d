//! The `fig_scan` experiment: snapshot-pinned cross-shard range scans
//! through [`Store::scan`], swept over range length × shard count under
//! the three write disciplines (Sync, Async, NobLSM).
//!
//! The sweep shows the payoff of the store's scatter/merge scan: each
//! shard serves its slice of the range from its own SSD + Ext4 stack,
//! and the scan's virtual wall time is the *slowest shard's* share, not
//! the sum — so splitting a range over more shards shortens it. Short
//! ranges are where the claim is sharpest (a handful of blocks per
//! shard, so the division is visible over the fixed seek cost), hence
//! the acceptance assertion that short-range scan throughput climbs
//! monotonically with shard count.
//!
//! Everything runs on one shared virtual clock per store, so the grid is
//! bit-for-bit deterministic and golden-pinned.

use nob_sim::json::Json;
use nob_sim::{Nanos, SharedClock};
use nob_store::Store;
use noblsm::{ReadOptions, ScanOptions, WriteBatch};

use crate::output::Pivot;
use crate::shards::{disciplines, store_options};
use crate::sweep::{self, Axis, Grid, KeyStream, Row, Sweep, DISCIPLINES};
use crate::Scale;

/// Fixed keyspace: every cell loads the same `KEYS` dense sequential
/// keys with `VALUE`-byte values, flushes them table-resident, then
/// scans the same seed-42 LCG start positions — only the partitioning
/// (shard count) and the range length differ.
const KEYS: u64 = 2_048;
const VALUE: usize = 1_024;
/// Scans per cell; throughput averages over all of them.
const SCANS: u64 = 32;

/// The sweep: discipline × range length (rows per scan) × shard count.
pub const SWEEP: Sweep = Sweep {
    figure: "fig_scan",
    title: "snapshot-pinned cross-shard scans",
    cells_key: "scan_cells",
    header: &[("keys", KEYS), ("scans", SCANS)],
    golden_scale: 512,
    axes: &[
        DISCIPLINES,
        Axis { name: "range", values: &[16, 128, 512] },
        Axis { name: "shards", values: &[1, 2, 4] },
    ],
    run_cell,
    note: "{scans} range scans per cell over a dense {keys}-key space; throughput in rows/s \
           through the store's k-way shard merge",
    tables,
    footer: sweep::no_footer,
    invariants,
};

/// Record `i` of the dense keyspace the scan workloads load.
pub fn dense_record(i: u64, value_len: usize) -> (Vec<u8>, Vec<u8>) {
    sweep::record(i, 6, value_len)
}

/// Flushes every shard's memtable so scans pay real block reads.
pub fn flush_shards(store: &mut Store) {
    for i in 0..store.shards() {
        store.shard_db_mut(i).flush().expect("flush shard");
    }
}

/// Times `scans` range scans of `range` rows each, from LCG start
/// positions over a dense `keys`-record space, through `scan(start,
/// end)` (which returns the rows it saw). Returns total rows and the
/// virtual time they took. The store sweep scans the store directly;
/// the `scan` smoke scenario drives the same ranges over the wire.
pub fn timed_scans(
    clock: &SharedClock,
    keys: u64,
    range: u64,
    scans: u64,
    mut scan: impl FnMut(&[u8], &[u8]) -> u64,
) -> (u64, Nanos) {
    let started = clock.now();
    let mut rows = 0u64;
    let mut starts = KeyStream::new(keys - range);
    for _ in 0..scans {
        let idx = starts.draw();
        rows += scan(&sweep::key(idx, 6), &sweep::key(idx + range, 6));
    }
    (rows, clock.now() - started)
}

/// Runs one cell: load the dense keyspace, flush every shard's memtable
/// so scans pay real block reads, then time `SCANS` snapshot-pinned
/// range scans of `range` rows each from LCG start positions.
fn run_cell(point: &[u64], scale: Scale) -> Row {
    let [discipline, range, shards] = *point else { unreachable!("three axes") };
    let (name, variant, wopts) = disciplines()[discipline as usize];
    let mut store =
        Store::open(store_options(variant, shards as usize, scale)).expect("open store");
    for i in 0..KEYS {
        let (key, value) = dense_record(i, VALUE);
        let mut batch = WriteBatch::new();
        batch.put(&key, &value);
        store.enqueue(&wopts, &batch);
        if i % 32 == 31 {
            store.pump().expect("pump");
        }
    }
    store.drain().expect("drain");
    flush_shards(&mut store);
    let clock = store.clock().clone();
    let (rows, elapsed) = timed_scans(&clock, KEYS, range, SCANS, |start, end| {
        let r = store
            .scan(&ReadOptions::default(), &ScanOptions::range(start, end))
            .expect("store scan");
        assert_eq!(r.count, range, "dense keyspace: every range is fully populated");
        r.count
    });
    vec![
        // The discipline the keyspace was loaded under shapes the tree
        // the scans then read.
        ("name", name.into()),
        ("shards", shards.into()),
        ("range", range.into()),
        ("scans", SCANS.into()),
        ("rows", rows.into()),
        ("throughput_rows_s", Json::fixed(rows as f64 / elapsed.as_secs_f64(), 3)),
    ]
}

/// One scan-throughput grid (range × shards down, disciplines across):
/// rows/s through the store's snapshot-pinned cross-shard merge.
fn tables(cells: &[Json]) -> Option<Vec<Pivot>> {
    sweep::pivot(cells, "range × shards", |c| {
        Some((
            format!("{} × {}", c.num("range")?, c.num("shards")?),
            c.text("name")?.to_string(),
            format!("{:.0}", c.num("throughput_rows_s")?),
        ))
    })
}

fn invariants(g: &Grid<'_>) {
    let short = g.axis(1)[0];
    for &d in g.axis(0) {
        // Short ranges are where scatter/merge pays most visibly.
        let by_shards: Vec<f64> =
            g.axis(2).iter().map(|&s| g.num(&[d, short, s], "throughput_rows_s")).collect();
        assert!(
            by_shards.windows(2).all(|w| w[0] <= w[1]),
            "discipline {d}: short-range scan throughput must be monotone in shards: {by_shards:?}"
        );
    }
    for c in g.cells() {
        let full = c.num("scans").zip(c.num("range")).map(|(s, r)| s * r);
        assert_eq!(c.num("rows"), full, "no torn or truncated scans: {c:?}");
        assert!(c.num("throughput_rows_s").is_some_and(|t| t.is_finite() && t > 0.0), "{c:?}");
    }
}
