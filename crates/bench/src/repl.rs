//! The `fig_repl` experiment: WAL-shipping replication lag and
//! follower-read throughput, swept over shard count × write burst (the
//! number of leader writes between follower poll rounds).
//!
//! The sweep shows the replication cost model on one fixed-seed grid:
//!
//! 1. **Lag tracks the shipping cadence, not the write rate.** With a
//!    burst of 1 the follower acknowledges every group almost as it
//!    commits; at a burst of 16 the oldest record in each round has
//!    waited sixteen commits before it ships, so commit→ack lag grows
//!    roughly linearly with the burst.
//! 2. **Follower reads scale with shards and are lag-independent.** The
//!    read phase runs after catch-up against the follower's own engines,
//!    so its throughput depends on the store shape alone.
//!
//! Leader and follower share one virtual clock (the follower applies via
//! the loopback transport), so the grid is bit-for-bit deterministic and
//! golden-pinned.

use nob_baselines::Variant;
use nob_repl::{shared, Follower, FollowerLink, Leader, ReplCore, ReplLoopback};
use nob_sim::json::Json;
use nob_sim::SharedClock;
use nob_store::{Store, StoreOptions};
use nob_trace::TraceSink;
use noblsm::WriteOptions;

use crate::output::Pivot;
use crate::report::fmt_ns;
use crate::shards::store_options;
use crate::sweep::{self, Axis, Grid, KeyStream, Row, Sweep};
use crate::Scale;

/// Fixed workload shape: every cell replicates the same `OPS` keys from
/// the same seed-42 LCG stream; only shards × burst differ. `OPS` is
/// divisible by every burst in the sweep so no cell rounds a cycle.
const OPS: u64 = 1_600;
/// Follower point reads in the measured read phase.
const READS: u64 = 800;
const VALUE: usize = 128;
const KEYSPACE: u64 = 50_000;

/// The sweep: shard count × leader writes between follower poll rounds.
pub const SWEEP: Sweep = Sweep {
    figure: "fig_repl",
    title: "WAL-shipping replication",
    cells_key: "repl_cells",
    header: &[("ops", OPS)],
    golden_scale: 512,
    axes: &[
        Axis { name: "shards", values: &[1, 2, 4] },
        Axis { name: "burst", values: &[1, 4, 16] },
    ],
    run_cell,
    note: "{ops} leader writes per cell, shipped to a loopback follower in bursts; lag is \
           commit → follower ack on the leader clock, reads are follower point lookups after \
           catch-up",
    tables,
    footer: sweep::no_footer,
    invariants,
};

/// What one replication run measured.
#[derive(Debug, Clone, Copy)]
pub struct ReplRun {
    /// Change-log records the follower applied and acked.
    pub records: u64,
    /// Mean commit→ack replication lag over poll rounds, integer ns.
    pub mean_lag_ns: u64,
    /// Worst commit→ack replication lag observed, integer ns.
    pub max_lag_ns: u64,
    /// Worst follower staleness observed right before a poll round.
    pub max_staleness_ns: u64,
    /// Follower read throughput in ops per virtual second.
    pub read_throughput: f64,
}

/// The replication workload (also the `repl_follower` smoke scenario,
/// which passes a trace sink): the leader commits `burst` single-record
/// batches, the follower polls to idle (apply + ack) and the round's
/// lag is sampled; repeat until `ops` writes are in, then time `reads`
/// follower reads.
pub fn replicate(
    opts: StoreOptions,
    burst: u64,
    ops: u64,
    reads: u64,
    sink: Option<&TraceSink>,
) -> ReplRun {
    let shards = opts.shards;
    let clock = SharedClock::new();
    let leader_store = Store::open_with_clock(opts.clone(), clock.clone()).expect("open leader");
    let follower_store = Store::open_with_clock(opts, clock.clone()).expect("open follower");
    let mut leader = Leader::new(leader_store, 1);
    let mut follower = Follower::new(follower_store, 1);
    if let Some(sink) = sink {
        leader.set_trace_sink(sink.clone());
        follower.set_trace_sink(sink.clone());
    }
    let core = shared(ReplCore::new(leader));
    let mut link = FollowerLink::new(ReplLoopback::connect(&core), follower);
    link.subscribe().expect("subscribe");

    let mut keys = KeyStream::new(KEYSPACE);
    let rounds = ops / burst;
    assert_eq!(rounds * burst, ops, "sweep shape must divide the op count");
    let (mut lag_sum, mut lag_max, mut stale_max) = (0u64, 0u64, 0u64);
    for _ in 0..rounds {
        for _ in 0..burst {
            let batch = sweep::put_batch(keys.draw(), 8, VALUE);
            core.borrow_mut()
                .leader_mut()
                .write(&WriteOptions::default(), batch)
                .expect("leader write");
        }
        link.poll_until_idle().expect("poll");
        let stale = (0..shards).map(|s| link.follower().staleness(s).as_nanos()).max();
        stale_max = stale_max.max(stale.unwrap_or(0));
        let lag = core.borrow().leader().replication_lag().as_nanos();
        lag_sum += lag;
        lag_max = lag_max.max(lag);
    }
    let records = core.borrow().leader().acked_seqs().iter().sum::<u64>();

    // The measured read phase: the follower serves point lookups against
    // its own engines on the shared clock.
    let started = clock.now();
    let mut keys = KeyStream::new(KEYSPACE);
    for _ in 0..reads {
        link.get(&sweep::key(keys.draw(), 8), None).expect("follower read");
    }
    let elapsed = clock.now() - started;
    ReplRun {
        records,
        mean_lag_ns: lag_sum / rounds,
        max_lag_ns: lag_max,
        max_staleness_ns: stale_max,
        read_throughput: reads as f64 / elapsed.as_secs_f64(),
    }
}

fn run_cell(point: &[u64], scale: Scale) -> Row {
    let [shards, burst] = *point else { unreachable!("two axes") };
    // Both sides run the stock engine (LevelDB's sync discipline).
    let opts = store_options(Variant::LevelDb, shards as usize, scale);
    let run = replicate(opts, burst, OPS, READS, None);
    vec![
        ("shards", shards.into()),
        ("burst", burst.into()),
        ("ops", OPS.into()),
        ("records", run.records.into()),
        ("mean_lag_ns", run.mean_lag_ns.into()),
        ("max_lag_ns", run.max_lag_ns.into()),
        ("max_staleness_ns", run.max_staleness_ns.into()),
        ("reads", READS.into()),
        ("read_throughput_ops_s", Json::fixed(run.read_throughput, 3)),
    ]
}

/// One shards-by-burst table of commit→ack lag and follower-read
/// throughput.
fn tables(cells: &[Json]) -> Option<Vec<Pivot>> {
    let mut table = Pivot::new("shards × burst");
    for c in cells {
        let row = format!("{} × {}", c.num("shards")?, c.num("burst")?);
        for (col, key) in [
            ("mean lag", "mean_lag_ns"),
            ("max lag", "max_lag_ns"),
            ("max staleness", "max_staleness_ns"),
        ] {
            table.push(&row, col, fmt_ns(c.num(key)?));
        }
        table.push(&row, "follower reads/s", format!("{:.0}", c.num("read_throughput_ops_s")?));
    }
    Some(vec![table])
}

fn invariants(g: &Grid<'_>) {
    for c in g.cells() {
        assert_eq!(c.num("records"), Some(OPS as f64), "every cell must ack all writes: {c:?}");
        assert!(c.num("read_throughput_ops_s") > Some(0.0));
    }
    for &shards in g.axis(0) {
        let (tight, coarse) =
            (g.num(&[shards, 1], "max_lag_ns"), g.num(&[shards, 16], "max_lag_ns"));
        assert!(
            coarse > tight,
            "burst 16 must lag more than burst 1 at {shards} shards: {coarse} vs {tight}"
        );
    }
}
