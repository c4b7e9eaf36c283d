//! The `fig_server` experiment: a closed-loop multi-client load generator
//! driving `nob-server`'s deterministic loopback transport, swept over
//! client count under the three write disciplines (Sync, Async, NobLSM).
//!
//! Every client is a real [`nob_server::Client`] speaking the wire
//! protocol over [`nob_server::LoopbackTransport`] — frames are encoded,
//! decoded and admission-controlled exactly as over TCP, but the whole
//! stack shares one virtual clock, so the sweep is bit-for-bit
//! deterministic and golden-pinned.
//!
//! The sweep shows the serving layer preserving both store-level results
//! end to end:
//!
//! 1. **Group commit survives the wire.** N clients pipelining into the
//!    engine thread coalesce into per-shard groups, so Sync's per-op
//!    FLUSH cost falls as the client count grows.
//! 2. **NobLSM keeps its ordering through the server.** At every client
//!    count, NobLSM ≥ Async ≥ Sync aggregate throughput, same as the
//!    paper's single-process runs.

use nob_server::{shared, Client, LoopbackTransport, Request, ServerCore, ServerOptions};
use nob_sim::json::Json;

use crate::output::Pivot;
use crate::shards::{disciplines, store_options};
use crate::sweep::{self, Axis, Grid, KeyStream, Row, Sweep, ASYNC, DISCIPLINES, NOBLSM, SYNC};
use crate::Scale;

/// Fixed workload shape: every cell issues the same `OPS` SET requests
/// from the same seed-42 LCG stream (plus a read round every
/// `READ_EVERY` rounds); only the client count differs. `OPS` is
/// divisible by every client count in the sweep.
const OPS: u64 = 2_400;
const VALUE: usize = 256;
const KEYSPACE: u64 = 100_000;
/// Every this-many rounds, each client chases its SET with a pipelined
/// GET of the key it just wrote (and checks the value round-trips).
const READ_EVERY: u64 = 8;
/// Hash-partitioned shards behind the server in every cell.
const SHARDS: usize = 2;

/// The sweep: discipline × concurrent pipelining clients. Reuses the
/// store sweep's discipline triple so the two figures stay comparable.
pub const SWEEP: Sweep = Sweep {
    figure: "fig_server",
    title: "pipelined network serving",
    cells_key: "server_cells",
    header: &[("ops", OPS), ("shards", SHARDS as u64)],
    golden_scale: 512,
    axes: &[DISCIPLINES, Axis { name: "clients", values: &[1, 2, 4, 8] }],
    run_cell,
    note: "{ops} SET requests per cell over {shards} shards via the loopback wire protocol; \
           throughput in requests/s, latency is send → durable reply, `batches/groups` is the \
           coalescing factor",
    tables,
    footer: sweep::no_footer,
    invariants,
};

/// Runs one cell: `clients` loopback connections each pipeline one SET
/// per round; the first reply pull flushes the round's writes as one
/// group-commit drain, so every client's write in a round shares the
/// sync cost. A GET round every `READ_EVERY` rounds exercises the
/// read barrier under the same clock.
fn run_cell(point: &[u64], scale: Scale) -> Row {
    let [discipline, clients] = *point else { unreachable!("two axes") };
    let (name, variant, wopts) = disciplines()[discipline as usize];
    let opts = ServerOptions {
        store: store_options(variant, SHARDS, scale),
        write: wopts,
        ..ServerOptions::default()
    };
    let core = shared(ServerCore::open(opts).expect("open server core"));
    let clock = core.borrow().clock().clone();
    let mut conns: Vec<Client<LoopbackTransport>> =
        (0..clients).map(|_| Client::new(LoopbackTransport::connect(&core))).collect();

    let rounds = OPS / clients;
    assert_eq!(rounds * clients, OPS, "sweep shape must divide the op count");
    let started = clock.now();
    let mut latencies = Vec::with_capacity(OPS as usize);
    let mut stream = KeyStream::new(KEYSPACE);
    for round in 0..rounds {
        let sent_at = clock.now();
        let mut keys = Vec::with_capacity(conns.len());
        for c in conns.iter_mut() {
            let (key, value) = sweep::record(stream.draw(), 8, VALUE);
            c.send(&Request::Set(key.clone(), value)).expect("pipeline SET");
            if round % READ_EVERY == READ_EVERY - 1 {
                c.send(&Request::Get(key.clone())).expect("pipeline GET");
            }
            keys.push(key);
        }
        // Pulling the first reply flushes the whole round through the
        // group-commit queue; every SET in the round lands in that drain.
        for (c, key) in conns.iter_mut().zip(&keys) {
            let reply = c.recv_reply().expect("SET reply");
            assert!(!reply.is_error(), "SET must succeed: {reply:?}");
            if round % READ_EVERY == READ_EVERY - 1 {
                match c.recv_reply().expect("GET reply") {
                    nob_server::Frame::Bulk(v) => {
                        assert!(v.starts_with(b"val"), "GET returns the written value")
                    }
                    other => panic!("GET must hit the just-written key {key:?}, got {other:?}"),
                }
            }
        }
        let durable = clock.now();
        latencies.extend((0..clients).map(|_| (durable - sent_at).as_nanos()));
    }
    let elapsed = clock.now() - started;
    let stats = core.borrow().store().stats();
    vec![
        ("name", name.into()),
        ("clients", clients.into()),
        ("ops", OPS.into()),
        ("throughput_ops_s", Json::fixed(OPS as f64 / elapsed.as_secs_f64(), 3)),
        // SET latency, send → durable reply: the nearest-rank sample of
        // every client's latency in every round.
        ("p50_us", Json::fixed(sweep::quantile_ns(&mut latencies, 50) as f64 / 1e3, 3)),
        ("p99_us", Json::fixed(sweep::quantile_ns(&mut latencies, 99) as f64 / 1e3, 3)),
        ("groups", stats.groups.into()),
        ("batches", stats.batches.into()),
    ]
}

/// One clients-by-discipline grid of throughput, tail latency and the
/// group-commit coalescing factor measured through the wire protocol.
fn tables(cells: &[Json]) -> Option<Vec<Pivot>> {
    sweep::pivot(cells, "clients", |c| {
        Some((
            c.num("clients")?.to_string(),
            format!("{} ops/s (p99)", c.text("name")?),
            format!(
                "{:.0} ({:.0}us, {:.1}×)",
                c.num("throughput_ops_s")?,
                c.num("p99_us")?,
                sweep::coalescing(c)?
            ),
        ))
    })
}

fn invariants(g: &Grid<'_>) {
    for &clients in g.axis(1) {
        let t = [SYNC, ASYNC, NOBLSM].map(|d| g.num(&[d, clients], "throughput_ops_s"));
        assert!(
            t[2] >= t[1] && t[1] >= t[0],
            "NobLSM >= Async >= Sync must hold at {clients} clients: {t:?}"
        );
    }
    let (lone, eight) = ([SYNC, 1], [SYNC, 8]);
    assert!(
        g.num(&eight, "throughput_ops_s") > g.num(&lone, "throughput_ops_s"),
        "pipelined clients must amortize Sync's flush cost"
    );
    assert_eq!(g.num(&lone, "batches"), g.num(&eight, "batches"), "same SET count either way");
    // Two shards and a read-barrier flush every READ_EVERY rounds cap
    // the factor below the store-only sweep's; ≥2× still demonstrates
    // group commit working through the wire.
    assert!(
        g.num(&eight, "groups") * 2.0 <= g.num(&eight, "batches"),
        "eight pipelining clients must coalesce substantially"
    );
    assert!(g.num(&eight, "groups") < g.num(&lone, "groups"), "more clients, fewer engine writes");
}
