//! Workspace-level serving-stack integration: pipelined clients over the
//! deterministic in-process loopback transport, through the wire
//! protocol, admission control and the sharded group-commit store, down
//! to the engines — all on one virtual clock.
//!
//! Pins the acceptance ordering end to end: with N pipelined clients the
//! NobLSM discipline serves at least as fast as Async, which serves at
//! least as fast as fully-synced Sync; and the whole run is bit-for-bit
//! reproducible.

use nob_baselines::Variant;
use nob_server::{
    is_busy_error, shared, Client, Frame, LoopbackTransport, Request, ServerCore, ServerOptions,
    TcpServer, TcpTransport,
};
use nob_store::StoreOptions;
use noblsm::WriteOptions;

const CLIENTS: usize = 4;
const ROUNDS: u64 = 200;

/// Runs a fixed pipelined workload and returns (elapsed virtual nanos,
/// groups, batches) plus a value-correctness spot check.
fn run_discipline(variant: Variant, wopts: WriteOptions) -> (u64, u64, u64) {
    let mut db = noblsm::Options::default().with_table_size(64 << 10);
    db.level1_max_bytes = 256 << 10;
    db = variant.options(&db);
    let opts = ServerOptions {
        store: StoreOptions { shards: 2, db, ..StoreOptions::default() },
        write: wopts,
        ..ServerOptions::default()
    };
    let core = shared(ServerCore::open(opts).expect("open server core"));
    let clock = core.borrow().clock().clone();
    let mut conns: Vec<Client<LoopbackTransport>> =
        (0..CLIENTS).map(|_| Client::new(LoopbackTransport::connect(&core))).collect();

    let started = clock.now();
    for round in 0..ROUNDS {
        for (cid, c) in conns.iter_mut().enumerate() {
            let key = format!("c{cid}-r{round}").into_bytes();
            let value = format!("value-{cid}-{round}").into_bytes();
            c.send(&Request::Set(key, value)).expect("pipeline SET");
        }
        for c in conns.iter_mut() {
            assert_eq!(c.recv_reply().expect("SET reply"), Frame::ok());
        }
    }
    // Read-your-writes through the read barrier, on every connection.
    for (cid, c) in conns.iter_mut().enumerate() {
        let key = format!("c{cid}-r{}", ROUNDS - 1).into_bytes();
        let want = format!("value-{cid}-{}", ROUNDS - 1).into_bytes();
        assert_eq!(c.get(&key).expect("GET"), Some(want), "client {cid} reads its last write");
    }
    let elapsed = clock.now() - started;
    let stats = core.borrow().store().stats();
    (elapsed.as_nanos(), stats.groups, stats.batches)
}

#[test]
fn noblsm_serves_at_least_as_fast_as_async_which_beats_sync() {
    let (sync_ns, _, sync_batches) = run_discipline(Variant::LevelDb, WriteOptions::synced());
    let (async_ns, _, async_batches) = run_discipline(Variant::LevelDb, WriteOptions::buffered());
    let (nob_ns, _, nob_batches) = run_discipline(Variant::NobLsm, WriteOptions::buffered());
    // Identical request streams in every cell.
    assert_eq!(sync_batches, CLIENTS as u64 * ROUNDS);
    assert_eq!(sync_batches, async_batches);
    assert_eq!(sync_batches, nob_batches);
    // Same ops, so faster == less virtual time.
    assert!(
        nob_ns <= async_ns && async_ns < sync_ns,
        "NobLSM <= Async < Sync virtual time must hold: {nob_ns} {async_ns} {sync_ns}"
    );
}

#[test]
fn pipelined_clients_coalesce_into_groups() {
    let (_, groups, batches) = run_discipline(Variant::LevelDb, WriteOptions::synced());
    assert!(
        groups * 2 <= batches,
        "four pipelining clients must coalesce: {groups} groups for {batches} batches"
    );
}

#[test]
fn loopback_runs_are_bit_for_bit_reproducible() {
    let a = run_discipline(Variant::NobLsm, WriteOptions::buffered());
    let b = run_discipline(Variant::NobLsm, WriteOptions::buffered());
    assert_eq!(a, b, "same workload, same virtual timeline");
}

#[test]
fn scan_cursors_survive_interleaved_writes_across_connections() {
    let core = shared(
        ServerCore::open(ServerOptions {
            store: StoreOptions { shards: 3, ..StoreOptions::default() },
            max_scan_page: 8,
            ..ServerOptions::default()
        })
        .expect("open server core"),
    );
    let mut a = Client::new(LoopbackTransport::connect(&core));
    let mut b = Client::new(LoopbackTransport::connect(&core));
    for i in 0..60u32 {
        a.set(format!("key{i:02}").as_bytes(), b"seed").expect("seed");
    }
    let (cursor, first) = a.scan_page(b"", b"", 1_000).expect("open cursor");
    assert_eq!(first.len(), 8, "pages are clamped to max_scan_page");
    assert_ne!(cursor, 0, "sixty rows cannot fit one page");
    // Another connection rewrites the whole range and adds a key while
    // the cursor is live; the pinned snapshot must see none of it.
    for i in 0..60u32 {
        b.set(format!("key{i:02}").as_bytes(), b"mutated").expect("overwrite");
    }
    b.set(b"key99", b"mutated").expect("new key");
    // Cursors are server-wide leases, not per-connection state: resume
    // from the *other* pipelined connection.
    let mut rows = first;
    let mut cur = cursor;
    while cur != 0 {
        let (next, page) = b.scan_next(cur).expect("resume");
        rows.extend(page);
        cur = next;
    }
    assert_eq!(rows.len(), 60, "exactly the pinned keyspace, once");
    assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "globally sorted across shards");
    assert!(rows.iter().all(|(_, v)| v == b"seed"), "post-pin writes leaked into the cursor");
    // A fresh scan observes the mutated state.
    let fresh = a.scan_all(b"", b"", 1_000).expect("fresh scan");
    assert_eq!(fresh.len(), 61);
    assert!(fresh.iter().all(|(_, v)| v == b"mutated"));
}

#[test]
fn tcp_scan_cursor_resumes_and_cursor_cap_pushes_back_busy() {
    let server = TcpServer::bind(
        "127.0.0.1:0",
        ServerOptions {
            store: StoreOptions { shards: 2, ..StoreOptions::default() },
            max_scan_page: 16,
            max_cursors: 1,
            ..ServerOptions::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let mut a = Client::new(TcpTransport::connect(&addr).expect("connect"));
    let mut b = Client::new(TcpTransport::connect(&addr).expect("connect"));
    for i in 0..50u32 {
        a.set(format!("t{i:02}").as_bytes(), b"v").expect("seed");
    }
    let (cursor, first) = a.scan_page(b"", b"", 1_000).expect("open cursor");
    assert_eq!(first.len(), 16);
    assert_ne!(cursor, 0);
    // The cursor table is full: a second open gets explicit -BUSY.
    let err = b.scan_page(b"", b"", 1_000).expect_err("cursor cap must push back");
    assert!(is_busy_error(&err), "{err}");
    // The held cursor still resumes — from the other connection, even.
    let mut rows = first;
    let mut cur = cursor;
    while cur != 0 {
        let (next, page) = b.scan_next(cur).expect("resume over TCP");
        rows.extend(page);
        cur = next;
    }
    assert_eq!(rows.len(), 50, "every seeded row, once");
    assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "sorted across shards");
    // 50 rows by 16: three SCAN NEXT pages, and no shard changed version
    // under them, so each continued the iterators the cursor held.
    let info = b.info().expect("INFO");
    assert_eq!(info_counter(&info, "scan_resumes_held"), 3, "{info}");
    assert_eq!(info_counter(&info, "scan_resumes_rebuilt"), 0, "{info}");
    // Exhaustion released the lease: new scans are admitted again.
    let all = b.scan_all(b"", b"", 7).expect("scan after release");
    assert_eq!(all.len(), 50);
    server.shutdown().expect("graceful shutdown");
}

/// A counter of the INFO text.
fn info_counter(info: &str, name: &str) -> u64 {
    let value = info.lines().find_map(|l| l.strip_prefix(name)?.strip_prefix(':'));
    value.and_then(|v| v.parse().ok()).unwrap_or_else(|| panic!("INFO has no `{name}`: {info}"))
}

#[test]
fn a_cursor_carries_its_iterators_across_connections_and_frees_them_with_its_lease() {
    let core = shared(
        ServerCore::open(ServerOptions {
            store: StoreOptions { shards: 2, ..StoreOptions::default() },
            max_scan_page: 8,
            max_cursors: 1,
            ..ServerOptions::default()
        })
        .expect("open server core"),
    );
    let hub = nob_metrics::MetricsHub::new();
    core.borrow_mut().set_metrics_hub(&hub);
    let mut a = Client::new(LoopbackTransport::connect(&core));
    let mut b = Client::new(LoopbackTransport::connect(&core));
    for i in 0..80u32 {
        a.set(format!("key{i:02}").as_bytes(), b"seed").expect("seed");
    }
    let flush = |shard: usize| {
        core.borrow_mut().store_mut().shard_db_mut(shard).flush().expect("flush");
    };
    flush(0);
    flush(1);
    // What holds the shards' current versions: a parked cursor's iterators
    // do, and nothing else comes and goes in this test.
    let version_refs = || -> Vec<usize> {
        let core = core.borrow();
        let refs = |i| std::sync::Arc::strong_count(&core.store().shard_db(i).current_version());
        (0..2).map(refs).collect()
    };
    let counters = || {
        let info = core.borrow().info_text();
        (info_counter(&info, "scan_resumes_held"), info_counter(&info, "scan_resumes_rebuilt"))
    };
    let unheld = version_refs();

    let (cursor, mut rows) = a.scan_page(b"", b"", 1_000).expect("open cursor");
    assert_ne!(cursor, 0);
    assert!(version_refs().iter().zip(&unheld).all(|(held, free)| held > free));
    // The cursor table is full: pushback, and the parked cursor is intact.
    let err = b.scan_page(b"", b"", 1_000).expect_err("cursor cap must push back");
    assert!(is_busy_error(&err), "{err}");
    // The other connection continues the iterators the first one left.
    let (next, page) = b.scan_next(cursor).expect("resume from the other connection");
    assert_eq!(next, cursor);
    rows.extend(page);
    assert_eq!(counters(), (1, 0));
    // A shard that moves to a new version under the cursor costs the next
    // page a rebuild, not a row.
    b.set(b"key00", b"late").expect("overwrite after the pin");
    let shard = core.borrow().store().shard_of(b"key00");
    flush(shard);
    let (next, page) = a.scan_next(cursor).expect("resume on a new version");
    assert_eq!(next, cursor);
    rows.extend(page);
    assert_eq!(counters(), (1, 1));
    assert_eq!(rows.len(), 24);
    assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "globally sorted across shards");
    assert!(rows.iter().all(|(_, v)| v == b"seed"), "post-pin write leaked into the cursor");

    // The lease lapses: the cursor goes, and with it everything it held.
    let deadline = core.borrow().clock().now() + nob_sim::Nanos::from_secs(61);
    core.borrow().clock().advance_to(deadline);
    core.borrow_mut().flush().expect("sweep");
    assert_eq!(info_counter(&core.borrow().info_text(), "cursors_open"), 0);
    // The flush above replaced one shard's version; the other's is the one
    // the cursor read, and nothing holds it any more.
    let after = version_refs();
    assert_eq!(after[1 - shard], unheld[1 - shard]);
    let err = a.scan_next(cursor).expect_err("an expired cursor is gone");
    assert!(err.to_string().contains("not found or expired"), "{err}");
    assert_eq!(counters(), (1, 1), "a page that was not served is not counted");
    assert_eq!(b.scan_all(b"", b"", 8).expect("scan after expiry").len(), 80);
    // The registry reads what INFO reads: once traffic stops, every field
    // of `# server` is the last sample of its `server.*` series, and the
    // registry has no `server.*` series INFO leaves out.
    let later = core.borrow().clock().now() + nob_sim::Nanos::from_secs(1);
    core.borrow().clock().advance_to(later);
    assert_eq!(b.get(b"key00").expect("GET"), Some(b"late".to_vec()));
    let rest = later + nob_sim::Nanos::from_secs(1);
    core.borrow().clock().advance_to(rest);
    assert!(hub.sample_due(rest) > 0, "a grid instant passed at rest");
    let (timeline, info) = (hub.timeline(), core.borrow().info_text());
    let section = info.strip_prefix("# server\n").and_then(|s| s.split('#').next());
    let fields: Vec<&str> = section.expect("INFO opens with # server").lines().collect();
    for field in &fields {
        let (name, value) = field.split_once(':').expect("name:value");
        let last = timeline.series(&format!("server.{name}")).map(|s| s.last());
        assert_eq!(last, value.parse().ok(), "server.{name}");
    }
    let registered = timeline.series.iter().filter(|s| s.name.starts_with("server."));
    assert_eq!(registered.count(), fields.len(), "{info}");
    let unredeemed = timeline.series("store.unredeemed").map(|s| s.last());
    assert_eq!(unredeemed, Some(info_counter(&info, "unredeemed") as f64));
    assert!(info_counter(&info, "bytes_in") > 0 && info_counter(&info, "bytes_out") > 0);
    assert_eq!(info_counter(&info, "scan_resumes_held"), 1 + 9, "the scan after expiry: 9 pages");
}

#[test]
fn info_reaches_every_shard_property() {
    let core = shared(
        ServerCore::open(ServerOptions {
            store: StoreOptions { shards: 3, ..StoreOptions::default() },
            ..ServerOptions::default()
        })
        .expect("open server core"),
    );
    let mut c = Client::new(LoopbackTransport::connect(&core));
    c.set(b"k", b"v").expect("SET");
    let info = c.info().expect("INFO");
    for shard in 0..3 {
        assert!(
            info.contains(&format!("# shard{shard}")),
            "INFO must carry shard {shard}'s section: {info}"
        );
    }
    assert!(info.contains("noblsm.stats:engine.writes="), "Db::property mapped into INFO: {info}");
}
