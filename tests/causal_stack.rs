//! Workspace-level causal-tracing acceptance: one traced SET through
//! the serving layer, replicated to a follower on the same virtual
//! clock, must reconstruct as a *single* span tree —
//!
//! ```text
//! server_write
//!   group_commit
//!     engine_put
//!       journal / fast-commit work
//!         ssd_flush (Sync only)
//!     repl_ship
//!       repl_apply
//!     repl_ack
//! ```
//!
//! — and its critical-path decomposition must partition the request's
//! send→ack window into segments that sum to it exactly. A fixed-seed
//! golden file pins the rendered tree and decomposition byte-for-byte;
//! rebless with `NOB_BLESS=1 cargo test --test causal_stack`.
//!
//! The deployment shape is the real one: the server fronts the commit
//! path (its store has shipping enabled), and the leader absorbs the
//! server store's shipped records via [`Leader::absorb_shipped`] — the
//! bridge for server-fronted replication.

use nob_repl::{shared, Follower, FollowerLink, Leader, ReplCore, ReplLoopback};
use nob_server::{
    shared as shared_server, Client, LoopbackTransport, Request, ServerCore, ServerOptions,
};
use nob_sim::Nanos;
use nob_store::{Store, StoreOptions};
use nob_trace::{CriticalPath, EventClass, TraceNode, TraceSink};
use noblsm::WriteOptions;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/causal_tree.txt");

/// Runs the fixed scenario: a server-fronted store with shipping on, a
/// leader/follower pair on the server's clock sharing one trace sink,
/// one SET, ship → apply → ack. Returns the sink with the whole story.
fn traced_replicated_set() -> TraceSink {
    let sopts = StoreOptions { shards: 1, ..StoreOptions::default() };
    let sink = TraceSink::new();
    let server = shared_server(
        ServerCore::open(ServerOptions {
            store: sopts.clone(),
            write: WriteOptions::synced(),
            ..ServerOptions::default()
        })
        .expect("open server"),
    );
    let clock = {
        let mut s = server.borrow_mut();
        s.set_trace_sink(sink.clone());
        s.store_mut().enable_shipping();
        s.clock().clone()
    };
    let mut leader =
        Leader::new(Store::open_with_clock(sopts.clone(), clock.clone()).expect("open leader"), 1);
    let mut follower =
        Follower::new(Store::open_with_clock(sopts, clock.clone()).expect("open follower"), 1);
    leader.set_trace_sink(sink.clone());
    follower.set_trace_sink(sink.clone());
    let core = shared(ReplCore::new(leader));
    let mut link = FollowerLink::new(ReplLoopback::connect(&core), follower);
    link.subscribe().expect("subscribe");

    let mut client = Client::new(LoopbackTransport::connect(&server));
    client.set(b"alpha", b"1").expect("SET");

    // The loopback wire is instantaneous in virtual time, which would
    // collapse the ship window and the ack's wire-wait remainder to
    // zero; advance the clock between the hops to model a real wire.
    let records = server.borrow_mut().store_mut().take_shipped();
    assert_eq!(records.len(), 1, "one committed group ships one record");
    clock.advance(Nanos::from_micros(20));
    core.borrow_mut().leader_mut().absorb_shipped(records).expect("absorb shipped");
    clock.advance(Nanos::from_micros(30));
    link.poll_until_idle().expect("replicate");
    assert_eq!(core.borrow().leader().acked_seqs(), &[1], "the SET must be acked");
    sink
}

fn classes(node: &TraceNode, out: &mut Vec<EventClass>) {
    out.push(node.event.class);
    for c in &node.children {
        classes(c, out);
    }
}

fn find(node: &TraceNode, class: EventClass) -> Option<&TraceNode> {
    if node.event.class == class {
        return Some(node);
    }
    node.children.iter().find_map(|c| find(c, class))
}

#[test]
fn a_traced_set_under_replication_yields_one_full_chain_tree() {
    let sink = traced_replicated_set();
    let roots = sink.trace_roots();
    assert_eq!(roots.len(), 1, "one request, one trace: {roots:?}");
    assert_eq!(roots[0].class, EventClass::ServerWrite);
    let tree = sink.tree(roots[0].trace).expect("tree reconstructs");

    let mut seen = Vec::new();
    classes(&tree, &mut seen);
    for want in [
        EventClass::GroupCommit,
        EventClass::EnginePut,
        EventClass::SsdFlush,
        EventClass::ReplShip,
        EventClass::ReplApply,
        EventClass::ReplAck,
    ] {
        assert!(seen.contains(&want), "tree must contain {}:\n{}", want.name(), tree.render());
    }
    assert!(
        seen.contains(&EventClass::JournalCommit) || seen.contains(&EventClass::FastCommit),
        "the sync commit must pass through the ext4 journal:\n{}",
        tree.render()
    );

    // Causality, not just presence: the apply hangs off the ship span,
    // and both live under the group commit that produced the record.
    let group = find(&tree, EventClass::GroupCommit).expect("group span");
    let ship = find(group, EventClass::ReplShip).expect("ship under the group");
    assert!(find(ship, EventClass::ReplApply).is_some(), "apply under the ship");
    assert!(find(group, EventClass::ReplAck).is_some(), "ack under the group");
}

#[test]
fn segments_partition_the_send_to_ack_window_exactly() {
    let sink = traced_replicated_set();
    let tree = sink.tree(sink.trace_roots()[0].trace).expect("tree");
    assert!(
        tree.max_end() > tree.event.end,
        "replication outlives the reply: ack must land after durable"
    );

    let summary = sink.critical_summary(1);
    assert_eq!(summary.paths, 1);
    let path = summary.slowest[0].0;
    let window = (tree.max_end() - tree.event.start).as_nanos();
    assert_eq!(path.total_ns, window, "decomposition covers send→ack, not send→durable");
    assert_eq!(
        path.segments.iter().sum::<u64>(),
        window,
        "segments must partition the window exactly"
    );
    for seg in ["wal_write", "flush", "ship", "apply", "ack"] {
        assert!(path.segment(seg) > 0, "{seg} must appear on the critical path:\n{path:?}");
    }
    assert!(path.total_ns > 0 && summary.total_ns == path.total_ns);
}

#[test]
fn fixed_seed_golden_pins_the_rendered_chain() {
    let sink = traced_replicated_set();
    let tree = sink.tree(sink.trace_roots()[0].trace).expect("tree");
    let mut got = String::new();
    got.push_str("# one traced SET, server-fronted, replicated (fixed seed)\n\n");
    got.push_str(&tree.render());
    got.push('\n');
    got.push_str(&sink.critical_summary(1).render());
    if std::env::var_os("NOB_BLESS").is_some() {
        std::fs::write(GOLDEN, &got).expect("bless golden file");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN)
        .expect("missing golden fixture; generate with NOB_BLESS=1 cargo test --test causal_stack");
    assert_eq!(
        got, want,
        "causal chain diverged from tests/golden/causal_tree.txt; \
         if intentional, rebless with NOB_BLESS=1"
    );
}

/// Two shards commit side by side in one drain: every request's segments
/// still sum to its latency exactly, and a request on the second shard
/// does not queue — in `admission` — behind the first shard's commit.
#[test]
fn side_by_side_shard_commits_keep_the_exact_sum_and_stay_out_of_admission() {
    let sink = TraceSink::new();
    let mut core = ServerCore::open(ServerOptions {
        store: StoreOptions { shards: 2, ..StoreOptions::default() },
        write: WriteOptions::synced(),
        ..ServerOptions::default()
    })
    .expect("open server");
    core.set_trace_sink(sink.clone());
    // Two pipelined SETs per shard, all parked on one drain.
    let conn = core.connect();
    let mut on_shard = [0usize; 2];
    for i in 0u32.. {
        let key = format!("key{i}").into_bytes();
        let shard = core.store().shard_of(&key);
        if on_shard[shard] < 2 {
            on_shard[shard] += 1;
            let set = Request::Set(key, vec![b'v'; 100 * (1 + shard)]);
            core.feed(conn, &set.to_frame().to_bytes()).expect("feed");
        }
        if on_shard == [2, 2] {
            break;
        }
    }
    core.flush().expect("drain");
    assert_eq!(core.store().stats().groups, 2, "one group per shard");

    let roots = sink.trace_roots();
    assert_eq!(roots.len(), 4, "four requests, four traces");
    // Each request with the group it waited on (owned or grafted).
    let mut waited = Vec::new();
    for root in &roots {
        let tree = sink.tree(root.trace).expect("tree");
        let path = CriticalPath::from_tree(&tree);
        let latency = (root.end - root.start).as_nanos();
        assert_eq!(path.total_ns, latency, "nothing outlives the reply here");
        assert_eq!(path.segments.iter().sum::<u64>(), latency, "exact sum:\n{}", tree.render());
        let group = find(&tree, EventClass::GroupCommit).expect("group span").event;
        assert_eq!(root.end, group.end, "durable when its own group is");
        waited.push((path, group));
    }
    let first = waited.iter().map(|(_, g)| *g).min_by_key(|g| g.seq).expect("groups");
    let second = waited.iter().map(|(_, g)| *g).max_by_key(|g| g.seq).expect("groups");
    assert_ne!(first.span, second.span);
    assert_eq!(second.start, first.start, "both shards' groups begin with the round");
    assert!(second.end > first.end, "the larger group on its own device ends later");
    for (path, group) in &waited {
        if group.span == second.span {
            assert!(
                path.segment("admission") < first.duration().as_nanos(),
                "a second-shard request queued behind the first shard's commit: {path:?}"
            );
        }
    }
}

#[test]
fn identical_runs_trace_identically() {
    let render = || {
        let sink = traced_replicated_set();
        let tree = sink.tree(sink.trace_roots()[0].trace).expect("tree");
        (tree.render(), sink.critical_summary(1).render(), sink.dropped())
    };
    let (a, b) = (render(), render());
    assert_eq!(a, b, "virtual time + fixed ids make tracing bit-for-bit deterministic");
    assert_eq!(a.2, 0, "nothing may be evicted in a one-request run");
    let _ = Nanos::ZERO;
}
