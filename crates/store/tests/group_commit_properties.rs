//! Group-commit correctness: coalescing must never change what a batch
//! means. A coalesced batch stays atomic, per-shard application order is
//! enqueue order, and a crash mid-group-commit can never surface a
//! follower's write without its leader's. Shards commit side by side —
//! one scheduler round starts every shard's group at the same instant —
//! and that moves instants only: the bytes every shard logs, the
//! sequence numbers it assigns and what a crash recovers are those of
//! committing the same groups one after the other. What a drained or
//! crashed store holds is checked with `nob_sim::oracle`, the one crash
//! oracle.

use std::collections::BTreeSet;
use std::ops::Range;

use nob_ext4::Ext4Fs;
use nob_sim::oracle::Oracle;
use nob_sim::Nanos;
use nob_store::{Store, StoreOptions, Ticket};
use nob_trace::{EventClass, TraceCtx, TraceSink};
use noblsm::{Db, Options, ReadOptions, ScanOptions, SyncMode, WriteBatch, WriteOptions};
use proptest::prelude::*;

fn small_db() -> Options {
    let mut o = Options::default().with_sync_mode(SyncMode::Always).with_table_size(8 << 10);
    o.level1_max_bytes = 32 << 10;
    o
}

fn kname(k: u16) -> Vec<u8> {
    format!("key{k:05}").into_bytes()
}

fn vname(k: u16, v: u16) -> Vec<u8> {
    let mut out = format!("value-{k}-{v}-").into_bytes();
    out.resize(48, b'p');
    out
}

/// The batch of `ops`, each write logged in `oracle` as issued at the
/// store's present; returns it with its writes' log indices. About one op
/// in seven is a delete: deriving it from the value keeps the strategy
/// tuple simple.
fn logged_batch(
    store: &Store,
    oracle: &mut Oracle,
    ops: &[(u16, u16)],
) -> (WriteBatch, Range<usize>) {
    let (issued, first) = (store.clock().now(), oracle.logged());
    let mut wb = WriteBatch::new();
    for (k, v) in ops {
        let key = kname(*k);
        if *v % 7 == 0 {
            wb.delete(&key);
            oracle.delete(issued, &key);
        } else {
            let value = vname(*k, *v);
            wb.put(&key, &value);
            oracle.put(issued, &key, &value);
        }
    }
    (wb, first..oracle.logged())
}

/// Every row of engine directory `dir` opened on `fs` at `at`.
fn recover(fs: Ext4Fs, dir: &str, at: Nanos) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut db = Db::open(fs, dir, small_db(), at).unwrap();
    db.scan(&ReadOptions::default(), &ScanOptions::all()).unwrap().rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random writer batches, random pump interleavings, random shard
    /// counts and group budgets: after the queue drains, every ticket has
    /// completed and the store holds exactly what sequential,
    /// enqueue-ordered application of the batches would produce. That is
    /// the whole group-commit contract — coalescing is invisible to
    /// semantics, it only changes how many engine writes were paid.
    #[test]
    fn coalesced_batches_stay_atomic_and_ordered(
        batches in proptest::collection::vec(
            proptest::collection::vec((0u16..64, 0u16..1000), 1..6),
            1..40,
        ),
        shards in 1usize..5,
        budget_count in 1usize..9,
        pump_every in 1usize..6,
    ) {
        let mut store = Store::open(StoreOptions {
            shards,
            group_budget_count: budget_count,
            db: small_db(),
            ..StoreOptions::default()
        })
        .unwrap();
        let mut oracle = Oracle::default();
        let mut tickets = Vec::new();
        let mut expected_parts = 0u64;
        for (bi, ops) in batches.iter().enumerate() {
            let (wb, writes) = logged_batch(&store, &mut oracle, ops);
            let touched: BTreeSet<usize> = wb.ops().map(|(_, k, _)| store.shard_of(k)).collect();
            expected_parts += touched.len() as u64;
            tickets.push((store.enqueue(&WriteOptions::default(), &wb), writes));
            if bi % pump_every == 0 {
                store.pump().unwrap();
            }
        }
        let end = store.drain().unwrap();
        for (t, writes) in &tickets {
            let outcome = store.take_outcome(*t);
            prop_assert!(outcome.is_some(), "ticket left incomplete after drain");
            oracle.ack(writes.clone(), outcome.unwrap());
        }
        prop_assert_eq!(store.pending(), 0);
        let rows = store.scan(&ReadOptions::default(), &ScanOptions::all()).unwrap().rows;
        let verdict = oracle.check(&rows, end);
        prop_assert!(verdict.holds(), "diverged from sequential application: {:?}", verdict);
        // `batches` counts per-shard sub-batches (one ticket touching K
        // shards contributes K), and every one of them must have retired
        // through some group.
        let s = store.stats();
        prop_assert!(s.groups <= s.batches);
        prop_assert_eq!(s.batches, expected_parts);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Instants move, bytes do not. A store commits random multi-key
    /// batches, synced and buffered mixed, with every shard's group of a
    /// round started at the round's instant; a reference store is then fed
    /// the very same groups one at a time through its shards' engines, the
    /// way a serial scheduler would. Shard for shard both log the same WAL
    /// bytes, assign the same sequence ranges and recover the same map.
    /// On the overlapped store a round costs its slowest group — not the
    /// sum of its groups — and a ticket completes at the latest group end
    /// among its parts.
    #[test]
    fn overlapped_rounds_move_instants_not_bytes(
        batches in proptest::collection::vec(
            (proptest::collection::vec((0u16..64, 0u16..1000), 1..6), any::<bool>()),
            1..30,
        ),
        shards in 1usize..5,
        budget_count in 1usize..9,
        pump_every in 1usize..6,
    ) {
        let opts = StoreOptions {
            shards,
            group_budget_count: budget_count,
            db: small_db(),
            ..StoreOptions::default()
        };
        let mut store = Store::open(opts.clone()).unwrap();
        let sink = TraceSink::with_ring_capacity(1 << 16);
        store.set_trace_sink(sink.clone());
        store.enable_shipping();

        // One scheduler round: (clock before, clock after, groups committed).
        let mut rounds: Vec<(Nanos, Nanos, usize)> = Vec::new();
        let mut round = |store: &mut Store| {
            let before = store.clock().now();
            let groups = store.pump().unwrap();
            rounds.push((before, store.clock().now(), groups));
            groups
        };
        let mut oracle = Oracle::default();
        // Per ticket: the ticket, its request's trace root, its sync flag
        // and its writes' log indices.
        let mut tickets = Vec::new();
        for (bi, (ops, synced)) in batches.iter().enumerate() {
            let (wb, writes) = logged_batch(&store, &mut oracle, ops);
            let wopts = if *synced { WriteOptions::synced() } else { WriteOptions::buffered() };
            let root = sink.child_ctx(TraceCtx::NONE);
            tickets.push((store.enqueue_ctx(&wopts, &wb, root), root, *synced, writes));
            if bi % pump_every == 0 {
                round(&mut store);
            }
        }
        while round(&mut store) > 0 {}
        let end = store.drain().unwrap();

        // Every group is one shipped record and one group-commit span; the
        // span's parent names the leader's request, links name followers.
        let shipped = store.take_shipped();
        let (events, links) = sink.snapshot();
        prop_assert_eq!(sink.dropped(), 0);
        prop_assert_eq!(shipped.len(), rounds.iter().map(|r| r.2).sum::<usize>());
        let ticket_of = |span: u64| tickets.iter().position(|(_, root, _, _)| root.span == span);
        let mut ticket_end = vec![Nanos::ZERO; tickets.len()];
        let mut shard_end = vec![Nanos::ZERO; shards];
        let mut spans = Vec::new();
        for rec in &shipped {
            let span = events
                .iter()
                .find(|e| e.class == EventClass::GroupCommit && e.span == rec.ctx.span)
                .expect("every record carries its group span");
            prop_assert_eq!(span.end, rec.committed_at);
            let leader = ticket_of(span.parent).expect("the leader's request parents the group");
            let followers =
                links.iter().filter(|l| l.to == span.span).map(|l| ticket_of(l.from).unwrap());
            for t in followers.chain([leader]) {
                ticket_end[t] = ticket_end[t].max(rec.committed_at);
            }
            prop_assert!(
                rec.committed_at > shard_end[rec.shard],
                "shard {} committed at {:?} after {:?}",
                rec.shard, rec.committed_at, shard_end[rec.shard]
            );
            shard_end[rec.shard] = rec.committed_at;
            spans.push((span.start, span.end, tickets[leader].2));
        }
        for (i, (ticket, _, _, writes)) in tickets.iter().enumerate() {
            let outcome = store.take_outcome(*ticket).expect("drained");
            prop_assert_eq!(outcome, ticket_end[i], "ticket {} is not its latest part", i);
            prop_assert!(outcome <= end);
            oracle.ack(writes.clone(), outcome);
        }

        // A round costs its slowest group.
        let mut next = 0;
        for &(before, after, groups) in &rounds {
            let cost: Vec<(Nanos, bool)> =
                spans[next..next + groups].iter().map(|&(s, e, synced)| (e - s, synced)).collect();
            next += groups;
            let longest = cost.iter().map(|c| c.0).max().unwrap_or(Nanos::ZERO);
            let sum = cost.iter().fold(Nanos::ZERO, |acc, c| acc + c.0);
            prop_assert_eq!(after - before, longest, "a round advances the clock by its slowest group");
            prop_assert!(longest <= sum);
            if cost.iter().filter(|c| c.1).count() >= 2 {
                prop_assert!(longest < sum, "two synced groups side by side cost less than in series");
            }
        }

        // The reference: the same groups, one engine write after the other.
        let mut serial = Store::open(opts).unwrap();
        for (rec, &(_, _, synced)) in shipped.iter().zip(&spans) {
            let wopts = if synced { WriteOptions::synced() } else { WriteOptions::buffered() };
            let group = WriteBatch::from_payload(rec.payload.clone()).unwrap();
            let db = serial.shard_db_mut(rec.shard);
            prop_assert_eq!(rec.first_seq, db.last_sequence() + 1);
            prop_assert_eq!(group.sequence(), rec.first_seq, "shipped bytes carry the logged tag");
            db.write(&wopts, group).unwrap();
            prop_assert_eq!(rec.last_seq, db.last_sequence());
        }
        let mut files = Vec::new();
        for shard in 0..shards {
            prop_assert_eq!(wal_bytes(&store, shard), wal_bytes(&serial, shard), "shard {}", shard);
            prop_assert_eq!(store.shard_seqs()[shard], serial.shard_seqs()[shard]);
            files.push((store.shard_db(shard).fs().clone(), serial.shard_db(shard).fs().clone()));
        }
        // A second engine recovers each shard from the files as they stand
        // (no crash: buffered tails are still in the page cache).
        let now = serial.clock().now();
        drop((store, serial));
        let mut recovered = Vec::new();
        for (shard, (ours, theirs)) in files.into_iter().enumerate() {
            let dir = format!("shard{shard}");
            let ours = recover(ours, &dir, now);
            prop_assert_eq!(&ours, &recover(theirs, &dir, now), "shard {}", shard);
            recovered.extend(ours);
        }
        let verdict = oracle.check(&recovered, end);
        prop_assert!(verdict.holds(), "recovery diverged from sequential application: {:?}", verdict);
    }
}

/// Every WAL byte `shard`'s engine has appended, in file order.
fn wal_bytes(store: &Store, shard: usize) -> Vec<u8> {
    let fs = store.shard_db(shard).fs();
    let now = store.clock().now();
    let mut bytes = Vec::new();
    for path in fs.list(&format!("shard{shard}/")) {
        if path.ends_with(".log") {
            let size = fs.file_size(&path).expect("listed");
            let handle = fs.open(&path, now).expect("listed");
            bytes.extend_from_slice(&fs.read_at(handle, 0, size, now).expect("read").0);
        }
    }
    bytes
}

/// A key that routes to `shard`, fresh on every call with the same `probe`.
fn routed_key(store: &Store, shard: usize, probe: &mut u32) -> Vec<u8> {
    loop {
        let k = format!("gk{probe:06}").into_bytes();
        *probe += 1;
        if store.shard_of(&k) == shard {
            return k;
        }
    }
}

/// `Store::crashed_view` cuts every shard at one instant: what any shard
/// made durable by then comes back, nothing written after it does, every
/// shard keeps its own engine options and the store its group budget.
#[test]
fn crashed_view_cuts_every_shard_at_one_instant() {
    let mut store = Store::open(StoreOptions {
        shards: 3,
        group_budget_count: 5,
        db: small_db(),
        ..StoreOptions::default()
    })
    .unwrap();
    store.shard_db_mut(1).set_compaction_lanes(2);
    for shard in 0..3 {
        store.shard_db(shard).fs().pin_crash_horizon();
    }
    let batch = |prefix: &str| {
        let mut b = WriteBatch::new();
        for i in 0..30u64 {
            b.put(format!("{prefix}{i}").as_bytes(), b"v");
        }
        b
    };
    let at = store.write(&WriteOptions::synced(), batch("a")).unwrap();
    assert!(store.write(&WriteOptions::synced(), batch("b")).unwrap() > at);
    let mut view = store.crashed_view(at).unwrap();
    let lanes: Vec<usize> = (0..3).map(|i| view.shard_db(i).compaction_lanes()).collect();
    assert_eq!(lanes, vec![1, 2, 1], "each shard keeps its own options");
    assert!(view.clock().now() >= at, "recovery runs on a clock that starts at the cut");
    for i in 0..30u64 {
        let durable = view.get(&ReadOptions::default(), format!("a{i}").as_bytes()).unwrap();
        assert!(durable.is_some(), "a{i} was durable at the cut");
        let after = view.get(&ReadOptions::default(), format!("b{i}").as_bytes()).unwrap();
        assert!(after.is_none(), "b{i} was written after the cut");
    }
    // Six batches queued on one shard commit as groups of 5 and 1.
    let mut probe = 0;
    for _ in 0..6 {
        let mut b = WriteBatch::new();
        b.put(&routed_key(&view, 0, &mut probe), b"v");
        view.enqueue(&WriteOptions::synced(), &b);
    }
    view.drain().unwrap();
    assert_eq!(view.stats().groups, 2, "the group budget carries over");
    let kept = store.get(&ReadOptions::default(), b"b0").unwrap();
    assert_eq!(kept.as_deref(), Some(&b"v"[..]), "the crashed store is left as it was");
}

/// Crash mid-group-commit: the leader and its followers become ONE WAL
/// record, so no crash instant may surface a follower's write without the
/// leader's. We build several groups on one shard (keys chosen to route
/// there), drain, then sweep crash instants across the whole run and
/// check the implication on every recovered view.
#[test]
fn crash_never_surfaces_follower_without_leader() {
    let mut store = Store::open(StoreOptions {
        shards: 2,
        group_budget_count: 4,
        db: small_db(),
        ..StoreOptions::default()
    })
    .unwrap();
    // The sweep below cuts power across the whole run: keep every instant.
    store.shard_db(0).fs().pin_crash_horizon();

    // Pick keys that all route to shard 0 so every group is coalesced
    // there and the crash analysis has one WAL to reason about.
    let mut probe = 0;
    let shard0_keys: Vec<Vec<u8>> = (0..16).map(|_| routed_key(&store, 0, &mut probe)).collect();

    // 4 groups × (1 leader + 3 followers), each batch one distinct key.
    // Within a group, index 0 is the leader (enqueued first).
    let mut groups: Vec<Vec<(Vec<u8>, Vec<u8>)>> = Vec::new();
    for g in 0..4usize {
        let mut group = Vec::new();
        for m in 0..4usize {
            let key = shard0_keys[g * 4 + m].clone();
            let value = format!("g{g}m{m}").into_bytes();
            group.push((key, value));
        }
        groups.push(group);
    }
    let mut oracle = Oracle::default();
    let mut tickets = Vec::new();
    for group in &groups {
        for (key, value) in group {
            let mut b = WriteBatch::new();
            b.put(key, value);
            oracle.put(store.clock().now(), key, value);
            tickets.push(store.enqueue(&WriteOptions::synced(), &b));
        }
        // One pump per group: the first batch leads, the rest follow.
        store.pump().unwrap();
    }
    let end = store.drain().unwrap();
    assert_eq!(store.stats().groups, 4, "each pump must have coalesced one group");
    assert_eq!(store.stats().batches, 16);
    for (i, t) in tickets.iter().enumerate() {
        oracle.ack(i..=i, store.take_outcome(*t).expect("drained"));
    }

    // Every cut keeps the crash contract. The last one is the drain's end:
    // with SyncMode::Always and synced groups every ticket is acknowledged
    // by then, so it recovers exactly what was enqueued.
    let fs = store.shard_db(0).fs().clone();
    let steps = 200u64;
    for i in 0..=steps {
        let at = Nanos::from_nanos(end.as_nanos() * i / steps);
        let got = recover(fs.crashed_view(at), "shard0", at);
        let verdict = oracle.check(&got, at);
        assert!(verdict.holds(), "crash at {at:?}: {verdict:?}");
        for (g, group) in groups.iter().enumerate() {
            let leader_ok = got.contains(&group[0]);
            for (m, write) in group.iter().enumerate().skip(1) {
                assert!(
                    !got.contains(write) || leader_ok,
                    "crash at {at:?}: group {g} follower {m} survived without its leader"
                );
            }
        }
    }
    assert_eq!(oracle.check(&[], end).acked.len(), 16, "the last cut acknowledges everything");
}

/// One key/value pair a ticket wrote.
type Write = (Vec<u8>, Vec<u8>);

/// The crash contract across overlapped shards. Two shards commit synced
/// groups side by side, some tickets spanning both; the cut goes at every
/// group's end instant, one nanosecond either side of it, and on an even
/// grid, and *both* shards are recovered from the same instant. A ticket
/// acknowledged by then — its outcome is the later of its two groups — is
/// wholly there on every shard it touched; nothing not enqueued by then
/// appears; every key is on its own shard; and no coalesced follower
/// survives without its leader.
#[test]
fn crash_across_overlapped_shards_keeps_every_acked_ticket_whole() {
    let mut store = Store::open(StoreOptions {
        shards: 2,
        group_budget_count: 4,
        db: small_db(),
        ..StoreOptions::default()
    })
    .unwrap();
    store.enable_shipping();
    // The cuts below land across the whole run: keep every instant.
    for shard in 0..2 {
        store.shard_db(shard).fs().pin_crash_horizon();
    }

    // Fresh keys per shard, each written exactly once, so "present" and
    // "whose write is this" are both unambiguous.
    let mut probe = 0;
    // Per ticket: the key/value pairs it wrote and their log indices.
    let mut tickets: Vec<(Ticket, Vec<Write>, Range<usize>)> = Vec::new();
    let mut oracle = Oracle::default();
    for round in 0..8usize {
        // Four arrivals a round, alternating shards. One of them — a later
        // slot each round, so it leads on some shards and follows on
        // others — spans both. Every other round a full group's worth of
        // writes to shard 1 arrives first, so from then on the two parts
        // of a ticket commit in different rounds, a whole group apart.
        let backlog = if round % 2 == 1 { 4 } else { 0 };
        for slot in 0..backlog + 4 {
            let parts: &[(usize, usize)] = if slot < backlog {
                &[(1, 1)]
            } else if slot - backlog == round % 4 {
                &[(0, 1 + round % 2), (1, 3 - round % 2)]
            } else {
                &[(slot % 2, 1)]
            };
            let mut writes = Vec::new();
            for &(shard, n) in parts {
                for _ in 0..n {
                    let value = vec![b'v'; 40 + 200 * ((round + shard) % 3)];
                    writes.push((routed_key(&store, shard, &mut probe), value));
                }
            }
            let (issued, first) = (store.clock().now(), oracle.logged());
            let mut b = WriteBatch::new();
            for (k, v) in &writes {
                b.put(k, v);
                oracle.put(issued, k, v);
            }
            tickets.push((
                store.enqueue(&WriteOptions::synced(), &b),
                writes,
                first..oracle.logged(),
            ));
        }
        // One round: one group per shard, started at the same instant.
        assert_eq!(store.pump().unwrap(), 2, "round {round} commits on both shards");
    }
    let end = store.drain().unwrap();
    for (t, _, logged) in &tickets {
        oracle.ack(logged.clone(), store.take_outcome(*t).expect("drained"));
    }

    // Every group as (shard, tickets in commit order — the leader first).
    let shipped = store.take_shipped();
    let ticket_of = |k: &[u8]| tickets.iter().position(|(_, w, _)| w.iter().any(|(wk, _)| wk == k));
    let groups: Vec<(usize, Vec<usize>)> = shipped
        .iter()
        .map(|rec| {
            let batch = WriteBatch::from_payload(rec.payload.clone()).unwrap();
            let mut members: Vec<usize> =
                batch.ops().map(|(_, k, _)| ticket_of(k).expect("enqueued")).collect();
            members.dedup();
            (rec.shard, members)
        })
        .collect();
    assert!(groups.iter().any(|(_, m)| m.len() > 1), "some groups must coalesce");
    let wide = |t: &usize| {
        tickets[*t].1.iter().any(|(k, _)| store.shard_of(k) == 0)
            && tickets[*t].1.iter().any(|(k, _)| store.shard_of(k) == 1)
    };
    assert!(groups.iter().any(|(_, m)| wide(&m[0])), "a two-shard ticket must lead somewhere");
    assert!(groups.iter().any(|(_, m)| m[1..].iter().any(wide)), "and follow somewhere");
    // An acknowledgement at the earlier part's instant must be wrong where
    // the cuts can see it: some ticket's later part is not even begun (its
    // shard's previous group has not ended) when its earlier part ends.
    let mut first_end = vec![end; tickets.len()];
    for (rec, (_, members)) in shipped.iter().zip(&groups) {
        for t in members {
            first_end[*t] = first_end[*t].min(rec.committed_at);
        }
    }
    let mut shard_free = [Nanos::ZERO; 2];
    let mut staggered = false;
    for (rec, (shard, members)) in shipped.iter().zip(&groups) {
        staggered |= members.iter().any(|t| shard_free[*shard] >= first_end[*t]);
        shard_free[*shard] = rec.committed_at;
    }
    assert!(staggered, "some ticket's parts must commit in different rounds");

    let mut cuts: BTreeSet<Nanos> =
        (0..=64u64).map(|i| Nanos::from_nanos(end.as_nanos() * i / 64)).collect();
    for rec in &shipped {
        let at = rec.committed_at;
        cuts.extend([at - Nanos::from_nanos(1), at, at + Nanos::from_nanos(1)]);
    }
    let files = [store.shard_db(0).fs().clone(), store.shard_db(1).fs().clone()];
    let mut partly_acked = false;
    for at in cuts {
        let got: Vec<Vec<Write>> = (0..2)
            .map(|shard| recover(files[shard].crashed_view(at), &format!("shard{shard}"), at))
            .collect();
        let verdict = oracle.check(&got.concat(), at);
        assert!(verdict.holds(), "crash at {at:?}: {verdict:?}");
        for (shard, rows) in got.iter().enumerate() {
            for (k, _) in rows {
                assert_eq!(store.shard_of(k), shard, "crash at {at:?}: key on a foreign shard");
            }
        }
        for (g, (shard, members)) in groups.iter().enumerate() {
            // A ticket's part on this shard, whole.
            let part_ok = |t: &usize| {
                let mut part = tickets[*t].1.iter().filter(|(k, _)| store.shard_of(k) == *shard);
                part.all(|w| got[*shard].contains(w))
            };
            let leader_ok = part_ok(&members[0]);
            for follower in &members[1..] {
                assert!(
                    !part_ok(follower) || leader_ok,
                    "crash at {at:?}: group {g} follower {follower} survived without its leader"
                );
            }
        }
        partly_acked |= !verdict.acked.is_empty() && verdict.acked.len() < oracle.logged();
    }
    assert!(partly_acked, "the sweep must cut between acknowledgements");
}
