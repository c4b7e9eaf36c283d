//! Workspace-level replication-stack integration: WAL shipping from a
//! leader store to a loopback follower on one shared virtual clock,
//! over the serving crate's RESP wire, through the change log,
//! bounded-staleness follower reads, changefeeds and leader-kill
//! failover.
//!
//! Pins the consistency contract end to end: acked writes survive
//! promotion, follower reads honour their staleness bound, changefeeds deliver
//! exactly once across a failover, and identical runs are bit-for-bit
//! identical.

use nob_repl::{shared, Follower, FollowerLink, Leader, ReplCore, ReplLoopback, Subscription};
use nob_sim::{Nanos, SharedClock};
use nob_store::{Store, StoreOptions};
use noblsm::{WriteBatch, WriteOptions};

const SHARDS: usize = 2;
const OPS: u64 = 240;

/// Builds a leader/follower pair on one shared clock, linked over the
/// loopback shipping transport and subscribed.
fn pair() -> (nob_repl::SharedRepl, FollowerLink<ReplLoopback>) {
    let opts = StoreOptions { shards: SHARDS, ..StoreOptions::default() };
    let clock = SharedClock::new();
    let leader = Store::open_with_clock(opts.clone(), clock.clone()).expect("open leader");
    let follower = Store::open_with_clock(opts, clock).expect("open follower");
    let core = shared(ReplCore::new(Leader::new(leader, 1)));
    let mut link = FollowerLink::new(ReplLoopback::connect(&core), Follower::new(follower, 1));
    link.subscribe().expect("subscribe");
    (core, link)
}

fn put(core: &nob_repl::SharedRepl, key: &[u8], value: &[u8]) {
    let mut batch = WriteBatch::new();
    batch.put(key, value);
    core.borrow_mut().leader_mut().write(&WriteOptions::default(), batch).expect("leader write");
}

#[test]
fn shipping_applies_every_write_and_bounds_staleness() {
    let (core, mut link) = pair();
    for i in 0..OPS {
        put(&core, format!("key{i:04}").as_bytes(), format!("val{i}").as_bytes());
        if i % 5 == 4 {
            link.poll_until_idle().expect("poll");
        }
    }
    link.poll_until_idle().expect("final poll");

    // Every write is applied and acknowledged.
    assert_eq!(link.follower().shard_seqs().iter().sum::<u64>(), OPS);
    assert_eq!(core.borrow().leader().acked_seqs().iter().sum::<u64>(), OPS);
    // Replication lag was measured on the leader clock and is nonzero
    // (the ack can never arrive at the commit instant).
    assert!(core.borrow().leader().replication_lag() > Nanos::ZERO);

    // Bounded-staleness reads: a generous bound serves every key with
    // the leader's value; an impossible 1 ns bound is refused.
    let loose = Some(Nanos::from_secs(3600));
    for i in 0..OPS {
        let got = link.get(format!("key{i:04}").as_bytes(), loose).expect("follower read");
        assert_eq!(got.as_deref(), Some(format!("val{i}").as_bytes()), "key{i:04}");
    }
    let tight = Some(Nanos::from_nanos(1));
    assert!(
        link.get(b"key0000", tight).is_err(),
        "a 1 ns staleness bound cannot be satisfiable after shipping"
    );
}

#[test]
fn changefeed_survives_leader_kill_with_no_gap_or_duplicate() {
    let (core, mut link) = pair();
    let mut sub = Subscription::start(ReplLoopback::connect(&core), 0, 1).expect("subscribe");
    let mut delivered: Vec<(u64, u64, u64)> = Vec::new(); // (epoch, first, last)

    for i in 0..60u64 {
        put(&core, format!("a{i:03}").as_bytes(), b"pre-failover");
        if i % 4 == 3 {
            link.poll_until_idle().expect("poll");
            for rec in sub.poll().expect("feed poll") {
                delivered.push((rec.epoch, rec.first_seq, rec.last_seq));
            }
        }
    }
    link.poll_until_idle().expect("poll");
    for rec in sub.poll().expect("feed poll") {
        delivered.push((rec.epoch, rec.first_seq, rec.last_seq));
    }

    // Kill the leader: promote the follower, fence the old epoch.
    let applied = link.follower().shard_seqs();
    let new_leader = link.into_follower().promote();
    assert_eq!(new_leader.epoch(), 2);
    {
        let mut old = core.borrow_mut();
        assert!(old.leader_mut().fence(2), "old leader must fence on the new epoch");
        let mut b = WriteBatch::new();
        b.put(b"zombie", b"w");
        assert!(
            old.leader_mut().write(&WriteOptions::default(), b).is_err(),
            "fenced leader must refuse writes"
        );
    }
    drop(core);
    let core = shared(ReplCore::new(new_leader));
    assert_eq!(
        core.borrow().leader().store().shard_seqs(),
        applied,
        "promotion must carry the follower's applied state"
    );

    // Resume the changefeed against the promoted leader and keep writing.
    sub = sub.resume(ReplLoopback::connect(&core)).expect("resume");
    for i in 0..40u64 {
        put(&core, format!("b{i:03}").as_bytes(), b"post-failover");
    }
    loop {
        let recs = sub.poll().expect("feed poll");
        if recs.is_empty() {
            break;
        }
        for rec in recs {
            assert_eq!(rec.epoch, 2, "post-failover records carry the new epoch");
            delivered.push((rec.epoch, rec.first_seq, rec.last_seq));
        }
    }

    // Exactly-once, in order, gap-free across the failover.
    let mut next = 1u64;
    for (_, first, last) in &delivered {
        assert_eq!(*first, next, "contiguous chain");
        next = last + 1;
    }
    assert_eq!(
        next,
        core.borrow().leader().store().shard_seqs()[0] + 1,
        "the feed must end at shard 0's last committed sequence"
    );
}

#[test]
fn identical_runs_are_bit_for_bit_identical() {
    let run = || {
        let (core, mut link) = pair();
        for i in 0..80u64 {
            put(&core, format!("key{i:03}").as_bytes(), format!("v{i}").as_bytes());
            if i % 7 == 6 {
                link.poll_until_idle().expect("poll");
            }
        }
        link.poll_until_idle().expect("poll");
        let lag = core.borrow().leader().replication_lag().as_nanos();
        let stale: Vec<u64> =
            (0..SHARDS).map(|s| link.follower().staleness(s).as_nanos()).collect();
        (link.follower().shard_seqs(), lag, stale)
    };
    assert_eq!(run(), run(), "virtual time makes the whole stack deterministic");
}
