//! The shipped record is the leader's batch and the follower writes it as
//! it stands, so group for group the two engines log the same bytes.

use nob_repl::{shared, Follower, FollowerLink, Leader, ReplCore, ReplLoopback};
use nob_sim::SharedClock;
use nob_store::{Store, StoreOptions};
use noblsm::{WriteBatch, WriteOptions};

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

#[test]
fn follower_wal_is_byte_equal_to_the_leaders() {
    let opts = StoreOptions { shards: 2, ..StoreOptions::default() };
    let clock = SharedClock::new();
    let leader = Store::open_with_clock(opts.clone(), clock.clone()).expect("open leader");
    let follower = Store::open_with_clock(opts, clock).expect("open follower");
    let core = shared(ReplCore::new(Leader::new(leader, 1)));
    let mut link = FollowerLink::new(ReplLoopback::connect(&core), Follower::new(follower, 1));
    link.subscribe().expect("subscribe");

    // Coalesced groups, multi-entry batches, tombstones and values on both
    // sides of a one-byte length varint.
    for round in 0..6u64 {
        let mut core = core.borrow_mut();
        for i in 0..5u64 {
            let mut b = WriteBatch::new();
            b.put(format!("key{round}{i}").as_bytes(), &vec![round as u8; 40 * i as usize]);
            if i % 2 == 1 {
                b.delete(format!("key{round}{}", i - 1).as_bytes());
                b.put(format!("also{round}{i}").as_bytes(), b"second");
            }
            core.leader_mut().enqueue(&WriteOptions::default(), &b).expect("enqueue");
        }
        core.leader_mut().drain().expect("drain");
    }
    link.poll_until_idle().expect("catch up");

    let core = core.borrow();
    let leader = core.leader().store();
    let stats = leader.stats();
    assert!(stats.groups < stats.batches, "some groups must coalesce several batches");
    for shard in 0..2 {
        let logged = wal_bytes(leader, shard);
        assert!(!logged.is_empty(), "shard {shard} logged nothing");
        assert_eq!(wal_bytes(link.follower().store(), shard), logged, "shard {shard}");
    }
}
