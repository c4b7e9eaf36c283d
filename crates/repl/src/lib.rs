//! `nob-repl` — WAL-shipping replication for the NobLSM stack:
//! changefeeds, bounded-staleness follower reads, and epoch-fenced
//! failover.
//!
//! # Model
//!
//! A [`Leader`] wraps a [`nob_store::Store`] with group shipping enabled:
//! every coalesced group commit is captured as the *exact* WAL batch
//! payload the shard engine logged, tagged with the contiguous sequence
//! range the engine assigned it, and appended to a retained
//! [`ChangeLog`]. A [`Follower`] owns an identical store and applies the
//! records in sequence order; because both engines assign sequence
//! numbers deterministically, the follower's per-shard `last_sequence`
//! converges on the leader's, and the apply path verifies that on every
//! record.
//!
//! Records flow over the serving crate's [`nob_server::Transport`]
//! abstraction and its RESP codec — each message is an array led by a
//! verb (`SUBSCRIBE`, `RECORD`, `ACK`, `HEARTBEAT`, `FENCE`), so
//! replication has no codec of its own: [`ReplLoopback`] runs the whole
//! pipeline in-process on virtual time (deterministic tests),
//! [`ReplTcpServer`] serves the same bytes over real sockets.
//!
//! # Consistency contract
//!
//! * **Writes** go to the leader only; a fenced leader (one that has
//!   observed a higher epoch) refuses them with
//!   [`noblsm::Error::Replication`].
//! * **Follower reads** are bounded-staleness: pass a bound to
//!   [`FollowerLink::get`] and the read fails rather than serve data
//!   older than it,
//!   measured on the *leader's* clock (heartbeat instant minus the
//!   commit instant of the last applied record).
//! * **Changefeeds** ([`Subscription`]) deliver each committed record
//!   exactly once, in order, resumable from any sequence number across
//!   disconnects and failovers.
//! * **Failover**: promote the follower ([`Follower::promote`] bumps the
//!   epoch), fence the old leader ([`Leader::fence`]). Every write the
//!   old leader acknowledged is on the follower or in the retained log;
//!   writes the old leader accepted but never shipped are lost with it —
//!   that is the asynchronous-replication contract, and the chaos
//!   campaign (`nob-chaos`) verifies the *acked* half of it.
//!
//! # Example
//!
//! ```
//! use nob_repl::{shared, Follower, FollowerLink, Leader, ReplCore, ReplLoopback};
//! use nob_store::{Store, StoreOptions};
//! use noblsm::{WriteBatch, WriteOptions};
//!
//! # fn main() -> noblsm::Result<()> {
//! let opts = StoreOptions { shards: 2, ..StoreOptions::default() };
//! let leader = Leader::new(Store::open(opts.clone())?, 1);
//! let follower = Follower::new(Store::open(opts)?, 1);
//!
//! let core = shared(ReplCore::new(leader));
//! let mut link = FollowerLink::new(ReplLoopback::connect(&core), follower);
//! link.subscribe()?;
//!
//! let mut batch = WriteBatch::new();
//! batch.put(b"k", b"v");
//! core.borrow_mut().leader_mut().write(&WriteOptions::default(), batch)?;
//!
//! link.poll_until_idle()?;
//! assert_eq!(link.get(b"k", None)?.as_deref(), Some(&b"v"[..]));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

mod changelog;
pub mod core;
pub mod follower;
pub mod leader;
pub mod subscriber;
pub mod tcp;
mod wire;

pub use changelog::{ChangeLog, LogRecord};
pub use core::{ReplConnId, ReplCore, ReplLoopback, SharedRepl};
pub use follower::Follower;
pub use leader::Leader;
pub use nob_server::{shared, Endpoint};
pub use noblsm::{Error, Result};
pub use subscriber::{FollowerLink, Subscription};
pub use tcp::ReplTcpServer;

#[cfg(test)]
mod tests {
    use nob_sim::Nanos;
    use nob_store::{Store, StoreOptions};
    use nob_trace::{EventClass, TraceSink};
    use noblsm::{ReadOptions, WriteBatch, WriteOptions};

    use super::*;
    use crate::wire::{send, Msg};

    fn opts(shards: usize) -> StoreOptions {
        StoreOptions { shards, ..StoreOptions::default() }
    }

    fn pair(shards: usize) -> (SharedRepl, FollowerLink<ReplLoopback>) {
        let clock = nob_sim::SharedClock::new();
        let leader = Leader::new(Store::open_with_clock(opts(shards), clock.clone()).unwrap(), 1);
        let follower = Follower::new(Store::open_with_clock(opts(shards), clock).unwrap(), 1);
        let core = shared(ReplCore::new(leader));
        let mut link = FollowerLink::new(ReplLoopback::connect(&core), follower);
        link.subscribe().unwrap();
        (core, link)
    }

    fn put(core: &SharedRepl, key: &[u8], val: &[u8]) {
        let mut b = WriteBatch::new();
        b.put(key, val);
        core.borrow_mut().leader_mut().write(&WriteOptions::default(), b).unwrap();
    }

    #[test]
    fn writes_replicate_and_follower_serves_them() {
        let (core, mut link) = pair(4);
        for i in 0..100u64 {
            put(&core, format!("key{i:03}").as_bytes(), format!("val{i}").as_bytes());
        }
        let applied = link.poll_until_idle().unwrap();
        assert_eq!(applied as u64, core.borrow().leader().store().stats().groups);
        for i in 0..100u64 {
            let got = link.get(format!("key{i:03}").as_bytes(), None).unwrap();
            assert_eq!(got.as_deref(), Some(format!("val{i}").as_bytes()), "key{i:03}");
        }
        // The follower's engines converged on the leader's sequences.
        assert_eq!(link.follower().shard_seqs(), core.borrow().leader().store().shard_seqs());
        // Acks flowed back: the leader knows the follower is current.
        assert_eq!(core.borrow().leader().acked_seqs(), link.follower().shard_seqs().as_slice());
    }

    #[test]
    fn deletes_replicate_too() {
        let (core, mut link) = pair(2);
        put(&core, b"doomed", b"v");
        let mut b = WriteBatch::new();
        b.delete(b"doomed");
        core.borrow_mut().leader_mut().write(&WriteOptions::default(), b).unwrap();
        link.poll_until_idle().unwrap();
        assert_eq!(link.get(b"doomed", None).unwrap(), None);
    }

    #[test]
    fn bounded_staleness_is_satisfied_after_catchup() {
        let (core, mut link) = pair(1);
        put(&core, b"k", b"v1");
        put(&core, b"k", b"v2");
        link.poll_until_idle().unwrap();
        // Caught up: the last applied record carries the latest commit
        // instant, and the heartbeat in the same poll carries the leader
        // clock — staleness is the gap between them, which a generous
        // bound satisfies.
        let strict = Some(Nanos::from_secs(1));
        assert_eq!(link.get(b"k", strict).unwrap().as_deref(), Some(&b"v2"[..]));
        // More writes, another catch-up: still satisfiable.
        put(&core, b"k", b"v3");
        link.poll_until_idle().unwrap();
        assert_eq!(link.get(b"k", strict).unwrap().as_deref(), Some(&b"v3"[..]));
    }

    #[test]
    fn stale_read_fails_with_replication_error() {
        let (core, mut link) = pair(1);
        put(&core, b"k", b"v1");
        link.poll_until_idle().unwrap();
        // Leader moves on; follower only hears the heartbeat (the clock
        // advanced past the unapplied commit) once it polls — so simulate
        // the lag window by feeding the heartbeat state directly.
        put(&core, b"k", b"v2");
        let leader_now = core.borrow().leader().store().clock().now();
        link.follower.observe_heartbeat(1, leader_now).unwrap();
        let bound = Some(Nanos::from_nanos(1));
        let err = link.get(b"k", bound).unwrap_err();
        assert!(matches!(err, Error::Replication(_)), "{err}");
        // Unbounded reads still serve the old value.
        assert_eq!(link.get(b"k", None).unwrap().as_deref(), Some(&b"v1"[..]));
        // After catching up, a bound covering the heartbeat round-trip is
        // satisfiable again (staleness never reaches zero exactly: the
        // heartbeat instant trails the last commit by the ship latency).
        link.poll_until_idle().unwrap();
        let loose = Some(Nanos::from_millis(1));
        assert_eq!(link.get(b"k", loose).unwrap().as_deref(), Some(&b"v2"[..]));
    }

    #[test]
    fn duplicates_are_skipped_after_resubscribe() {
        let (core, mut link) = pair(2);
        for i in 0..20u64 {
            put(&core, format!("k{i}").as_bytes(), b"v");
        }
        link.poll_until_idle().unwrap();
        let seqs = link.follower().shard_seqs();
        // Reconnect and deliberately subscribe from seq 1 (not from the
        // follower's resume point): the server replays everything the
        // follower already applied, and apply() skips every duplicate
        // instead of double-writing.
        let mut transport = ReplLoopback::connect(&core);
        send(&mut transport, (0..2).map(|shard| Msg::Subscribe { shard, from_seq: 1 })).unwrap();
        let mut link = FollowerLink::new(transport, link.into_follower());
        let applied = link.poll_until_idle().unwrap();
        assert_eq!(applied, 0, "every replayed record is a skipped duplicate");
        assert_eq!(link.follower().shard_seqs(), seqs);
    }

    #[test]
    fn a_forged_ack_poisons_its_connection_and_moves_nothing() {
        use nob_server::Transport;
        let (core, mut link) = pair(1);
        put(&core, b"k", b"v");
        // An ack that ends no shipped record, then one for a shard the
        // leader does not have: each is a protocol error on its own
        // connection, and neither moves the leader's bookkeeping.
        for (shard, last_seq) in [(0, u64::MAX), (1, 1)] {
            let mut forger = ReplLoopback::connect(&core);
            send(&mut forger, [Msg::Ack { shard, last_seq }]).unwrap();
            let err = forger.recv(&mut Vec::new()).unwrap_err();
            assert!(matches!(err, Error::Replication(_)), "{err}");
            assert_eq!(core.borrow().leader().acked_seqs(), [0]);
        }
        // A real follower's acks still land and measure a lag.
        link.poll_until_idle().unwrap();
        assert_eq!(core.borrow().leader().acked_seqs(), link.follower().shard_seqs().as_slice());
        assert!(core.borrow().leader().replication_lag() > Nanos::ZERO);
    }

    #[test]
    fn gap_detection_refuses_a_hole() {
        let clock = nob_sim::SharedClock::new();
        let mut leader = Leader::new(Store::open_with_clock(opts(1), clock.clone()).unwrap(), 1);
        let mut follower = Follower::new(Store::open_with_clock(opts(1), clock).unwrap(), 1);
        for i in 0..3u64 {
            let mut b = WriteBatch::new();
            b.put(format!("k{i}").as_bytes(), b"v");
            leader.write(&WriteOptions::default(), b).unwrap();
        }
        let recs = leader.log().records_from(0, 1).to_vec();
        follower.apply(&recs[0]).unwrap();
        // Skip recs[1]: gap.
        let err = follower.apply(&recs[2]).unwrap_err();
        assert!(matches!(err, Error::Replication(_)), "{err}");
        // Healing the gap resumes cleanly.
        follower.apply(&recs[1]).unwrap();
        assert!(follower.apply(&recs[2]).unwrap());
        assert_eq!(follower.next_seq(0), 4);
    }

    #[test]
    fn changefeed_delivers_exactly_once_across_resume() {
        let (core, _link) = pair(1);
        for i in 0..10u64 {
            put(&core, format!("k{i}").as_bytes(), format!("v{i}").as_bytes());
        }
        let mut sub = Subscription::start(ReplLoopback::connect(&core), 0, 1).unwrap();
        let first = sub.poll().unwrap();
        assert!(!first.is_empty());
        let seen_through = first.last().unwrap().last_seq;
        // Disconnect (drop) mid-stream and resume on a new transport.
        let sub = sub.resume(ReplLoopback::connect(&core)).unwrap();
        let mut sub = sub;
        for i in 10..20u64 {
            put(&core, format!("k{i}").as_bytes(), format!("v{i}").as_bytes());
        }
        let rest = sub.poll().unwrap();
        // Exactly once, in order, no overlap with the first poll.
        let mut last = seen_through;
        for rec in &rest {
            assert_eq!(rec.first_seq, last + 1, "gap-free and duplicate-free");
            last = rec.last_seq;
        }
        assert_eq!(last, core.borrow().leader().store().shard_seqs()[0]);
    }

    #[test]
    fn promotion_fences_the_old_leader_and_keeps_acked_writes() {
        let (core, mut link) = pair(2);
        for i in 0..30u64 {
            put(&core, format!("key{i:02}").as_bytes(), format!("val{i}").as_bytes());
        }
        link.poll_until_idle().unwrap();

        // Leader "dies"; the follower is promoted.
        let follower = link.into_follower();
        let old_seqs = follower.shard_seqs();
        let mut new_leader = follower.promote();
        assert_eq!(new_leader.epoch(), 2);
        // Every acked write survives on the new leader.
        for i in 0..30u64 {
            let got = new_leader
                .store_mut()
                .get(&ReadOptions::default(), format!("key{i:02}").as_bytes())
                .unwrap();
            assert_eq!(got.as_deref(), Some(format!("val{i}").as_bytes()));
        }
        // New writes continue the same sequence chains.
        let mut b = WriteBatch::new();
        b.put(b"post-failover", b"v");
        new_leader.write(&WriteOptions::default(), b).unwrap();
        let new_seqs = new_leader.store().shard_seqs();
        assert!(new_seqs.iter().zip(&old_seqs).all(|(n, o)| n >= o));

        // The old leader observes the new epoch and is fenced.
        let mut old = core.borrow_mut();
        assert!(old.leader_mut().fence(2));
        let mut b = WriteBatch::new();
        b.put(b"zombie", b"write");
        let err = old.leader_mut().write(&WriteOptions::default(), b).unwrap_err();
        assert!(matches!(err, Error::Replication(_)), "{err}");
    }

    #[test]
    fn changefeed_resumes_against_promoted_follower() {
        let (core, mut link) = pair(1);
        for i in 0..10u64 {
            put(&core, format!("k{i}").as_bytes(), b"v");
        }
        link.poll_until_idle().unwrap();
        let mut sub = Subscription::start(ReplLoopback::connect(&core), 0, 1).unwrap();
        let first = sub.poll().unwrap();
        let seen: u64 = first.last().unwrap().last_seq;
        assert!(seen > 0);

        // Failover: promote the follower, serve it through a new core.
        let new_leader = link.into_follower().promote();
        let new_core = shared(ReplCore::new(new_leader));
        {
            let mut b = WriteBatch::new();
            b.put(b"after", b"failover");
            new_core.borrow_mut().leader_mut().write(&WriteOptions::default(), b).unwrap();
        }
        // Resume the changefeed against the new leader: no gap, no
        // duplicate, and the post-failover record arrives.
        let mut sub = sub.resume(ReplLoopback::connect(&new_core)).unwrap();
        let rest = sub.poll().unwrap();
        let mut last = seen;
        for rec in &rest {
            assert_eq!(rec.first_seq, last + 1);
            last = rec.last_seq;
        }
        assert_eq!(last, new_core.borrow().leader().store().shard_seqs()[0]);
        let epochs: std::collections::BTreeSet<u64> = rest.iter().map(|r| r.epoch).collect();
        assert!(epochs.contains(&2), "the post-failover record carries the new epoch");
    }

    #[test]
    fn repl_spans_and_lag_gauge_flow() {
        let sink = TraceSink::new();
        let (core, mut link) = pair(1);
        core.borrow_mut().leader_mut().set_trace_sink(sink.clone());
        link.follower.set_trace_sink(sink.clone());
        for i in 0..10u64 {
            put(&core, format!("k{i}").as_bytes(), &[0u8; 64]);
        }
        link.poll_until_idle().unwrap();
        assert!(sink.histogram(EventClass::ReplShip).count() > 0, "ship spans");
        assert!(sink.histogram(EventClass::ReplApply).count() > 0, "apply spans");
        assert!(sink.histogram(EventClass::ReplAck).count() > 0, "ack spans");
        assert!(core.borrow().leader().replication_lag() >= Nanos::ZERO);
    }

    #[test]
    fn identical_runs_are_deterministic() {
        let run = || {
            let (core, mut link) = pair(2);
            for i in 0..50u64 {
                put(&core, format!("key{i:02}").as_bytes(), &[i as u8; 32]);
                if i % 7 == 6 {
                    link.poll_until_idle().unwrap();
                }
            }
            link.poll_until_idle().unwrap();
            let lag = core.borrow().leader().replication_lag();
            let seqs = link.follower().shard_seqs();
            let now = core.borrow().leader().store().clock().now();
            (lag, seqs, now)
        };
        assert_eq!(run(), run());
    }
}
