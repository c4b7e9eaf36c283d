//! Leader-kill failover cases over the replication stack.
//!
//! Each case drives a seeded workload through a `nob-repl` leader with a
//! loopback follower and a raw changefeed on the same virtual clock,
//! kills the leader at a chosen instant (expressed as a per-mille of the
//! workload), promotes the follower, fences the old epoch, and checks
//! the failover contract:
//!
//! * **No acked write is lost** — every sequence the old leader saw an
//!   acknowledgement for is present on the promoted follower, and the
//!   promoted follower holds exactly the writes a poll round acknowledged:
//!   [`nob_sim::oracle`]'s rule, with every write acknowledged.
//! * **Follower reads never go backwards** — a hot key rewritten with a
//!   monotone version on every op is read throughout the run and across
//!   the promotion; the observed version never decreases.
//! * **Changefeeds resume without gaps or duplicates** — a subscription
//!   started against the old leader and resumed against the promoted
//!   follower delivers one contiguous exactly-once sequence chain, with
//!   post-failover records carrying the new epoch.
//!
//! Writes issued after the last poll round before the kill are lost with
//! the leader — they were never acknowledged, so their loss is
//! *explained*, and the outcome counts them separately from failures.
//! Everything runs over virtual time, so a fixed case is bit-for-bit
//! reproducible.

use nob_repl::{shared, Follower, FollowerLink, Leader, ReplCore, ReplLoopback, Subscription};
use nob_sim::oracle::Oracle;
use nob_sim::{Nanos, SharedClock};
use nob_store::{Store, StoreOptions};
use noblsm::{Error, ReadOptions, Result, ScanOptions, WriteBatch, WriteOptions};

/// One leader-kill case: a seeded workload killed at a fixed point.
#[derive(Debug, Clone)]
pub struct FailoverCase {
    /// Workload seed (keys, values, poll cadence).
    pub seed: u64,
    /// Kill instant as a per-mille of `ops` (0 is clamped to the first op).
    pub kill_pm: u32,
    /// Store shards on both sides.
    pub shards: usize,
    /// Total write ops; the tail after the kill runs on the new leader.
    pub ops: usize,
    /// Padding size of generated values, bytes.
    pub value_size: usize,
}

/// What one case observed; `pass` is `failures.is_empty()`.
#[derive(Debug, Clone)]
pub struct FailoverOutcome {
    /// The case that produced this outcome.
    pub case: FailoverCase,
    /// Every violated invariant, human-readable. Empty means pass.
    pub failures: Vec<String>,
    /// Records the old leader had seen acks for at the kill, all shards.
    pub acked_records: u64,
    /// Sum of the follower's applied sequences at the kill.
    pub applied_seq_total: u64,
    /// Writes issued after the last poll round — lost with the leader,
    /// never acked, so their loss is explained rather than a failure.
    pub lost_unacked: u64,
    /// Distinct keys verified byte-for-byte on the promoted leader.
    pub recovered_keys: u64,
    /// Records the changefeed delivered exactly once across the failover.
    pub feed_records: u64,
    /// Epoch before and after the promotion.
    pub old_epoch: u64,
    /// The promoted leader's epoch (`old_epoch + 1`).
    pub new_epoch: u64,
}

impl FailoverOutcome {
    /// Whether every invariant held.
    pub fn pass(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Splitmix-style step, same generator family as the crash harness.
fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let mut z = *state;
    z ^= z >> 33;
    z = z.wrapping_mul(0xff51afd7ed558ccd);
    z ^ (z >> 33)
}

/// The hot key used for the monotone-read probe.
const HOT: &[u8] = b"hot";

/// Extracts the version counter out of a hot-key value (`hot:NNNNNNNN`).
fn hot_version(v: &[u8]) -> Option<u64> {
    std::str::from_utf8(v).ok()?.strip_prefix("hot:")?.parse().ok()
}

struct Tracker {
    /// Every put, acknowledged when a poll round has shipped it.
    oracle: Oracle,
    /// Highest hot-key version ever observed by a read.
    hot_seen: u64,
    failures: Vec<String>,
}

impl Tracker {
    /// Records a follower/leader read of the hot key, checking that the
    /// observed version never moves backwards.
    fn observe_hot(&mut self, v: Option<Vec<u8>>, site: &str) {
        let Some(v) = v else { return };
        match hot_version(&v) {
            Some(ver) if ver < self.hot_seen => self.failures.push(format!(
                "{site} read went backwards: hot version {ver} after {}",
                self.hot_seen
            )),
            Some(ver) => self.hot_seen = ver,
            None => self.failures.push(format!("{site} read returned a malformed hot value")),
        }
    }

    /// Scans `store` at the present and checks it against the oracle, a
    /// failure per lost or fabricated key, then reads the hot key from the
    /// same rows. Returns the acked keys that read back.
    fn check(&mut self, store: &mut Store, site: &str) -> Result<u64> {
        let rows = store.scan(&ReadOptions::default(), &ScanOptions::all())?.rows;
        let verdict = self.oracle.check(&rows, store.clock().now());
        let lost = verdict.lost.iter().map(|k| (k, "acked key lost"));
        for (k, what) in lost.chain(verdict.fabricated.iter().map(|k| (k, "never written"))) {
            self.failures.push(format!("{site}: {what}: {:?}", String::from_utf8_lossy(k)));
        }
        let hot = rows.into_iter().find(|(k, _)| k == HOT).map(|(_, v)| v);
        self.observe_hot(hot, site);
        Ok(verdict.acked.iter().filter(|k| !verdict.lost.contains(k)).count() as u64)
    }
}

/// Writes op `i` through `leader`, logging both puts in the oracle.
fn issue_op(
    leader: &mut Leader,
    t: &mut Tracker,
    rng: &mut u64,
    i: usize,
    value_size: usize,
) -> Result<()> {
    let key = format!("k{:04}", lcg(rng) % 512).into_bytes();
    let val = format!("op{i:06}:{}", "x".repeat(value_size)).into_bytes();
    let hot = format!("hot:{i:08}").into_bytes();
    let mut batch = WriteBatch::new();
    batch.put(&key, &val);
    batch.put(HOT, &hot);
    let issued = leader.store().clock().now();
    t.oracle.put(issued, &key, &val);
    t.oracle.put(issued, HOT, &hot);
    leader.write(&WriteOptions::default(), batch)?;
    Ok(())
}

/// Drains the changefeed, enforcing the contiguous exactly-once chain
/// and (when `min_epoch` is set) the post-failover epoch tag.
fn drain_feed(
    sub: &mut Subscription<ReplLoopback>,
    feed_next: &mut u64,
    feed_records: &mut u64,
    min_epoch: Option<u64>,
    failures: &mut Vec<String>,
) {
    loop {
        let recs = match sub.poll() {
            Ok(r) => r,
            Err(e) => {
                failures.push(format!("changefeed poll failed: {e}"));
                return;
            }
        };
        if recs.is_empty() {
            return;
        }
        for rec in recs {
            if rec.first_seq != *feed_next {
                failures.push(format!(
                    "changefeed chain broke: expected seq {}, delivered {}..{}",
                    feed_next, rec.first_seq, rec.last_seq
                ));
            }
            if let Some(min) = min_epoch {
                if rec.epoch < min {
                    failures
                        .push(format!("post-failover record carries epoch {} < {min}", rec.epoch));
                }
            }
            *feed_next = rec.last_seq + 1;
            *feed_records += 1;
        }
    }
}

/// Runs one leader-kill case end to end.
pub fn run_failover_case(case: &FailoverCase) -> FailoverOutcome {
    match run_failover_case_inner(case) {
        Ok(outcome) => outcome,
        Err(e) => FailoverOutcome {
            case: case.clone(),
            failures: vec![format!("harness error: {e}")],
            acked_records: 0,
            applied_seq_total: 0,
            lost_unacked: 0,
            recovered_keys: 0,
            feed_records: 0,
            old_epoch: 0,
            new_epoch: 0,
        },
    }
}

fn run_failover_case_inner(case: &FailoverCase) -> Result<FailoverOutcome> {
    let clock = SharedClock::new();
    let opts = StoreOptions { shards: case.shards, ..StoreOptions::default() };
    let leader_store = Store::open_with_clock(opts.clone(), clock.clone())?;
    let follower_store = Store::open_with_clock(opts, clock.clone())?;

    let old_epoch = 1;
    let core = shared(ReplCore::new(Leader::new(leader_store, old_epoch)));
    let mut link =
        FollowerLink::new(ReplLoopback::connect(&core), Follower::new(follower_store, old_epoch));
    link.subscribe()?;
    let mut sub = Subscription::start(ReplLoopback::connect(&core), 0, 1)?;

    let mut rng = case.seed ^ 0x9e3779b97f4a7c15;
    let mut t = Tracker { oracle: Oracle::default(), hot_seen: 0, failures: Vec::new() };
    let mut feed_next = 1u64;
    let mut feed_records = 0u64;

    let kill_op = (case.ops * case.kill_pm as usize / 1000).clamp(1, case.ops);
    // The final ops before the kill go unpolled: they are committed on
    // the leader but never shipped, modelling in-flight loss. Varies by
    // seed so some cases kill cleanly at a poll boundary.
    let tail_silence = (case.seed % 4) as usize;
    let last_poll_op = kill_op.saturating_sub(tail_silence);

    let loose = Some(Nanos::from_secs(3600));
    for i in 0..kill_op {
        issue_op(core.borrow_mut().leader_mut(), &mut t, &mut rng, i, case.value_size)?;
        // Poll every third op, plus one full round at the horizon; the
        // silent tail after it is committed on the leader but never ships.
        if i < last_poll_op && (i % 3 == 2 || i + 1 == last_poll_op) {
            link.poll_until_idle()?;
            t.oracle.ack(.., clock.now());
            drain_feed(&mut sub, &mut feed_next, &mut feed_records, None, &mut t.failures);
            t.observe_hot(link.get(HOT, loose)?, "follower");
        }
    }

    // ---- the kill ----------------------------------------------------
    let acked = core.borrow().leader().acked_seqs().to_vec();
    let leader_seqs = core.borrow().leader().store().shard_seqs();
    let applied = link.follower().shard_seqs();
    for s in 0..case.shards {
        if acked[s] > applied[s] {
            t.failures.push(format!(
                "shard {s}: leader acked through {} but the follower only applied {}",
                acked[s], applied[s]
            ));
        }
    }
    if feed_next != applied[0] + 1 {
        t.failures.push(format!(
            "changefeed and follower disagree on the surviving prefix: feed at {}, applied {}",
            feed_next - 1,
            applied[0]
        ));
    }
    let lost_unacked: u64 =
        leader_seqs.iter().zip(&applied).map(|(l, a)| l.saturating_sub(*a)).sum();
    let acked_records: u64 = {
        let core = core.borrow();
        (0..case.shards)
            .map(|s| {
                let recs = core.leader().log().records_from(s, 1);
                recs.iter().filter(|r| r.last_seq <= acked[s]).count() as u64
            })
            .sum()
    };

    // Promote; fence the old leader and prove the fence holds.
    let mut new_leader = link.into_follower().promote();
    let new_epoch = new_leader.epoch();
    if new_epoch != old_epoch + 1 {
        t.failures
            .push(format!("promotion produced epoch {new_epoch}, expected {}", old_epoch + 1));
    }
    {
        let mut old = core.borrow_mut();
        if !old.leader_mut().fence(new_epoch) {
            t.failures.push("old leader did not fence on observing the new epoch".into());
        }
        let mut b = WriteBatch::new();
        b.put(b"zombie", b"write");
        match old.leader_mut().write(&WriteOptions::default(), b) {
            Err(Error::Replication(_)) => {}
            other => t
                .failures
                .push(format!("fenced leader accepted a write (or failed oddly): {other:?}")),
        }
    }
    drop(core);

    // The old leader's unshipped tail died with it: the promoted follower
    // must hold exactly what the poll rounds acknowledged, and no later
    // state may show the tail.
    t.oracle.forget_unacked();
    let recovered_keys = t.check(new_leader.store_mut(), "promoted leader")?;

    // ---- life after the failover -------------------------------------
    let new_core = shared(ReplCore::new(new_leader));
    sub = sub.resume(ReplLoopback::connect(&new_core))?;
    for i in kill_op..case.ops {
        issue_op(new_core.borrow_mut().leader_mut(), &mut t, &mut rng, i, case.value_size)?;
    }
    drain_feed(&mut sub, &mut feed_next, &mut feed_records, Some(new_epoch), &mut t.failures);
    {
        let mut nc = new_core.borrow_mut();
        let final_seqs = nc.leader().store().shard_seqs();
        if feed_next != final_seqs[0] + 1 {
            t.failures.push(format!(
                "changefeed ended at seq {} but shard 0 committed through {}",
                feed_next - 1,
                final_seqs[0]
            ));
        }
        // Every post-failover write has returned and must read back.
        t.oracle.ack(.., clock.now());
        t.check(nc.leader_mut().store_mut(), "new leader")?;
    }

    Ok(FailoverOutcome {
        case: case.clone(),
        failures: t.failures,
        acked_records,
        applied_seq_total: applied.iter().sum(),
        lost_unacked,
        recovered_keys,
        feed_records,
        old_epoch,
        new_epoch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-shard sweep, 3 seeds × 4 kill instants, beside the 4-shard
    /// one that `nob-bench`'s `fig_failover` pins.
    #[test]
    fn smoke_sweep_is_green() {
        let mut results = Vec::new();
        for seed in [1, 2, 3] {
            for kill_pm in [125, 500, 875, 1000] {
                let case = FailoverCase { seed, kill_pm, shards: 2, ops: 80, value_size: 24 };
                results.push(run_failover_case(&case));
            }
        }
        let bad: Vec<_> = results.iter().filter(|r| !r.pass()).collect();
        assert!(bad.is_empty(), "failing cases: {bad:?}");
        // The sweep must actually exercise the machinery.
        assert!(results.iter().all(|r| r.recovered_keys > 0));
        assert!(results.iter().all(|r| r.feed_records > 0));
        assert!(results.iter().all(|r| r.new_epoch == 2));
        // At least one seed leaves in-flight writes behind (explained loss).
        assert!(results.iter().any(|r| r.lost_unacked > 0));
    }

    #[test]
    fn kill_at_the_edges_still_promotes() {
        for kill_pm in [0, 1000] {
            let case = FailoverCase { seed: 7, kill_pm, shards: 2, ops: 40, value_size: 16 };
            let r = run_failover_case(&case);
            assert!(r.pass(), "kill_pm={kill_pm}: {:?}", r.failures);
            assert_eq!(r.new_epoch, 2);
        }
    }

    /// A fixed case's whole outcome, every field, repeats exactly.
    #[test]
    fn report_is_bit_for_bit_reproducible() {
        for seed in [11, 12] {
            for kill_pm in [300, 700] {
                let case = FailoverCase { seed, kill_pm, shards: 2, ops: 48, value_size: 16 };
                let a = run_failover_case(&case);
                assert!(a.pass(), "seed={seed} kill_pm={kill_pm}: {:?}", a.failures);
                let b = run_failover_case(&case);
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "a fixed case is bit-for-bit stable"
                );
            }
        }
    }
}
