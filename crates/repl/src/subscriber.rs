//! Client-side consumers of the replication stream: the follower link
//! (applies records to a [`Follower`]) and the raw changefeed
//! subscription (hands records to the application).
//!
//! Both are generic over [`nob_server::Transport`], so the identical
//! logic runs over the deterministic loopback and real TCP.

use nob_server::{Decoder, Transport};
use nob_sim::Nanos;
use noblsm::{Error, Result};

use crate::changelog::LogRecord;
use crate::follower::Follower;
use crate::wire::{next_msg, send, Msg};

/// One receive round, shared by both subscribers: pulls what `transport`
/// has, hands every complete message to `on`, and acknowledges each
/// record `on` accepts (returns `true` for). A leader that sends a
/// client-side message is [`noblsm::Error::Replication`].
fn receive<T: Transport>(
    transport: &mut T,
    decoder: &mut Decoder,
    mut on: impl FnMut(Msg) -> Result<bool>,
) -> Result<()> {
    let mut bytes = Vec::new();
    transport.recv(&mut bytes)?;
    decoder.push(&bytes);
    let mut acks = Vec::new();
    while let Some(msg) = next_msg(decoder)? {
        let ack = match &msg {
            Msg::Record(rec) => Some(Msg::Ack { shard: rec.shard, last_seq: rec.last_seq }),
            Msg::Heartbeat { .. } => None,
            other => {
                return Err(Error::Replication(format!("a subscriber received {other:?}")));
            }
        };
        let accepted = on(msg)?;
        acks.extend(ack.filter(|_| accepted));
    }
    send(transport, acks)
}

/// Drives a [`Follower`] over a transport: subscribes every shard from
/// the follower's applied position, applies incoming records, and acks.
pub struct FollowerLink<T: Transport> {
    transport: T,
    pub(crate) follower: Follower,
    decoder: Decoder,
}

impl<T: Transport> FollowerLink<T> {
    /// Pairs `follower` with `transport`. Call
    /// [`subscribe`](FollowerLink::subscribe) before polling.
    pub fn new(transport: T, follower: Follower) -> FollowerLink<T> {
        FollowerLink { transport, follower, decoder: Decoder::new() }
    }

    /// Subscribes every shard from the follower's next needed sequence —
    /// idempotent, and exactly what a reconnect after a disconnect does.
    ///
    /// # Errors
    ///
    /// Transport failures pass through.
    pub fn subscribe(&mut self) -> Result<()> {
        let follower = &self.follower;
        let shards = 0..follower.store().shards();
        let subscribe = |shard| Msg::Subscribe { shard, from_seq: follower.next_seq(shard) };
        send(&mut self.transport, shards.map(subscribe))
    }

    /// One receive round: pulls available bytes, applies every complete
    /// record, acknowledges applied shards, observes heartbeats. Returns
    /// the number of records applied.
    ///
    /// # Errors
    ///
    /// Transport, protocol and apply failures pass through (a sequence
    /// gap or stale epoch is [`noblsm::Error::Replication`]).
    pub fn poll(&mut self) -> Result<usize> {
        let follower = &mut self.follower;
        let mut applied = 0;
        receive(&mut self.transport, &mut self.decoder, |msg| match msg {
            Msg::Record(rec) => {
                let fresh = follower.apply(&rec)?;
                applied += usize::from(fresh);
                Ok(fresh)
            }
            Msg::Heartbeat { epoch, leader_now, .. } => {
                follower.observe_heartbeat(epoch, leader_now)?;
                Ok(false)
            }
            _ => Ok(false),
        })?;
        Ok(applied)
    }

    /// Polls until a round applies nothing — the link has caught up with
    /// everything the leader has shipped. Returns total records applied.
    ///
    /// # Errors
    ///
    /// As for [`poll`](FollowerLink::poll).
    pub fn poll_until_idle(&mut self) -> Result<usize> {
        let mut total = 0;
        loop {
            let n = self.poll()?;
            total += n;
            if n == 0 {
                return Ok(total);
            }
        }
    }

    /// Follower read through the link, served only while the owning
    /// shard lags the leader by at most `max_staleness` (`None` accepts
    /// any lag).
    ///
    /// # Errors
    ///
    /// [`noblsm::Error::Replication`] when the owning shard's staleness
    /// exceeds the requested bound; store/engine errors pass through.
    pub fn get(&mut self, key: &[u8], max_staleness: Option<Nanos>) -> Result<Option<Vec<u8>>> {
        self.follower.get(key, max_staleness)
    }

    /// The driven follower.
    pub fn follower(&self) -> &Follower {
        &self.follower
    }

    /// Unpairs, returning the follower (promotion after the leader died).
    pub fn into_follower(self) -> Follower {
        self.follower
    }
}

/// A raw changefeed: streams one shard's committed records to the
/// application, exactly once and in order, resumable across disconnects
/// and leader failovers.
pub struct Subscription<T: Transport> {
    transport: T,
    shard: usize,
    /// The next sequence this subscriber has not delivered.
    next: u64,
    decoder: Decoder,
}

impl<T: Transport> Subscription<T> {
    /// Opens a changefeed on `shard` starting at `from_seq` (use 1, or
    /// `0`, for "from the beginning").
    ///
    /// # Errors
    ///
    /// Transport failures pass through.
    pub fn start(mut transport: T, shard: usize, from_seq: u64) -> Result<Subscription<T>> {
        let next = from_seq.max(1);
        send(&mut transport, [Msg::Subscribe { shard, from_seq: next }])?;
        Ok(Subscription { transport, shard, next, decoder: Decoder::new() })
    }

    /// Re-opens this changefeed over a new transport — after a
    /// disconnect, or against a promoted follower after failover —
    /// resuming at the exact next undelivered sequence.
    ///
    /// # Errors
    ///
    /// Transport failures pass through.
    pub fn resume<U: Transport>(self, transport: U) -> Result<Subscription<U>> {
        Subscription::start(transport, self.shard, self.next)
    }

    /// The shard this changefeed follows.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The next sequence number this changefeed will deliver.
    pub fn next_seq(&self) -> u64 {
        self.next
    }

    /// One receive round: returns the new records delivered (possibly
    /// empty), acknowledging each. Redelivered records — the server
    /// replays from the subscribed point after a resume — are filtered
    /// out, which is what makes delivery exactly-once.
    ///
    /// # Errors
    ///
    /// Transport and protocol failures pass through; a delivered record
    /// that would leave a gap is [`noblsm::Error::Replication`].
    pub fn poll(&mut self) -> Result<Vec<LogRecord>> {
        let (shard, next) = (self.shard, &mut self.next);
        let mut out = Vec::new();
        receive(&mut self.transport, &mut self.decoder, |msg| {
            let Msg::Record(rec) = msg else { return Ok(false) };
            if rec.shard != shard || rec.last_seq < *next {
                return Ok(false); // other shard, or a redelivered duplicate
            }
            if rec.first_seq > *next {
                return Err(Error::Replication(format!(
                    "changefeed gap on shard {shard}: expected seq {next}, got {}",
                    rec.first_seq
                )));
            }
            *next = rec.last_seq + 1;
            out.push(rec);
            Ok(true)
        })?;
        Ok(out)
    }
}
