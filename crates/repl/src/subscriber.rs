//! Client-side consumers of the replication stream: the follower link
//! (applies records to a [`Follower`]) and the raw changefeed
//! subscription (hands records to the application).
//!
//! Both are generic over [`nob_server::Transport`], so the identical
//! logic runs over the deterministic loopback and real TCP.

use nob_server::Transport;
use nob_sim::Nanos;
use nob_trace::TraceCtx;
use noblsm::{Error, ReadOptions, Result};

use crate::changelog::LogRecord;
use crate::follower::Follower;
use crate::wire::{encode, Frame, FrameReader};

/// Drives a [`Follower`] over a transport: subscribes every shard from
/// the follower's applied position, applies incoming records, and acks.
pub struct FollowerLink<T: Transport> {
    transport: T,
    pub(crate) follower: Follower,
    reader: FrameReader,
}

impl<T: Transport> FollowerLink<T> {
    /// Pairs `follower` with `transport`. Call
    /// [`subscribe`](FollowerLink::subscribe) before polling.
    pub fn new(transport: T, follower: Follower) -> FollowerLink<T> {
        FollowerLink { transport, follower, reader: FrameReader::new() }
    }

    /// Subscribes every shard from the follower's next needed sequence —
    /// idempotent, and exactly what a reconnect after a disconnect does.
    ///
    /// # Errors
    ///
    /// Transport failures pass through.
    pub fn subscribe(&mut self) -> Result<()> {
        let mut wire = Vec::new();
        for shard in 0..self.follower.store().shards() {
            let from_seq = self.follower.next_seq(shard);
            encode(&Frame::Subscribe { shard: shard as u32, from_seq }, &mut wire);
        }
        self.transport.send(&wire)
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
        let mut bytes = Vec::new();
        self.transport.recv(&mut bytes)?;
        self.reader.feed(&bytes);
        let mut applied = 0;
        let mut acks = Vec::new();
        while let Some(frame) = self.reader.next_frame()? {
            match frame {
                Frame::Record {
                    shard,
                    epoch,
                    first_seq,
                    last_seq,
                    committed_at,
                    trace,
                    span,
                    payload,
                } => {
                    let rec = LogRecord {
                        shard: shard as usize,
                        epoch,
                        first_seq,
                        last_seq,
                        payload,
                        committed_at: Nanos::from_nanos(committed_at),
                        // The wire carries the ship span's identity; its
                        // parent lives on the leader and is not needed to
                        // parent the apply span beneath it.
                        ctx: TraceCtx { trace, span, parent: 0 },
                    };
                    if self.follower.apply(&rec)? {
                        applied += 1;
                        acks.push(Frame::Ack { shard, last_seq });
                    }
                }
                Frame::Heartbeat { epoch, leader_now, .. } => {
                    self.follower.observe_heartbeat(epoch, Nanos::from_nanos(leader_now))?;
                }
                other => {
                    return Err(Error::Replication(format!(
                        "unexpected frame on a follower link: {other:?}"
                    )));
                }
            }
        }
        if !acks.is_empty() {
            let mut wire = Vec::new();
            for ack in &acks {
                encode(ack, &mut wire);
            }
            self.transport.send(&wire)?;
        }
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

    /// Follower read through the link, honouring
    /// [`ReadOptions::max_staleness`].
    ///
    /// # Errors
    ///
    /// [`noblsm::Error::Replication`] when the owning shard's staleness
    /// exceeds the requested bound; store/engine errors pass through.
    pub fn get(&mut self, ropts: &ReadOptions<'_>, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.follower.get(ropts, key)
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
    reader: FrameReader,
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
        let mut wire = Vec::new();
        encode(&Frame::Subscribe { shard: shard as u32, from_seq: next }, &mut wire);
        transport.send(&wire)?;
        Ok(Subscription { transport, shard, next, reader: FrameReader::new() })
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
        let mut bytes = Vec::new();
        self.transport.recv(&mut bytes)?;
        self.reader.feed(&bytes);
        let mut out = Vec::new();
        let mut acks = Vec::new();
        while let Some(frame) = self.reader.next_frame()? {
            match frame {
                Frame::Record {
                    shard,
                    epoch,
                    first_seq,
                    last_seq,
                    committed_at,
                    trace,
                    span,
                    payload,
                } => {
                    if shard as usize != self.shard || last_seq < self.next {
                        continue; // other shard, or a redelivered duplicate
                    }
                    if first_seq > self.next {
                        return Err(Error::Replication(format!(
                            "changefeed gap on shard {shard}: expected seq {}, got {first_seq}",
                            self.next
                        )));
                    }
                    self.next = last_seq + 1;
                    acks.push(Frame::Ack { shard, last_seq });
                    out.push(LogRecord {
                        shard: shard as usize,
                        epoch,
                        first_seq,
                        last_seq,
                        payload,
                        committed_at: Nanos::from_nanos(committed_at),
                        ctx: TraceCtx { trace, span, parent: 0 },
                    });
                }
                Frame::Heartbeat { .. } => {}
                other => {
                    return Err(Error::Replication(format!(
                        "unexpected frame on a changefeed: {other:?}"
                    )));
                }
            }
        }
        if !acks.is_empty() {
            let mut wire = Vec::new();
            for ack in &acks {
                encode(ack, &mut wire);
            }
            self.transport.send(&wire)?;
        }
        Ok(out)
    }
}
