//! The leader-side replication endpoint: connection state and message
//! dispatch.
//!
//! [`ReplCore`] implements the serving crate's [`Endpoint`] — request
//! bytes in through `feed`, record and heartbeat bytes out through
//! `drain`, all of them RESP, no I/O of its own — so the serving crate's
//! two front-ends drive it unchanged: the loopback ([`ReplLoopback`],
//! deterministic tests on virtual time) and the TCP thread set
//! ([`ReplTcpServer`](crate::ReplTcpServer), real runs), byte for byte.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use nob_server::{Decoder, Endpoint, Loopback};
use noblsm::{Error, Result};

use crate::changelog::LogRecord;
use crate::leader::Leader;
use crate::wire::{next_msg, Msg};

/// Server-side handle for one replication connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReplConnId(u64);

struct Conn {
    decoder: Decoder,
    outbox: Vec<u8>,
    /// Per-shard subscription cursor: the next sequence to stream, `None`
    /// while not subscribed to that shard.
    cursors: Vec<Option<u64>>,
    /// The protocol error that ended this connection: further input is
    /// ignored, every later `drain` reports it, the front-end reaps it.
    poisoned: Option<Error>,
}

/// The leader-side endpoint: owns the [`Leader`] and serves any number of
/// subscriber connections.
pub struct ReplCore {
    leader: Leader,
    conns: BTreeMap<u64, Conn>,
    next_conn: u64,
}

impl ReplCore {
    /// Wraps `leader` for serving.
    pub fn new(leader: Leader) -> ReplCore {
        ReplCore { leader, conns: BTreeMap::new(), next_conn: 0 }
    }

    /// The wrapped leader.
    pub fn leader(&self) -> &Leader {
        &self.leader
    }

    /// Mutable access to the wrapped leader (writes, trace/metrics
    /// wiring, crash injection).
    pub fn leader_mut(&mut self) -> &mut Leader {
        &mut self.leader
    }

    /// Open connections.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    fn dispatch(&mut self, conn: ReplConnId, msg: Msg) -> Result<()> {
        match msg {
            Msg::Subscribe { shard, from_seq } => {
                let c = self.conns.get_mut(&conn.0).expect("dispatch on a live conn");
                if shard >= c.cursors.len() {
                    return Err(Error::Replication(format!(
                        "subscribe to shard {shard} but the leader has {} shards",
                        c.cursors.len()
                    )));
                }
                c.cursors[shard] = Some(from_seq.max(1));
                Ok(())
            }
            Msg::Ack { shard, last_seq } => self.leader.ack(shard, last_seq),
            Msg::Fence { epoch } => {
                self.leader.fence(epoch);
                Ok(())
            }
            Msg::Record(_) | Msg::Heartbeat { .. } => {
                Err(Error::Replication("client sent a server-side message".into()))
            }
        }
    }

    /// Streams what `conn` is due — new records past each subscribed
    /// cursor, then one heartbeat — into its outbox. A cursor below the
    /// log's retained base surfaces as [`noblsm::Error::Replication`]
    /// (the subscriber must re-seed).
    fn pump(&mut self, conn: ReplConnId) -> Result<()> {
        // Pick up anything the leader committed since the last pump.
        self.leader.absorb()?;
        let Some(c) = self.conns.get_mut(&conn.0) else {
            return Err(Error::Usage("pump on an unknown replication connection".into()));
        };
        if let Some(e) = &c.poisoned {
            return Err(e.clone());
        }
        let epoch = self.leader.epoch();
        for shard in 0..c.cursors.len() {
            let Some(cursor) = c.cursors[shard] else { continue };
            let records = self.leader.log().records_from(shard, cursor);
            for rec in records {
                // Streamed under the leader's current epoch, not the one
                // the record was logged under.
                Msg::Record(LogRecord { epoch, ..rec.clone() }).encode(&mut c.outbox);
            }
            if let Some(last) = records.last() {
                c.cursors[shard] = Some(last.last_seq + 1);
            }
        }
        // Subscribers key staleness off the leader clock's instant.
        let store = self.leader.store();
        let (leader_now, shard_seqs) = (store.clock().now(), store.shard_seqs());
        Msg::Heartbeat { epoch, leader_now, shard_seqs }.encode(&mut c.outbox);
        Ok(())
    }
}

/// How often the TCP engine wakes without input, so heartbeats and
/// records committed by the embedding application ship while the
/// subscribers are silent.
const HEARTBEAT_TICK: Duration = Duration::from_millis(25);

impl Endpoint for ReplCore {
    type Conn = ReplConnId;

    const IDLE_TICK: Option<Duration> = Some(HEARTBEAT_TICK);

    /// Registers a new subscriber connection.
    fn connect(&mut self) -> ReplConnId {
        let id = self.next_conn;
        self.next_conn += 1;
        let shards = self.leader.store().shards();
        self.conns.insert(
            id,
            Conn {
                decoder: Decoder::new(),
                outbox: Vec::new(),
                cursors: vec![None; shards],
                poisoned: None,
            },
        );
        ReplConnId(id)
    }

    /// Decodes and dispatches complete messages (SUBSCRIBE moves the
    /// cursor, ACK records progress, FENCE fences the leader). A message
    /// that fails to decode or dispatch poisons the connection — a bad
    /// peer is dropped, never fatal to the endpoint.
    fn feed(&mut self, conn: ReplConnId, bytes: &[u8]) -> Result<()> {
        let Some(c) = self.conns.get_mut(&conn.0) else {
            return Err(Error::Usage("feed on an unknown replication connection".into()));
        };
        if c.poisoned.is_some() {
            return Ok(()); // drain-only: ignore further input
        }
        c.decoder.push(bytes);
        let poison = loop {
            let c = self.conns.get_mut(&conn.0).expect("checked above");
            let Some(msg) = next_msg(&mut c.decoder).transpose() else { return Ok(()) };
            if let Err(e) = msg.and_then(|msg| self.dispatch(conn, msg)) {
                break e;
            }
        };
        self.conns.get_mut(&conn.0).expect("checked above").poisoned = Some(poison);
        Ok(())
    }

    /// Pumps `conn`, then takes its outbox. A poisoned connection reports
    /// the error that poisoned it; a stream gap is an error too, but the
    /// subscriber may re-subscribe past it on the same connection.
    fn drain(&mut self, conn: ReplConnId) -> Result<Vec<u8>> {
        self.pump(conn)?;
        Ok(self.conns.get_mut(&conn.0).map(|c| std::mem::take(&mut c.outbox)).unwrap_or_default())
    }

    /// A subscriber's stream never ends by itself, so a closed peer is
    /// dropped at once.
    fn finished(&self, conn: ReplConnId, peer_closed: bool) -> bool {
        peer_closed || self.conns.get(&conn.0).is_none_or(|c| c.poisoned.is_some())
    }

    fn disconnect(&mut self, conn: ReplConnId) {
        self.conns.remove(&conn.0);
    }
}

/// Shared handle to an in-process [`ReplCore`] that loopback subscribers
/// multiplex onto.
pub type SharedRepl = Rc<RefCell<ReplCore>>;

/// In-process replication transport on virtual time: `send` feeds the
/// core, `recv` pumps it and takes the connection's output.
pub type ReplLoopback = Loopback<ReplCore>;
