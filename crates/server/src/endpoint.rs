//! The seam between a transport-independent serving core and the two
//! front-ends that drive one: the TCP thread set ([`crate::tcp`]) and the
//! in-process loopback ([`crate::transport::Loopback`]).
//!
//! A core does no I/O of its own: bytes from a peer go in through
//! [`Endpoint::feed`], bytes for it come out of [`Endpoint::drain`].
//! [`ServerCore`] (RESP requests against the store) and `nob-repl`'s
//! `ReplCore` (WAL shipping to subscribers) both implement it, so the
//! accept/reader/writer/engine threads and the loopback exist once.

use std::time::Duration;

use noblsm::Result;

use crate::core::{ConnId, ServerCore};

/// A single-threaded serving core with any number of peer connections.
pub trait Endpoint {
    /// Handle of one peer connection.
    type Conn: Copy;

    /// How often the TCP engine thread wakes without input, for an
    /// endpoint that produces output on its own (heartbeats, records
    /// committed by the embedding application). `None`: output only ever
    /// follows input, so the engine blocks until some arrives.
    const IDLE_TICK: Option<Duration> = None;

    /// Registers a new connection.
    fn connect(&mut self) -> Self::Conn;

    /// Feeds raw bytes from `conn`'s peer and executes every complete
    /// request. A peer's protocol error is not an `Err`: it poisons that
    /// connection only, which [`Endpoint::finished`] then reports.
    ///
    /// # Errors
    ///
    /// Failures of the endpoint itself (store, engine): fatal to the
    /// front-end driving it.
    fn feed(&mut self, conn: Self::Conn, bytes: &[u8]) -> Result<()>;

    /// Settles work shared by all connections whose results their output
    /// waits on (the group-commit queue). Front-ends call it when input
    /// goes quiet, before draining.
    ///
    /// # Errors
    ///
    /// As for [`Endpoint::feed`].
    fn settle(&mut self) -> Result<()> {
        Ok(())
    }

    /// Takes the bytes `conn`'s peer is due (empty if none).
    ///
    /// # Errors
    ///
    /// This connection cannot be served any further (the endpoint goes on).
    fn drain(&mut self, conn: Self::Conn) -> Result<Vec<u8>>;

    /// Whether `conn` should now be dropped: it is poisoned or its peer
    /// closed (`peer_closed`), and nothing is left to say to it.
    fn finished(&self, conn: Self::Conn, peer_closed: bool) -> bool;

    /// Drops `conn`'s state. Safe to call twice.
    fn disconnect(&mut self, conn: Self::Conn);
}

impl Endpoint for ServerCore {
    type Conn = ConnId;

    fn connect(&mut self) -> ConnId {
        ServerCore::connect(self)
    }

    fn feed(&mut self, conn: ConnId, bytes: &[u8]) -> Result<()> {
        ServerCore::feed(self, conn, bytes)
    }

    fn settle(&mut self) -> Result<()> {
        self.flush()
    }

    fn drain(&mut self, conn: ConnId) -> Result<Vec<u8>> {
        Ok(self.take_output(conn))
    }

    fn finished(&self, conn: ConnId, peer_closed: bool) -> bool {
        // A closed or poisoned connection still gets the replies to what
        // it already sent.
        (peer_closed || self.is_poisoned(conn))
            && !self.output_blocked(conn)
            && self.pending_replies(conn) == 0
    }

    fn disconnect(&mut self, conn: ConnId) {
        ServerCore::disconnect(self, conn);
    }
}
