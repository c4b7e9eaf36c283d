//! Client-side byte transports: the real TCP socket and the
//! deterministic in-process loopback.
//!
//! Both implement [`Transport`], so [`Client`](crate::client::Client) is
//! generic over them: protocol and serving logic is exercised identically
//! whether bytes cross a socket or a function call. The loopback runs the
//! whole request/reply cycle on the [`SharedClock`](nob_sim::SharedClock)
//! virtual timeline — single-threaded, bit-for-bit reproducible — which
//! is what keeps the serving benches golden-pinnable.

use std::cell::RefCell;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::rc::Rc;

use noblsm::Result;

use crate::core::ServerCore;
use crate::endpoint::Endpoint;

/// A bidirectional byte pipe a [`Client`](crate::client::Client) drives.
pub trait Transport {
    /// Ships request bytes toward the server.
    ///
    /// # Errors
    ///
    /// Transport failures ([`noblsm::Error::Io`] for TCP; loopback only
    /// propagates store errors).
    fn send(&mut self, bytes: &[u8]) -> Result<()>;

    /// Appends available reply bytes to `out`, returning how many were
    /// appended. `Ok(0)` means the peer closed (TCP) or no reply is
    /// pending (loopback) — never "try again".
    ///
    /// # Errors
    ///
    /// Transport failures, as for [`send`](Transport::send).
    fn recv(&mut self, out: &mut Vec<u8>) -> Result<usize>;
}

/// Shared handle to an in-process [`ServerCore`] that loopback clients
/// multiplex onto (single-threaded, like the TCP engine thread).
pub type SharedCore = Rc<RefCell<ServerCore>>;

/// Wraps a core for loopback use.
pub fn shared<E>(core: E) -> Rc<RefCell<E>> {
    Rc::new(RefCell::new(core))
}

/// In-process transport: one connection driven by direct calls into a
/// shared [`Endpoint`] on virtual time.
pub struct Loopback<E: Endpoint> {
    core: Rc<RefCell<E>>,
    conn: E::Conn,
}

/// The serving crate's loopback: a client of a shared [`ServerCore`].
pub type LoopbackTransport = Loopback<ServerCore>;

impl<E: Endpoint> Loopback<E> {
    /// Opens a new connection on `core`.
    pub fn connect(core: &Rc<RefCell<E>>) -> Self {
        let conn = core.borrow_mut().connect();
        Loopback { core: Rc::clone(core), conn }
    }

    /// The endpoint-side connection handle (tests asserting on core state).
    pub fn conn_id(&self) -> E::Conn {
        self.conn
    }
}

impl<E: Endpoint> Transport for Loopback<E> {
    fn send(&mut self, bytes: &[u8]) -> Result<()> {
        self.core.borrow_mut().feed(self.conn, bytes)
    }

    fn recv(&mut self, out: &mut Vec<u8>) -> Result<usize> {
        let mut core = self.core.borrow_mut();
        let mut chunk = core.drain(self.conn)?;
        if chunk.is_empty() {
            // Nothing resolved yet: settle the group-commit queue, which
            // is exactly what the TCP engine thread does when its inbox
            // goes quiet.
            core.settle()?;
            chunk = core.drain(self.conn)?;
        }
        let n = chunk.len();
        if out.is_empty() {
            // Nothing to append to: hand the bytes over as they are.
            *out = chunk;
        } else {
            out.extend_from_slice(&chunk);
        }
        Ok(n)
    }
}

impl<E: Endpoint> Drop for Loopback<E> {
    fn drop(&mut self) {
        self.core.borrow_mut().disconnect(self.conn);
    }
}

/// Real-socket transport for [`TcpServer`](crate::tcp::TcpServer) (or any
/// RESP-speaking peer).
pub struct TcpTransport {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl TcpTransport {
    /// Connects to `addr` (e.g. `"127.0.0.1:6399"`).
    ///
    /// # Errors
    ///
    /// [`noblsm::Error::Io`] on connect failure.
    pub fn connect(addr: &str) -> Result<TcpTransport> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpTransport { stream, buf: vec![0u8; 64 << 10] })
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, bytes: &[u8]) -> Result<()> {
        self.stream.write_all(bytes)?;
        Ok(())
    }

    fn recv(&mut self, out: &mut Vec<u8>) -> Result<usize> {
        let n = self.stream.read(&mut self.buf)?;
        out.extend_from_slice(&self.buf[..n]);
        Ok(n)
    }
}
